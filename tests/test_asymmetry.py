import math

import numpy as np
import pytest

from fklab import fem
from fklab.asymmetry import (PolarOverlap, alpha, annular_lower_bound,
                             asymmetry_report, ball_energy, ball_overlaps,
                             ball_penalized_energy, beta_const, eta_threshold,
                             f_eta, fraenkel, penalized_F, penalized_G,
                             radial_coercivity, sym_diff_fraction,
                             unit_ball_volume)
from fklab.circle import boundary_l2_sq
from fklab.domain import (StarDomain, ellipse, unit_disk,
                          volume_corrected_profile)
from fklab.stability import random_near_sphere_profile

from oracles import mc_alpha, two_disks_symmetric_difference

PI = math.pi


class TestBallConstants:
    def test_unit_ball_volumes(self):
        assert unit_ball_volume(2) == pytest.approx(PI, rel=1e-15)
        assert unit_ball_volume(3) == pytest.approx(4 * PI / 3, rel=1e-15)

    def test_ball_energy(self):
        assert ball_energy(2) == pytest.approx(-PI / 16, rel=1e-15)
        assert ball_energy(2, 2.0) == pytest.approx(-PI, rel=1e-15)
        assert ball_energy(3) == pytest.approx(-(4 * PI / 3) / 30, rel=1e-15)

    def test_beta_values(self):
        assert beta_const(2) == pytest.approx(PI / 3, abs=1e-15)
        assert beta_const(3) == pytest.approx(PI / 3, abs=1e-15)
        with pytest.raises(ValueError):
            beta_const(1)

    def test_beta_quadrature_crosscheck(self):
        nodes, weights = np.polynomial.legendre.leggauss(40)
        r = 0.5 * (nodes + 1)
        quad = 2 * PI * 0.5 * float(np.sum(weights * (1 - r) * r))
        assert abs(quad - beta_const(2)) < 1e-10


class TestFraenkel:
    def test_disk_is_symmetric_point(self):
        val, center = fraenkel(unit_disk())
        assert val < 1e-6
        assert np.hypot(*center) < 1e-3

    def test_translated_disk(self):
        val, center = fraenkel(unit_disk(center=(0.4, -0.7)))
        assert val < 1e-6
        assert center == pytest.approx([0.4, -0.7], abs=1e-3)

    def test_forced_center_lens_value(self):
        # diagnostic mode: no optimization, unit disk evaluated at (0.5, 0)
        got = PolarOverlap(unit_disk()).sym_diff_fraction((0.5, 0.0))
        exact = two_disks_symmetric_difference(0.5) / PI
        assert exact == pytest.approx(0.6299247150514148, rel=1e-12)
        assert got == pytest.approx(exact, rel=1e-12)

    def test_ellipse_proportional_to_eps(self):
        ratios = []
        for eps in (0.05, 0.1, 0.2):
            val, _ = fraenkel(ellipse(eps))
            ratios.append(val / eps)
        assert max(ratios) / min(ratios) < 1.15

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            fraenkel(unit_disk(1.2))

    def test_value_in_range(self):
        d = StarDomain((0, 0), volume_corrected_profile(3, 0.15))
        val, _ = fraenkel(d)
        assert 0.0 <= val < 2.0


class TestPolarOverlap:
    @pytest.mark.parametrize("offset", [0.0, 0.3, 0.5, 1.0, 1.5, 1.99, 2.5])
    def test_unit_disk_lens(self, offset):
        # offsets past 1 put the domain's center outside the disk, where
        # both chord ends rho_-, rho_+ are positive and tangent rays exist
        overlap = PolarOverlap(unit_disk(center=(0.2, -0.1)))
        c = (0.2 + offset * 0.6, -0.1 + offset * 0.8)
        exact = two_disks_symmetric_difference(offset) / PI
        assert overlap.sym_diff_fraction(c) == pytest.approx(exact, rel=1e-12,
                                                             abs=1e-14)

    def test_containment(self):
        small = PolarOverlap(unit_disk(0.5))
        assert small.area((0.2, 0.1)) == pytest.approx(0.25 * PI, rel=1e-12)
        big = PolarOverlap(unit_disk(1.5))
        assert big.area((0.3, -0.2)) == pytest.approx(PI, rel=1e-12)

    @pytest.mark.parametrize("d", [ellipse(0.1),
                                   StarDomain((0, 0), volume_corrected_profile(5, 0.06))],
                             ids=["ellipse", "mode-5"])
    def test_mesh_richardson_cross_check(self, d):
        # the mesh value carries the O(h^2) bias of the polygonal boundary;
        # extrapolating it over rings 64/128 must recover the exact overlap
        c = (0.07, -0.03)
        m64, m128 = (sym_diff_fraction(fem.polar_mesh(d, r), c) for r in (64, 128))
        exact = PolarOverlap(d).sym_diff_fraction(c)
        assert (4.0 * m128 - m64) / 3.0 == pytest.approx(exact, rel=1e-6)

    def test_translation_covariance(self):
        d = StarDomain((0, 0), volume_corrected_profile(3, 0.15))
        moved = PolarOverlap(d.translated(0.37, -0.58))
        base = PolarOverlap(d)
        for c in ((0.1, 0.05), (0.9, -0.4), (-1.2, 0.3)):
            shifted = (c[0] + 0.37, c[1] - 0.58)
            assert moved.area(shifted) == pytest.approx(base.area(c), rel=1e-12)


class TestAlpha:
    def test_unit_disks_vanish(self):
        for center in ((0.0, 0.0), (0.7, -0.2), (-0.3, 0.5)):
            assert abs(alpha(unit_disk(center=center))) <= 1e-9

    def test_dilated_disks_closed_form(self):
        for r in (1.1, 0.9):
            expected = PI / 3 + 2 * PI * (r ** 3 / 3 - r ** 2 / 2)
            assert alpha(unit_disk(r)) == pytest.approx(expected, abs=1e-12)

    def test_monte_carlo_oracle_on_mode_profile(self):
        p = volume_corrected_profile(3, 0.15)
        d = StarDomain((0, 0), p)
        val = alpha(d)
        mc = mc_alpha(lambda t: 1.0 + p.values(t), (0.0, 0.0), n=4_000_000)
        assert abs(val - mc) < 3e-4

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = random_near_sphere_profile(rng, 0.04)
            assert alpha(StarDomain((0, 0), p)) >= -1e-12


class TestAlphaProperties:
    def test_translation_invariance(self):
        d = StarDomain((0, 0), volume_corrected_profile(2, 0.08))
        moved = d.translated(0.37, -0.58)
        assert abs(alpha(d) - alpha(moved)) <= 1e-9
        a0, _ = fraenkel(d)
        a1, _ = fraenkel(moved)
        assert abs(a0 - a1) <= 1e-9

    def test_annular_bound_below_alpha(self):
        for d in (ellipse(0.1), ellipse(0.2),
                  StarDomain((0, 0), volume_corrected_profile(2, 0.1)),
                  StarDomain((0, 0), volume_corrected_profile(5, 0.06))):
            outside, missing = ball_overlaps(d)
            assert annular_lower_bound(outside, missing) <= alpha(d) + 1e-8

    def test_quadratic_domination_of_symmetric_difference(self):
        # alpha controls the squared symmetric difference with a uniform
        # constant on the test families
        ratios = []
        for d in (ellipse(0.1), ellipse(0.2),
                  StarDomain((0, 0), volume_corrected_profile(3, 0.1))):
            outside, missing = ball_overlaps(d)
            sym = outside + missing
            ratios.append(sym ** 2 / alpha(d))
        assert max(ratios) < 40.0  # bounded across the family

    def test_lipschitz_on_nested_disks(self):
        rads = np.linspace(0.8, 1.9, 12)
        for r1, r2 in zip(rads[:-1], rads[1:]):
            da = abs(alpha(unit_disk(r1)) - alpha(unit_disk(r2)))
            dv = PI * (r2 ** 2 - r1 ** 2)
            assert da <= 6.0 * dv

    def test_nearly_spherical_quadratic_upper_bound(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            p = random_near_sphere_profile(rng, rng.uniform(0.01, 0.05))
            val = alpha(StarDomain((0, 0), p))
            assert val <= 0.75 * boundary_l2_sq(p)


class TestFEta:
    def test_vanishes_at_ball_volume(self):
        assert f_eta(PI, 0.2) == 0.0

    def test_above(self):
        assert f_eta(PI + 0.1, 0.2) == pytest.approx(0.5, rel=1e-12)

    def test_below(self):
        assert f_eta(PI - 0.1, 0.2) == pytest.approx(-0.02, rel=1e-12)

    def test_sandwich_property(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            eta = rng.uniform(0.05, 1.0)
            s2 = rng.uniform(0.0, 8.0)
            s1 = s2 + rng.uniform(0.0, 8.0)
            diff = f_eta(s1, eta) - f_eta(s2, eta)
            assert eta * (s1 - s2) - 1e-12 <= diff <= (s1 - s2) / eta + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            f_eta(1.0, 0.0)
        with pytest.raises(ValueError):
            f_eta(-1.0, 0.5)


class TestPenalizedFunctionals:
    def test_disk_reduces_to_energy(self):
        val = penalized_F(unit_disk(), eta=0.05, rings=64)
        assert abs(val / (-PI / 16) - 1.0) < 5e-3

    def test_scaled_disk_matches_radial_closed_form(self):
        r = 1.15
        val = penalized_F(unit_disk(r), eta=0.05, rings=64)
        expected = ball_penalized_energy(r, 0.05)
        assert abs(val - expected) < 5e-3 * abs(expected)

    def test_normalized_ellipse_has_no_penalty(self):
        eta = 0.05
        val = penalized_F(ellipse(0.1), eta, rings=64)
        u, _ = fem.solve_torsion(fem.polar_mesh(ellipse(0.1), 64))
        assert val == pytest.approx(fem.energy_of(u), rel=1e-12)

    def test_penalized_G_collapses_at_alpha_eq_eps(self):
        d = StarDomain((0, 0), volume_corrected_profile(2, 0.1))
        eps = alpha(d)
        val = penalized_G(d, eta=0.05, eps=eps, sigma=0.5, rings=48)
        assert val == pytest.approx(penalized_F(d, 0.05, rings=48) + eps,
                                    rel=1e-12)

    def test_penalized_G_disk_value(self):
        val = penalized_G(unit_disk(), eta=0.05, eps=0.1, sigma=0.5, rings=48)
        base = penalized_F(unit_disk(), 0.05, rings=48)
        assert val - base == pytest.approx(math.sqrt(0.01 + 0.25 * 0.01),
                                           rel=1e-12)

    def test_penalized_G_lipschitz_in_alpha(self):
        eps, sigma = 0.05, 0.4
        doms = [unit_disk(), ellipse(0.1),
                StarDomain((0, 0), volume_corrected_profile(2, 0.1))]
        vals = [(penalized_F(d, 0.05, rings=48), alpha(d),
                 penalized_G(d, 0.05, eps, sigma, rings=48)) for d in doms]
        for f1, a1, g1 in vals:
            for f2, a2, g2 in vals:
                assert abs(g1 - g2) <= abs(f1 - f2) + sigma * abs(a1 - a2) + 1e-12

    def test_penalized_G_validation(self):
        with pytest.raises(ValueError):
            penalized_G(unit_disk(), 0.05, eps=0.0, sigma=0.5)
        with pytest.raises(ValueError):
            penalized_G(unit_disk(), 0.05, eps=0.1, sigma=1.5)


class TestRadialCoercivity:
    def grid(self):
        return np.linspace(0.05, 2.0, 391)  # contains r = 1 exactly

    def test_g_at_one_is_ball_energy(self):
        assert ball_penalized_energy(1.0, 0.03) == pytest.approx(-PI / 16,
                                                                 rel=1e-15)

    def test_threshold_value(self):
        # right-slope condition allows eta < 2 at R = 2; the r -> 0 endpoint
        # is the binding constraint: |E(B_1)| / omega_2 = 1/16
        assert eta_threshold(2, 2.0) == pytest.approx(1 / 16, rel=1e-14)

    def test_half_threshold_minimum_at_one(self):
        eta = eta_threshold(2, 2.0) / 2
        r_min, c4 = radial_coercivity(eta, self.grid())
        assert r_min == 1.0
        assert 0.0 < c4 < math.inf

    def test_large_eta_migrates_minimum(self):
        r_min, c4 = radial_coercivity(0.9, self.grid())
        assert r_min != 1.0
        assert c4 == math.inf

    def test_one_sided_slopes(self):
        eta = eta_threshold(2, 2.0) / 2
        g1 = ball_penalized_energy(1.0, eta)
        for r in (0.96, 0.98, 1.02, 1.04):
            gap = ball_penalized_energy(r, eta) - g1
            assert gap / abs(r - 1.0) > 0.0


class TestAsymmetryReport:
    def test_report_fields(self):
        rep = asymmetry_report(ellipse(0.1))
        assert 0.0 <= rep.fraenkel < 2.0
        assert rep.alpha >= 0.0
        assert rep.sym_diff_to_unit_ball_at_barycenter >= rep.fraenkel - 1e-12
        assert rep.center_tol == 1e-6
