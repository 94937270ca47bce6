import math

import numpy as np
import pytest

from fklab import fem
from fklab.asymmetry import (PolarOverlap, alpha, ball_energy, ball_overlaps,
                             ball_penalized_energy, beta_const, eta_threshold,
                             f_eta, fraenkel, radial_coercivity,
                             sym_diff_fraction, unit_ball_volume)
from fklab.circle import BoundaryProfile
from fklab.domain import (StarDomain, barycenter, ellipse, unit_disk,
                          volume_corrected, volume_corrected_profile)
from fklab.stability import SweepSpec, build_family, random_near_sphere_profile

from oracles import mc_alpha, polished_minimum, two_disks_symmetric_difference

PI = math.pi


def sweep_member(name):
    """The named member of the default combined sweep."""
    return next(d for member, _, _, d in build_family(SweepSpec()) if member == name)


def peanut():
    """A two-mode shape whose lowest basin BFGS from the barycenter misses."""
    return StarDomain((0.0, 0.0),
                      volume_corrected(BoundaryProfile(0.0, [0.0, 0.35, 0.0, -0.2], [0.0] * 4)))


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

    def test_at_most_barycenter_sym_diff(self):
        # the infimum over centers is at most its value at the barycenter
        d = ellipse(0.1)
        val, _ = fraenkel(d)
        assert val <= PolarOverlap(d).sym_diff_fraction(barycenter(d)) + 1e-12

    @pytest.mark.parametrize("make, tol", [
        (lambda: ellipse(0.1), 1e-12),
        (lambda: StarDomain((0, 0), volume_corrected_profile(3, 0.15)), 1e-12),
        (lambda: sweep_member("random-32"), 1e-12),
        (peanut, 1e-12),
        # its minimum lies on a crease, where a tangency adds two crossings
        # and the one-sided derivatives differ
        (lambda: sweep_member("random-13"), 1e-8),
    ], ids=["ellipse-0.1", "mode-3", "random-32", "peanut", "random-13"])
    def test_matches_polished_reference(self, make, tol):
        d = make()
        val, center = fraenkel(d)
        overlap = PolarOverlap(d)
        assert val == pytest.approx(overlap.sym_diff_fraction(center), abs=1e-15)
        assert abs(val - polished_minimum(overlap.sym_diff_fraction, center)) <= tol

    def test_no_overestimate_on_random_38(self):
        # a search whose start simplex has no width in a zero coordinate
        # stops at 0.0116413 on this member
        val, _ = fraenkel(sweep_member("random-38"))
        assert val <= 0.011272795

    def test_peanut_takes_the_lowest_basin(self):
        # BFGS from the barycenter alone stops 2.7e-3 higher, in another basin
        val, _ = fraenkel(peanut())
        assert val <= 0.4333395033


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

    @pytest.mark.parametrize("make", [
        lambda: ellipse(0.1),
        lambda: StarDomain((0, 0), volume_corrected_profile(3, 0.15)),
        lambda: sweep_member("random-13"),
        peanut,
        lambda: unit_disk(1.5),
    ], ids=["ellipse-0.1", "mode-3", "random-13", "peanut", "containing-disk"])
    def test_center_gradient_matches_central_differences(self, make):
        overlap = PolarOverlap(make())
        rng = np.random.default_rng(18)
        h = 1e-6
        for c in rng.uniform(-0.3, 0.3, (6, 2)):
            area, grad = overlap.area_and_gradient(c)
            assert area == overlap.area(c)
            fd = [(overlap.area(c + h * e) - overlap.area(c - h * e)) / (2.0 * h)
                  for e in np.eye(2)]
            assert grad == pytest.approx(fd, abs=1e-7)

    def test_translation_covariance(self):
        d = StarDomain((0, 0), volume_corrected_profile(3, 0.15))
        moved = PolarOverlap(d.translated(0.37, -0.58))
        base = PolarOverlap(d)
        for c in ((0.1, 0.05), (0.9, -0.4), (-1.2, 0.3)):
            shifted = (c[0] + 0.37, c[1] - 0.58)
            assert moved.area(shifted) == pytest.approx(base.area(c), rel=1e-12)


class TestAlpha:
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


class TestFEta:
    def test_vanishes_at_ball_volume(self):
        assert f_eta(PI, 0.2) == 0.0

    def test_above(self):
        assert f_eta(PI + 0.1, 0.2) == pytest.approx(0.5, rel=1e-12)

    def test_below(self):
        assert f_eta(PI - 0.1, 0.2) == pytest.approx(-0.02, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            f_eta(1.0, 0.0)
        with pytest.raises(ValueError):
            f_eta(-1.0, 0.5)


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
