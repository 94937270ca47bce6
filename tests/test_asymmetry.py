import math

import numpy as np
import pytest

from fklab import asymmetry, fem
from fklab.asymmetry import (PolarOverlap, alpha, ball_energy, ball_overlaps,
                             ball_penalized_energy, beta_const, eta_threshold,
                             f_eta, fraenkel, radial_coercivity, unit_ball_volume)
from fklab.circle import BoundaryProfile
from fklab.domain import (NotStarShapedError, StarDomain, barycenter, ellipse,
                          profile_relative_to, unit_disk, volume_corrected,
                          volume_corrected_profile)
from fklab.stability import SweepSpec, build_family, random_near_sphere_profile

from oracles import (mc_alpha, polished_minimum, refit_alpha, sym_diff_fraction,
                     two_disks_symmetric_difference)

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

    def test_step_cap_raises_naming_the_start(self, monkeypatch):
        # the barycenter run needs no step (the gradient vanishes at the
        # ellipse's center); the first axial run needs more than one
        monkeypatch.setattr(asymmetry, "_MAX_BFGS_STEPS", 1)
        with pytest.raises(fem.SolverError, match=r"from the barycenter \+ \(0\.25, 0\) "
                                                  r"stopped at the cap of 1 steps: "
                                                  r"gradient inf-norm 0\.\d+ > 1e-05"):
            fraenkel(ellipse(0.1))


def rosenbrock(x):
    a, b = x
    return ((1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2,
            np.array([-2.0 * (1.0 - a) - 400.0 * a * (b - a * a), 200.0 * (b - a * a)]))


class TestBFGS:
    def test_rosenbrock_minimum(self):
        value, x = asymmetry._bfgs(rosenbrock, np.array([-1.2, 1.0]), "the test start")
        assert np.max(np.abs(rosenbrock(x)[1])) <= asymmetry._BFGS_GTOL
        assert x == pytest.approx([1.0, 1.0], abs=1e-6)
        assert value == rosenbrock(x)[0] < 1e-12

    def test_crease_stops_on_it(self):
        # |x| + (y - 0.3)^2: every line search that crosses x = 0 zooms onto
        # the crease and finds no Wolfe step, so the run stops there
        def crease(x):
            return abs(x[0]) + (x[1] - 0.3) ** 2, np.array([np.sign(x[0]), 2.0 * (x[1] - 0.3)])
        start = np.array([0.7, -0.2])
        value, x = asymmetry._bfgs(crease, start, "the test start")
        assert value == crease(x)[0] < 1e-3 < crease(start)[0]
        assert abs(x[0]) < 1e-6

    def test_cubic_step_safeguard(self):
        # the cubic through x^3 - x at 0 and 2 has its minimizer at
        # 1/sqrt(3); one outside the middle 96% falls back to the midpoint
        assert asymmetry._cubic_step(0.0, 0.0, -1.0, 2.0, 6.0, 11.0) == pytest.approx(
            1.0 / math.sqrt(3.0), rel=1e-14)
        assert asymmetry._cubic_step(0.0, 0.0, 1.0, 1.0, 2.0, 3.0) == 0.5


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

    @pytest.mark.parametrize("make", [
        unit_disk,
        lambda: ellipse(0.2),
        lambda: StarDomain((0, 0), random_near_sphere_profile(np.random.default_rng(20), 0.04)),
    ], ids=["unit-disk", "ellipse-0.2", "random"])
    def test_tables_match_profile(self, make):
        # phi and the antiderivative of r^2 / 2 from one cos/sin table, and g
        # and g' from g's own coefficients, against the profile's Horner
        # evaluation, its exact derivative, and the series of the sampled
        # r^2 / 2 integrated mode by mode
        d = make()
        p = d.profile
        overlap = PolarOverlap(d)
        grid = np.linspace(0.0, 2.0 * PI, 1024, endpoint=False)
        coeffs = np.fft.rfft(0.5 * (1.0 + p.values(grid)) ** 2) / len(grid)
        m = np.arange(1, 2 * p.max_mode + 1)
        a_m, b_m = 2.0 * coeffs[m].real, -2.0 * coeffs[m].imag
        antiderivative = BoundaryProfile(0.0, -b_m / m, a_m / m)
        theta = np.random.default_rng(7).uniform(-PI, 3.0 * PI, 200)
        cos, sin, phi, swept = overlap._series(theta)
        pairs = [(cos, np.cos(theta)), (sin, np.sin(theta)), (phi, p.values(theta)),
                 (swept, coeffs[0].real * theta + antiderivative.values(theta))]
        phi, dphi = p.values(theta), p.derivative().values(theta)
        for c in ((0.0, 0.0), (0.2, -0.1), (1.3, 0.8)):
            v = np.asarray(c)
            row = np.array([1.0, *v])
            g, dg = overlap._g(theta, row @ overlap._g_const + v @ v,
                               (row @ overlap._g_basis).reshape(len(overlap._k), 4))
            a, da = v @ [np.cos(theta), np.sin(theta)], v @ [-np.sin(theta), np.cos(theta)]
            pairs += [(g, phi * (2.0 + phi) - 2.0 * (1.0 + phi) * a + v @ v),
                      (dg, 2.0 * dphi * (1.0 + phi - a) - 2.0 * (1.0 + phi) * da)]
        for got, ref in pairs:
            assert np.max(np.abs(got - ref)) <= 1e-15 * max(1.0, np.max(np.abs(ref)))

    def test_translation_covariance(self):
        d = StarDomain((0, 0), volume_corrected_profile(3, 0.15))
        moved = PolarOverlap(d.translated(0.37, -0.58))
        base = PolarOverlap(d)
        for c in ((0.1, 0.05), (0.9, -0.4), (-1.2, 0.3)):
            shifted = (c[0] + 0.37, c[1] - 0.58)
            assert moved.area(shifted) == pytest.approx(base.area(c), rel=1e-12)


# the refit about the barycenter misses the boundary by 4.4e-4 at 4(K + 8) =
# 48 modes and resolves at 384
LATE_REFIT = StarDomain((0, 0), BoundaryProfile(0.0, [0.031, -0.033, 0.16, 0.026],
                                                [-0.134, 0.09, 0.326, 0.237]))
# the boundary angle about the barycenter is not monotone, so no refit exists
NO_REFIT = StarDomain((0, 0), BoundaryProfile(0.0, [-0.136, -0.079, 0.103, 0.261],
                                              [-0.032, 0.342, -0.166, 0.088]))


def alpha_shapes():
    shapes = [ellipse(e) for e in (0.02, 0.1, 0.2, 0.5)]
    shapes += [StarDomain((0, 0), volume_corrected_profile(k, s))
               for k, s in ((2, 0.1), (3, 0.15), (5, 0.06), (8, 0.05))]
    rng = np.random.default_rng(20)
    shapes += [StarDomain((0, 0), random_near_sphere_profile(rng, rng.uniform(0.01, 0.05)))
               for _ in range(20)]
    return shapes + [d.translated(0.37, -0.58) for d in shapes[:8]]


class TestAlpha:
    def test_monte_carlo_oracle_on_mode_profile(self):
        p = volume_corrected_profile(3, 0.15)
        d = StarDomain((0, 0), p)
        val = alpha(d)
        mc, _ = mc_alpha(lambda t: 1.0 + p.values(t), (0.0, 0.0), n=4_000_000)
        assert abs(val - mc) < 3e-4

    def test_matches_refit_oracle(self):
        # ellipses, mode-k profiles, 20 seeded near-spheres and translates
        worst = max(abs(alpha(d) - refit_alpha(d)) for d in alpha_shapes())
        assert worst <= 1e-14

    def test_defined_where_the_refit_fails(self):
        d = NO_REFIT
        with pytest.raises(NotStarShapedError):
            refit_alpha(d)
        p = d.profile
        mc, stderr = mc_alpha(lambda t: 1.0 + p.values(t), barycenter(d), n=4_000_000)
        assert stderr < 1e-3
        assert abs(alpha(d) - mc) <= 3.0 * stderr

    def test_matches_a_refit_of_384_modes(self):
        d = LATE_REFIT
        assert profile_relative_to(d, barycenter(d)).max_mode == 384
        assert abs(alpha(d) - refit_alpha(d)) <= 1e-14

    def test_unresolved_boundary_integral_raises(self, monkeypatch):
        # 32 of the 4-mode profile's angles miss the integral by 8.4e-7
        d = NO_REFIT
        monkeypatch.setattr(asymmetry, "_ALPHA_MIN_GRID", 16)
        with pytest.raises(fem.SolverError, match="on 32 angles.* on 64"):
            alpha(d)

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

    def test_large_eta_migrates_minimum(self):
        r_min, c4 = radial_coercivity(0.9, self.grid())
        assert r_min != 1.0
        assert c4 == math.inf
