import math

import numpy as np
import pytest

from fklab.circle import (BoundaryProfile, boundary_l2_sq, extension_energy,
                          h_half_norm_sq, hessian_form, low_mode_projection,
                          mode_rayleigh, steklov_min_rayleigh)

from conftest import random_profile
from oracles import (boundary_l2_quadrature, extension_energy_quadrature,
                     profile_values_table)

PI = math.pi


class TestExtensionEnergy:
    def test_constant_has_zero_energy(self):
        assert extension_energy(BoundaryProfile.constant(7.0)) == 0.0

    def test_cos_3theta(self):
        p = BoundaryProfile.single_mode(3, cos_amp=1.0)
        assert extension_energy(p) == pytest.approx(3 * PI, rel=1e-15)
        assert extension_energy(p) == pytest.approx(
            extension_energy_quadrature(p), rel=1e-12)

    def test_mixed_modes(self):
        p = (BoundaryProfile.single_mode(1, cos_amp=1.0)
             + BoundaryProfile.single_mode(2, sin_amp=2.0))
        assert extension_energy(p) == pytest.approx(9 * PI, rel=1e-15)
        assert extension_energy(p) == pytest.approx(
            extension_energy_quadrature(p), rel=1e-12)

    def test_independent_of_constant_mode(self, rng):
        p = random_profile(rng)
        assert extension_energy(p) == extension_energy(p.with_a0(3.7))

    def test_quadrature_oracle_on_random_profiles(self, rng):
        for _ in range(10):
            p = random_profile(rng, kmax=8)
            assert extension_energy(p) == pytest.approx(
                extension_energy_quadrature(p), rel=1e-11, abs=1e-13)


class TestHHalfNorm:
    def test_zero_profile(self):
        assert h_half_norm_sq(BoundaryProfile.zero()) == 0.0

    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_single_cosine(self, k):
        p = BoundaryProfile.single_mode(k, cos_amp=1.0)
        assert h_half_norm_sq(p) == pytest.approx((k + 1) * PI, rel=1e-15)

    def test_constant_one(self):
        assert h_half_norm_sq(BoundaryProfile.constant(1.0)) == pytest.approx(
            2 * PI, rel=1e-15)

    def test_positive_unless_zero(self, rng):
        for _ in range(20):
            p = random_profile(rng)
            assert (h_half_norm_sq(p) > 0.0) == (
                p.a0 != 0.0 or p.max_mode > 0)

    def test_boundary_term_matches_quadrature(self, rng):
        for _ in range(5):
            p = random_profile(rng, kmax=8)
            assert boundary_l2_sq(p) == pytest.approx(
                boundary_l2_quadrature(p), rel=1e-12)


class TestHessianForm:
    def test_translation_mode_is_flat(self):
        assert hessian_form(BoundaryProfile.single_mode(1, cos_amp=1.0)) == 0.0

    def test_cos_2theta(self):
        p = BoundaryProfile.single_mode(2, cos_amp=1.0)
        assert hessian_form(p) == pytest.approx(PI / 4, rel=1e-15)

    def test_constant_direction_is_negative(self):
        assert hessian_form(BoundaryProfile.constant(1.0)) == pytest.approx(
            -PI / 2, rel=1e-15)



class TestLowModeProjection:
    def test_high_mode_passthrough(self):
        p = BoundaryProfile.single_mode(2, cos_amp=1.0)
        split = low_mode_projection(p)
        assert h_half_norm_sq(split.low) == 0.0
        assert h_half_norm_sq(split.high - p) == 0.0

    def test_low_mode_passthrough(self):
        p = BoundaryProfile.single_mode(1, cos_amp=1.0, a0=3.0)
        split = low_mode_projection(p)
        assert h_half_norm_sq(split.high) == 0.0
        assert h_half_norm_sq(split.low - p) == 0.0

    def test_mixed(self):
        p = BoundaryProfile.single_mode(3, cos_amp=1.0, a0=1.0)
        split = low_mode_projection(p)
        assert split.low.a0 == 1.0 and split.low.max_mode <= 1
        assert split.high.a0 == 0.0
        assert h_half_norm_sq(split.high) == pytest.approx(4 * PI, rel=1e-15)


class TestSteklov:
    def test_minimum_is_two_exactly(self):
        assert steklov_min_rayleigh(2) == 2.0
        assert steklov_min_rayleigh(32) == 2.0

    def test_restricted_minimum(self):
        assert steklov_min_rayleigh(32, min_mode=3) == 3.0

    def test_mode_quotients(self):
        for k in range(2, 12):
            assert mode_rayleigh(k) == pytest.approx(k, rel=1e-14)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            steklov_min_rayleigh(1)
        with pytest.raises(ValueError):
            steklov_min_rayleigh(5, min_mode=1)


class TestCoercivity:
    """The coercivity margin hessian_form / h_half_norm_sq."""

    def test_mode_two(self):
        p = BoundaryProfile.single_mode(2, cos_amp=1.0)
        margin = hessian_form(p) / h_half_norm_sq(p)
        assert margin == pytest.approx(1 / 12, rel=1e-14)
        assert margin >= 1 / 32

    def test_mode_five(self):
        p = BoundaryProfile.single_mode(5, cos_amp=1.0)
        assert hessian_form(p) / h_half_norm_sq(p) == pytest.approx(
            1 / 6, rel=1e-14)

    def test_translation_direction_excluded(self):
        p = BoundaryProfile.single_mode(1, cos_amp=1.0)
        assert hessian_form(p) / h_half_norm_sq(p) == 0.0

    def test_bounded_by_one(self, rng):
        for _ in range(50):
            p = random_profile(rng)
            if h_half_norm_sq(p) == 0.0:
                continue
            assert -1.0 <= hessian_form(p) / h_half_norm_sq(p) <= 1.0

    def test_high_mode_lower_bound(self, rng):
        # on mean-free, moment-free profiles the margin is >= 1/16,
        # with the minimum 1/12 attained in the lowest surviving mode
        margins = []
        for _ in range(100):
            p = random_profile(rng, kmax=12)
            high = low_mode_projection(p).high
            if h_half_norm_sq(high) == 0.0:
                continue
            margins.append(hessian_form(high) / h_half_norm_sq(high))
        assert min(margins) >= 1 / 16
        mode2 = BoundaryProfile.single_mode(2, sin_amp=0.3)
        assert hessian_form(mode2) / h_half_norm_sq(mode2) == pytest.approx(
            1 / 12, rel=1e-14)

    def test_near_moment_free_keeps_quarter_of_bound(self, rng):
        # small mean/moment contamination cannot push the margin below 1/32
        def defect(p):
            # (|int phi| + |int x1 phi| + |int x2 phi|) / ||phi||_{H^{1/2}}
            moments = (abs(2 * PI * p.a0) + abs(PI * p.cos_coeffs[0])
                       + abs(PI * p.sin_coeffs[0]))
            return moments / math.sqrt(h_half_norm_sq(p))

        for _ in range(50):
            high = low_mode_projection(random_profile(rng, kmax=10)).high
            if h_half_norm_sq(high) == 0.0:
                continue
            low = BoundaryProfile.single_mode(1, cos_amp=0.3, sin_amp=-0.2,
                                              a0=0.25)
            # scale the contamination to a defect of at most 0.02
            mixed = high + low * 1e-3
            while defect(mixed) > 0.02:
                low = low * 0.5
                mixed = high + low * 1e-3
            assert hessian_form(mixed) / h_half_norm_sq(mixed) >= 1 / 32


class TestSerialization:
    def test_record_roundtrip(self, rng):
        for _ in range(20):
            p = random_profile(rng)
            q = BoundaryProfile.from_record(p.to_record())
            assert q.a0 == p.a0
            assert np.array_equal(q.cos_coeffs, p.cos_coeffs)
            assert np.array_equal(q.sin_coeffs, p.sin_coeffs)

    def test_example_record(self):
        p = BoundaryProfile.from_record("0 2:0.05:0")
        assert p.a0 == 0.0 and p.max_mode == 2
        assert p.cos_coeffs[1] == 0.05

    def test_malformed_records(self):
        with pytest.raises(ValueError):
            BoundaryProfile.from_record("")
        with pytest.raises(ValueError):
            BoundaryProfile.from_record("0 2:1")
        with pytest.raises(ValueError):
            BoundaryProfile.from_record("0 0:1:1")


class TestProfileBasics:
    def test_sup_norm_estimator_dominates_grid(self, rng):
        for _ in range(20):
            p = random_profile(rng, kmax=6)
            assert p.sup_norm_bound() >= p.grid_sup() - 1e-12

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            BoundaryProfile(math.nan, np.zeros(1), np.zeros(1))
        with pytest.raises(ValueError):
            BoundaryProfile(0.0, np.array([math.inf]), np.zeros(1))

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            BoundaryProfile(0.0, np.zeros(2), np.zeros(3))

    def test_derivative_matches_central_difference(self, rng):
        p = random_profile(rng, kmax=6)
        theta = np.linspace(0.0, 2 * PI, 17)
        h = 1e-5
        fd = (p.values(theta + h) - p.values(theta - h)) / (2 * h)
        assert np.max(np.abs(p.derivative().values(theta) - fd)) < 1e-8
        assert BoundaryProfile.constant(0.3).derivative().values(theta) == pytest.approx(0.0)

    @pytest.mark.parametrize("kmax", [1, 2, 8, 32, 128])
    def test_values_match_mode_tables(self, rng, kmax):
        theta = np.concatenate([rng.uniform(-2 * PI, 4 * PI, 2000),
                                np.linspace(0.0, 2 * PI, 97), [0.0, PI, 2 * PI]])
        for _ in range(5):
            p = BoundaryProfile(float(rng.standard_normal()), rng.standard_normal(kmax),
                                rng.standard_normal(kmax))
            err = np.max(np.abs(p.values(theta) - profile_values_table(p, theta)))
            assert err <= 1e-14 * (1.0 + p.sup_norm_bound())
        assert p.values(0.5).shape == ()
        assert p.values(np.zeros((2, 3))).shape == (2, 3)
