import math
import tracemalloc

import numpy as np
import pytest

from fklab.circle import BoundaryProfile, h_half_norm_sq
from fklab.domain import (NotStarShapedError, StarDomain, barycenter,
                          ellipse, fit_profile, profile_relative_to,
                          recenter_rescale, unit_disk, volume, volume_corrected,
                          volume_corrected_profile, volume_flow)

from conftest import random_profile
from oracles import polygon_area, polygon_centroid

PI = math.pi


def dense_boundary(d, n=20000):
    theta = np.linspace(0.0, 2 * PI, n, endpoint=False)
    return d.boundary_points(theta)


class TestVolume:
    def test_unit_disk(self):
        assert volume(unit_disk()) == pytest.approx(PI, rel=1e-15)

    def test_scaled_disk(self):
        assert volume(unit_disk(1.3)) == pytest.approx(PI * 1.69, rel=1e-14)

    def test_single_mode(self):
        d = StarDomain((0, 0), BoundaryProfile.single_mode(3, cos_amp=0.2))
        assert volume(d) == pytest.approx(1.02 * PI, rel=1e-14)

    def test_matches_polygon_oracle(self, rng):
        for _ in range(5):
            p = random_profile(rng, kmax=5, scale=0.05)
            d = StarDomain((0.3, -0.2), p)
            assert volume(d) == pytest.approx(
                polygon_area(dense_boundary(d)), rel=1e-7)


class TestBarycenter:
    def test_disk_at_origin(self):
        assert np.allclose(barycenter(unit_disk()), 0.0, atol=1e-15)

    def test_translated_disk(self):
        b = barycenter(unit_disk(center=(0.3, -0.1)))
        assert b == pytest.approx([0.3, -0.1], abs=1e-14)

    def test_mode_one_closed_form(self):
        s = 0.1
        d = StarDomain((0, 0), BoundaryProfile.single_mode(1, cos_amp=s))
        expected = s * (1 + s * s / 4) / (1 + s * s / 2)
        assert barycenter(d)[0] == pytest.approx(expected, rel=1e-14)
        assert barycenter(d)[1] == pytest.approx(0.0, abs=1e-15)

    def test_matches_polygon_oracle(self, rng):
        for _ in range(5):
            p = random_profile(rng, kmax=4, scale=0.06)
            d = StarDomain((-0.1, 0.4), p)
            assert barycenter(d) == pytest.approx(
                polygon_centroid(dense_boundary(d)), abs=1e-8)


def decaying_profile(rng, kmax=6, scale=0.08):
    """Random profile whose mode-k coefficients decay like k^-2."""
    k = np.arange(1, kmax + 1)
    return BoundaryProfile(0.05 * rng.standard_normal(),
                           scale * rng.standard_normal(kmax) / k ** 2,
                           scale * rng.standard_normal(kmax) / k ** 2)


class TestProfileRelativeTo:
    def test_same_center_is_identity(self):
        p = BoundaryProfile.single_mode(2, cos_amp=0.1)
        d = StarDomain((0, 0), p)
        q = profile_relative_to(d, (0.0, 0.0))
        assert q is p

    def test_offset_disk_closed_form(self):
        d = unit_disk()
        q = profile_relative_to(d, (0.2, 0.0))
        theta = np.linspace(0, 2 * PI, 181)
        expected = (-0.2 * np.cos(theta)
                    + np.sqrt(1 - 0.04 * np.sin(theta) ** 2))
        assert np.max(np.abs(1 + q.values(theta) - expected)) < 1e-11

    def test_near_barycenter_keeps_profile(self):
        p = BoundaryProfile.single_mode(2, cos_amp=0.05)
        d = StarDomain((0, 0), p)
        q = profile_relative_to(d, barycenter(d))
        theta = np.linspace(0, 2 * PI, 73)
        assert np.max(np.abs(q.values(theta) - p.values(theta))) < 1e-10

    def test_rejects_far_center(self, rng):
        with pytest.raises(NotStarShapedError):
            profile_relative_to(unit_disk(), (1.5, 0.0))
        d = StarDomain((0.3, -0.2), decaying_profile(rng))
        with pytest.raises(NotStarShapedError):
            profile_relative_to(d, (-40.0, 7.0))

    def test_keeps_exact_volume_and_barycenter(self, rng):
        # the boundary about its barycenter and about two off-center points
        for _ in range(4):
            d = StarDomain((0.3, -0.2), decaying_profile(rng))
            b = barycenter(d)
            for c in (b, b + (0.2, 0.1), b - (0.1, 0.25)):
                moved = StarDomain(c, profile_relative_to(d, c))
                assert volume(moved) == pytest.approx(volume(d), abs=1e-13)
                assert np.max(np.abs(barycenter(moved) - b)) <= 1e-13

    def test_resolves_center_near_the_boundary(self):
        # 0.19 inside the boundary, checked far between the sum's points
        d = ellipse(0.5)
        c = (0.92, 0.0)
        q = profile_relative_to(d, c)
        t = np.linspace(0, 2 * PI, 200_000, endpoint=False)
        w = d.boundary_points(t) - c
        psi = np.arctan2(w[:, 1], w[:, 0])
        assert np.max(np.abs(1 + q.values(psi) - np.hypot(w[:, 0], w[:, 1]))) <= 1e-9
        assert volume(StarDomain(c, q)) == pytest.approx(volume(d), abs=1e-13)

    @pytest.mark.parametrize("c", [0.8, 0.9, 0.95, 0.97, 0.99])
    def test_offset_disk_near_the_boundary(self, c):
        # the angular speed about c reaches 1 / (1 - c) at the nearest
        # boundary point; at 8 points per mode the sum aliases there
        q = profile_relative_to(unit_disk(), (c, 0.0))
        psi = np.linspace(0, 2 * PI, 997, endpoint=False)
        expected = -c * np.cos(psi) + np.sqrt(1 - c * c * np.sin(psi) ** 2)
        assert np.max(np.abs(1 + q.values(psi) - expected)) <= 1e-9

    @pytest.mark.parametrize("c, phi", [(0.9, PI / 2), (0.9, PI), (0.9, 4.0), (0.97, 4.0)],
                             ids=["pi/2", "pi", "4", "0.97-4"])
    def test_offset_disk_near_the_boundary_in_other_directions(self, c, phi):
        # off the x axis: the same aliasing and the same closed form,
        # rotated by phi
        q = profile_relative_to(unit_disk(), (c * math.cos(phi), c * math.sin(phi)))
        psi = np.linspace(0, 2 * PI, 997, endpoint=False)
        expected = -c * np.cos(psi - phi) + np.sqrt(1 - c * c * np.sin(psi - phi) ** 2)
        assert np.max(np.abs(1 + q.values(psi) - expected)) <= 1e-9

    @pytest.mark.parametrize("phi", [0.0, 4.0])
    def test_center_at_the_boundary_raises_before_a_large_table(self, phi):
        # 1e-4 inside the unit circle the sum would need about 40000 points
        # per mode; the point cap stops it before the table is built
        c = 1.0 - 1e-4
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="not resolved") as info:
                profile_relative_to(unit_disk(), (c * math.cos(phi), c * math.sin(phi)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not isinstance(info.value, NotStarShapedError)
        assert peak < 64e6

    def test_unresolved_center_raises_plain_value_error(self):
        # r = 1 + 0.9 cos theta about its barycenter misses by 3e-6 at 288
        # modes
        d = StarDomain((0, 0), BoundaryProfile.single_mode(1, cos_amp=0.9))
        with pytest.raises(ValueError, match=r"deviates by \S+ .* at 288 modes") as info:
            profile_relative_to(d, barycenter(d))
        assert not isinstance(info.value, NotStarShapedError)

    @pytest.mark.parametrize("theta", [0.0, 1.0, 2.5, 4.0, 5.5])
    def test_rejects_center_just_outside(self, rng, theta):
        d = StarDomain((0.3, -0.2), decaying_profile(rng))
        r = float(d.radius(np.array([theta]))[0])
        c = np.asarray(d.center) + 1.0005 * r * np.array([math.cos(theta), math.sin(theta)])
        with pytest.raises(NotStarShapedError):
            profile_relative_to(d, c)


class TestRecenterRescale:
    def test_translated_scaled_disk(self):
        d = unit_disk(2.0, center=(1.0, 1.0))
        out = recenter_rescale(d)
        assert volume(out) == pytest.approx(PI, rel=1e-12)
        assert np.hypot(*barycenter(out)) < 1e-12
        assert out.profile.grid_sup() < 1e-12

    def test_even_mode_pure_rescale(self):
        d = StarDomain((0, 0), BoundaryProfile.single_mode(2, cos_amp=0.1))
        out = recenter_rescale(d)
        s = math.sqrt(PI / volume(d))
        assert out.profile.a0 == pytest.approx(s - 1, abs=1e-14)
        assert out.profile.cos_coeffs[1] == pytest.approx(0.1 * s, rel=1e-13)
        assert volume(out) == pytest.approx(PI, rel=1e-12)

    def test_mode_one_recenter_matches_polygon_oracle(self):
        d = StarDomain((0, 0), BoundaryProfile.single_mode(1, cos_amp=0.1))
        out = recenter_rescale(d)
        assert volume(out) == pytest.approx(PI, rel=1e-10)
        assert np.hypot(*barycenter(out)) < 1e-8
        # shape is preserved: dense polygons agree after the same shift/scale
        c = barycenter(d)
        s = math.sqrt(PI / volume(d))
        theta = np.arctan2(*(dense_boundary(d, 4096) - c).T[::-1])
        rho = np.hypot(*(dense_boundary(d, 4096) - c).T) * s
        fitted = 1.0 + out.profile.values(theta)
        assert np.max(np.abs(fitted - rho)) < 1e-8

    def test_idempotent(self, rng):
        p = volume_corrected(random_profile(rng, kmax=6, scale=0.02))
        out1 = recenter_rescale(StarDomain((0, 0), p))
        out2 = recenter_rescale(out1)
        k = max(out1.profile.max_mode, out2.profile.max_mode)
        c1, s1 = out1.profile._padded(k)
        c2, s2 = out2.profile._padded(k)
        assert abs(out1.profile.a0 - out2.profile.a0) < 1e-8
        assert np.max(np.abs(c1 - c2)) < 1e-8
        assert np.max(np.abs(s1 - s2)) < 1e-8


class TestDilated:
    @pytest.mark.parametrize("s", [0.5, 1.0 / 1.2, 1.7, 2.5])
    def test_boundary_volume_and_barycenter_scale(self, rng, s):
        d = StarDomain((0.1, -0.2), volume_corrected(random_profile(rng, kmax=8, scale=0.05)))
        theta, dilated = np.linspace(0.0, 2 * PI, 257), d.dilated(s)
        assert np.max(np.abs(dilated.boundary_points(theta) - s * d.boundary_points(theta))) < 1e-14
        assert volume(dilated) == pytest.approx(s * s * volume(d), rel=1e-14)
        assert np.max(np.abs(barycenter(dilated) - s * barycenter(d))) < 1e-14


class TestEllipse:
    def test_zero_eccentricity(self):
        d = ellipse(0.0)
        assert d.profile.max_mode == 0 and d.profile.a0 == 0.0

    def test_axis_ratio_before_scaling(self):
        # r(0)/r(pi/2) is the axis ratio sqrt(1+eps) regardless of dilation
        d = ellipse(0.1)
        r0 = float(d.radius(np.array([0.0]))[0])
        r90 = float(d.radius(np.array([PI / 2]))[0])
        assert r0 / r90 == pytest.approx(math.sqrt(1.1), rel=1e-12)

    def test_unit_volume(self):
        for eps in (0.02, 0.1, 0.3):
            assert volume(ellipse(eps)) == pytest.approx(PI, rel=1e-12)

    def test_barycenter_zero(self):
        assert np.hypot(*barycenter(ellipse(0.2))) < 1e-12

    def test_boundary_matches_implicit_equation(self):
        eps = 0.15
        d = ellipse(eps)
        pts = dense_boundary(d, 721)
        s = (1 + eps) ** 0.25
        lhs = (pts[:, 0] / s) ** 2 + (1 + eps) * (pts[:, 1] / s) ** 2
        assert np.max(np.abs(lhs - 1.0)) < 1e-10

    def test_range_validation(self):
        with pytest.raises(ValueError):
            ellipse(-0.1)
        with pytest.raises(ValueError):
            ellipse(1.0)


class TestVolumeFlow:
    def test_endpoints(self):
        p = BoundaryProfile.single_mode(2, cos_amp=0.1)
        start = volume_flow(p, 0.0)
        assert start.profile.max_mode == 0 and start.profile.a0 == 0.0
        end = volume_flow(p, 1.0)
        theta = np.linspace(0, 2 * PI, 97)
        assert np.array_equal(end.radius(theta), 1.0 + p.values(theta))

    def test_volume_constant_for_corrected_targets(self):
        p = volume_corrected_profile(2, 0.1)
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert abs(volume(volume_flow(p, t)) - PI) < 1e-10

    def test_linear_interpolation_random_targets(self, rng):
        for _ in range(10):
            p = random_profile(rng, kmax=8, scale=0.08)
            if p.grid_sup() > 0.3:
                p = p * (0.3 / p.grid_sup())
            target = volume(StarDomain((0, 0), p))
            for t in (0.2, 0.5, 0.8):
                v = volume(volume_flow(p, t))
                assert abs(v - (PI + t * (target - PI))) < 1e-12 * max(1.0, target)

    def test_radius_formula(self):
        p = BoundaryProfile.single_mode(3, cos_amp=0.2)
        t = 0.4
        d = volume_flow(p, t)
        theta = np.linspace(0, 2 * PI, 181)
        expected = np.sqrt(1 + t * ((1 + p.values(theta)) ** 2 - 1))
        assert np.max(np.abs(d.radius(theta) - expected)) < 1e-12

    def test_degenerate_radicand_rejected(self):
        p = BoundaryProfile.constant(-0.9)  # radius 0.1, radicand fine at t<=1
        volume_flow(p, 1.0)
        bad = BoundaryProfile.single_mode(1, cos_amp=-1.2, a0=0.15)
        with pytest.raises(ValueError):
            StarDomain((0, 0), bad)  # not even a valid star domain


class TestVolumeCorrectedProfile:
    def test_zero_amplitude(self):
        p = volume_corrected_profile(2, 0.0)
        assert p.a0 == 0.0 and p.grid_sup() == 0.0

    def test_offset_closed_form(self):
        p = volume_corrected_profile(3, 0.2)
        assert p.a0 == pytest.approx(math.sqrt(0.98) - 1, rel=1e-15)

    def test_volume_is_pi(self):
        for k, s in ((1, 0.3), (2, 0.05), (6, 0.12)):
            d = StarDomain((0, 0), volume_corrected_profile(k, s))
            assert volume(d) == pytest.approx(PI, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            volume_corrected_profile(0, 0.1)
        with pytest.raises(ValueError):
            volume_corrected_profile(2, 1.0)

    def test_general_corrector(self, rng):
        for _ in range(10):
            p = volume_corrected(random_profile(rng, kmax=6, scale=0.05))
            assert volume(StarDomain((0, 0), p)) == pytest.approx(PI, rel=1e-12)


class TestStarDomainValidation:
    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            StarDomain((0, 0), BoundaryProfile.constant(-1.0))
        with pytest.raises(ValueError):
            StarDomain((0, 0), BoundaryProfile.single_mode(2, cos_amp=1.1))

    def test_rejects_nonfinite_center(self):
        with pytest.raises(ValueError):
            StarDomain((math.nan, 0.0), BoundaryProfile.zero())


class TestFitProfile:
    def test_recovers_band_limited_radius(self, rng):
        p = random_profile(rng, kmax=6, scale=0.05)
        theta = np.linspace(0, 2 * PI, 256, endpoint=False)
        fitted, tail = fit_profile(1.0 + p.values(theta))
        assert tail < 1e-25
        assert h_half_norm_sq(fitted - p) < 1e-24

    def test_reports_tail_energy(self):
        theta = np.linspace(0, 2 * PI, 256, endpoint=False)
        radii = 1.0 + 0.1 * np.cos(5 * theta)
        _, tail = fit_profile(radii, max_modes=3)
        assert tail == pytest.approx(0.01 / 2, rel=1e-12)
