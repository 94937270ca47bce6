import math

import numpy as np
import pytest

from fklab.geometry import triangles_disk_area

from oracles import mc_two_disk_symdiff, two_disks_symmetric_difference

PI = math.pi


def mc_triangle_disk(tri, center, r, n=400_000, seed=5):
    rng = np.random.default_rng(seed)
    u = rng.random((n, 2))
    flip = u.sum(axis=1) > 1
    u[flip] = 1 - u[flip]
    pts = tri[0] + u[:, :1] * (tri[1] - tri[0]) + u[:, 1:] * (tri[2] - tri[0])
    inside = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1]) <= r
    d1, d2 = tri[1] - tri[0], tri[2] - tri[0]
    area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
    return area * inside.mean(), area


class TestTriangleDiskArea:
    def test_triangle_inside_disk(self):
        tri = np.array([[0.0, 0.0], [0.3, 0.0], [0.0, 0.4]])
        assert triangles_disk_area(tri[None], (0, 0), 2.0) == pytest.approx(
            0.06, rel=1e-14)

    def test_disk_inside_triangle(self):
        tri = np.array([[-10.0, -10.0], [10.0, -10.0], [0.0, 15.0]])
        assert triangles_disk_area(tri[None], (0, 1), 0.5) == pytest.approx(
            PI * 0.25, rel=1e-12)

    def test_disjoint(self):
        tri = np.array([[2.0, 2.0], [3.0, 2.0], [2.0, 3.0]])
        assert triangles_disk_area(tri[None], (0, 0), 1.0) == 0.0

    def test_half_disk(self):
        # right triangle covering exactly the upper half plane near the disk
        tri = np.array([[-50.0, 0.0], [50.0, 0.0], [0.0, 50.0]])
        assert triangles_disk_area(tri[None], (0, 0), 1.0) == pytest.approx(
            PI / 2, rel=1e-12)

    def test_orientation_invariance(self):
        tri = np.array([[0.0, 0.0], [1.5, 0.2], [0.3, 1.4]])
        rev = tri[::-1].copy()
        a1 = triangles_disk_area(tri[None], (0.4, 0.3), 0.8)
        a2 = triangles_disk_area(rev[None], (0.4, 0.3), 0.8)
        assert a1 == pytest.approx(a2, rel=1e-14)

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(17)
        for seed in range(8):
            tri = rng.uniform(-2, 2, (3, 2))
            center = rng.uniform(-1, 1, 2)
            r = rng.uniform(0.3, 1.8)
            mc, area = mc_triangle_disk(tri, center, r, seed=seed)
            exact = triangles_disk_area(tri[None], center, r)
            sigma = 0.5 * area / math.sqrt(400_000)
            assert abs(exact - mc) < 5 * sigma + 1e-12


class TestTrianglesDiskArea:
    def test_fan_covers_disk(self):
        # triangle fan around the origin covering B_2 entirely
        n = 64
        theta = np.linspace(0, 2 * PI, n, endpoint=False)
        pts = 3.0 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        tris = np.stack([np.zeros((n, 2)), pts, np.roll(pts, -1, axis=0)], axis=1)
        total = triangles_disk_area(tris, (0.3, -0.2), 1.0)
        assert total == pytest.approx(PI, rel=1e-12)

    def test_matches_per_triangle_sum(self):
        rng = np.random.default_rng(3)
        tris = rng.uniform(-1.5, 1.5, (40, 3, 2))
        total = triangles_disk_area(tris, (0.1, 0.2), 0.9)
        persum = sum(triangles_disk_area(t[None], (0.1, 0.2), 0.9) for t in tris)
        assert total == pytest.approx(persum, rel=1e-12)


class TestTwoDiskFormula:
    def test_coincident(self):
        assert two_disks_symmetric_difference(0.0) == 0.0

    def test_disjoint(self):
        assert two_disks_symmetric_difference(2.5) == pytest.approx(2 * PI)

    def test_half_offset_against_monte_carlo(self):
        exact = two_disks_symmetric_difference(0.5)
        # frozen from the lens-area formula; the MC oracle confirms it
        assert exact == pytest.approx(1.9789668571201684, rel=1e-12)
        mc = mc_two_disk_symdiff(0.5, n=4_000_000)
        assert abs(exact - mc) < 4e-3
