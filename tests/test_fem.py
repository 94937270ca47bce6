import dataclasses
import functools
import hashlib
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from scipy.spatial import cKDTree

from fklab import fem
from fklab.domain import (StarDomain, barycenter, ellipse, unit_disk, volume,
                          volume_corrected_profile)
from fklab.stability import Level, random_near_sphere_profile

from conftest import direct
from oracles import (disk_eigenvalue_shooting, disk_lambda_q_radial,
                     lq_midpoint_per_triangle, p1_matrices_per_triangle)

PI = math.pi


def disk_mesh(rings):
    return fem.polar_mesh(unit_disk(), rings)


@pytest.fixture(scope="module")
def disk64():
    return disk_mesh(64)


@pytest.fixture(scope="module")
def torsion64(disk64):
    return fem.solve_torsion(disk64, precond=direct(disk64))


class TestPolarMesh:
    def test_counts_and_area(self, disk64):
        assert disk64.n_vertices == 1 + 3 * 64 * 65
        assert len(disk64.triangles) == 6 * 64 * 64
        assert len(disk64.boundary_vertices) == 6 * 64
        assert abs(disk64.area() - PI) < 1e-3

    def test_positive_areas(self, disk64):
        assert np.min(disk64.signed_areas) > 0.0

    def test_ellipse_area(self):
        mesh = fem.polar_mesh(ellipse(0.1), 32)
        assert abs(mesh.area() - PI) < 1e-3

    def test_matched_topology(self):
        a = fem.polar_mesh(unit_disk(), 12)
        b = fem.polar_mesh(ellipse(0.2), 12)
        assert np.array_equal(a.triangles, b.triangles)
        assert np.array_equal(a.boundary_vertices, b.boundary_vertices)

    def test_boundary_vertices_on_curve(self):
        d = StarDomain((0.2, -0.1), volume_corrected_profile(3, 0.1))
        mesh = fem.polar_mesh(d, 16)
        pts = mesh.vertices[mesh.boundary_vertices]
        theta = np.arctan2(pts[:, 1] + 0.1, pts[:, 0] - 0.2)
        r = np.hypot(pts[:, 0] - 0.2, pts[:, 1] + 0.1)
        assert np.max(np.abs(r - d.radius(theta))) < 1e-12

    # SHA-256 of the little-endian int64 triangle array, recorded from the
    # per-triangle loop the ring-by-ring construction replaced
    TRIANGLES_SHA256 = {
        4: "f67fa65e96f47bef89e8dc8e526ee562b8a4abd50c85ae6906b82ebc6026fad5",
        12: "ad20879bce646d238c7c4e57ac30598fe1e172c46a6c4a4b8ef00b8972f2db14",
        64: "2945a31977211ddb662091dca98a1686ecd3a0c42db5a037e9f4808fd771cf05",
    }

    @pytest.mark.parametrize("rings", [4, 12, 64])
    def test_interior_first_contract(self, rings):
        # the solvers take the interior unknowns as the leading slice [:n]
        mesh = fem.polar_mesh(unit_disk(), rings)
        n = mesh.n_interior
        assert np.array_equal(mesh.boundary_vertices, np.arange(n, mesh.n_vertices))
        radius = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
        assert np.array_equal(np.flatnonzero(radius < 1.0 - 0.5 / rings), np.arange(n))
        assert len(mesh.boundary_vertices) == 6 * rings
        stiffness, _, _ = p1_matrices_per_triangle(mesh.vertices, mesh.triangles)
        interior = stiffness[:n, :n].tocsr()
        assert mesh.stiffness.shape == (n, n)
        assert abs(mesh.stiffness - interior).max() <= 1e-14 * abs(interior).max()
        digest = hashlib.sha256(mesh.triangles.astype("<i8").tobytes()).hexdigest()
        assert digest == self.TRIANGLES_SHA256[rings]

    def test_skeleton_shared_per_ring_count_and_read_only(self):
        a = fem.polar_mesh(unit_disk(), 12)
        b = fem.polar_mesh(ellipse(0.2), 12)
        c = fem.polar_mesh(ellipse(0.2), 13)
        assert a.skeleton is b.skeleton
        assert c.skeleton is not a.skeleton
        sk = a.skeleton
        midpoints = sk.midpoints
        arrays = [value for value in vars(sk).values() if isinstance(value, np.ndarray)]
        arrays += [midpoints.data, midpoints.indices, midpoints.indptr]
        assert len(arrays) == 17
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]
        for matrix in (a.stiffness, a.mass):  # the pattern is shared, not copied
            with pytest.raises(ValueError, match="read-only"):
                matrix.indices[0] = matrix.indices[0]

    @pytest.mark.parametrize("moved", ["reflected", "collinear"])
    def test_inverted_or_degenerate_element_rejected(self, moved):
        # triangle 0 is (center, vertex 1 at theta = 0, vertex 2 at 60 deg);
        # reflecting vertex 2 in the x-axis inverts it, and moving it onto
        # the axis gives it zero area while every other triangle stays
        # positive, so the check rejects a degenerate element on its own
        mesh = disk_mesh(4)
        verts = mesh.vertices.copy()
        assert np.array_equal(mesh.triangles[0], [0, 1, 2]) and verts[1, 1] == 0.0
        verts[2] = {"reflected": (verts[2, 0], -verts[2, 1]),
                    "collinear": (verts[2, 0], 0.0)}[moved]
        v = verts[mesh.triangles]
        d1, d2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
        cross = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        if moved == "reflected":
            assert cross[0] < 0.0
        else:
            assert cross[0] == 0.0 and np.min(cross[1:]) > 0.0
        with pytest.raises(ValueError, match="inverted or degenerate elements"):
            fem.TriMesh(verts, mesh.skeleton)

    def test_min_rings(self):
        fem.polar_mesh(unit_disk(), 4)
        with pytest.raises(ValueError):
            fem.polar_mesh(unit_disk(), 3)

    def test_area_converges_quadratically(self):
        errs = [abs(disk_mesh(r).area() - PI) for r in (16, 32, 64)]
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)

    def test_volume_and_barycenter_match_mesh_quadrature(self):
        d = StarDomain((0.3, -0.2), volume_corrected_profile(3, 0.1))
        exact_b = barycenter(d)
        for rings in (24, 48):
            mesh = fem.polar_mesh(d, rings)
            h2 = (1.0 / rings) ** 2
            assert abs(mesh.area() - volume(d)) < 5 * h2
            centroids = mesh.vertices[mesh.triangles].mean(axis=1)
            mesh_b = (mesh.signed_areas @ centroids) / mesh.area()
            assert np.max(np.abs(mesh_b - exact_b)) < 5 * h2


class TestStiffness:
    def test_symmetry(self, disk64):
        k = disk64.stiffness
        assert abs(k - k.T).max() < 1e-12

    def test_positive_definite_on_interior(self, disk64, rng):
        n = disk64.n_interior
        kii = disk64.stiffness
        assert kii.shape == (n, n)
        for _ in range(5):
            x = rng.standard_normal(n)
            assert x @ (kii @ x) > 0.0

    def test_mass_row_sums_equal_load(self, disk64):
        ones = np.ones(disk64.n_vertices)
        assert np.max(np.abs(disk64.mass @ ones - disk64.load)) < 1e-14

    @pytest.mark.parametrize("rings", [4, 16, 64])
    @pytest.mark.parametrize("name", ["disk", "ellipse", "near-sphere"])
    def test_matches_per_triangle_assembly(self, name, rings):
        d = {"disk": unit_disk, "ellipse": lambda: ellipse(0.2),
             "near-sphere": near_sphere}[name]()
        mesh = fem.polar_mesh(d, rings)
        stiffness, mass, load = p1_matrices_per_triangle(mesh.vertices, mesh.triangles)
        n = mesh.n_interior
        interior = stiffness[:n, :n].tocsr()
        for got, ref in ((mesh.stiffness, interior), (mesh.mass, mass)):
            assert np.array_equal(got.indptr, ref.indptr)
            assert np.array_equal(got.indices, ref.indices)
            assert np.max(np.abs(got.data - ref.data)) <= 1e-14 * np.max(np.abs(ref.data))
        assert np.max(np.abs(mesh.load - load)) <= 1e-14 * np.max(load)
        if rings >= 8:  # a rings-4 mesh has no half-ring level to build a V-cycle on
            coarse = direct(fem.polar_mesh(d, rings // 2))
            weight = fem.VCycle(mesh, coarse).weight
            assert abs(weight - gershgorin_weight(interior)) <= 1e-14 * weight


def gershgorin_weight(a) -> float:
    """min(JACOBI_WEIGHT, 1.9 / max_i sum_j |a_ij| / a_ii) from a dense
    copy of ``a``, made a block of rows at a time."""
    ratios = []
    for start in range(0, a.shape[0], 512):
        rows = a[start:start + 512].toarray()
        diagonal = rows[np.arange(len(rows)), np.arange(start, start + len(rows))]
        ratios.append(np.abs(rows).sum(axis=1) / diagonal)
    return min(fem.JACOBI_WEIGHT, 1.9 / float(np.max(np.concatenate(ratios))))


class TestScatterSums:
    # the edge rule sums each midpoint once with the weights of both of
    # its triangles, so it matches the triangle-wise rule to rounding
    def test_lq_matches_triangle_midpoint_rule(self, rng):
        mesh = fem.polar_mesh(ellipse(0.1), 16)
        u = fem.ScalarField(mesh, rng.standard_normal(mesh.n_vertices))
        for q in (1.5, 3.0):
            integral, grad = lq_midpoint_per_triangle(mesh.vertices, mesh.triangles,
                                                      u.values, q)
            assert abs(fem.lq_integral(u, q) / integral - 1.0) <= 1e-14
            got = fem._lq_gradient(u, q)
            assert np.max(np.abs(got - grad)) <= 1e-14 * np.max(np.abs(grad))

    def test_q1_is_the_load_form_on_one_sign_fields(self, rng):
        # |u| is linear on each triangle when u has one sign
        mesh = fem.polar_mesh(ellipse(0.1), 16)
        u = fem.ScalarField(mesh, np.abs(rng.standard_normal(mesh.n_vertices)))
        exact = float(mesh.load @ u.values)
        assert abs(fem.lq_integral(u, 1.0) / exact - 1.0) <= 1e-14
        n = mesh.n_interior  # the field vanishes on the boundary
        got = fem._lq_gradient(u, 1.0)[:n]
        assert np.max(np.abs(got - mesh.load[:n])) <= 1e-14 * np.max(mesh.load)

    def test_q2_is_the_mass_quadratic_form(self, rng):
        mesh = fem.polar_mesh(ellipse(0.1), 16)
        u = fem.ScalarField(mesh, rng.standard_normal(mesh.n_vertices))
        exact = float(u.values @ (mesh.mass @ u.values))
        assert abs(fem.lq_integral(u, 2.0) / exact - 1.0) <= 1e-14
        grad = 2.0 * (mesh.mass @ u.values)
        got = fem._lq_gradient(u, 2.0)
        assert np.max(np.abs(got - grad)) <= 1e-14 * np.max(np.abs(grad))

    def test_load_matches_add_at(self):
        mesh = fem.polar_mesh(ellipse(0.1), 16)
        ref = np.zeros(mesh.n_vertices)
        np.add.at(ref, mesh.triangles.ravel(), np.repeat(mesh.signed_areas / 3.0, 3))
        assert np.array_equal(mesh.load, ref)


class TestTorsion:
    def test_disk_max_value(self, torsion64):
        u, stats = torsion64
        assert abs(u.values.max() / 0.25 - 1.0) < 5e-3
        assert stats.residual <= 1e-10

    def test_disk_pointwise_profile(self, torsion64):
        u, _ = torsion64
        mesh = u.mesh
        r = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
        exact = (1 - r ** 2) / 4
        rms = math.sqrt(np.mean((u.values - exact) ** 2))
        assert rms < 5e-5  # O(h^2) at h ~ 1/64

    def test_rms_error_order(self):
        errs = []
        for rings in (16, 32, 64):
            mesh = disk_mesh(rings)
            u, _ = fem.solve_torsion(mesh, precond=direct(mesh))
            r = np.hypot(u.mesh.vertices[:, 0], u.mesh.vertices[:, 1])
            errs.append(math.sqrt(np.mean((u.values - (1 - r ** 2) / 4) ** 2)))
        assert errs[0] / errs[1] > 3.0
        assert errs[1] / errs[2] > 3.0

    def test_nonnegative(self):
        for d in (unit_disk(), ellipse(0.2),
                  StarDomain((0, 0), volume_corrected_profile(4, 0.1))):
            mesh = fem.polar_mesh(d, 24)
            u, _ = fem.solve_torsion(mesh, precond=direct(mesh))
            assert u.values.min() >= 0.0

    def test_discrete_energy_identity(self, torsion64):
        u, _ = torsion64
        x = u.values[:u.mesh.n_interior]  # the field vanishes on the boundary
        dir_energy = x @ (u.mesh.stiffness @ x)
        mass = fem.integral(u)
        assert abs(0.5 * dir_energy - mass - (-0.5 * mass)) < 1e-8 * abs(mass)


class TestEnergy:
    def test_disk_value(self, torsion64):
        u, _ = torsion64
        assert abs(fem.energy_of(u) / (-PI / 16) - 1.0) < 5e-3

    def test_dilation_scaling(self):
        big, unit = fem.polar_mesh(unit_disk(2.0), 32), disk_mesh(32)
        u, _ = fem.solve_torsion(big, precond=direct(big))
        u1, _ = fem.solve_torsion(unit, precond=direct(unit))
        assert fem.energy_of(u) == pytest.approx(16 * fem.energy_of(u1),
                                                 rel=1e-12)

    def test_refinement_decreases_energy(self):
        vals = []
        for rings in (8, 16, 32, 64):
            mesh = disk_mesh(rings)
            u, _ = fem.solve_torsion(mesh, precond=direct(mesh))
            vals.append(fem.energy_of(u))
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert all(v > -PI / 16 for v in vals)


class TestEigenvalue:
    def test_disk_against_shooting_oracle(self, disk64):
        lam, _ = fem.principal_eigenvalue(disk64, precond=direct(disk64))
        oracle = disk_eigenvalue_shooting()
        assert oracle == pytest.approx(5.783185962946785, rel=1e-10)
        assert abs(lam / oracle - 1.0) < 1e-2

    def test_dilation_scaling(self):
        big, unit = fem.polar_mesh(unit_disk(2.0), 32), disk_mesh(32)
        lam2, _ = fem.principal_eigenvalue(big, precond=direct(big))
        lam1, _ = fem.principal_eigenvalue(unit, precond=direct(unit))
        assert lam2 == pytest.approx(lam1 / 4, rel=1e-10)

    def test_eigenfield_one_sign(self, disk64):
        _, field = fem.principal_eigenvalue(disk64, precond=direct(disk64))
        assert field.values.min() >= -1e-12 * field.values.max()

    def test_refinement_decreases_lambda(self):
        meshes = [disk_mesh(r) for r in (8, 16, 32, 64)]
        vals = [fem.principal_eigenvalue(m, precond=direct(m))[0] for m in meshes]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert all(v > 5.783185962946785 for v in vals)


class TestPoincareSobolev:
    def test_q1_matches_torsion_identity(self, disk64, torsion64):
        u, _ = torsion64
        lam1, _ = fem.poincare_sobolev(disk64, 1.0, precond=direct(disk64))
        assert abs(lam1 * PI / 8 - 1.0) < 5e-3
        # the discrete identity lambda_1 = 1 / (b' K^-1 b): the q = 1 rule is
        # exact for the one-sign minimizer
        assert lam1 == pytest.approx(-1.0 / (2 * fem.energy_of(u)), rel=1e-12)

    def test_q2_matches_eigenvalue(self):
        # against a dense generalized eigensolve of K x = lambda M x, by the
        # mesh's own factor and by a level's V-cycle chain
        for make in VCYCLE_DOMAINS.values():
            d = make()
            mesh = fem.polar_mesh(d, 16)
            n = mesh.n_interior
            exact = scipy.linalg.eigh(mesh.stiffness.toarray(),
                                      mesh.mass[:n, :n].toarray(), eigvals_only=True,
                                      subset_by_index=[0, 0])[0]
            own, _ = fem.poincare_sobolev(mesh, 2.0, precond=direct(mesh))
            assert abs(own / exact - 1.0) <= 1e-9
            assert abs(Level(d, 16).lambda_q(2.0) / exact - 1.0) <= 1e-9

    def test_q15_matches_radial_oracle(self, disk64):
        lam, _ = fem.poincare_sobolev(disk64, 1.5, precond=direct(disk64))
        oracle = disk_lambda_q_radial(1.5)
        assert abs(lam / oracle - 1.0) < 5e-3

    def test_q3_matches_radial_oracle(self, disk64):
        lam, _ = fem.poincare_sobolev(disk64, 3.0, precond=direct(disk64))
        oracle = disk_lambda_q_radial(3.0)
        assert abs(lam / oracle - 1.0) < 5e-3

    def test_failed_line_search_away_from_critical_point_raises(self, disk64,
                                                                monkeypatch):
        exact = fem.lq_integral
        calls = []

        def shrunk(u, q):
            # exact for the start; each trial's integral reads 1e-6 of its
            # value, so every trial's Rayleigh quotient reads worse
            calls.append(q)
            return exact(u, q) * (1.0 if len(calls) == 1 else 1e-6)

        monkeypatch.setattr(fem, "lq_integral", shrunk)
        with pytest.raises(fem.SolverError, match=r"L\^1.5 .* at iteration 0"):
            fem.poincare_sobolev(disk64, 1.5, precond=direct(disk64))

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    def test_one_midpoint_pass_per_norm_evaluation(self, q, monkeypatch):
        # one pass for the start's smoothing gradient, then one per
        # integral the descent asks for: the accepted trial's gradient
        # reuses the pass of its integral
        mesh = fem.polar_mesh(ellipse(0.2), 16)
        passes, integrals, caller = [], [], []
        exact_pass, exact_integral, exact_gradient = (
            fem._midpoint_pass, fem.lq_integral, fem._lq_gradient)

        def counted_pass(u, q):
            passes.append((u, caller[-1] if caller else None))
            return exact_pass(u, q)

        def inside(name, fn):
            def wrapped(u, q):
                caller.append(name)
                try:
                    return fn(u, q)
                finally:
                    caller.pop()
            return wrapped

        def counted_integral(u, q):
            integrals.append(u)
            return exact_integral(u, q)

        monkeypatch.setattr(fem, "_midpoint_pass", counted_pass)
        monkeypatch.setattr(fem, "lq_integral", inside("integral", counted_integral))
        monkeypatch.setattr(fem, "_lq_gradient", inside("gradient", exact_gradient))
        fem.poincare_sobolev(mesh, q, precond=direct(mesh))
        assert len(integrals) >= 2
        assert [c for _, c in passes] == ["gradient"] + ["integral"] * len(integrals)
        assert all(p is u for (p, _), u in zip(passes[1:], integrals))

    def test_q_range_validated(self, disk64):
        with pytest.raises(ValueError):
            fem.poincare_sobolev(disk64, 0.5, precond=direct(disk64))
        with pytest.raises(ValueError):
            fem.poincare_sobolev(disk64, 5.0, precond=direct(disk64))


class TestDirectTorsion:
    def test_residual_above_tolerance_raises(self, disk64):
        with pytest.raises(fem.SolverError):
            fem.solve_torsion(disk64, precond=direct(disk64), tol=1e-30)

    def test_direct_solve_meets_tolerance(self, disk64):
        _, stats = fem.solve_torsion(disk64, precond=direct(disk64))
        assert stats.iterations == 1
        assert stats.residual <= fem.DEFAULT_CG_TOL

    def test_own_factor_is_one_solve_at_rings_128(self):
        # the direct solve's relative residual, 1.3e-12, lies above the
        # rounding of smaller meshes but below the stop DEFAULT_CG_TOL / 10
        mesh = disk_mesh(128)
        _, stats = fem.solve_torsion(mesh, precond=direct(mesh))
        assert stats.iterations == 1
        assert 1e-12 < stats.residual <= fem.DEFAULT_CG_TOL


def near_sphere():
    rng = np.random.default_rng(2024)
    return StarDomain((0.0, 0.0), random_near_sphere_profile(rng, 0.047))


class TestPreconditionedTorsion:
    @pytest.mark.parametrize("rings", [32, 64])
    @pytest.mark.parametrize("name", ["ellipse", "near-sphere"])
    def test_disk_preconditioner_matches_direct_solve(self, name, rings, monkeypatch):
        d = ellipse(0.2) if name == "ellipse" else near_sphere()
        mesh = fem.polar_mesh(d, rings)
        disk = direct(disk_mesh(rings))
        factorize, calls = fem.factorize, []

        def counted(*args):
            calls.append(args)
            return factorize(*args)

        monkeypatch.setattr(fem, "factorize", counted)
        u, stats = fem.solve_torsion(mesh, precond=disk)
        monkeypatch.undo()
        assert len(calls) == 0  # no factorization built
        assert 1 < stats.iterations <= 20
        assert stats.residual <= fem.DEFAULT_CG_TOL
        x = direct(mesh).solve(mesh.load[:mesh.n_interior])
        e_direct = -0.5 * float(mesh.load[:mesh.n_interior] @ x)
        assert abs(fem.energy_of(u) / e_direct - 1.0) <= 1e-13

    def test_wrong_size_preconditioner_rejected(self):
        mesh = fem.polar_mesh(ellipse(0.1), 16)
        with pytest.raises(ValueError, match="preconditioner"):
            fem.solve_torsion(mesh, precond=direct(disk_mesh(8)))

    def test_unreachable_tolerance_raises_with_iterations(self):
        mesh = fem.polar_mesh(ellipse(0.1), 16)
        with pytest.raises(fem.SolverError, match=r"iterations.*residual"):
            fem.solve_torsion(mesh, tol=1e-30, precond=direct(disk_mesh(16)))


def vcycle_chain(d, rings):
    """The ``rings``-ring mesh of ``d`` and its V-cycle over the meshes of
    d at rings / 2, rings / 4, ... down to rings 4, which is factored."""
    mesh = fem.polar_mesh(d, rings)
    if rings == 4:
        return mesh, direct(mesh)
    return mesh, fem.VCycle(mesh, vcycle_chain(d, rings // 2)[1])


VCYCLE_DOMAINS = {
    "disk": unit_disk,
    "ellipse-0.2": lambda: ellipse(0.2),
    "mode-8": lambda: StarDomain((0.0, 0.0), volume_corrected_profile(8, 0.09)),
}


class TestVCycle:
    @pytest.fixture(scope="class", params=list(VCYCLE_DOMAINS))
    def dense16(self, request):
        """The dense stiffness A, V-cycle operator B and V-cycle at rings 16."""
        mesh, vcycle = vcycle_chain(VCYCLE_DOMAINS[request.param](), 16)
        n = mesh.n_interior
        b = np.column_stack([vcycle.solve(e) for e in np.eye(n)])
        return mesh.stiffness.toarray(), b, vcycle

    def test_operator_is_symmetric_positive_definite(self, dense16):
        _, b, _ = dense16
        assert np.max(np.abs(b - b.T)) <= 1e-13 * np.max(np.abs(b))
        assert np.linalg.eigvalsh(0.5 * (b + b.T))[0] > 0.0

    def test_energy_norm_contraction(self, dense16):
        # |I - BA|_A is the largest |1 - mu| over the eigenvalues mu of
        # L'BL, A = LL'; 0.15, 0.16 and 0.30 on the three domains
        a, b, _ = dense16
        low = np.linalg.cholesky(a)
        s = low.T @ b @ low
        mu = np.linalg.eigvalsh(0.5 * (s + s.T))
        assert np.max(np.abs(1.0 - mu)) <= 0.35

    def test_weight_within_gershgorin_bound(self, dense16):
        # the cap binds on the disk and the ellipse, 1.9 / 2.38 on mode-8
        a, _, vcycle = dense16
        assert 0.0 < vcycle.weight <= fem.JACOBI_WEIGHT
        gershgorin = np.max(np.abs(a).sum(axis=1) / np.diag(a))
        assert vcycle.weight * gershgorin <= 1.9 * (1.0 + 1e-15)
        expected = min(fem.JACOBI_WEIGHT, 1.9 / gershgorin)
        assert abs(vcycle.weight - expected) <= 1e-14 * expected

    @pytest.mark.parametrize("name,bound", [("disk", 12), ("ellipse-0.2", 12),
                                            ("mode-8", 20)])
    def test_torsion_iterations_at_rings_64(self, name, bound):
        # 10, 11 and 18 preconditioner applications; the solve by the
        # mesh's own factor gives the same energy
        mesh, vcycle = vcycle_chain(VCYCLE_DOMAINS[name](), 64)
        u, stats = fem.solve_torsion(mesh, precond=vcycle)
        assert stats.iterations <= bound
        assert stats.residual <= fem.DEFAULT_CG_TOL
        e_direct = fem.energy_of(fem.solve_torsion(mesh, precond=direct(mesh))[0])
        assert abs(fem.energy_of(u) / e_direct - 1.0) <= 1e-13

    @pytest.mark.parametrize("name", ["ellipse-0.2", "mode-8"])
    def test_solve_is_the_textbook_cycle(self, name, rng):
        # the in-place sweeps against x = D^{-1} b, x += D^{-1}(b - A x),
        # the coarse correction and two more sweeps, bit for bit at every
        # level of the rings-32 chain; on mode-8 the Gershgorin cap binds
        def textbook(vcycle, b):
            a, d_inv = vcycle._a, vcycle._d_inv
            coarse = vcycle._coarse
            solve = (functools.partial(textbook, coarse)
                     if isinstance(coarse, fem.VCycle) else coarse.solve)
            x = d_inv * b
            x += d_inv * (b - a @ x)
            x += vcycle._p @ solve(vcycle._r @ (b - a @ x))
            for _ in range(2):
                x += d_inv * (b - a @ x)
            return x

        _, vcycle = vcycle_chain(VCYCLE_DOMAINS[name](), 32)
        if name == "mode-8":
            assert vcycle.weight < fem.JACOBI_WEIGHT
        b = rng.standard_normal(vcycle.shape[0])
        assert np.array_equal(vcycle.solve(b), textbook(vcycle, b))

    def test_coarse_operator_must_match(self):
        mesh = fem.polar_mesh(ellipse(0.1), 16)
        with pytest.raises(ValueError, match="coarse operator"):
            fem.VCycle(mesh, direct(disk_mesh(4)))

    def test_transfer_is_cached_read_only(self):
        p, r = fem._interior_transfer(8)
        assert p.shape == (fem.ring_skeleton(16).n_interior,
                           fem.ring_skeleton(8).n_interior)
        assert (r != p.T).nnz == 0
        assert fem._interior_transfer(8)[0] is p
        with pytest.raises(ValueError, match="read-only"):
            r.data[0] = 0.0


class TestFactorize:
    @pytest.mark.parametrize("rings", [4, 5, 6, 7])
    @pytest.mark.parametrize("name", list(VCYCLE_DOMAINS))
    def test_dense_inverse_is_spd_and_matches_superlu(self, name, rings, rng):
        mesh = fem.polar_mesh(VCYCLE_DOMAINS[name](), rings)
        a = mesh.stiffness
        factor = fem.factorize(a)
        assert isinstance(factor, fem.DenseInverse)
        n = mesh.n_interior
        dense = np.column_stack([factor.solve(e) for e in np.eye(n)])
        assert factor.shape == a.shape == (n, n)
        assert np.array_equal(dense, dense.T)
        assert np.linalg.eigvalsh(dense)[0] > 0.0
        lu = scipy.sparse.linalg.splu(a.tocsc())
        for b in (mesh.load[:n], rng.standard_normal(n)):
            ref = lu.solve(b)
            assert np.max(np.abs(factor.solve(b) - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_superlu_from_eight_rings(self):
        mesh = fem.polar_mesh(ellipse(0.2), 8)
        assert mesh.n_interior > fem.DENSE_ROWS
        factor = fem.factorize(mesh.stiffness)
        assert type(factor).__name__ == "SuperLU"
        b = mesh.load[:mesh.n_interior]
        residual = mesh.stiffness @ factor.solve(b) - b
        assert np.max(np.abs(residual)) <= 1e-13 * np.max(np.abs(b))


class TestProlongation:
    @pytest.mark.parametrize("rings", [4, 8, 64])
    def test_bijection_onto_coarse_vertices_and_edges(self, rings):
        coarse, fine = disk_mesh(rings), disk_mesh(2 * rings)
        p = fem.prolongation(rings)
        assert p.shape == (fine.n_interior, coarse.n_vertices)
        nnz = np.diff(p.indptr)
        assert set(nnz) == {1, 2}
        vertex_rows = np.flatnonzero(nnz == 1)
        vertices = p.indices[p.indptr[vertex_rows]]
        assert np.array_equal(np.sort(vertices), np.arange(coarse.n_interior))
        edge_rows = np.flatnonzero(nnz == 2)
        ends = np.sort(np.stack([p.indices[p.indptr[edge_rows]],
                                 p.indices[p.indptr[edge_rows] + 1]], axis=1), axis=1)
        edges = coarse.skeleton.edges
        interior = edges[edges[:, 0] < coarse.n_interior]  # not along the boundary
        keys = ends[:, 0] * coarse.n_vertices + ends[:, 1]
        assert len(np.unique(keys)) == len(keys)
        assert np.array_equal(np.sort(keys),
                              interior[:, 0].astype(np.int64) * coarse.n_vertices
                              + interior[:, 1])
        # each row is the coarse vertex or edge midpoint nearest its fine vertex
        images = p @ coarse.vertices
        _, nearest = cKDTree(fine.vertices).query(images)
        assert np.array_equal(nearest, np.arange(fine.n_interior))
        offset = np.hypot(*(images - fine.vertices[:fine.n_interior]).T)
        assert np.max(offset) <= 0.2 * fine.h
        assert np.max(offset[vertex_rows]) <= 1e-15

    def test_rows_average_and_inherited_values_copy(self, rng):
        p = fem.prolongation(16)
        x = rng.standard_normal(p.shape[1])
        assert np.allclose(p @ np.ones(p.shape[1]), 1.0, rtol=0.0, atol=1e-15)
        single = np.diff(p.indptr) == 1
        assert np.all(p.data[p.indptr[:-1][single]] == 1.0)
        assert np.array_equal((p @ x)[single], x[p.indices[p.indptr[:-1][single]]])
        for arr in (p.data, p.indices, p.indptr):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]

    @pytest.mark.parametrize("name", ["ellipse", "near-sphere"])
    def test_interior_transfer_of_a_level_solution_is_its_prolongation(self, name):
        # a level keeps the interior values of each q-solution and prolongs
        # them by the interior columns of the prolongation: the start of the
        # finer level is bit for bit the prolonged nodal field
        d = ellipse(0.1) if name == "ellipse" else near_sphere()
        level = Level(d, 32)
        p, _ = fem._interior_transfer(32)
        for q in (1.5, 2.0, 3.0):
            level.lambda_q(q)
            interior = level._solution(q)
            field = fem._extend(level.mesh, interior)  # zero on the boundary
            assert np.array_equal(p @ interior, fem.prolongation(32) @ field)

    def test_prolonged_eigenvector_is_within_h2(self):
        coarse, fine = disk_mesh(64), disk_mesh(128)
        _, u_coarse = fem.principal_eigenvalue(coarse, precond=direct(coarse))
        _, u_fine = fem.principal_eigenvalue(fine, precond=direct(fine))
        n = fine.n_interior
        m = fine.mass[:n, :n]
        start = fem.prolongation(64) @ u_coarse.values
        diff = start / math.sqrt(start @ (m @ start)) - u_fine.values[:n]
        h2 = (1.0 / 64) ** 2
        assert math.sqrt(diff @ (m @ diff)) <= 0.25 * h2
        assert np.max(np.abs(diff)) <= 0.5 * h2 * np.max(u_fine.values)


class CountingFactor:
    """Delegates to a preconditioner and counts its solves."""

    def __init__(self, lu):
        self.lu, self.shape, self.solves = lu, lu.shape, 0

    def solve(self, rhs):
        self.solves += 1
        return self.lu.solve(rhs)


@pytest.fixture(scope="module", params=["ellipse", "near-sphere"])
def nested_pair(request):
    d = ellipse(0.1) if request.param == "ellipse" else near_sphere()
    return fem.polar_mesh(d, 64), fem.polar_mesh(d, 128)


AGREEMENT_DOMAINS = {
    "ellipse-0.02": lambda: ellipse(0.02),
    "ellipse-0.1": lambda: ellipse(0.1),
    "ellipse-0.2": lambda: ellipse(0.2),
    "mode-3": lambda: StarDomain((0.0, 0.0), volume_corrected_profile(3, 0.07)),
    "mode-8": lambda: StarDomain((0.0, 0.0), volume_corrected_profile(8, 0.05)),
}


@pytest.fixture(scope="module", params=list(AGREEMENT_DOMAINS))
def prolonged_starts(request):
    """The rings-128 mesh, its V-cycle chain and, per q, the prolonged
    rings-64 solution."""
    d = AGREEMENT_DOMAINS[request.param]()
    coarse = fem.polar_mesh(d, 64)
    fine, vcycle = vcycle_chain(d, 128)
    return fine, vcycle, {q: fem.prolongation(64)
                          @ fem.poincare_sobolev(coarse, q, precond=direct(coarse))[1].values
                          for q in (1.5, 2.0, 3.0)}


class TestSolverStart:
    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    def test_prolonged_start_takes_at_most_three_solves(self, nested_pair, q):
        coarse, fine = nested_pair
        _, u_coarse = fem.poincare_sobolev(coarse, q, precond=direct(coarse))
        cold, _ = fem.poincare_sobolev(fine, q, precond=direct(fine))
        factor = CountingFactor(direct(fine))
        warm, u_warm = fem.poincare_sobolev(
            fine, q, start=fem.prolongation(64) @ u_coarse.values, precond=factor)
        assert factor.solves <= 3
        assert abs(warm / cold - 1.0) <= 1e-9
        assert u_warm.mesh is fine
        assert fem.lq_integral(u_warm, q) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    def test_disk_factor_agrees_with_own_factor(self, prolonged_starts, q):
        # the V-cycle over the domain's own level chain, the preconditioner
        # of a Level, in place of the matched disk factor it replaced: at
        # most 3 V-cycles from the prolonged start, and the value of the
        # solve by the domain's own factor within 1e-9
        fine, vcycle, starts = prolonged_starts
        own, _ = fem.poincare_sobolev(fine, q, start=starts[q], precond=direct(fine))
        counted = CountingFactor(vcycle)
        chained, u = fem.poincare_sobolev(fine, q, start=starts[q], precond=counted)
        assert counted.solves <= 3
        assert abs(chained / own - 1.0) <= 1e-9
        assert fem.lq_integral(u, q) == pytest.approx(1.0, rel=1e-12)

    def test_start_is_interior_values(self, disk64):
        with pytest.raises(ValueError, match="start"):
            fem.principal_eigenvalue(disk64, start=np.ones(disk64.n_vertices),
                                     precond=direct(disk64))
        with pytest.raises(ValueError, match="start"):
            fem.poincare_sobolev(disk64, 3.0, start=np.ones(3), precond=direct(disk64))


class FixedDirection:
    """A preconditioner that returns the same vector whatever it is given."""

    def __init__(self, v):
        self.v, self.shape = v, (len(v), len(v))

    def solve(self, rhs):
        return self.v.copy()


class TestSolverEvidence:
    def test_wrong_size_preconditioner_rejected(self):
        mesh = fem.polar_mesh(ellipse(0.1), 128)
        factor = direct(disk_mesh(64))
        with pytest.raises(ValueError, match="preconditioner"):
            fem.principal_eigenvalue(mesh, precond=factor)
        with pytest.raises(ValueError, match="preconditioner"):
            fem.poincare_sobolev(mesh, 3.0, precond=factor)

    def test_descent_iteration_cap_names_last_drop(self):
        mesh = fem.polar_mesh(ellipse(0.2), 32)
        for q in (2.0, 3.0):  # the eigenvalue and an L^q constant
            with pytest.raises(fem.SolverError,
                               match=rf"L\^{q} descent did not converge in 1 iterations: "
                                     r"last relative drop \S+ > 1e-08$"):
                fem.poincare_sobolev(mesh, q, max_iter=1, precond=direct(mesh))

    def test_non_finite_preconditioner_raises(self):
        mesh = fem.polar_mesh(ellipse(0.2), 16)
        broken = FixedDirection(np.full(mesh.n_interior, np.nan))
        with pytest.raises(fem.SolverError, match="line search failed"):
            fem.principal_eigenvalue(mesh, precond=broken)
        with pytest.raises(fem.SolverError, match="line search failed"):
            fem.poincare_sobolev(mesh, 3.0, start=mesh.load[:mesh.n_interior],
                                 precond=broken)


class TestScalarField:
    def test_caller_array_is_not_modified(self):
        mesh = disk_mesh(4)
        v = np.ones(mesh.n_vertices)
        f = fem.ScalarField(mesh, v)
        assert np.all(v == 1.0)
        assert f.values is not v
        assert np.all(f.values[mesh.n_interior:] == 0.0)

    def test_values_are_read_only(self):
        # a field keeps its midpoint passes, which a write would make stale
        mesh = disk_mesh(4)
        f = fem.ScalarField(mesh, np.ones(mesh.n_vertices))
        with pytest.raises(ValueError, match="read-only"):
            f.values[0] = 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.values = np.zeros(mesh.n_vertices)


class TestMeshDump:
    def test_dump_format(self):
        mesh = disk_mesh(4)
        lines = mesh.dump().splitlines()
        n_v = sum(1 for ln in lines if ln.startswith("v "))
        n_t = sum(1 for ln in lines if ln.startswith("t "))
        n_b = sum(1 for ln in lines if ln.startswith("b "))
        assert (n_v, n_t, n_b) == (mesh.n_vertices, len(mesh.triangles),
                                   len(mesh.boundary_vertices))
