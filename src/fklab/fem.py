"""P1 finite elements on polar triangulations of star-shaped domains.

Meshes are built on a fixed "sunflower" topology: ring i carries 6i
vertices, so triangles stay near-equilateral on the disk, and the same
(rings)-mesh of any star domain is the disk mesh pushed radially onto
the boundary.  Deficits between a domain and the disk are therefore
computed on topologically identical meshes and the leading
discretization bias cancels.  Vertices are numbered center first, then
ring by ring, so the 6 * rings boundary vertices are the last block:
the interior unknowns are the leading slice ``[:n_interior]`` of every
nodal vector and matrix.

Each mesh owns at most one sparse factorization of its interior
stiffness matrix (symmetric-mode SuperLU), built on first use.  Torsion
(-Laplace u = 1, u = 0 on the boundary) is one conjugate-gradient solve
preconditioned by a factorization: the mesh's own, which makes it a
direct solve, or the matched disk mesh's, which is spectrally equivalent
because the two meshes share their topology, so a torsion-only domain
needs no factorization of its own.  The principal Dirichlet eigenvalue
comes from inverse power iteration and the optimal Poincare-Sobolev
constants from a normalized gradient descent in the energy inner product
with backtracking line search; both solve with the mesh's own factor.
Their stopping tolerances are the module constants below, the defaults
of each solver's ``tol`` argument; nothing sets them process-wide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .domain import StarDomain, unit_disk
from .geometry import triangles_disk_area

# bound on the torsion solve's true relative residual; preconditioned CG
# iterates until its recursive residual is below DEFAULT_CG_TOL / 100.  A
# solve by the mesh's own factor reaches 8e-14, 3.3e-13, 1.3e-12 and 5.4e-12
# at rings 32/64/128/256, one by the matched disk factor takes 4-10 steps
DEFAULT_CG_TOL = 1e-10
DEFAULT_EIG_TOL = 1e-8
DEFAULT_DESCENT_TOL = 1e-8
DEFAULT_Q_MAX = 4.0


class SolverError(RuntimeError):
    """Signals non-convergence of an iterative solve."""


class TriMesh:
    """Conforming P1 triangulation whose first ``n_interior`` vertices are
    the interior ones; every later vertex lies on the boundary."""

    def __init__(self, vertices: np.ndarray, triangles: np.ndarray, n_interior: int):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        self.n_interior = n_interior
        if np.min(self.signed_areas) <= 0.0:
            raise ValueError("mesh has inverted or degenerate elements")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def boundary_vertices(self) -> np.ndarray:
        return np.arange(self.n_interior, self.n_vertices)

    @cached_property
    def signed_areas(self) -> np.ndarray:
        v = self.vertices[self.triangles]
        d1 = v[:, 1] - v[:, 0]
        d2 = v[:, 2] - v[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def area(self) -> float:
        return float(np.sum(self.signed_areas))

    @cached_property
    def h(self) -> float:
        v = self.vertices[self.triangles]
        e = np.concatenate([v[:, 1] - v[:, 0], v[:, 2] - v[:, 1], v[:, 0] - v[:, 2]])
        return float(np.max(np.hypot(e[:, 0], e[:, 1])))

    @cached_property
    def _gradients(self) -> np.ndarray:
        # per-triangle gradients of the three barycentric functions, (m, 3, 2)
        v = self.vertices[self.triangles]
        edges = v[:, [2, 0, 1]] - v[:, [1, 2, 0]]  # edge opposite vertex i
        rot = np.stack([-edges[:, :, 1], edges[:, :, 0]], axis=-1)
        return rot / (2.0 * self.signed_areas)[:, None, None]

    def _assemble(self, entry) -> sp.csr_matrix:
        """Global matrix summing the element matrices; ``entry(i, j)`` is
        the (i, j) entry of every triangle's 3x3 element matrix."""
        tri = self.triangles
        ij = [(i, j) for i in range(3) for j in range(3)]
        a = sp.coo_matrix((np.concatenate([entry(i, j) for i, j in ij]),
                           (np.concatenate([tri[:, i] for i, _ in ij]),
                            np.concatenate([tri[:, j] for _, j in ij]))),
                          shape=(self.n_vertices, self.n_vertices))
        return a.tocsr()

    @cached_property
    def stiffness(self) -> sp.csr_matrix:
        g = self._gradients
        a = self.signed_areas
        return self._assemble(lambda i, j: a * np.sum(g[:, i] * g[:, j], axis=1))

    @cached_property
    def mass(self) -> sp.csr_matrix:
        a = self.signed_areas
        return self._assemble(lambda i, j: a * ((2.0 if i == j else 1.0) / 12.0))

    @cached_property
    def load(self) -> np.ndarray:
        """Exact integrals of the P1 basis functions (area/3 per vertex)."""
        return np.bincount(self.triangles.ravel(),
                           np.repeat(self.signed_areas / 3.0, 3),
                           minlength=self.n_vertices)

    @cached_property
    def _interior_stiffness(self) -> sp.csr_matrix:
        n = self.n_interior
        return self.stiffness[:n, :n]

    @cached_property
    def _interior_factor(self):
        # the mesh's only factorization; the symmetric ordering and diagonal
        # pivots suit the SPD interior stiffness and keep the fill low
        return spla.splu(self._interior_stiffness.tocsc(),
                         permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})

    def dump(self) -> str:
        """Text dump: ``v x y`` / ``t i j k`` / ``b i`` lines."""
        lines = [f"v {float(x)!r} {float(y)!r}" for x, y in self.vertices]
        lines += [f"t {i} {j} {k}" for i, j, k in self.triangles]
        lines += [f"b {i}" for i in self.boundary_vertices]
        return "\n".join(lines) + "\n"


@dataclass
class SolveStats:
    iterations: int
    residual: float


@dataclass
class ScalarField:
    """Nodal P1 field with zero boundary values."""

    mesh: TriMesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.array(self.values, dtype=float)  # the caller keeps its array
        if self.values.shape != (self.mesh.n_vertices,):
            raise ValueError("field length does not match the mesh")
        self.values[self.mesh.n_interior:] = 0.0


def _extend(mesh: TriMesh, x: np.ndarray) -> np.ndarray:
    """Nodal values from interior values, zero on the boundary."""
    values = np.zeros(mesh.n_vertices)
    values[:mesh.n_interior] = x
    return values


def polar_mesh(d: StarDomain, rings: int) -> TriMesh:
    """Ring/sector triangulation of a star domain (6i vertices on ring i).

    Vertices are numbered center first, then ring by ring outward, each
    ring counterclockwise from theta = 0; the outermost ring, the
    boundary, is the last block.  Per ring and per sector of 60 degrees
    the triangles run through the i outward ones (an edge on ring i)
    and then the i - 1 inward ones (an edge on ring i - 1).
    """
    if rings < 4:
        raise ValueError(f"rings must be >= 4, got {rings}")
    n_vertices = 1 + 3 * rings * (rings + 1)
    theta = np.zeros(n_vertices)
    rho = np.zeros(n_vertices)
    blocks = []
    seg = np.arange(6)[:, None]
    for i in range(1, rings + 1):
        so, no = 1 + 3 * i * (i - 1), 6 * i  # first vertex and size of ring i
        theta[so:so + no] = np.arange(no) * (2.0 * math.pi / no)
        rho[so:so + no] = i / rings
        k = np.arange(no).reshape(6, i)      # [seg, t]: outward triangle t of sector seg
        if i == 1:  # the fan around the center
            blocks.append(np.stack([np.zeros_like(k), so + k, so + (k + 1) % no], axis=-1))
            continue
        si, ni = so - (no - 6), no - 6       # first vertex and size of ring i - 1
        m = np.arange(ni).reshape(6, i - 1)  # [seg, t]: inward triangle t of sector seg
        outward = np.stack([so + k, so + (k + 1) % no, si + (k - seg) % ni], axis=-1)
        inward = np.stack([si + m, so + m + seg + 1, si + (m + 1) % ni], axis=-1)
        blocks.append(np.concatenate([outward, inward], axis=1))
    tris = np.concatenate([b.reshape(-1, 3) for b in blocks])

    r_bound = d.radius(theta)
    verts = np.stack([
        d.center[0] + rho * r_bound * np.cos(theta),
        d.center[1] + rho * r_bound * np.sin(theta),
    ], axis=1)
    return TriMesh(verts, tris, n_vertices - 6 * rings)


def disk_mesh(rings: int) -> TriMesh:
    return polar_mesh(unit_disk(), rings)


def solve_torsion(mesh: TriMesh, tol: float = DEFAULT_CG_TOL, precond=None,
                  max_iter: int = 100) -> tuple[ScalarField, SolveStats]:
    """Solve -Laplace u = 1 with zero boundary values by conjugate
    gradients preconditioned with ``precond``, a factorization with a
    ``solve`` method (default: the mesh's own, so the start is the
    direct solve).  The start is ``precond.solve(b)``; CG iterates until
    the recursive relative residual is at most ``tol / 100``, and a true
    relative residual above ``tol`` raises.  ``SolveStats.iterations``
    counts the preconditioner solves."""
    a = mesh._interior_stiffness
    b = mesh.load[:mesh.n_interior]
    if precond is None:
        precond = mesh._interior_factor
    if precond.shape != a.shape:
        raise ValueError(f"preconditioner of shape {precond.shape} does not match "
                         f"the interior stiffness {a.shape}")
    b_norm = np.linalg.norm(b)
    x = precond.solve(b)
    r = b - a @ x
    res = np.linalg.norm(r) / b_norm
    it, p, rz = 1, np.zeros_like(b), 1.0
    while res > tol / 100.0:
        if it >= max_iter:
            raise SolverError(f"torsion PCG did not converge in {it} iterations: "
                              f"relative residual {res:.3g} > {tol / 100.0:.3g}")
        z = precond.solve(r)
        it += 1
        rz, rz_prev = float(r @ z), rz
        p = z + (rz / rz_prev) * p
        ap = a @ p
        alpha = rz / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        res = np.linalg.norm(r) / b_norm
    res = float(np.linalg.norm(a @ x - b) / b_norm)
    if not res <= tol:
        raise SolverError(f"torsion PCG stopped after {it} iterations with true "
                          f"relative residual {res:.3g} > {tol:.3g}")
    return ScalarField(mesh, _extend(mesh, x)), SolveStats(it, res)


def integral(u: ScalarField) -> float:
    """Exact integral of the P1 field."""
    return float(u.mesh.load @ u.values)


def energy_of(u: ScalarField) -> float:
    """Torsional energy -(1/2) int u of a torsion solution."""
    return -0.5 * integral(u)


def lq_integral(u: ScalarField, q: float) -> float:
    """int |u|^q: exact mass-matrix quadrature for q in {1, 2}, otherwise
    the 3-point edge-midpoint rule per triangle."""
    if q == 1.0:
        return float(u.mesh.load @ np.abs(u.values))
    if q == 2.0:
        return float(u.values @ (u.mesh.mass @ u.values))
    mids, w = _midpoints(u.mesh, u.values)
    return float(np.sum(w * np.abs(mids) ** q))


def _midpoints(mesh: TriMesh, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values at the edge midpoints, column i opposite vertex i, (m, 3),
    and their quadrature weights area/3, (m, 1)."""
    uv = values[mesh.triangles]
    mids = 0.5 * np.stack([uv[:, 1] + uv[:, 2],
                           uv[:, 0] + uv[:, 2],
                           uv[:, 0] + uv[:, 1]], axis=1)
    return mids, (mesh.signed_areas / 3.0)[:, None]


def _lq_gradient(mesh: TriMesh, values: np.ndarray, q: float) -> np.ndarray:
    """Gradient of v -> int |v|^q with respect to nodal values."""
    if q == 1.0:
        return mesh.load * np.sign(values)
    if q == 2.0:
        return 2.0 * (mesh.mass @ values)
    mids, w = _midpoints(mesh, values)
    dmid = w * (0.5 * q) * np.abs(mids) ** (q - 1.0) * np.sign(mids)
    # midpoint i feeds the two vertices of its edge, the ones other than i
    return np.bincount(mesh.triangles[:, [1, 2, 0, 2, 0, 1]].T.ravel(),
                       np.repeat(dmid.T, 2, axis=0).ravel(),
                       minlength=mesh.n_vertices)


def principal_eigenvalue(mesh: TriMesh, tol: float = DEFAULT_EIG_TOL,
                         max_iter: int = 400) -> tuple[float, ScalarField]:
    """Smallest Dirichlet eigenvalue by inverse power iteration (shift 0)."""
    n = mesh.n_interior
    k = mesh._interior_stiffness
    m = mesh.mass[:n, :n]
    lu = mesh._interior_factor
    x = mesh.load[:n].copy()
    x /= math.sqrt(x @ (m @ x))
    lam_prev = math.inf
    for it in range(1, max_iter + 1):
        y = lu.solve(m @ x)
        y /= math.sqrt(y @ (m @ y))
        lam = float(y @ (k @ y))
        if abs(lam - lam_prev) <= tol:
            x = y
            break
        lam_prev = lam
        x = y
    else:
        raise SolverError("inverse power iteration stagnated")
    if np.sum(x) < 0:
        x = -x
    return lam, ScalarField(mesh, _extend(mesh, x))


def poincare_sobolev(mesh: TriMesh, q: float, tol: float = DEFAULT_DESCENT_TOL,
                     q_max: float = DEFAULT_Q_MAX, max_iter: int = 500) -> float:
    """Optimal constant of the embedding into L^q: min of the Dirichlet
    integral over Dirichlet fields with unit L^q norm.

    Descent in the energy inner product: from the current normalized
    iterate, step against u - R(u) K^{-1} grad(norm term) with
    backtracking, and stop once the Rayleigh quotient decreases by less
    than ``tol`` in relative terms.  A line search that finds no decrease
    raises ``SolverError`` unless the direction's energy norm over sqrt(R)
    is at most ``tol``, i.e. the iterate is already critical.
    """
    q = float(q)
    if not 1.0 <= q <= q_max:
        raise ValueError(f"exponent q={q} outside the supported range [1, {q_max}]")
    n = mesh.n_interior
    k = mesh._interior_stiffness
    lu = mesh._interior_factor

    def norm_q(x):
        return lq_integral(ScalarField(mesh, _extend(mesh, x)), q) ** (1.0 / q)

    def grad_rho(x):
        # gradient of ||.||_q at a unit-norm point, interior dofs
        return _lq_gradient(mesh, _extend(mesh, x), q)[:n] / q

    u = lu.solve(mesh.load[:n])  # torsion start, positive
    u /= norm_q(u)
    rayleigh = float(u @ (k @ u))
    for it in range(max_iter):
        w = grad_rho(u)
        direction = u - rayleigh * lu.solve(w)
        step = 1.0
        improved = False
        for _ in range(40):
            trial = u - step * direction
            nrm = norm_q(trial)
            if nrm > 0.0:
                trial = trial / nrm
                r_trial = float(trial @ (k @ trial))
                if r_trial < rayleigh:
                    improved = True
                    break
            step *= 0.5
        if not improved:
            dnorm = math.sqrt(float(direction @ (k @ direction)) / rayleigh)
            if dnorm > tol:
                raise SolverError(f"L^{q} descent line search failed at iteration {it} "
                                  f"with relative direction norm {dnorm:.3g} > {tol:.3g}")
            return rayleigh
        drop = (rayleigh - r_trial) / rayleigh
        u, rayleigh = trial, r_trial
        if drop <= tol:
            return rayleigh
    raise SolverError(f"L^{q} descent did not converge in {max_iter} iterations")


def tail_sup(u: ScalarField, ball_radius: float) -> tuple[float, float]:
    """(sup of u outside B_{R+1}, |domain outside B_R|), balls at the origin."""
    if ball_radius < 1.0:
        raise ValueError("tail radius must be >= 1")
    mesh = u.mesh
    if abs(mesh.area() / math.pi - 1.0) > 0.05:
        raise ValueError("tail estimate expects a volume-normalized domain")
    dist = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
    outside = dist > ball_radius + 1.0
    sup = float(np.max(u.values[outside])) if np.any(outside) else 0.0
    tri_verts = mesh.vertices[mesh.triangles]
    measure = mesh.area() - triangles_disk_area(tri_verts, (0.0, 0.0), ball_radius)
    return max(sup, 0.0), max(measure, 0.0)
