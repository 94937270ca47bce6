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

Everything that depends on the ring count alone is built once per
process in a read-only :class:`RingSkeleton`: the triangles, the vertex
angles and ring radii, the unique edges, the full CSR pattern and its
leading interior block.  A domain's mesh evaluates its boundary radius
and scales the skeleton's unit vectors; its triangle areas and squared
edge lengths L are gathers on contiguous x and y columns.  Assembly is
one pass over the edges that fills the full pattern: in a triangle of
area A the edge opposite vertex k adds (L_k - L_{k+1} - L_{k+2}) / (8A),
which is -cot(angle at k) / 2, to its off-diagonal stiffness entry, one
``bincount`` sums each edge's two triangles and the diagonal is minus the
row sum.  A mesh keeps only the interior block of that data, read where
the skeleton marks its entries in the interior-first pattern: the
stiffness every solver reads.  Mass, which no solver reads, follows from
the per-edge areas and the load vector on the full pattern.  The L^q
integrals use the 3-point edge-midpoint rule, each unique edge midpoint
once; one pass over the edges gives a field's integral and its
gradient, and the field keeps that pass.  The 2r-ring skeleton is the
red refinement of the r-ring one: :func:`prolongation` carries nodal
values from the coarser mesh to the finer one's interior, and its
interior columns, cached per ring count, carry interior values between
the two levels.

Every solver requires a ``precond``, any fixed SPD operator on the
interior values with a ``solve`` method and a ``shape``, which
``stability.Level`` chooses for every (domain, rings) problem: a
:class:`VCycle`, one symmetric multigrid V-cycle over the same domain's
meshes at half, a quarter, ... of the ring count, down to a small mesh
that is factored, or a factorization by :func:`factorize`.  A matrix of
at most ``DENSE_ROWS`` rows, as every chain bottom's stiffness is at the
default ring counts, is factored densely by numpy; a larger one by
symmetric-mode SuperLU, fklab's only use of scipy.sparse.linalg, which
is imported then.  Torsion (-Laplace u = 1, u = 0 on the boundary) is
one conjugate-gradient solve preconditioned by it; with a factorization
that is a direct solve.
Every optimal Poincare-Sobolev constant lambda_q comes from one normalized
preconditioned gradient descent with backtracking line search, a
Sobolev-gradient descent in the inner product of the preconditioner (J.
W. Neuberger, Sobolev Gradients and Differential Equations), with one
midpoint pass per iterate: the pass of the accepted trial that gave its
norm also gives the next gradient.  The principal Dirichlet eigenvalue
is its q = 2 member, where the L^2 norm of the midpoint rule is exactly
the mass quadratic form.  The descent returns its solution field with
the value and takes an optional ``start``, first smoothed by damped
Jacobi sweeps, which cost no solve;
started from the prolonged solution at half the ring count (nested
iteration), it takes 2-3 solves at rings 128, by a factorization or by
the V-cycle.  The stopping tolerances are the module constants
below, the defaults of each solver's ``tol`` argument; nothing sets them
process-wide.  The solvers' inner products and norms of nodal vectors
are summed by numpy, not by BLAS, so no value depends on the BLAS thread
count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .domain import StarDomain

# bound on the torsion solve's true relative residual; preconditioned CG
# iterates until its recursive residual is below DEFAULT_CG_TOL / 10.  A
# solve preconditioned by the mesh's factorization reaches 8e-14, 3.3e-13,
# 1.3e-12 and 5.4e-12 at rings 32/64/128/256, so it stops after one step,
# and one by the V-cycle takes 10-19 steps at rings 128
DEFAULT_CG_TOL = 1e-10
DEFAULT_DESCENT_TOL = 1e-8
DEFAULT_Q_MAX = 4.0
# matrices up to the interior stiffness of a rings-7 mesh are factored densely
DENSE_ROWS = 127
# damping of the V-cycle's Jacobi sweeps, lowered on a mesh whose
# Gershgorin bound would make it diverge
JACOBI_WEIGHT = 0.8


class SolverError(RuntimeError):
    """Signals non-convergence of an iterative solve."""


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """The inner product of two vectors, summed by numpy, not BLAS.  ``@``
    calls BLAS ddot, which OpenBLAS splits over its threads from about 10k
    entries: a rings-128 interior vector has about 49k, so the sum would
    depend on the thread count, and threads of parallel sweep workers
    spin against each other."""
    return float(np.einsum("i,i->", a, b))


def _norm(a: np.ndarray) -> float:
    """The Euclidean norm of a vector, through :func:`_dot`."""
    return math.sqrt(_dot(a, a))


@dataclass(frozen=True, eq=False)
class RingSkeleton:
    """Topology of the polar mesh with ``rings`` rings, shared read-only by
    the meshes of every domain at that ring count.

    Per vertex: the polar angle ``theta`` with its ``cos`` and ``sin``, and
    the ring radius ``rho`` (ring / rings).  ``edges`` lists every edge
    once, lower vertex first, in increasing order; ``triangle_edges[t, k]``
    is the edge of triangle t opposite its vertex k.  ``indptr`` and
    ``indices`` are the full CSR pattern, that of the mass matrix and of
    the stiffness as it is assembled: the diagonal and both directions of
    every edge, columns sorted.
    ``edge_slots[e]`` holds the data positions of the entries (lo, hi) and
    (hi, lo) of edge e, ``diagonal_slots[i]`` that of the entry (i, i).
    Every index array but the CSR pattern has the platform index type, and
    the 2-D ones are stored column by column, so ``triangles.T`` and each
    column are contiguous gather and scatter indices that need no
    conversion.  Rows and columns put the interior vertices first, so the
    leading ``n_interior`` block keeps a leading run of each interior row:
    ``interior_indptr`` and ``interior_indices`` are its pattern, that of
    every mesh's stiffness, and ``interior_entries`` marks its entries in
    the full data.
    ``midpoints`` is the sparse (edges x vertices) map from nodal values
    to edge-midpoint values; its transpose sends half of each midpoint
    value to either end of the edge.
    """

    rings: int
    theta: np.ndarray
    cos: np.ndarray
    sin: np.ndarray
    rho: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray
    triangle_edges: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    edge_slots: np.ndarray
    diagonal_slots: np.ndarray
    interior_indptr: np.ndarray
    interior_indices: np.ndarray
    interior_entries: np.ndarray
    midpoints: sp.csr_matrix

    @property
    def n_vertices(self) -> int:
        return len(self.theta)

    @property
    def n_interior(self) -> int:
        return self.n_vertices - 6 * self.rings


@cache
def ring_skeleton(rings: int) -> RingSkeleton:
    """The skeleton of the ``rings``-ring mesh, built once per process.

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
    tris = np.concatenate([b.reshape(-1, 3) for b in blocks]).astype(np.int32)

    # the edge opposite vertex k joins vertices k + 1 and k + 2
    ends = np.sort(np.stack([tris[:, [1, 2, 0]], tris[:, [2, 0, 1]]], axis=-1), axis=-1)
    keys, tri_edges = np.unique(ends[..., 0].astype(np.int64) * n_vertices + ends[..., 1],
                                return_inverse=True)
    edges = np.stack([keys // n_vertices, keys % n_vertices], axis=1).astype(np.int32)
    n_edges = len(edges)
    diagonal = np.arange(n_vertices, dtype=np.int32)
    rows = np.concatenate([edges[:, 0], edges[:, 1], diagonal])
    cols = np.concatenate([edges[:, 1], edges[:, 0], diagonal])
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    slots = np.empty_like(order)
    slots[order] = np.arange(len(order))
    indptr = np.zeros(n_vertices + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n_vertices), out=indptr[1:])
    n_interior = n_vertices - 6 * rings
    interior_entries = (rows < n_interior) & (cols < n_interior)
    interior_indptr = np.zeros(n_interior + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows[interior_entries], minlength=n_interior),
              out=interior_indptr[1:])
    midpoints = sp.csr_matrix((np.full(2 * n_edges, 0.5), edges.ravel(),
                               np.arange(0, 2 * n_edges + 1, 2, dtype=np.int32)),
                              shape=(n_edges, n_vertices))

    arrays = {
        "theta": theta, "cos": np.cos(theta), "sin": np.sin(theta), "rho": rho,
        "triangles": np.asfortranarray(tris, dtype=np.intp),
        "edges": np.asfortranarray(edges, dtype=np.intp),
        "triangle_edges": np.asfortranarray(tri_edges.reshape(-1, 3), dtype=np.intp),
        "indptr": indptr, "indices": cols,
        "edge_slots": np.asfortranarray(slots[:2 * n_edges].reshape(2, n_edges).T),
        "diagonal_slots": slots[2 * n_edges:],
        "interior_indptr": interior_indptr, "interior_indices": cols[interior_entries],
        "interior_entries": interior_entries,
    }
    for a in [*arrays.values(), midpoints.data, midpoints.indices, midpoints.indptr]:
        a.flags.writeable = False
    return RingSkeleton(rings, midpoints=midpoints, **arrays)


def _first_vertex(ring: np.ndarray) -> np.ndarray:
    """Index of the first vertex of each ring (the center is ring 0)."""
    return np.where(ring > 0, 1 + 3 * ring * (ring - 1), 0)


def prolongation(rings: int) -> sp.csr_matrix:
    """The sparse map from nodal values of the ``rings``-ring mesh to the
    interior values of the ``2 * rings``-ring mesh, read-only; the solvers
    read its cached interior columns, :func:`_interior_transfer`.

    The finer skeleton is the red refinement of the coarser one: its
    vertices are the coarse vertices, vertex k of ring i at vertex 2k of
    ring 2i, and one per coarse edge.  An edge along ring i gives vertex
    2k + 1 of ring 2i, with k its first end counterclockwise; an edge from
    vertex k of ring i to vertex m of ring i + 1 gives vertex k + m of ring
    2i + 1, counting k from 6i on the edge that closes the ring.  An
    inherited vertex copies its value and an edge vertex takes the mean of
    the edge's two ends, the row of the coarse ``midpoints`` map.
    """
    sk = ring_skeleton(rings)
    n_fine = ring_skeleton(2 * rings).n_interior
    ring = np.rint(sk.rho * rings).astype(np.int64)
    local = np.arange(sk.n_vertices) - _first_vertex(ring)
    a, b = sk.edges[:, 0], sk.edges[:, 1]
    ra, ka, kb = ring[a], local[a], local[b]
    along = np.where(kb == ka + 1, 2 * ka + 1, 2 * kb + 1)
    across = ka + kb + np.where(kb - ka > 6, 6 * ra, 0)
    fine_index = np.concatenate([
        _first_vertex(2 * ring) + 2 * local,
        np.where(ring[b] == ra, _first_vertex(2 * ra) + along,
                 _first_vertex(2 * ra + 1) + across)])
    rows = np.argsort(fine_index)[:n_fine]
    stacked = sp.vstack([sp.identity(sk.n_vertices, format="csr"), sk.midpoints],
                        format="csr")
    p = stacked[rows]
    _freeze(p)
    return p


def _freeze(m: sp.csr_matrix) -> None:
    for arr in (m.data, m.indices, m.indptr):
        arr.flags.writeable = False


@cache
def _interior_transfer(rings: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """:func:`prolongation` restricted to the interior columns, the map
    between the interior values of the ``rings``- and ``2 * rings``-ring
    meshes, and its transpose, the restriction; built once per process
    and read-only."""
    p = prolongation(rings)[:, :ring_skeleton(rings).n_interior].tocsr()
    r = p.T.tocsr()
    _freeze(p)
    _freeze(r)
    return p, r


class TriMesh:
    """P1 triangulation of one domain on the shared skeleton of its ring
    count: the first ``n_interior`` vertices are the interior ones, every
    later vertex lies on the boundary."""

    def __init__(self, vertices: np.ndarray, skeleton: RingSkeleton):
        # the x and y columns, each contiguous: a gather from one is several
        # times faster than the 2-D gather vertices[triangles]
        self._xy = np.ascontiguousarray(np.asarray(vertices, dtype=float).T)
        self.vertices = self._xy.T
        self.skeleton = skeleton
        self.triangles = skeleton.triangles
        self.n_interior = skeleton.n_interior
        if self.vertices.shape != (skeleton.n_vertices, 2):
            raise ValueError("vertex array does not match the skeleton")
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
        (x0, x1, x2), (y0, y1, y2) = (c[self.triangles.T] for c in self._xy)
        return 0.5 * ((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))

    def area(self) -> float:
        return float(np.sum(self.signed_areas))

    def _squared_lengths(self) -> np.ndarray:
        """Squared length of each edge of the skeleton."""
        a, b = self.skeleton.edges.T
        dx, dy = (c[b] - c[a] for c in self._xy)
        return dx * dx + dy * dy

    @cached_property
    def h(self) -> float:
        return math.sqrt(float(np.max(self._squared_lengths())))

    @cached_property
    def _edge_weights(self) -> np.ndarray:
        """A third of the area of each edge's triangles: the weight of the
        edge midpoint in the 3-point midpoint rule."""
        return np.bincount(self.skeleton.triangle_edges.T.ravel(),
                           np.tile(self.signed_areas / 3.0, 3),
                           minlength=len(self.skeleton.edges))

    def _data(self, edge_values: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
        """Data of a symmetric matrix on the skeleton's full pattern."""
        sk = self.skeleton
        data = np.empty(len(sk.indices))
        lo_hi, hi_lo = sk.edge_slots.T
        data[lo_hi] = edge_values
        data[hi_lo] = edge_values
        data[sk.diagonal_slots] = diagonal
        return data

    @cached_property
    def stiffness(self) -> sp.csr_matrix:
        """The interior stiffness, the leading ``n_interior`` block that
        every solver reads, assembled from the squared edge lengths L: in a
        triangle of area A the edge opposite vertex k adds (L_k - L_{k+1} -
        L_{k+2}) / (8 A) = -cot(angle at k) / 2 to its entry, each unique
        edge summing its two triangles; the constants span the kernel of
        the full matrix, so each diagonal entry is minus the sum of its
        full row.  The full data is a temporary: the block keeps the
        entries the skeleton marks as interior."""
        sk = self.skeleton
        # (L_k - L_{k+1} - L_{k+2}) / (8 A) = (L_k - sum / 2) / (4 A)
        per_triangle = self._squared_lengths()[sk.triangle_edges.T]
        per_triangle -= per_triangle.sum(axis=0) / 2.0
        per_triangle *= 0.25 / self.signed_areas
        per_edge = np.bincount(sk.triangle_edges.T.ravel(), per_triangle.ravel(),
                               minlength=len(sk.edges))
        lo, hi = sk.edges.T
        row_sums = (np.bincount(lo, per_edge, minlength=self.n_vertices)
                    + np.bincount(hi, per_edge, minlength=self.n_vertices))
        n = self.n_interior
        return sp.csr_matrix((self._data(per_edge, -row_sums)[sk.interior_entries],
                              sk.interior_indices, sk.interior_indptr), shape=(n, n))

    @cached_property
    def mass(self) -> sp.csr_matrix:
        """The full mass matrix: edge (i, j) carries a twelfth of the area
        of its triangles, vertex i a sixth of the area of its triangles
        (half its load)."""
        sk = self.skeleton
        return sp.csr_matrix((self._data(self._edge_weights / 4.0, self.load / 2.0),
                              sk.indices, sk.indptr),
                             shape=(self.n_vertices, self.n_vertices))

    @cached_property
    def load(self) -> np.ndarray:
        """Exact integrals of the P1 basis functions (area/3 per vertex)."""
        return np.bincount(self.triangles.ravel(),
                           np.repeat(self.signed_areas / 3.0, 3),
                           minlength=self.n_vertices)

    @cached_property
    def _interior_diagonal(self) -> np.ndarray:
        """The diagonal of the interior stiffness."""
        return self.stiffness.diagonal()

    def dump(self) -> str:
        """Text dump: ``v x y`` / ``t i j k`` / ``b i`` lines."""
        lines = [f"v {float(x)!r} {float(y)!r}" for x, y in self.vertices]
        lines += [f"t {i} {j} {k}" for i, j, k in self.triangles]
        lines += [f"b {i}" for i in self.boundary_vertices]
        return "\n".join(lines) + "\n"


class DenseInverse:
    """The inverse of a small SPD matrix, stored dense and made exactly
    symmetric, an SPD operator with ``solve`` and ``shape``.

    The inverse comes from Gauss-Jordan elimination on [A | I] with the
    diagonal pivots, all positive on an SPD matrix, one elementwise rank-1
    update per pivot; ``solve`` is a product summed by numpy's einsum.
    Neither calls BLAS or LAPACK, so no bit depends on the BLAS thread
    count, as that of OpenBLAS's LAPACK inverse does at the 127 unknowns of
    rings 7."""

    def __init__(self, a: sp.csr_matrix):
        n = a.shape[0]
        m = np.hstack([a.toarray(), np.eye(n)])
        for k in range(n):
            m[k] /= m[k, k]
            column = m[:, k].copy()
            column[k] = 0.0
            m -= np.multiply.outer(column, m[k])
        inverse = m[:, n:]
        self._inverse = (inverse + inverse.T) / 2.0
        self.shape = a.shape

    def solve(self, b: np.ndarray) -> np.ndarray:
        return np.einsum("ij,j->i", self._inverse, b)


def factorize(a: sp.csr_matrix):
    """A factorization of ``a``, an SPD interior stiffness, with ``solve``
    and ``shape``: a :class:`DenseInverse` up to ``DENSE_ROWS`` rows,
    otherwise SuperLU, whose symmetric ordering and diagonal pivots suit
    an SPD matrix and keep the fill low."""
    if a.shape[0] <= DENSE_ROWS:
        return DenseInverse(a)
    # imported on first use: it adds about 0.1 s and 10 MB to a process
    import scipy.sparse.linalg as spla
    return spla.splu(a.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})


@dataclass
class SolveStats:
    iterations: int
    residual: float


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Nodal P1 field with zero boundary values, read-only once built: it
    keeps its midpoint pass per exponent q, which :func:`lq_integral` and
    :func:`_lq_gradient` read."""

    mesh: TriMesh
    values: np.ndarray
    _passes: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        values = np.array(self.values, dtype=float)  # the caller keeps its array
        if values.shape != (self.mesh.n_vertices,):
            raise ValueError("field length does not match the mesh")
        values[self.mesh.n_interior:] = 0.0
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def _quadrature(self, q: float) -> tuple[float, np.ndarray]:
        """:func:`_midpoint_pass` of this field, run once per q."""
        if q not in self._passes:
            self._passes[q] = _midpoint_pass(self, q)
        return self._passes[q]


def _extend(mesh: TriMesh, x: np.ndarray) -> np.ndarray:
    """Nodal values from interior values, zero on the boundary."""
    values = np.zeros(mesh.n_vertices)
    values[:mesh.n_interior] = x
    return values


def polar_mesh(d: StarDomain, rings: int) -> TriMesh:
    """The ``rings``-ring mesh of a star domain (6i vertices on ring i):
    the vertices of :func:`ring_skeleton` pushed radially onto the
    domain's boundary."""
    sk = ring_skeleton(rings)
    r = sk.rho * d.radius(sk.theta)
    xy = np.stack([d.center[0] + r * sk.cos, d.center[1] + r * sk.sin])
    return TriMesh(xy.T, sk)


class VCycle:
    """One symmetric multigrid V-cycle for the interior stiffness A of
    ``mesh``, a fixed SPD operator B approximating A^{-1}
    (W. Hackbusch, Multi-Grid Methods and Applications, Springer 1985).

    ``solve(b)`` runs two damped Jacobi sweeps from zero, restricts the
    residual by the transposed interior prolongation, applies
    ``coarse.solve`` on the mesh of half the ring count of the same domain,
    prolongs the correction and runs two more Jacobi sweeps.  ``coarse``
    is any SPD operator with ``solve`` and ``shape``: the coarse level's
    own V-cycle, or at the bottom of the chain a factorization.  The
    Jacobi weight is ``JACOBI_WEIGHT`` capped at 1.9 / max_i sum_j
    |a_ij| / a_ii, a Gershgorin bound on the spectrum of D^{-1} A whose
    row sums are read from A's CSR data, so a sweep contracts the error
    in the energy norm and B is SPD on every mesh; I - B A is the product
    of the sweeps and the coarse correction, self-adjoint in that norm.
    Every residual and the prolonged correction of one application go
    through one work vector, each product by :func:`_csr_matvec`."""

    def __init__(self, mesh: TriMesh, coarse):
        a, rings = mesh.stiffness, mesh.skeleton.rings
        self._p, self._r = _interior_transfer(rings // 2)
        if self._p.shape != (a.shape[0], coarse.shape[0]):
            raise ValueError(f"coarse operator of shape {coarse.shape} does not match "
                             f"the {rings // 2}-ring interior of a {a.shape} stiffness")
        diagonal = mesh._interior_diagonal
        # reduceat needs no empty row: every interior row holds its diagonal
        row_sums = np.add.reduceat(np.abs(a.data), a.indptr[:-1])
        gershgorin = float(np.max(row_sums / diagonal))
        self.weight = min(JACOBI_WEIGHT, 1.9 / gershgorin)
        self.shape = a.shape
        self._a, self._coarse = a, coarse
        self._d_inv = self.weight / diagonal

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = self._d_inv * b
        t = np.empty_like(x)  # the one work vector: residuals, prolonged correction
        self._sweep(b, x, t)
        np.subtract(b, _csr_matvec(self._a, x, t), out=t)
        coarse = self._coarse.solve(_csr_matvec(self._r, t, np.empty(self._r.shape[0])))
        x += _csr_matvec(self._p, coarse, t)
        for _ in range(2):
            self._sweep(b, x, t)
        return x

    def _sweep(self, b: np.ndarray, x: np.ndarray, t: np.ndarray) -> None:
        """One damped Jacobi sweep, x += D^{-1} (b - A x), in place."""
        np.subtract(b, _csr_matvec(self._a, x, t), out=t)
        t *= self._d_inv
        x += t


def _csr_matvec(a: sp.csr_matrix, x: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """``a @ x`` written into ``out``, which must not be ``x``, or into a
    new vector, by scipy's CSR kernel, the one that ``a @ x`` runs on a
    zeroed result, so the two agree bit for bit.  It skips the about 6 us
    of scipy's operator dispatch, which is most of a product on the
    V-cycle's levels below rings 32, and with ``out`` the allocation."""
    if out is None:
        out = np.zeros(a.shape[0])
    else:
        out.fill(0.0)
    _sparsetools.csr_matvec(a.shape[0], a.shape[1], a.indptr, a.indices, a.data, x, out)
    return out


def _preconditioner(mesh: TriMesh, precond):
    """``precond``, any fixed SPD operator on the mesh's interior values
    with a ``solve`` method and a ``shape``, such as a factorization or a
    :class:`VCycle`, checked against the mesh."""
    shape = (mesh.n_interior, mesh.n_interior)
    if precond.shape != shape:
        raise ValueError(f"preconditioner of shape {precond.shape} does not match "
                         f"the interior stiffness {shape}")
    return precond


def solve_torsion(mesh: TriMesh, *, precond, tol: float = DEFAULT_CG_TOL,
                  max_iter: int = 100) -> tuple[ScalarField, SolveStats]:
    """Solve -Laplace u = 1 with zero boundary values by conjugate
    gradients preconditioned with ``precond``, any fixed SPD operator with
    ``solve`` and ``shape`` (with a factorization the start is the direct
    solve).  The start is ``precond.solve(b)``; CG iterates until the
    recursive relative residual is at most ``tol / 10``, and a true
    relative residual above ``tol`` raises.  ``SolveStats.iterations``
    counts the preconditioner solves."""
    a = mesh.stiffness
    b = mesh.load[:mesh.n_interior]
    precond = _preconditioner(mesh, precond)
    b_norm = _norm(b)
    x = precond.solve(b)
    r = b - _csr_matvec(a, x)
    r_norm = _norm(r)
    it, p, rz = 1, np.zeros_like(b), 1.0
    while r_norm > tol / 10.0 * b_norm:
        if it >= max_iter:
            raise SolverError(f"torsion PCG did not converge in {it} iterations: relative "
                              f"residual {r_norm / b_norm:.3g} > {tol / 10.0:.3g}")
        z = precond.solve(r)
        it += 1
        rz, rz_prev = _dot(r, z), rz
        p = z + (rz / rz_prev) * p
        ap = _csr_matvec(a, p)
        alpha = rz / _dot(p, ap)
        x += alpha * p
        r -= alpha * ap
        r_norm = _norm(r)
    res = _norm(_csr_matvec(a, x) - b) / b_norm
    if not res <= tol:
        raise SolverError(f"torsion PCG stopped after {it} iterations with true "
                          f"relative residual {res:.3g} > {tol:.3g}")
    return ScalarField(mesh, _extend(mesh, x)), SolveStats(it, res)


def integral(u: ScalarField) -> float:
    """Exact integral of the P1 field."""
    return _dot(u.mesh.load, u.values)


def energy_of(u: ScalarField) -> float:
    """Torsional energy -(1/2) int u of a torsion solution."""
    return -0.5 * integral(u)


def _midpoint_pass(u: ScalarField, q: float) -> tuple[float, np.ndarray]:
    """The one pass of the 3-point edge-midpoint rule over ``u``: with m
    the edge-midpoint values and w the edge weights, the per-edge vector s
    = w |m|^(q-1) sign(m) and int |u|^q = s.m.  For q in {1.5, 2, 3} the
    power takes numpy's fast paths (sqrt, copy, square).  The sign is
    copied from m, so at q = 1 a zero midpoint takes the subgradient +-w."""
    mesh = u.mesh
    w = mesh._edge_weights  # first, so a mesh's first pass builds it without m and s
    m = _csr_matvec(mesh.skeleton.midpoints, u.values)
    s = np.abs(m)
    s **= q - 1.0
    np.copysign(s, m, out=s)
    s *= w
    return _dot(s, m), s


def lq_integral(u: ScalarField, q: float) -> float:
    """int |u|^q by the 3-point edge-midpoint rule, each edge midpoint
    taken once with a third of the area of its triangles; exact for q = 2,
    where |u|^2 is piecewise quadratic, and for q = 1 when u has one sign,
    where |u| is linear on each triangle.  The field keeps the pass that
    gives the value, so its gradient, :func:`_lq_gradient`, costs one
    transposed product more."""
    return u._quadrature(q)[0]


def _lq_gradient(u: ScalarField, q: float) -> np.ndarray:
    """Gradient of ``lq_integral`` with respect to nodal values: q M^T s,
    with M the midpoint map and s from the field's midpoint pass."""
    return q * (u.mesh.skeleton.midpoints.T @ u._quadrature(q)[1])


def _start_values(mesh: TriMesh, start) -> np.ndarray:
    """A copy of the interior values ``start`` of a solver's first iterate."""
    x = np.array(start, dtype=float)
    if x.shape != (mesh.n_interior,):
        raise ValueError(f"start of shape {x.shape} does not match the "
                         f"{mesh.n_interior} interior values")
    return x


def _smoothed(mesh: TriMesh, x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``x`` after three damped Jacobi sweeps on K x - (x.Kx / x.g) g, with
    K the mesh's interior stiffness and g the gradient of the L^q norm at
    ``x``: the Euler-Lagrange residual of the descent's Rayleigh quotient
    with g held fixed.  They cost matrix products only and remove most of
    the high-frequency error of a prolonged start, as the smoother of
    cascadic multigrid does: from the rings-64 solution of a mode-8
    profile, the q = 1.5 descent at rings 128 preconditioned by the
    V-cycle then takes 3 solves instead of 5."""
    k, diagonal = mesh.stiffness, mesh._interior_diagonal
    for _ in range(3):
        kx = _csr_matvec(k, x)
        x = x - (2.0 / 3.0) * (kx - _dot(x, kx) / _dot(x, g) * g) / diagonal
    return x


def poincare_sobolev(mesh: TriMesh, q: float, *, precond,
                     tol: float = DEFAULT_DESCENT_TOL, max_iter: int = 500,
                     start=None) -> tuple[float, ScalarField]:
    """Optimal constant of the embedding into L^q: min of the Dirichlet
    integral over Dirichlet fields with unit L^q norm, and the minimizer
    found (unit L^q norm).  For q = 2 the midpoint rule is exact, so the
    constant is the principal eigenvalue of K x = lambda M x and the
    minimizer its M-unit eigenvector.  ``q`` lies in [1, DEFAULT_Q_MAX].

    Preconditioned gradient descent on the Rayleigh quotient R(u) =
    u.Ku / |u|_q^2 from the interior values ``start`` (default: P applied
    to the load vector), smoothed and scaled to unit norm: step against
    P(K u - R(u) grad |u|_q) with backtracking, P ``precond``, any fixed
    SPD operator with ``solve`` and ``shape`` (a factorization makes it a
    descent in the energy inner product), and stop once R decreases by
    less than ``tol`` in relative terms.  Each trial takes one midpoint
    pass, through ``lq_integral``; the accepted trial's pass, scaled by
    its norm to the power 1 - q, is the gradient at the normalized
    iterate, so a step needs no other pass.  A line search that finds no
    decrease raises ``SolverError`` unless the direction's energy
    norm over sqrt(R) is at most ``tol``, i.e. the iterate is already
    critical; so does reaching ``max_iter`` iterations, with the last
    relative decrease.
    """
    q = float(q)
    if not 1.0 <= q <= DEFAULT_Q_MAX:
        raise ValueError(f"exponent q={q} outside the supported range [1, {DEFAULT_Q_MAX}]")
    n = mesh.n_interior
    k = mesh.stiffness
    precond = _preconditioner(mesh, precond)

    def on_mesh(x):
        return ScalarField(mesh, _extend(mesh, x))

    def norm_gradient(f, nrm):
        # gradient of ||.||_q at f / nrm, nrm = ||f||_q, interior dofs: the
        # pass of f scaled by nrm^(1-q), so a normalized trial needs no pass
        g = _lq_gradient(f, q)[:n]
        g *= nrm ** (1.0 - q) / q
        return g

    u = precond.solve(mesh.load[:n]) if start is None else _start_values(mesh, start)
    u = _smoothed(mesh, u, norm_gradient(on_mesh(u), 1.0))
    # from here on u is f's interior values over nrm = ||f||_q; f is
    # rebound to each trial, which frees the accepted iterate's pass
    f = on_mesh(u)
    nrm = lq_integral(f, q) ** (1.0 / q)
    u /= nrm
    ku = _csr_matvec(k, u)
    rayleigh, drop = _dot(u, ku), math.nan
    for it in range(max_iter):
        direction = precond.solve(ku - rayleigh * norm_gradient(f, nrm))
        step = 1.0
        improved = False
        for _ in range(40):
            trial = u - step * direction
            f = on_mesh(trial)
            trial_nrm = lq_integral(f, q) ** (1.0 / q)
            if trial_nrm > 0.0:
                trial /= trial_nrm
                k_trial = _csr_matvec(k, trial)
                r_trial = _dot(trial, k_trial)
                if r_trial < rayleigh:
                    improved = True
                    break
            step *= 0.5
        if not improved:
            dnorm = math.sqrt(_dot(direction, _csr_matvec(k, direction)) / rayleigh)
            if not dnorm <= tol:
                raise SolverError(f"L^{q} descent line search failed at iteration {it} "
                                  f"with relative direction norm {dnorm:.3g} > {tol:.3g}")
            return rayleigh, on_mesh(u)
        drop = (rayleigh - r_trial) / rayleigh
        u, ku, rayleigh, nrm = trial, k_trial, r_trial, trial_nrm
        if drop <= tol:
            return rayleigh, on_mesh(u)
    raise SolverError(f"L^{q} descent did not converge in {max_iter} iterations: "
                      f"last relative drop {drop:.3g} > {tol:.3g}")


def principal_eigenvalue(mesh: TriMesh, *, precond, **kwargs) -> tuple[float, ScalarField]:
    """Smallest Dirichlet eigenvalue and its M-unit eigenvector: the q = 2
    constant of :func:`poincare_sobolev`, which takes the same keywords."""
    return poincare_sobolev(mesh, 2.0, precond=precond, **kwargs)

