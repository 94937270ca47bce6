"""Independent oracles used to freeze expected values.

Everything here deliberately avoids the code paths under test: circle
quantities are integrated by quadrature instead of mode sums, the disk
eigenvalue comes from radial shooting, the radial embedding constants
from a one-dimensional minimizer, areas from polygon resampling,
Monte Carlo, the classical lens formula or exact triangle/disk
clipping of a mesh (``fklab.geometry``), the P1 matrices and the
L^q midpoint rule triangle by triangle, profile values from full
tables of cos(k theta) and sin(k theta), asymmetry minima from a
derivative-free polish, and alpha from the profile refitted about the
barycenter.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.optimize import brentq, minimize


def extension_energy_quadrature(profile, n_r: int = 64, n_theta: int = 256) -> float:
    """Dirichlet energy of the harmonic extension by Gauss x trapezoid.

    The extension of mode k is r^k (a_k cos k t + b_k sin k t); its
    partial derivatives are summed explicitly and |grad|^2 is integrated
    over the disk by Gauss-Legendre in r and the trapezoid rule in t.
    """
    kmax = profile.max_mode
    if kmax == 0:
        return 0.0
    nodes, weights = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * (nodes + 1.0)
    wr = 0.5 * weights
    theta = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    k = np.arange(1, kmax + 1)
    a = profile.cos_coeffs
    b = profile.sin_coeffs
    # du/dr and (1/r) du/dtheta on the tensor grid
    rk = r[:, None] ** (k - 1)          # (n_r, kmax)
    ck = np.cos(np.outer(theta, k))     # (n_theta, kmax)
    sk = np.sin(np.outer(theta, k))
    du_dr = (rk[:, None, :] * (ck * (k * a) + sk * (k * b))[None, :, :]).sum(-1)
    du_dt = (rk[:, None, :] * (-sk * (k * a) + ck * (k * b))[None, :, :]).sum(-1)
    integrand = (du_dr ** 2 + du_dt ** 2)
    # area element r dr dtheta
    return float((wr[:, None] * integrand * r[:, None]).sum()
                 * (2.0 * math.pi / n_theta))


def boundary_l2_quadrature(profile, n: int = 4096) -> float:
    theta = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    vals = profile.values(theta)
    return float(np.mean(vals ** 2) * 2.0 * math.pi)


def disk_eigenvalue_shooting() -> float:
    """Principal Dirichlet eigenvalue of the unit disk by radial shooting."""

    def u_at_one(lam: float) -> float:
        def rhs(r, y):
            return [y[1], -y[1] / r - lam * y[0]]

        r0 = 1e-8
        y0 = [1.0 - lam * r0 ** 2 / 4.0, -lam * r0 / 2.0]
        sol = solve_ivp(rhs, (r0, 1.0), y0, rtol=1e-12, atol=1e-14)
        return sol.y[0, -1]

    return brentq(u_at_one, 4.0, 8.0, xtol=1e-12)


def disk_lambda_q_radial(q: float, n: int = 2000, max_iter: int = 2000,
                         tol: float = 1e-11) -> float:
    """Radial minimizer for the disk embedding constant, 1D discretization.

    Minimizes 2 pi int u'^2 r dr over radial profiles with
    2 pi int |u|^q r dr = 1, using P1 elements in the radius and midpoint
    quadrature; an independent path from the 2D solver.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    r = np.linspace(0.0, 1.0, n + 1)
    h = r[1] - r[0]
    rmid = 0.5 * (r[:-1] + r[1:])
    main = np.zeros(n + 1)
    main[:-1] += rmid / h
    main[1:] += rmid / h
    off = -rmid / h
    k = sp.diags([off, main, off], (-1, 0, 1), format="csc") * (2.0 * math.pi)
    k = k[:-1, :-1]  # Dirichlet at r = 1, natural at r = 0
    lu = spla.splu(k.tocsc())
    wq = 2.0 * math.pi * h * rmid  # quadrature weights at midpoints

    def norm_q(u):
        um = 0.5 * (u + np.append(u[1:], 0.0))
        return float(np.sum(wq * np.abs(um) ** q)) ** (1.0 / q)

    def grad_rho(u):
        um = 0.5 * (u + np.append(u[1:], 0.0))
        g_mid = wq * np.abs(um) ** (q - 1.0) * np.sign(um)
        g = 0.5 * g_mid.copy()
        g[1:] += 0.5 * g_mid[:-1]
        return g

    u = (1.0 - r[:-1] ** 2) / 4.0
    u = u / norm_q(u)
    rayleigh = float(u @ (k @ u))
    for _ in range(max_iter):
        w = grad_rho(u)
        direction = u - rayleigh * lu.solve(w)
        step, improved = 1.0, False
        for _ in range(40):
            trial = u - step * direction
            nrm = norm_q(trial)
            if nrm > 0:
                trial = trial / nrm
                r_trial = float(trial @ (k @ trial))
                if r_trial < rayleigh:
                    improved = True
                    break
            step *= 0.5
        if not improved:
            break
        drop = (rayleigh - r_trial) / rayleigh
        u, rayleigh = trial, r_trial
        if drop <= tol:
            break
    return rayleigh


def p1_matrices_per_triangle(vertices: np.ndarray, triangles: np.ndarray):
    """(stiffness, mass, load) of P1 elements, summing every triangle's
    3x3 element matrices through one COO matrix.

    Stiffness entry (i, j) of a triangle is A grad(l_i) . grad(l_j) with
    the barycentric gradients rot(e_i) / (2A), e_i the edge opposite
    vertex i; mass entries are A/6 on the diagonal and A/12 off it.
    """
    v = vertices[triangles]
    d1 = v[:, 1] - v[:, 0]
    d2 = v[:, 2] - v[:, 0]
    area = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    edges = v[:, [2, 0, 1]] - v[:, [1, 2, 0]]
    rot = np.stack([-edges[:, :, 1], edges[:, :, 0]], axis=-1)
    grads = rot / (2.0 * area)[:, None, None]
    n = len(vertices)

    def assemble(entry):
        ij = [(i, j) for i in range(3) for j in range(3)]
        return sp.coo_matrix((np.concatenate([entry(i, j) for i, j in ij]),
                              (np.concatenate([triangles[:, i] for i, _ in ij]),
                               np.concatenate([triangles[:, j] for _, j in ij]))),
                             shape=(n, n)).tocsr()

    stiffness = assemble(lambda i, j: area * np.sum(grads[:, i] * grads[:, j], axis=1))
    mass = assemble(lambda i, j: area * ((2.0 if i == j else 1.0) / 12.0))
    load = np.zeros(n)
    np.add.at(load, triangles.ravel(), np.repeat(area / 3.0, 3))
    return stiffness, mass, load


def lq_midpoint_per_triangle(vertices: np.ndarray, triangles: np.ndarray,
                             values: np.ndarray, q: float):
    """(int |u|^q, its gradient in the nodal values) by the 3-point
    edge-midpoint rule applied triangle by triangle: every interior edge
    midpoint is evaluated once for each of its two triangles."""
    v = vertices[triangles]
    d1 = v[:, 1] - v[:, 0]
    d2 = v[:, 2] - v[:, 0]
    w = (0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) / 3.0)[:, None]
    uv = values[triangles]
    pairs = ((1, 2), (0, 2), (0, 1))  # the edge opposite vertex 0, 1, 2
    mids = 0.5 * np.stack([uv[:, a] + uv[:, b] for a, b in pairs], axis=1)
    integral = float(np.sum(w * np.abs(mids) ** q))
    dmid = w * (0.5 * q) * np.abs(mids) ** (q - 1.0) * np.sign(mids)
    grad = np.zeros(len(vertices))
    for col, (a, b) in enumerate(pairs):
        np.add.at(grad, triangles[:, a], dmid[:, col])
        np.add.at(grad, triangles[:, b], dmid[:, col])
    return integral, grad


def profile_values_table(profile, theta) -> np.ndarray:
    """Fourier profile values from the full (angles x modes) tables of
    cos(k theta) and sin(k theta)."""
    theta = np.asarray(theta, dtype=float)
    out = np.full(theta.shape, profile.a0)
    if profile.max_mode:
        ang = np.multiply.outer(theta, np.arange(1, profile.max_mode + 1))
        out = out + np.cos(ang) @ profile.cos_coeffs + np.sin(ang) @ profile.sin_coeffs
    return out


def polygon_area(points: np.ndarray) -> float:
    x, y = points[:, 0], points[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def polygon_centroid(points: np.ndarray) -> np.ndarray:
    x, y = points[:, 0], points[:, 1]
    cross = x * np.roll(y, -1) - np.roll(x, -1) * y
    area = 0.5 * float(np.sum(cross))
    cx = float(np.sum((x + np.roll(x, -1)) * cross)) / (6.0 * area)
    cy = float(np.sum((y + np.roll(y, -1)) * cross)) / (6.0 * area)
    return np.array([cx, cy])


def two_disks_symmetric_difference(d: float, r: float = 1.0) -> float:
    """|B_r(0) delta B_r((d,0))| from the classical lens-area formula."""
    d = abs(float(d))
    if d >= 2.0 * r:
        return 2.0 * math.pi * r * r
    lens = (2.0 * r * r * math.acos(d / (2.0 * r))
            - 0.5 * d * math.sqrt(4.0 * r * r - d * d))
    return 2.0 * math.pi * r * r - 2.0 * lens


def sym_diff_fraction(mesh, center) -> float:
    """|Omega delta B_1(center)| / |B_1| on the given mesh of Omega, from
    the exact clipped area of each triangle: the polygonal boundary of the
    mesh biases the value by O(h^2)."""
    from fklab.geometry import triangles_disk_area

    inter = triangles_disk_area(mesh.vertices[mesh.triangles], center, 1.0)
    return (mesh.area() + math.pi - 2.0 * inter) / math.pi


def polished_minimum(objective, center, step: float = 1e-3) -> float:
    """Value of a tight Nelder-Mead polish of ``objective`` from ``center``.

    The start simplex is given explicitly, ``step`` wide in each
    coordinate, so it has width even where a coordinate of ``center`` is
    zero (scipy's default simplex scales each coordinate by 5% of its own
    value); no derivative enters.
    """
    x0 = np.asarray(center, dtype=float)
    simplex = np.array([x0, x0 + (step, 0.0), x0 + (0.0, step)])
    res = minimize(objective, x0, method="Nelder-Mead",
                   options={"initial_simplex": simplex, "xatol": 1e-11,
                            "fatol": 1e-16, "maxiter": 4000, "maxfev": 8000})
    return float(res.fun)


def mc_two_disk_symdiff(d: float, n: int = 10_000_000, seed: int = 42) -> float:
    """Monte-Carlo area of B_1(0) delta B_1((d, 0))."""
    rng = np.random.default_rng(seed)
    lo = np.array([-1.0, -1.0])
    hi = np.array([1.0 + d, 1.0])
    box = np.prod(hi - lo)
    hits = 0
    chunk = 1_000_000
    for _ in range(n // chunk):
        pts = rng.uniform(lo, hi, (chunk, 2))
        in0 = pts[:, 0] ** 2 + pts[:, 1] ** 2 <= 1.0
        in1 = (pts[:, 0] - d) ** 2 + pts[:, 1] ** 2 <= 1.0
        hits += int(np.count_nonzero(in0 ^ in1))
    return box * hits / n


def mc_alpha(radius_fn, center, n: int = 2_000_000, seed: int = 11,
             box: float = 2.5) -> tuple[float, float]:
    """Monte-Carlo of int_{Omega delta B_1(c)} |1 - |x - c|| dx for a star
    domain given by its radial function about the origin, and the
    standard error of that estimate (points drawn in chunks of 1e6)."""
    rng = np.random.default_rng(seed)
    total = total_sq = 0.0
    for start in range(0, n, 1_000_000):
        pts = rng.uniform(-box, box, (min(1_000_000, n - start), 2))
        theta = np.arctan2(pts[:, 1], pts[:, 0])
        rho = np.hypot(pts[:, 0], pts[:, 1])
        in_omega = rho <= radius_fn(theta)
        dist_c = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])
        in_ball = dist_c <= 1.0
        w = np.abs(1.0 - dist_c) * (in_omega ^ in_ball)
        total += float(np.sum(w))
        total_sq += float(np.sum(w * w))
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    area = (2.0 * box) ** 2
    return mean * area, math.sqrt(var / n) * area


def refit_alpha(d) -> float:
    """alpha = beta_2 + int (r^3/3 - r^2/2) d theta in polar form about the
    barycenter: the boundary is re-expressed about it by one trapezoid
    sum in the boundary parameter (``domain.profile_relative_to``), and
    the trapezoid rule on max(3K + 2, 64) angles integrates that
    trigonometric polynomial of the refitted profile exactly.  Raises
    where the refit does: ``NotStarShapedError`` where the angle about the
    barycenter is not monotone, ``ValueError`` where no sum resolves the
    boundary."""
    from fklab.domain import barycenter, profile_relative_to

    p = profile_relative_to(d, barycenter(d))
    theta = np.linspace(0.0, 2.0 * math.pi, max(3 * p.max_mode + 2, 64), endpoint=False)
    r = 1.0 + p.values(theta)
    return math.pi / 3.0 + 2.0 * math.pi * float(np.mean(r ** 3 / 3.0 - r ** 2 / 2.0))
