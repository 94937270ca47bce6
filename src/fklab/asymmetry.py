"""Asymmetry functionals and the volume penalty of the ball problem.

Two ways of measuring how far a volume-pi domain is from a unit disk:

* the Fraenkel asymmetry, the infimum over unit-disk centers of the
  normalized symmetric-difference area, minimized here by BFGS over
  centers on its exact center gradient.  The objective is the exact polar
  overlap |Omega cap B_1(c)| = 1/2 int (min(r, rho_+)^2 - max(rho_-, 0)^2)_+
  d theta, where [rho_-, rho_+] is the chord of B_1(c) on the ray theta
  from the domain's center: an arc-by-arc integral between the
  boundary/circle crossings with a closed form on every arc, so no mesh
  enters;
* the smoothed asymmetry alpha, a weighted symmetric-difference with
  the unit disk at the barycenter, evaluated spectrally from the radial
  profile about the barycenter (one closed-form integral, no
  ball-intersection geometry).

The module also carries the volume penalty f_eta and the closed-form
penalized ball energy built from it, whose radial coercivity pins the
unit disk as the minimizer among balls.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize

from . import fem
from .circle import TWO_PI, BoundaryProfile
from .domain import StarDomain, barycenter, profile_relative_to, volume
from .geometry import triangles_disk_area

_MIN_GRID = 128        # smallest crossing-search grid of PolarOverlap
_MAX_ROOT_STEPS = 60   # safeguarded Newton steps per crossing; as many
_ROOT_TOL = 1e-14      # bisections would shrink a grid cell far below this


def unit_ball_volume(dim: int) -> float:
    """Lebesgue measure of the unit ball in the given dimension."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


def ball_energy(dim: int, radius: float = 1.0) -> float:
    """Torsional energy of a ball: -omega_N r^{N+2} / (2N(N+2))."""
    if dim < 2:
        raise ValueError("dimension must be >= 2")
    return -unit_ball_volume(dim) * radius ** (dim + 2) / (2.0 * dim * (dim + 2))


def beta_const(dim: int) -> float:
    """Weighted unit-ball mass int_{B_1} (1 - |x|) dx = omega_N / (N+1)."""
    if dim < 2:
        raise ValueError("dimension must be >= 2")
    return unit_ball_volume(dim) / (dim + 1)


def sym_diff_fraction(mesh: fem.TriMesh, center) -> float:
    """|Omega delta B_1(center)| / |B_1| on the given mesh of Omega.

    Mesh-level: the polygonal boundary of the mesh biases the value by
    O(h^2); :class:`PolarOverlap` gives the exact value of the domain.
    """
    tri = mesh.vertices[mesh.triangles]
    inter = triangles_disk_area(tri, center, 1.0)
    return (mesh.area() + math.pi - 2.0 * inter) / math.pi


class PolarOverlap:
    """Exact |Omega cap B_1(c)| for any center c, from the Fourier boundary.

    About the domain's center o, the ray at angle theta meets B_1(c) in
    [rho_-, rho_+] = a -+ sqrt(1 - |c - o|^2 + a^2), a = (c - o) . e_theta,
    and the overlap is 1/2 int (min(r, rho_+)^2 - max(rho_-, 0)^2)_+ d theta.
    The integrand has kinks where the boundary crosses the circle, i.e.
    at the zeros of g = (r - rho_+)(r - rho_-) = r^2 - 2 a r + |c - o|^2 - 1,
    a smooth trigonometric polynomial.  They are bracketed on a uniform
    grid and refined by safeguarded Newton steps with the profile's exact
    derivative.  Between kinks each piece has a closed form: where the
    boundary is inside the disk, 1/2 r^2 integrates through the exact
    antiderivative of its Fourier series; where the circle bounds the
    overlap, the rho_+ and rho_- pieces sweep one circular arc, whose
    area term is elementary.  Tangent rays of the circle (rho_- = rho_+)
    are interior points of those arcs, so the circle is parametrized by
    its own angle and no quadrature meets the square-root endpoint.
    """

    def __init__(self, d: StarDomain):
        p = d.profile
        self.origin = np.asarray(d.center, dtype=float)
        self.volume = volume(d)
        self._phi = p
        self._dphi = p.derivative()
        # the grid resolves every sign change of g (degree 2K) and carries
        # the Fourier series of r^2 / 2 exactly (it needs more than 4K points)
        n = max(_MIN_GRID, 8 * (2 * p.max_mode + 1))
        self._theta = np.linspace(0.0, TWO_PI, n, endpoint=False)
        self._cos, self._sin = np.cos(self._theta), np.sin(self._theta)
        self._phi_grid = p.values(self._theta)
        coeffs = np.fft.rfft(0.5 * (1.0 + self._phi_grid) ** 2) / n
        m = np.arange(1, 2 * p.max_mode + 1, dtype=float)
        a_m, b_m = 2.0 * coeffs[1:len(m) + 1].real, -2.0 * coeffs[1:len(m) + 1].imag
        self._mean = float(coeffs[0].real)
        self._swept_series = BoundaryProfile(0.0, -b_m / m, a_m / m)

    def _swept(self, theta):
        """Antiderivative of r^2 / 2: the area swept by the ray up to theta."""
        return self._mean * theta + self._swept_series.values(theta)

    def _g(self, theta, v, s2):
        """g and dg/dtheta at the given angles (g < 0: boundary inside the disk)."""
        phi = self._phi.values(theta)
        dphi = self._dphi.values(theta)
        cos, sin = np.cos(theta), np.sin(theta)
        a = v[0] * cos + v[1] * sin
        da = v[1] * cos - v[0] * sin
        g = phi * (2.0 + phi) - 2.0 * (1.0 + phi) * a + s2
        dg = 2.0 * dphi * (1.0 + phi - a) - 2.0 * (1.0 + phi) * da
        return g, dg

    def _crossings(self, lo, g_lo, g_hi, v, s2):
        """Zeros of g in the grid cells [lo, lo + h], one per cell."""
        hi = lo + TWO_PI / len(self._theta)
        neg_lo = g_lo <= 0.0
        x = lo + (hi - lo) * g_lo / (g_lo - g_hi)  # regula falsi start
        for _ in range(_MAX_ROOT_STEPS):
            g, dg = self._g(x, v, s2)
            left = (g <= 0.0) == neg_lo
            lo = np.where(left, x, lo)
            hi = np.where(left, hi, x)
            with np.errstate(divide="ignore", invalid="ignore"):
                new = x - g / dg
            new = np.where((new >= lo) & (new <= hi), new, 0.5 * (lo + hi))
            step = float(np.max(np.abs(new - x)))
            x = new
            if step <= _ROOT_TOL:
                break
        return x

    def area(self, center) -> float:
        """|Omega cap B_1(center)|."""
        return self.area_and_gradient(center)[0]

    def area_and_gradient(self, center) -> tuple[float, np.ndarray]:
        """|Omega cap B_1(center)| and its gradient in the center: the
        integral of the circle's outer normal over its arcs inside Omega,
        sum (sin psi_end - sin psi, cos psi - cos psi_end) over the kept
        arcs, zero when the circle does not cross the boundary."""
        v = np.asarray(center, dtype=float) - self.origin
        s2 = float(v @ v)
        phi = self._phi_grid
        g = phi * (2.0 + phi) - 2.0 * (1.0 + phi) * (v[0] * self._cos + v[1] * self._sin) + s2
        inside = g <= 0.0
        cells = np.flatnonzero(inside != np.roll(inside, -1))
        if len(cells) == 0:
            boundary = self.volume if inside[0] else 0.0
            circle = math.pi if self._in_domain(v, s2, np.zeros(1))[0] else 0.0
            return boundary + circle, np.zeros(2)

        x = self._crossings(self._theta[cells], g[cells], g[(cells + 1) % len(g)], v, s2)
        entering = ~inside[cells]  # g changes from > 0 to <= 0 in the cell
        swept = self._swept(x)
        swept_end = np.append(swept[1:], swept[0] + TWO_PI * self._mean)
        boundary = float(np.sum((swept_end - swept)[entering]))

        # circle arcs between the crossing points, kept where strictly inside
        # Omega (the boundary pieces already hold a shared arc, if any)
        r = 1.0 + self._phi.values(x)
        psi = np.sort(np.arctan2(r * np.sin(x) - v[1], r * np.cos(x) - v[0]))
        psi_end = np.append(psi[1:], psi[0] + TWO_PI)
        keep = self._in_domain(v, s2, 0.5 * (psi + psi_end))
        dsin = (np.sin(psi_end) - np.sin(psi))[keep]
        dcos = (np.cos(psi_end) - np.cos(psi))[keep]
        circle = 0.5 * float(np.sum(psi_end[keep] - psi[keep] + v[0] * dsin - v[1] * dcos))
        return boundary + circle, np.array([np.sum(dsin), -np.sum(dcos)])

    def _in_domain(self, v, s2, psi) -> np.ndarray:
        """Whether the circle points c + e_psi lie strictly inside Omega."""
        cos, sin = np.cos(psi), np.sin(psi)
        phi = self._phi.values(np.arctan2(v[1] + sin, v[0] + cos))
        # |c + e_psi - o|^2 - r^2, without cancelling the leading 1
        return 2.0 * (v[0] * cos + v[1] * sin) + s2 - phi * (2.0 + phi) < 0.0

    def sym_diff_fraction(self, center) -> float:
        """|Omega delta B_1(center)| / |B_1|."""
        return (self.volume + math.pi - 2.0 * self.area(center)) / math.pi


def fraenkel(d: StarDomain) -> tuple[float, np.ndarray]:
    """Fraenkel asymmetry of a volume-pi domain and the optimal center.

    BFGS over centers on the exact polar symmetric difference and its
    exact center gradient, started at the barycenter plus four axial
    multistarts of radius 0.25; the lowest of the five runs wins.
    """
    vol = volume(d)
    if abs(vol - math.pi) > 1e-6 * math.pi:
        raise ValueError(f"Fraenkel asymmetry expects |Omega| = pi, got {vol!r}")
    overlap = PolarOverlap(d)

    def objective(c):
        area, grad = overlap.area_and_gradient(c)
        return (overlap.volume + math.pi - 2.0 * area) / math.pi, -2.0 / math.pi * grad

    bc = barycenter(d)
    runs = [minimize(objective, x0, jac=True, method="BFGS")
            for x0 in (bc, bc + (0.25, 0.0), bc - (0.25, 0.0),
                       bc + (0.0, 0.25), bc - (0.0, 0.25))]
    best = min(runs, key=lambda res: res.fun)
    return max(float(best.fun), 0.0), np.asarray(best.x)


def alpha(d: StarDomain) -> float:
    """Smoothed asymmetry: beta_2 + int_Omega (|x - x_Omega| - 1) dx.

    In polar form about the barycenter the integral is
    int (r^3/3 - r^2/2) d theta, a trigonometric polynomial of the
    refitted profile, evaluated exactly.  Zero exactly on unit disks.
    """
    c = barycenter(d)
    p = profile_relative_to(d, c)
    n = max(3 * p.max_mode + 2, 64)
    theta = np.linspace(0.0, TWO_PI, n, endpoint=False)
    r = 1.0 + p.values(theta)
    radial = r ** 3 / 3.0 - r ** 2 / 2.0
    return beta_const(2) + float(np.mean(radial)) * TWO_PI


def ball_overlaps(d: StarDomain) -> tuple[float, float]:
    """(|Omega \\ B_1(x_Omega)|, |B_1(x_Omega) \\ Omega|) from the exact overlap."""
    overlap = PolarOverlap(d)
    inter = overlap.area(barycenter(d))
    return max(overlap.volume - inter, 0.0), max(math.pi - inter, 0.0)


def annular_lower_bound(outside: float, missing: float, dim: int = 2) -> float:
    """Rearranged annular lower bound for alpha.

    Replacing Omega \\ B_1 and B_1 \\ Omega by annuli of the same measure
    can only decrease the weighted symmetric difference; the resulting
    closed form in the two fractions is a valid lower bound for alpha.
    """
    w = unit_ball_volume(dim)
    r1 = (1.0 + outside / w) ** (1.0 / dim)
    r2 = (1.0 - missing / w) ** (1.0 / dim)

    def shell(r):
        return (r ** (dim + 1) - 1.0) / (dim + 1) - (r ** dim - 1.0) / dim

    return w * (shell(r1) + shell(r2))


def f_eta(s: float, eta: float, dim: int = 2) -> float:
    """Piecewise-linear volume penalty vanishing at the unit-ball volume.

    Slope eta below omega_N and 1/eta above, so that
    eta (s1 - s2) <= f(s1) - f(s2) <= (s1 - s2)/eta for s2 <= s1.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    if s < 0.0:
        raise ValueError("volumes are nonnegative")
    w = unit_ball_volume(dim)
    if s <= w:
        return eta * (s - w)
    return (s - w) / eta


def eta_threshold(dim: int = 2, r_max: float = 2.0) -> float:
    """Largest eta for which the ball energy g(r) = F_eta(B_r) is minimized
    at r = 1 over (0, r_max].

    Two explicit conditions: the right slope
    g'(r) = r^{N-1}((N+2) r^2 E(B_1) + N omega_N / eta) must be positive on
    (1, r_max], i.e. eta < N omega_N / ((N+2) r_max^2 |E(B_1)|); and the
    left branch, whose only interior critical point is a maximum, must
    satisfy g(0+) = -eta omega_N > E(B_1), i.e. eta < |E(B_1)| / omega_N.
    """
    if r_max <= 1.0:
        raise ValueError("r_max must exceed 1")
    w = unit_ball_volume(dim)
    e1 = abs(ball_energy(dim))
    right = dim * w / ((dim + 2) * r_max ** 2 * e1)
    left = e1 / w
    return min(right, left, 1.0)


def ball_penalized_energy(r: float, eta: float, dim: int = 2) -> float:
    """g(r) = F_eta(B_r) = r^{N+2} E(B_1) + f_eta(omega_N r^N), closed form."""
    if r < 0.0:
        raise ValueError("radius must be nonnegative")
    return r ** (dim + 2) * ball_energy(dim) + f_eta(unit_ball_volume(dim) * r ** dim, eta, dim)


def radial_coercivity(eta: float, r_grid, dim: int = 2) -> tuple[float, float]:
    """Locate the minimum of g over the grid and fit the coercivity constant.

    Returns (radius at the grid minimum, smallest C with
    g(r) - g(1) >= |r - 1| / C on the grid).  The constant is infinite
    whenever some g(r) dips to or below g(1) away from r = 1.
    """
    r = np.asarray(r_grid, dtype=float)
    if r.ndim != 1 or len(r) < 3 or np.any(r <= 0.0):
        raise ValueError("radius grid must be one-dimensional, positive, len >= 3")
    g = np.array([ball_penalized_energy(x, eta, dim) for x in r])
    r_min = float(r[np.argmin(g)])
    g1 = ball_penalized_energy(1.0, eta, dim)
    off = np.abs(r - 1.0) > 1e-12
    gaps = g[off] - g1
    if np.any(gaps <= 0.0):
        return r_min, math.inf
    return r_min, float(np.max(np.abs(r[off] - 1.0) / gaps))
