"""Asymmetry functionals and the volume penalty of the ball problem.

Two ways of measuring how far a volume-pi domain is from a unit disk:

* the Fraenkel asymmetry, the infimum over unit-disk centers of the
  normalized symmetric-difference area, minimized here by BFGS over
  centers on its exact center gradient.  The objective is the exact polar
  overlap |Omega cap B_1(c)| = 1/2 int (min(r, rho_+)^2 - max(rho_-, 0)^2)_+
  d theta, where [rho_-, rho_+] is the chord of B_1(c) on the ray theta
  from the domain's center: an arc-by-arc integral between the
  boundary/circle crossings with a closed form on every arc, so no mesh
  enters.  Each point set of the crossing search is one table of
  cos k theta, sin k theta times Fourier coefficients built once per
  domain.  The BFGS, from five starts, is the module's own two-variable
  one with a strong Wolfe line search, since importing scipy.optimize
  for it cost every fresh process about 0.15 s.  A run stops on a
  gradient of inf-norm at most 1e-5, or at a crease, where its line
  search finds no Wolfe step; one that reaches its step cap raises
  ``fem.SolverError``;
* the smoothed asymmetry alpha, a weighted symmetric-difference with
  the unit disk at the barycenter.  By the divergence theorem its area
  integral is a boundary integral over the domain's own parametrization,
  summed by the trapezoid rule, which converges geometrically and is
  checked against its own half-grid estimate; no re-expression about the
  barycenter and no ball-intersection geometry enter.

The module also carries the volume penalty f_eta and the closed-form
penalized ball energy built from it, whose radial coercivity pins the
unit disk as the minimizer among balls.
"""

from __future__ import annotations

import math

import numpy as np

from . import fem
from .circle import TWO_PI
from .domain import StarDomain, barycenter, volume
# unused here: perfbench/spans.py wraps asymmetry.profile_relative_to and
# asymmetry.triangles_disk_area by name, so the names stay until that
# benchmark changes
from .domain import profile_relative_to  # noqa: F401
from .geometry import triangles_disk_area  # noqa: F401

_MIN_GRID = 128        # smallest crossing-search grid of PolarOverlap
_MAX_ROOT_STEPS = 60   # safeguarded Newton steps per crossing; as many
_ROOT_TOL = 1e-14      # bisections would shrink a grid cell far below this
_ALPHA_MIN_GRID = 128  # smallest n of the n / 2n trapezoid pair behind alpha
_ALPHA_TOL = 1e-13     # largest gap of that pair, relative to the integrand
_BFGS_GTOL = 1e-5      # a Fraenkel run stops once no gradient entry exceeds this
_MAX_BFGS_STEPS = 200  # BFGS steps per Fraenkel start before SolverError; the
                       # sweep families of seeds 7, 11 and 1306 need at most 16
_WOLFE_C1 = 1e-4       # sufficient decrease of a line-search step
_WOLFE_C2 = 0.9        # curvature condition of a line-search step
_MAX_LINE_STEPS = 10   # trials of each line-search phase: bracketing, then zoom


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

    Off the grid, every point set is evaluated from one table of cos k theta
    and sin k theta, k = 1..max(2K, 1), times coefficient matrices built
    once from the profile's two-sided Fourier coefficients R_j (r^2 by their
    convolution).  Each Newton step takes g and g' through the coefficients
    of g, which are affine in the center up to |c - o|^2, so a center costs
    one product for them; the crossings and the arc midpoints take phi and
    the antiderivative of r^2 / 2.  One evaluation thus costs a few dozen
    array operations on a handful of angles, whatever the mode count K.
    """

    def __init__(self, d: StarDomain):
        p = d.profile
        K = p.max_mode
        self.origin = np.asarray(d.center, dtype=float)
        self.volume = volume(d)
        # the grid resolves every sign change of g, of degree 2K; on it,
        # g is the row (1, v_x, v_y), v = c - o, times this basis plus |v|^2
        n = max(_MIN_GRID, 8 * (2 * K + 1))
        self._theta = np.linspace(0.0, TWO_PI, n, endpoint=False)
        phi = p.values(self._theta)
        self._grid_basis = np.stack([phi * (2.0 + phi),
                                     -2.0 * (1.0 + phi) * np.cos(self._theta),
                                     -2.0 * (1.0 + phi) * np.sin(self._theta)])
        # R_j of r for j = 0..L+1 and those of r^2 for j = 0..L, L = max(2K, 1)
        L = max(2 * K, 1)
        half = 0.5 * (p.cos_coeffs - 1j * p.sin_coeffs)
        r_two = np.concatenate([np.conj(half[::-1]), [1.0 + p.a0], half])
        r_j, r2_j = np.zeros((2, L + 2), dtype=complex)
        r_j[:K + 1] = r_two[K:]
        r2_j[:2 * K + 1] = np.convolve(r_two, r_two)[2 * K:]
        self._a0 = p.a0
        self._mean = 0.5 * r2_j[0].real  # of r^2 / 2
        self._k = k = np.arange(1, L + 1, dtype=float)
        # a column G of one-sided coefficients stands for sum Re(G_k e^{ik theta}):
        # cos k theta takes Re G and sin k theta takes -Im G
        series = np.stack([2.0 * r_j[1:L + 1], -1j * r2_j[1:L + 1] / k], axis=1)
        self._cos_coeffs, self._sin_coeffs = series.real, -series.imag
        # g = r^2 - 2 (v . e_theta) r + |v|^2 - 1, with v . e_theta the mode
        # Re((v_x - i v_y) e^{i theta}); g' multiplies mode k by i k
        below, above = r_j[:L], r_j[2:]
        modes = np.stack([2.0 * r2_j[1:L + 1], -2.0 * (below + above), 2j * (below - above)])
        modes = np.stack([modes, 1j * k * modes], axis=2)
        self._g_basis = np.concatenate([modes.real, -modes.imag], axis=2).reshape(3, -1)
        self._g_const = np.array([r2_j[0].real - 1.0, -2.0 * r_j[1].real, 2.0 * r_j[1].imag])

    def _series(self, theta):
        """cos theta, sin theta, phi and an antiderivative of r^2 / 2 (the
        area swept by the ray, up to a constant) at the given angles."""
        arg = np.multiply.outer(theta, self._k)
        cos, sin = np.cos(arg), np.sin(arg)
        phi, swept = (cos @ self._cos_coeffs + sin @ self._sin_coeffs).T
        return cos[:, 0], sin[:, 0], self._a0 + phi, self._mean * theta + swept

    def _g(self, theta, const, columns):
        """g and dg/dtheta at the given angles (g < 0: boundary inside the
        disk) from g's constant and its coefficient columns, cos k theta
        for g and g' then sin k theta for g and g'."""
        arg = np.multiply.outer(theta, self._k)
        g, dg = (np.cos(arg) @ columns[:, :2] + np.sin(arg) @ columns[:, 2:]).T
        return g + const, dg

    def _crossings(self, lo, g_lo, g_hi, const, columns):
        """Zeros of g in the grid cells [lo, lo + h], one per cell."""
        hi = lo + TWO_PI / len(self._theta)
        neg_lo = g_lo <= 0.0
        x = lo + (hi - lo) * g_lo / (g_lo - g_hi)  # regula falsi start
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(_MAX_ROOT_STEPS):
                g, dg = self._g(x, const, columns)
                left = (g <= 0.0) == neg_lo
                lo = np.where(left, x, lo)
                hi = np.where(left, hi, x)
                new = x - g / dg
                new = np.where((new >= lo) & (new <= hi), new, 0.5 * (lo + hi))
                step = abs(new - x).max()
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
        row = np.array([1.0, v[0], v[1]])
        g = row @ self._grid_basis + s2
        inside = g <= 0.0
        cells = np.flatnonzero(inside[:-1] != inside[1:])
        if inside[-1] != inside[0]:
            cells = np.append(cells, len(g) - 1)
        if len(cells) == 0:
            boundary = self.volume if inside[0] else 0.0
            circle = math.pi if self._in_domain(v, s2, np.zeros(1))[0] else 0.0
            return boundary + circle, np.zeros(2)

        x = self._crossings(self._theta[cells], g[cells], g[(cells + 1) % len(g)],
                            row @ self._g_const + s2,
                            (row @ self._g_basis).reshape(len(self._k), 4))
        entering = ~inside[cells]  # g changes from > 0 to <= 0 in the cell
        cos, sin, phi_x, swept = self._series(x)
        swept_end = np.append(swept[1:], swept[0] + TWO_PI * self._mean)
        boundary = float((swept_end - swept)[entering].sum())

        # circle arcs between the crossing points, kept where strictly inside
        # Omega (the boundary pieces already hold a shared arc, if any)
        r = 1.0 + phi_x
        psi = np.sort(np.arctan2(r * sin - v[1], r * cos - v[0]))
        psi_end = np.append(psi[1:], psi[0] + TWO_PI)
        keep = self._in_domain(v, s2, 0.5 * (psi + psi_end))
        dsin = (np.sin(psi_end) - np.sin(psi))[keep]
        dcos = (np.cos(psi_end) - np.cos(psi))[keep]
        circle = 0.5 * float((psi_end[keep] - psi[keep] + v[0] * dsin - v[1] * dcos).sum())
        return boundary + circle, np.array([dsin.sum(), -dcos.sum()])

    def _in_domain(self, v, s2, psi) -> np.ndarray:
        """Whether the circle points c + e_psi lie strictly inside Omega."""
        cos, sin = np.cos(psi), np.sin(psi)
        phi = self._series(np.arctan2(v[1] + sin, v[0] + cos))[2]
        # |c + e_psi - o|^2 - r^2, without cancelling the leading 1
        return 2.0 * (v[0] * cos + v[1] * sin) + s2 - phi * (2.0 + phi) < 0.0

    def sym_diff_fraction(self, center) -> float:
        """|Omega delta B_1(center)| / |B_1|."""
        return (self.volume + math.pi - 2.0 * self.area(center)) / math.pi


def _cubic_step(a: float, fa: float, da: float, b: float, fb: float, db: float) -> float:
    """Minimizer of the cubic with the values and slopes (fa, da) at a and
    (fb, db) at b (Nocedal and Wright, Numerical Optimization, eq. 3.59),
    or the midpoint where it has none in the middle 96% of [a, b]."""
    d1 = da + db - 3.0 * (fa - fb) / (a - b)
    disc = d1 * d1 - da * db
    margin = 0.02 * abs(b - a)
    if disc >= 0.0:
        d2 = math.copysign(math.sqrt(disc), b - a)
        denom = db - da + 2.0 * d2
        if denom != 0.0:
            x = b - (b - a) * (db + d2 - d1) / denom
            if min(a, b) + margin <= x <= max(a, b) - margin:
                return x
    return 0.5 * (a + b)


def _line_search(objective, x, f: float, g, p, step: float):
    """(t, value, gradient, met) at a step t along the descent direction p
    from x.  From ``step`` the trial is doubled until it brackets a step
    that meets the strong Wolfe conditions, and the bracket is zoomed by
    safeguarded cubic interpolation (Nocedal and Wright, algorithms 3.5
    and 3.6), each phase in at most ``_MAX_LINE_STEPS`` trials.  ``met``
    is whether t meets them; if not, t is the lowest trial with
    sufficient decrease, or 0."""
    slope = float(g @ p)

    def trial(t):
        value, grad = objective(x + t * p)
        return t, value, grad, float(grad @ p)

    def too_high(point, lo):
        return point[1] > f + _WOLFE_C1 * point[0] * slope or point[1] >= lo[1]

    def flat(point):
        return abs(point[3]) <= -_WOLFE_C2 * slope

    lo, point = (0.0, f, g, slope), trial(step)
    for _ in range(_MAX_LINE_STEPS):
        if too_high(point, lo):
            hi = point
            break
        if flat(point):
            return *point[:3], True
        if point[3] >= 0.0:
            lo, hi = point, lo
            break
        lo, point = point, trial(2.0 * point[0])
    else:
        return *lo[:3], False
    # lo is the lowest trial with sufficient decrease, its slope towards hi
    for _ in range(_MAX_LINE_STEPS):
        point = trial(_cubic_step(lo[0], lo[1], lo[3], hi[0], hi[1], hi[3]))
        if too_high(point, lo):
            hi = point
            continue
        if flat(point):
            return *point[:3], True
        if point[3] * (hi[0] - lo[0]) >= 0.0:
            hi = lo
        lo = point
    return *lo[:3], False


def _bfgs(objective, x, start: str) -> tuple[float, np.ndarray]:
    """Minimum value and point of one BFGS run from x (Nocedal and Wright,
    algorithm 6.1) on ``objective``, which returns the value and gradient.

    The run stops once no gradient entry exceeds ``_BFGS_GTOL``, or at the
    end of a line search that finds no strong Wolfe step, at its lowest
    trial: that happens where the minimum lies on a crease, across which
    the gradient jumps.  More than ``_MAX_BFGS_STEPS`` steps raise
    ``fem.SolverError``, naming ``start`` and the gradient reached."""
    f, g = objective(x)
    h = np.eye(2)
    # scipy's first trial step: 2 (f - f_prev) / slope plus 1%, at most 1,
    # positive since every step lowers f; the first f_prev, f + |g| / 2,
    # makes the first trial move about 1
    f_prev = f + math.sqrt(float(g @ g)) / 2.0
    steps = 0
    while np.max(np.abs(g)) > _BFGS_GTOL:
        if steps == _MAX_BFGS_STEPS:
            raise fem.SolverError(f"Fraenkel BFGS from {start} stopped at the cap of "
                                  f"{steps} steps: gradient inf-norm "
                                  f"{np.max(np.abs(g)):.3g} > {_BFGS_GTOL:.3g} at "
                                  f"({float(x[0])!r}, {float(x[1])!r})")
        p = -(h @ g)
        step = min(1.0, 2.02 * (f - f_prev) / float(g @ p))
        t, f_next, g_next, met = _line_search(objective, x, f, g, p, step)
        if not met:
            return f_next, x + t * p
        s, y = t * p, g_next - g
        x, f_prev, f, g = x + s, f, f_next, g_next
        rho = 1.0 / float(s @ y)  # positive by the curvature condition
        v = np.eye(2) - rho * np.outer(s, y)
        h = v @ h @ v.T + rho * np.outer(s, s)
        steps += 1
    return f, x


def fraenkel(d: StarDomain) -> tuple[float, np.ndarray]:
    """Fraenkel asymmetry of a volume-pi domain and the optimal center.

    BFGS over centers on the exact polar symmetric difference and its
    exact center gradient, started at the barycenter plus four axial
    multistarts of radius 0.25; the lowest of the five runs wins.  A run
    stops once no gradient entry exceeds ``_BFGS_GTOL`` (1e-5, scipy's
    default), or at the lowest trial of a line search that finds no strong
    Wolfe step, as at a minimum on a crease, where the one-sided
    derivatives differ; a run that takes more than ``_MAX_BFGS_STEPS``
    steps raises ``fem.SolverError`` naming its start.  The BFGS is the
    module's own two-variable one: importing scipy.optimize for it cost
    every fresh process, each ``fklab deficit`` call and each spawned
    sweep worker, about 0.15 s.
    """
    vol = volume(d)
    if abs(vol - math.pi) > 1e-6 * math.pi:
        raise ValueError(f"Fraenkel asymmetry expects |Omega| = pi, got {vol!r}")
    overlap = PolarOverlap(d)

    def objective(c):
        area, grad = overlap.area_and_gradient(c)
        return (overlap.volume + math.pi - 2.0 * area) / math.pi, -2.0 / math.pi * grad

    bc = barycenter(d)
    starts = {"the barycenter": (0.0, 0.0),
              "the barycenter + (0.25, 0)": (0.25, 0.0),
              "the barycenter - (0.25, 0)": (-0.25, 0.0),
              "the barycenter + (0, 0.25)": (0.0, 0.25),
              "the barycenter - (0, 0.25)": (0.0, -0.25)}
    runs = [_bfgs(objective, bc + offset, name) for name, offset in starts.items()]
    value, center = min(runs, key=lambda run: run[0])
    return max(float(value), 0.0), center


def alpha(d: StarDomain) -> float:
    """Smoothed asymmetry: beta_2 + int_Omega (|x - x_Omega| - 1) dx.

    Since div((x - c) |x - c|) = 3 |x - c| in the plane, the integral of
    |x - c| over Omega is 1/3 of the boundary integral of
    |x - c| (x - c) x x'(theta) over the domain's own parametrization
    x(theta) = o + r(theta) e_theta, so alpha is defined wherever Omega is,
    with no re-expression about the barycenter c.  With u = o - c that
    integrand is |w| (r^2 + r u.e_theta + r' u x e_theta), w = u + r e_theta,
    and |Omega| = 1/2 int r^2 is subtracted under the same integral.  It is
    smooth and periodic, so the trapezoid rule on 2n uniform angles
    converges geometrically; the sum over every other angle is an n-point
    estimate, and the two must agree within ``_ALPHA_TOL`` relative to the
    largest integrand sample (at least absolutely), or ``fem.SolverError``
    names both.  Zero to rounding on unit disks.
    """
    p = d.profile
    n = max(_ALPHA_MIN_GRID, 8 * p.max_mode)
    theta = np.linspace(0.0, TWO_PI, 2 * n, endpoint=False)
    r = 1.0 + p.values(theta)
    dr = p.derivative().values(theta)
    cos, sin = np.cos(theta), np.sin(theta)
    u = np.asarray(d.center) - barycenter(d)
    dot = u[0] * cos + u[1] * sin
    cross = u[0] * sin - u[1] * cos
    dist = np.sqrt(u @ u + r * (r + 2.0 * dot))
    f = dist * (r * (r + dot) + dr * cross) / 3.0 - 0.5 * r ** 2
    fine = beta_const(2) + TWO_PI * float(np.mean(f))
    coarse = beta_const(2) + TWO_PI * float(np.mean(f[::2]))
    if abs(fine - coarse) > _ALPHA_TOL * max(1.0, float(np.max(np.abs(f)))):
        raise fem.SolverError(f"alpha boundary integral unresolved: {coarse!r} on "
                              f"{n} angles, {fine!r} on {2 * n}")
    return fine


def ball_overlaps(d: StarDomain) -> tuple[float, float]:
    """(|Omega \\ B_1(x_Omega)|, |B_1(x_Omega) \\ Omega|) from the exact overlap."""
    overlap = PolarOverlap(d)
    inter = overlap.area(barycenter(d))
    return max(overlap.volume - inter, 0.0), max(math.pi - inter, 0.0)


def annular_lower_bound(outside: float, missing: float) -> float:
    """Rearranged annular lower bound for alpha.

    Replacing Omega \\ B_1 and B_1 \\ Omega by annuli of the same measure
    can only decrease the weighted symmetric difference; the resulting
    closed form in the two fractions is a valid lower bound for alpha.
    """
    r1 = (1.0 + outside / math.pi) ** 0.5
    r2 = (1.0 - missing / math.pi) ** 0.5

    def shell(r):
        return (r ** 3 - 1.0) / 3.0 - (r ** 2 - 1.0) / 2.0

    return math.pi * (shell(r1) + shell(r2))


def f_eta(s: float, eta: float) -> float:
    """Piecewise-linear volume penalty vanishing at the unit-disk area pi.

    Slope eta below pi and 1/eta above, so that
    eta (s1 - s2) <= f(s1) - f(s2) <= (s1 - s2)/eta for s2 <= s1.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    if s < 0.0:
        raise ValueError("volumes are nonnegative")
    if s <= math.pi:
        return eta * (s - math.pi)
    return (s - math.pi) / eta


def eta_threshold() -> float:
    """Largest eta for which the disk energy g(r) = F_eta(B_r) is minimized
    at r = 1 over (0, 2].

    Two explicit conditions: the right slope
    g'(r) = r (4 r^2 E(B_1) + 2 pi / eta) must be positive on (1, 2],
    i.e. eta < 2 pi / (16 |E(B_1)|); and the left branch, whose only
    interior critical point is a maximum, must satisfy
    g(0+) = -eta pi > E(B_1), i.e. eta < |E(B_1)| / pi.  With E(B_1) =
    -pi / 16 the left one, 1/16, is the threshold.
    """
    e1 = abs(ball_energy(2))
    return min(2 * math.pi / (4 * 2.0 ** 2 * e1), e1 / math.pi, 1.0)


def ball_penalized_energy(r: float, eta: float) -> float:
    """g(r) = F_eta(B_r) = r^4 E(B_1) + f_eta(pi r^2), closed form."""
    if r < 0.0:
        raise ValueError("radius must be nonnegative")
    return r ** 4 * ball_energy(2) + f_eta(math.pi * r ** 2, eta)


def radial_coercivity(eta: float, r_grid) -> tuple[float, float]:
    """Locate the minimum of g over the grid and fit the coercivity constant.

    Returns (radius at the grid minimum, smallest C with
    g(r) - g(1) >= |r - 1| / C on the grid).  The constant is infinite
    whenever some g(r) dips to or below g(1) away from r = 1.
    """
    r = np.asarray(r_grid, dtype=float)
    if r.ndim != 1 or len(r) < 3 or np.any(r <= 0.0):
        raise ValueError("radius grid must be one-dimensional, positive, len >= 3")
    g = np.array([ball_penalized_energy(x, eta) for x in r])
    r_min = float(r[np.argmin(g)])
    g1 = ball_penalized_energy(1.0, eta)
    off = np.abs(r - 1.0) > 1e-12
    gaps = g[off] - g1
    if np.any(gaps <= 0.0):
        return r_min, math.inf
    return r_min, float(np.max(np.abs(r[off] - 1.0) / gaps))
