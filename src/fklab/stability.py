"""Deficits, inequality margins, and sweep-level stability scans.

Every deficit of a sweep row compares a star domain against the unit
disk on matched meshes: the domain mesh is the disk mesh of the same
ring count pushed radially onto the boundary, so the leading O(h^2)
discretization bias cancels in the difference.  Quantities are computed
on a coarse/fine pair of ring counts and Richardson-extrapolated with
assumed order 2; the energy route also solves one extra coarser level so
an observed convergence order can be attached to each data point.

The torsion-only helpers, :func:`energy_gap` and :func:`energy_deficit`
and the Taylor, Fuglede and sharpness checks built on them, build no
mesh: :func:`torsion_energy` fits the harmonic part of the torsion
function by powers of x - o and integrates it exactly on the domain's
Fourier boundary, with a maximum-principle bound of at most
``TREFFTZ_TOL`` |E| on its error.  :func:`energy_gap` and
:func:`sharpness_fit` take no ring counts.  :func:`energy_deficit`,
:func:`taylor_validation` and :func:`fuglede_margin` keep a ring pair
only because the benchmark passes one by position; it is checked as a
Richardson pair and changes no value.

The eigenvalue is the q = 2 Poincare-Sobolev constant, and every L^q
solve uses nested iteration: at every even ring count >= 8 it starts
from the same domain's solution at half the ring count, prolonged to the
finer mesh, so every value depends on (domain, rings, q) alone.  Each
level is linked to the same domain's level at half its ring count: a
sweep row walks one chain of levels, the order level, the coarse and the
fine one, and the order level builds the levels below it, down to rings
4, so each q is solved once per level.  The same chain is a multigrid
hierarchy: every torsion and L^q solve of a level is preconditioned by a
symmetric V-cycle over it, and only the bottom level, 37 unknowns at
rings 4, is factored, densely (``fem.factorize``), so a sweep at the
default ring counts never imports scipy.sparse.linalg.  The unit disk's
levels follow the same rule; once prepared they keep their values alone,
and sweep workers receive those values.

Conventions (dimension is fixed to 2):

* energy gap     :  E(Omega) - E(B_1), both volumes pi
* energy deficit :  D = E|Omega|^{-2} - E(B_1) pi^{-2}  (scale invariant)
* FK deficit     :  |Omega|^{2/q} lambda_q(Omega) - pi^{2/q} lambda_q(B_1)
* KJ slack       :  lambda_q (-E)^theta, domain minus disk
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import asymmetry, fem
from .circle import TWO_PI, BoundaryProfile, h_half_norm_sq, hessian_form, horner
from .domain import (StarDomain, ellipse, recenter_rescale, unit_disk, volume,
                     volume_corrected, volume_corrected_profile)

DIM = 2
SCALE_EXP = (DIM + 2) / DIM  # volume exponent of the energy normalization

DEFAULT_RINGS = 64
DEFAULT_RINGS_FINE = 128
RATIO_ASYMMETRY_FLOOR = 1e-3
DISK_ENERGY = -math.pi / 16.0  # E(B_1)
# the mode counts of the Trefftz fit, tried in turn, and the largest
# accepted bound on the error of its energy, relative to the energy
TREFFTZ_MODES = (32, 64, 128, 256)
TREFFTZ_TOL = 1e-10
# sup-norm range drawn for the random near-spheres of sweeps and `verify fuglede`
NEAR_SPHERE_SUP = (0.015, 0.047)


# -- per-level functionals ------------------------------------------------


def nested(rings: int) -> bool:
    """Whether a level at ``rings`` is linked to the same domain's level at
    ``rings // 2``, whose solutions start its L^q solves and whose
    V-cycle is its coarse solve (even ring counts >= 8)."""
    return rings % 2 == 0 and rings >= 8


class Level:
    """Torsion energy, eigenvalue and L^q constants of one domain at one
    ring count, computed lazily from one mesh.

    At a :func:`nested` ring count a level is linked to the same domain's
    level at ``rings // 2``: ``coarse`` when given, otherwise one it builds
    on first use.  Every solve is preconditioned by ``precond``, a multigrid
    V-cycle over that chain of levels, down to a ring count that is not
    nested (rings 4 on the default chain), whose small mesh is factored by
    ``fem.factorize``: densely below 8 rings, where the chain of rings 4 to
    7 times a power of two ends, by SuperLU otherwise (rings 33 below rings
    66).  Each L^q constant, the eigenvalue being the one at q = 2, is one
    descent started from the prolonged solution of the same q on the coarse
    level, so each q is solved once per level and a value depends on the
    domain, the ring count and q alone.  A ``SolverError`` from any solve is
    re-raised with the ring count.

    The values are kept; the mesh, ``precond`` and the q-solutions are
    caches, which :meth:`release` drops and which are rebuilt bit for bit
    from (domain, rings) when a solve needs them.  A q-solution is kept as
    its interior values, the only ones a finer level's start reads, and a
    released one is solved again when a finer level needs it.
    """

    def __init__(self, d: StarDomain, rings: int, coarse: Level | None = None):
        self.domain = d
        self.rings = rings
        self.volume = volume(d)
        self._coarse = coarse
        self._energy: float | None = None
        self.torsion_stats: fem.SolveStats | None = None
        self._lq: dict[float, float] = {}
        self._solutions: dict[float, np.ndarray] = {}

    @property
    def coarse(self) -> Level:
        """The same domain's level at ``rings // 2``, built on first use."""
        if self._coarse is None:
            self._coarse = Level(self.domain, self.rings // 2)
        return self._coarse

    @cached_property
    def mesh(self) -> fem.TriMesh:
        return fem.polar_mesh(self.domain, self.rings)

    @cached_property
    def precond(self):
        """The V-cycle over the coarse chain at a nested ring count, the
        mesh's interior stiffness factored by ``fem.factorize`` otherwise."""
        if nested(self.rings):
            return fem.VCycle(self.mesh, self.coarse.precond)
        return fem.factorize(self.mesh.stiffness)

    def release(self) -> None:
        """Drop the mesh, ``precond`` and the q-solutions, keeping every
        value computed."""
        vars(self).pop("mesh", None)
        vars(self).pop("precond", None)
        self._solutions.clear()

    def _solve(self, solver, *args, **kwargs):
        try:
            return solver(self.mesh, *args, precond=self.precond, **kwargs)
        except fem.SolverError as exc:
            raise fem.SolverError(f"rings {self.rings}: {exc}") from exc

    def torsion(self) -> fem.ScalarField:
        """The torsion field, solved on each call and not kept; the energy
        and the solve's ``torsion_stats`` are kept."""
        u, self.torsion_stats = self._solve(fem.solve_torsion)
        self._energy = fem.energy_of(u)
        return u

    def energy(self) -> float:
        if self._energy is None:
            self.torsion()
        return self._energy

    def eigenvalue(self) -> float:
        return self.lambda_q(2.0)

    def lambda_q(self, q: float) -> float:
        """The L^q constant, for q = 2 the eigenvalue."""
        q = float(q)
        if q not in self._lq:
            self._solve_lq(q)
        return self._lq[q]

    def _solution(self, q: float) -> np.ndarray:
        """The interior values of the L^q solution, solved again if released."""
        if q not in self._solutions:
            self._solve_lq(q)
        return self._solutions[q]

    def _solve_lq(self, q: float) -> None:
        start = None
        if nested(self.rings):
            p, _ = fem._interior_transfer(self.rings // 2)
            start = fem._csr_matvec(p, self.coarse._solution(q))
        lam, u = self._solve(fem.poincare_sobolev, q, start=start)
        self._lq[q] = lam
        self._solutions[q] = u.values[:self.mesh.n_interior].copy()


_DISK: dict[int, Level] = {}


def disk_data(rings: int) -> Level:
    """The matched unit-disk level, the reference of every deficit at
    ``rings``, cached per process and linked to the cached disk level at
    ``rings // 2`` at a :func:`nested` ring count.  After
    :func:`prepare_disk_references` it holds values only; a value not
    prepared rebuilds the level's mesh and V-cycle chain."""
    if rings not in _DISK:
        _DISK[rings] = Level(unit_disk(), rings,
                             disk_data(rings // 2) if nested(rings) else None)
    return _DISK[rings]


def prepare_disk_references(levels, q_list=()) -> None:
    """Compute the disk values that every deficit subtracts, the energy
    and lambda_q for each q at each ring count in ``levels``, then release
    every cached disk level (:meth:`Level.release`): a deficit reads a few
    numbers, so no disk mesh, operator, V-cycle or q-solution stays alive
    while the rows build their own.  A disk level is linked to the cached
    disk levels below it, down to rings 4 at most, whose L^q solves start
    its own and whose V-cycles are its coarse solves.  On a chain that
    halves to fewer than 8 rings, as the default one does, the bottom
    level's dense inverse is the only factorization, so this process does
    not import scipy.sparse.linalg."""
    for rings in levels:
        data = disk_data(rings)
        data.energy()
        data.eigenvalue()
        for q in q_list:
            data.lambda_q(q)
    for data in _DISK.values():
        data.release()


def disk_references() -> dict[int, tuple[float | None, dict[float, float]]]:
    """The values of every cached disk level: rings -> (energy or None,
    {q: lambda_q}), what a sweep worker installs."""
    return {rings: (data._energy, dict(data._lq)) for rings, data in _DISK.items()}


def install_disk_references(references) -> None:
    """Install values from :func:`disk_references` as released disk
    levels, so a sweep worker started by spawn or forkserver answers every
    prepared reference without a mesh; a forked worker, which inherits the
    levels, sets the same numbers again."""
    for rings, (energy, lq) in references.items():
        data = disk_data(rings)
        data._energy = energy
        data._lq.update(lq)


# -- extrapolation helpers ----------------------------------------------


def _pair(rings: int, rings_fine: int) -> None:
    """Check the Richardson pair ``(rings, rings_fine)``: rejected unless
    the coarse level is :func:`nested`, so that the order level at
    ``rings // 2`` is half of it, and the fine level has twice its rings:
    :func:`richardson` and :func:`observed_order` assume a mesh ratio of 2."""
    if not nested(rings):
        raise ValueError(f"rings must be even and >= 8, got {rings}")
    if rings_fine != 2 * rings:
        raise ValueError(f"rings_fine must be twice rings, got rings {rings} "
                         f"and rings_fine {rings_fine}")


def richardson(coarse: float, fine: float) -> float:
    """Richardson extrapolation of order 2 at a mesh ratio of 2."""
    return (4.0 * fine - coarse) / 3.0


def _extrapolate(coarse, fine):
    """Richardson extrapolation of a per-level term, elementwise on pairs."""
    if isinstance(coarse, tuple):
        return tuple(map(richardson, coarse, fine))
    return richardson(coarse, fine)


def observed_order(v_coarse: float, v_mid: float, v_fine: float) -> float:
    num = v_coarse - v_mid
    den = v_mid - v_fine
    if den == 0.0 or num / den <= 0.0:
        return math.nan
    return math.log2(num / den)


# -- per-level deficit terms (domain level, disk level) -------------------


def fk_exponent(q: float) -> float:
    return 2.0 / DIM + 2.0 / q - 1.0


def kj_exponent(q: float, dim: int = DIM) -> float:
    """Exponent theta(q, N) = (1/q - (N-2)/(2N)) 2N/(N+2) of the
    torsion-energy power in the Kohler-Jobin product."""
    if q < 1.0:
        raise ValueError("q must be >= 1")
    return (1.0 / q - (dim - 2.0) / (2.0 * dim)) * 2.0 * dim / (dim + 2.0)


def _energy_term(dom: Level, ref: Level) -> float:
    return (dom.energy() * dom.volume ** (-SCALE_EXP)
            - ref.energy() * math.pi ** (-SCALE_EXP))


def _fk_term(dom: Level, ref: Level, q: float) -> float:
    e = fk_exponent(q)
    return dom.volume ** e * dom.lambda_q(q) - math.pi ** e * ref.lambda_q(q)


def _kj_term(dom: Level, ref: Level, q: float) -> float:
    th = kj_exponent(q)
    return (dom.lambda_q(q) * (-dom.energy()) ** th
            - ref.lambda_q(q) * (-ref.energy()) ** th)


def _ratio_terms(dom: Level, ref: Level, q: float) -> tuple[float, float]:
    th = kj_exponent(q)
    return (dom.lambda_q(q) / ref.lambda_q(q) - 1.0,
            (ref.energy() / dom.energy()) ** th - 1.0)


# -- the torsion energy without a mesh -----------------------------------


@dataclass(frozen=True)
class TrefftzStats:
    """The evidence of a :func:`torsion_energy`: the mode count K of the
    fit, ``miss``, a bound on the sup of its boundary miss, and ``bound`` =
    |Omega| miss / 2, a bound on the error of the energy."""

    modes: int
    miss: float
    bound: float


def _householder_lstsq(at: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The least-squares solution x of A x ~ b, A of full column rank with
    at least as many rows as columns, given as its transpose ``at``, so
    that each column of A is a contiguous row.  Householder QR reflects
    the columns and b in turn, then back substitution solves R x = Q^T b.
    Neither calls BLAS or LAPACK, so no bit depends on the BLAS thread
    count, as those of ``numpy.linalg.lstsq`` do."""
    at = np.array(at, dtype=float)
    b = np.array(b, dtype=float)
    cols = len(at)
    for j in range(cols):
        v = at[j, j:].copy()
        norm = fem._norm(v)
        alpha = -math.copysign(norm, v[0])
        scale = 2.0 * norm * (norm + abs(v[0]))  # |v - alpha e_1|^2
        v[0] -= alpha
        at[j, j] = alpha
        if scale == 0.0:
            continue
        v *= math.sqrt(2.0 / scale)  # the reflection is I - v v^T
        rest = at[j + 1:, j:]
        rest -= np.multiply.outer(np.einsum("ij,j->i", rest, v), v)
        b[j:] -= fem._dot(b[j:], v) * v
    # back substitution by columns: column i of R above its diagonal is
    # at[i, :i], contiguous
    x = b[:cols]
    for i in range(cols - 1, -1, -1):
        x[i] /= at[i, i]
        x[:i] -= x[i] * at[i, :i]
    return x


def _trefftz(d: StarDomain, modes: int) -> tuple[float, float]:
    """The torsion energy of the ``modes``-mode Trefftz fit and a bound on
    its boundary miss (:func:`torsion_energy`)."""
    m = d.profile.max_mode
    k = np.arange(1, modes + 1)
    t = np.linspace(0.0, TWO_PI, max(4 * modes + 64, 4 * m + 2), endpoint=False)
    r = d.radius(t)
    rho = float(np.max(r))
    w = r * np.exp(1j * t) / rho
    powers = np.cumprod(np.broadcast_to(w, (modes, len(t))), axis=0)
    at = np.empty((2 * modes + 1, len(t)))
    at[0] = 1.0
    at[1::2] = powers.real
    at[2::2] = powers.imag
    x = _householder_lstsq(at, r * r / 4.0)
    a0, c = x[0], x[1::2] - 1j * x[2::2]
    # one grid of L = 4N points samples the miss, of degree N, and sums the
    # energy's integrand, of degree (K + 2) M + K < L, exactly
    degree = max(modes * (m + 1), 2 * m)
    t = np.linspace(0.0, TWO_PI, 4 * degree, endpoint=False)
    r = d.radius(t)
    r2 = r * r
    w = r * np.exp(1j * t) / rho
    miss = a0 + horner(c, w).real - r2 / 4.0
    # Bernstein: |m'| <= N sup |m|, and each t lies within pi / L of a sample
    sup = float(np.max(np.abs(miss))) / (1.0 - math.pi * degree / len(t))
    integrand = r2 * (a0 / 2.0 + horner(c / (k + 2), w).real - r2 / 16.0)
    return -math.pi * float(np.mean(integrand)), sup


def torsion_energy(d: StarDomain) -> tuple[float, TrefftzStats]:
    """The torsion energy E = -(1/2) int u of -Laplace u = 1, u = 0 on the
    boundary, without a mesh, with a proved error bound (a Trefftz method:
    E. Trefftz, "Ein Gegenstueck zum Ritzschen Verfahren", Zuerich 1926).

    With o the center and r = R(t) the boundary, u = h - |x - o|^2 / 4 for
    the harmonic h with h = R^2 / 4 on the boundary.  The fit h_K = a_0 +
    Re sum_{k <= K} c_k w^k, w = (x - o) / rho and rho = max R, is the
    least-squares one (:func:`_householder_lstsq`) at max(4K + 64, 4M + 2)
    boundary points, M the profile's mode count.  Integrating r dr in
    closed form, E_K = -(1/2) int [a_0 R^2 / 2 + Re sum c_k R^2 w^k / (k +
    2) - R^4 / 16] dt, whose trigonometric polynomial the trapezoid rule
    sums exactly.  u_K - u is harmonic and equals the fit's miss m(t) on
    the boundary, so by the maximum principle |E_K - E| <= |Omega| sup |m|
    / 2.  m has degree N = max(K (M + 1), 2M); Bernstein's inequality
    bounds sup |m| by its largest value at 4N points over 1 - pi / 4.

    K runs through ``TREFFTZ_MODES``, and the first fit whose bound is at
    most ``TREFFTZ_TOL`` |E_K| is returned with its :class:`TrefftzStats`;
    ``fem.SolverError`` names the last K and miss if none is.  Far from
    the disk the powers of w resolve h poorly (r = 1 + 0.4 cos 2 theta
    raises), so the sweep rows keep the mesh.
    """
    for modes in TREFFTZ_MODES:
        energy, miss = _trefftz(d, modes)
        bound = 0.5 * volume(d) * miss
        if bound <= TREFFTZ_TOL * abs(energy):
            return energy, TrefftzStats(modes, miss, bound)
    raise fem.SolverError(
        f"Trefftz fit of the torsion energy misses the boundary by up to {miss:.3g} "
        f"at {modes} modes: bound {bound:.3g} > {TREFFTZ_TOL:.1g} |E|")


# -- deficits -------------------------------------------------------------


def energy_gap(d: StarDomain) -> float:
    """E(Omega) - E(B_1) (volumes must be pi), from :func:`torsion_energy`."""
    return torsion_energy(d)[0] - DISK_ENERGY


def energy_deficit(d: StarDomain, rings: int = DEFAULT_RINGS,
                   rings_fine: int = DEFAULT_RINGS_FINE) -> float:
    """Scale-invariant energy deficit D, from :func:`torsion_energy`.
    ``rings`` and ``rings_fine`` are checked as a Richardson pair but
    change no value; the benchmark passes them by position."""
    _pair(rings, rings_fine)
    return (torsion_energy(d)[0] * volume(d) ** (-SCALE_EXP)
            - DISK_ENERGY * math.pi ** (-SCALE_EXP))


# -- expansions at the disk ----------------------------------------------


def hessian_target(k: int) -> float:
    """Second-order energy gap per squared amplitude of a cosine mode,
    half the shape Hessian ``circle.hessian_form`` of cos k theta:
    pi (k - 1) / 8 in two dimensions."""
    return 0.5 * hessian_form(BoundaryProfile.single_mode(k, cos_amp=1.0))


def taylor_validation(k: int, s_values, rings: int = DEFAULT_RINGS,
                      rings_fine: int = DEFAULT_RINGS_FINE) -> float:
    """Fitted small-amplitude limit of (E(Omega_s) - E(B_1)) / s^2 along
    volume-corrected mode-k profiles.

    Fits a quadratic in s to absorb the cubic and quartic terms of the
    gap and returns the intercept, which the closed-form quadratic form
    predicts to be pi (k-1)/8.  ``rings`` and ``rings_fine`` are checked
    as a Richardson pair but change no value; the benchmark passes them
    by position.
    """
    if k < 1:
        raise ValueError("mode index must be >= 1")
    s = np.asarray(s_values, dtype=float)
    if len(s) < 3 or np.any(s <= 0.0) or np.any(s > 0.1):
        raise ValueError("amplitudes must lie in (0, 0.1] and number >= 3")
    _pair(rings, rings_fine)
    y = np.array([energy_gap(StarDomain((0.0, 0.0), volume_corrected_profile(k, si)))
                  / si ** 2 for si in s])
    coeffs, residuals, *_ = np.polyfit(s, y, 2, full=True)
    intercept = float(coeffs[2])
    rms = math.sqrt(float(residuals[0]) / len(s)) if len(residuals) else 0.0
    if rms > 0.05 * max(abs(intercept), hessian_target(2)):
        raise fem.SolverError(
            f"Taylor fit residual {rms:.3g} too large for mode {k}")
    return intercept


def fuglede_margin(p: BoundaryProfile, rings: int = DEFAULT_RINGS,
                   rings_fine: int = DEFAULT_RINGS_FINE) -> float:
    """Energy gap per squared H^{1/2} norm for a nearly spherical profile.

    The profile must be volume-corrected (volume pi), essentially
    barycentered and supported on modes >= 2; quantitative stability
    bounds this ratio below by 1/(32 N^2) = 1/128 in the plane.
    ``rings`` and ``rings_fine`` are checked as a Richardson pair but
    change no value; the benchmark passes them by position.
    """
    if p.grid_sup() > 0.05 * (1.0 + 1e-6):
        raise ValueError("profile sup norm exceeds the nearly-spherical budget 0.05")
    d = StarDomain((0.0, 0.0), p)
    if abs(volume(d) - math.pi) > 1e-8:
        raise ValueError("profile is not volume-corrected")
    low_mass = 0.0
    if p.max_mode >= 1:
        low_mass = 2.0 * math.pi * (p.cos_coeffs[0] ** 2 + p.sin_coeffs[0] ** 2)
    norm_sq = h_half_norm_sq(p)
    if low_mass > 0.05 * norm_sq:
        raise ValueError("translation mode dominates; recenter the profile first")
    _pair(rings, rings_fine)
    return energy_gap(d) / norm_sq


def sharpness_fit(eps_values) -> tuple[float, float]:
    """Fit the deficit growth rate along the ellipse family.

    Returns (log-log slope of D vs eps, relative spread of A/eps); the
    slope sits near 2 and the spread stays small, which is what makes
    the squared asymmetry the right power in the stability inequality.
    """
    eps = np.asarray(eps_values, dtype=float)
    if len(eps) < 5 or np.any(eps <= 0.0) or np.any(eps > 0.5):
        raise ValueError("need >= 5 eccentricities in (0, 0.5]")
    deficits, ratios = [], []
    for e in eps:
        d = ellipse(e)
        deficits.append(energy_deficit(d))
        a, _ = asymmetry.fraenkel(d)
        ratios.append(a / e)
    slope = float(np.polyfit(np.log(eps), np.log(deficits), 1)[0])
    ratios = np.asarray(ratios)
    spread = float((ratios.max() - ratios.min()) / ratios.mean())
    return slope, spread


# -- sweep machinery -------------------------------------------------------


def random_near_sphere_profile(rng: np.random.Generator,
                               target_sup: float) -> BoundaryProfile:
    """Random profile on modes 2..8 with k^{-2} coefficient decay,
    rescaled to the target sup norm, volume-corrected and recentered."""
    ks = np.arange(1, 9, dtype=float)
    cos = rng.standard_normal(8) / ks ** 2
    sin = rng.standard_normal(8) / ks ** 2
    cos[0] = sin[0] = 0.0
    p = BoundaryProfile(0.0, cos, sin)
    p = p * (target_sup / p.grid_sup())
    p = volume_corrected(p)
    return recenter_rescale(StarDomain((0.0, 0.0), p)).profile


@dataclass(frozen=True)
class SweepSpec:
    """Combined ellipse + random near-sphere family."""

    eps_values: tuple = tuple(np.round(np.linspace(0.02, 0.2, 8), 6))
    random_count: int = 52
    seed: int = 7
    q_list: tuple = (1.5, 2.0, 3.0)
    rings: int = DEFAULT_RINGS
    rings_fine: int = DEFAULT_RINGS_FINE

    def __post_init__(self):
        _pair(self.rings, self.rings_fine)
        if self.random_count < 0:
            raise ValueError(f"random_count must be >= 0, got {self.random_count}")
        if not self.eps_values and self.random_count == 0:
            raise ValueError("empty family: eps_values is empty and random_count is 0")


@dataclass
class DeficitReport:
    """Per-domain record of functionals, deficits, and diagnostics."""

    domain_id: str
    family: str
    param: float
    volume: float
    energy: float
    eigenvalue: float
    lambda_q: dict
    fraenkel: float
    alpha: float
    alpha_annular_bound: float
    deficit_energy: float
    deficit_fk: dict
    kj_slack: dict
    cappio: dict
    ratio_energy_asym_sq: float
    mesh_rings: int
    extrap_order: float


@dataclass
class SweepResult:
    reports: list
    slope: float
    slope_residual: float
    min_ratio_energy: float
    min_ratio_fk: dict
    kj_slack_min: dict
    q_list: tuple


def build_family(spec: SweepSpec) -> list[tuple[str, str, float, StarDomain]]:
    members = [(f"ellipse-{e}", "ellipse", float(e), ellipse(float(e)))
               for e in spec.eps_values]
    seeds = np.random.SeedSequence(spec.seed).spawn(spec.random_count)
    for i, ss in enumerate(seeds):
        rng = np.random.default_rng(ss)
        sup = rng.uniform(*NEAR_SPHERE_SUP)
        profile = random_near_sphere_profile(rng, sup)
        members.append((f"random-{i}", "random", float(i),
                        StarDomain((0.0, 0.0), profile)))
    return members


def _row_terms(dom: Level, ref: Level, q_list) -> dict:
    """Every extrapolated value of a sweep row, at one level."""
    t = {"eigenvalue": dom.eigenvalue(), "energy": dom.energy(),
         "deficit_energy": _energy_term(dom, ref)}
    for q in q_list:
        t["lambda_q", q] = dom.lambda_q(q)
        t["deficit_fk", q] = _fk_term(dom, ref, q)
        if q > 1.0:
            t["kj_slack", q] = _kj_term(dom, ref, q)
            t["cappio", q] = _ratio_terms(dom, ref, q)
    return t


def evaluate_member(domain_id: str, family: str, param: float, d: StarDomain,
                    q_list=(1.5, 2.0, 3.0), rings: int = DEFAULT_RINGS,
                    rings_fine: int = DEFAULT_RINGS_FINE) -> DeficitReport:
    q_list = [float(q) for q in q_list]
    _pair(rings, rings_fine)
    # the fine level is linked to the coarse one, and that to the order
    # level, whose energy deficit gives the observed order and whose
    # solutions start those of the coarse level
    fine = Level(d, rings_fine)
    order_terms, lo, hi = [_row_terms(level, disk_data(level.rings), q_list)
                           for level in (fine.coarse.coarse, fine.coarse, fine)]
    x = {k: _extrapolate(lo[k], hi[k]) for k in lo}
    deficit_e = x["deficit_energy"]
    order = observed_order(order_terms["deficit_energy"], lo["deficit_energy"],
                           hi["deficit_energy"])

    def by_q(name):
        return {q: x[name, q] for q in q_list if (name, q) in x}

    deficit_fk = by_q("deficit_fk")
    frk, _center = asymmetry.fraenkel(d)
    alpha_val = asymmetry.alpha(d)
    outside, missing = asymmetry.ball_overlaps(d)
    bound = asymmetry.annular_lower_bound(outside, missing)

    ratio_e = deficit_e / frk ** 2 if frk >= RATIO_ASYMMETRY_FLOOR else math.nan

    return DeficitReport(
        domain_id=domain_id, family=family, param=param, volume=volume(d),
        energy=x["energy"], eigenvalue=x["eigenvalue"], lambda_q=by_q("lambda_q"),
        fraenkel=frk, alpha=alpha_val, alpha_annular_bound=bound,
        deficit_energy=deficit_e, deficit_fk=deficit_fk, kj_slack=by_q("kj_slack"),
        cappio=by_q("cappio"), ratio_energy_asym_sq=ratio_e, mesh_rings=rings_fine,
        extrap_order=order,
    )


def _collect(jobs, results) -> list[DeficitReport]:
    """Drain ``results`` in job order, naming the member whose solve failed."""
    reports = []
    for job in jobs:
        try:
            reports.append(next(results))
        except fem.SolverError as exc:
            raise fem.SolverError(f"sweep member {job[0]} failed: {exc}") from exc
    return reports


def _worker(args) -> DeficitReport:
    return evaluate_member(*args)


def available_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sigma_scan(spec: SweepSpec, workers: int | None = None) -> SweepResult:
    """Evaluate the whole family, in input order, optionally in parallel,
    by default on every available CPU (:func:`available_cpus`).

    Any member whose solves fail aborts the scan with that member's id;
    other errors propagate unchanged, at any worker count.
    """
    members = build_family(spec)
    levels = (spec.rings // 2, spec.rings, spec.rings_fine)
    prepare_disk_references(levels, spec.q_list)
    jobs = [(mid, fam, par, dom, spec.q_list, spec.rings, spec.rings_fine)
            for (mid, fam, par, dom) in members]
    if workers is None:
        workers = available_cpus()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=install_disk_references,
                                 initargs=(disk_references(),)) as pool:
            reports = _collect(jobs, pool.map(_worker, jobs))
    else:
        reports = _collect(jobs, map(_worker, jobs))

    ell = [r for r in reports if r.family == "ellipse"]
    slope, slope_res = math.nan, math.nan
    if len(ell) >= 3:
        logs = np.log([r.param for r in ell])
        coeffs, residuals, *_ = np.polyfit(
            logs, np.log([r.deficit_energy for r in ell]), 1, full=True)
        slope = float(coeffs[0])
        slope_res = math.sqrt(float(residuals[0]) / len(ell)) if len(residuals) else 0.0
    ratios_e = [r.ratio_energy_asym_sq for r in reports
                if math.isfinite(r.ratio_energy_asym_sq)]
    min_fk = {}
    for q in spec.q_list:
        q = float(q)
        vals = [r.deficit_fk[q] / r.fraenkel ** 2 for r in reports
                if q in r.deficit_fk and r.fraenkel >= RATIO_ASYMMETRY_FLOOR]
        min_fk[q] = min(vals) if vals else math.nan
    kj_min = {q: min(r.kj_slack[q] for r in reports if q in r.kj_slack)
              for q in spec.q_list if q > 1.0}
    return SweepResult(
        reports=reports, slope=slope, slope_residual=slope_res,
        min_ratio_energy=min(ratios_e) if ratios_e else math.nan,
        min_ratio_fk=min_fk, kj_slack_min=kj_min,
        q_list=tuple(float(q) for q in spec.q_list),
    )
