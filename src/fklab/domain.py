"""Star-shaped planar domains described by a center and a radial profile.

A domain is the set of points ``center + rho * (cos t, sin t)`` with
``0 <= rho < 1 + phi(t)`` for a boundary profile ``phi``.  Volumes and
barycenters of such domains are trigonometric-polynomial integrals and
are computed exactly (uniform-grid trapezoid sums are exact for band-
limited integrands).  The module also re-expresses a boundary about
another center, and provides the ellipse family, the volume-
interpolating radial flow from the unit disk to a target domain, and
renormalization to unit-disk volume with the barycenter at the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle import TWO_PI, BoundaryProfile

_FIT_EXTRA_MODES = 8  # fitted profiles keep the input's K plus this many
_TRIM_TOL = 1e-15     # fits drop trailing modes below this relative size
_REFIT_TOL = 1e-9     # largest boundary miss of a profile about a new center
_REFIT_MAX_MODES = 512  # most modes of a profile about a new center
_REFIT_POINTS = 8       # boundary points per mode of that profile's sum,
_REFIT_FINE_POINTS = 32  # and of its second mode ladder near the boundary
_ELLIPSE_MODES = 16   # Fourier modes of the ellipse family's profile


class NotStarShapedError(ValueError):
    """Raised when a radial reparametrization is not single-valued."""


def _exact_angles(degree: int, minimum: int = 16) -> np.ndarray:
    """Uniform grid on which the trapezoid rule integrates trigonometric
    polynomials up to the given degree exactly (needs > degree points)."""
    n = max(degree + 2, minimum)
    return np.linspace(0.0, TWO_PI, n, endpoint=False)


@dataclass(frozen=True, eq=False)
class StarDomain:
    """Planar domain with boundary radius 1 + phi(theta) about ``center``."""

    center: tuple[float, float]
    profile: BoundaryProfile

    def __post_init__(self):
        cx, cy = (float(self.center[0]), float(self.center[1]))
        if not (math.isfinite(cx) and math.isfinite(cy)):
            raise ValueError("domain center must be finite")
        object.__setattr__(self, "center", (cx, cy))
        theta = _exact_angles(4 * self.profile.max_mode)
        if np.min(self.radius(theta)) <= 0.0:
            raise ValueError("boundary radius 1 + phi must be positive")

    def radius(self, theta) -> np.ndarray:
        return 1.0 + self.profile.values(theta)

    def boundary_points(self, theta) -> np.ndarray:
        """Boundary samples, shape (n, 2)."""
        theta = np.asarray(theta, dtype=float)
        r = self.radius(theta)
        return np.stack([self.center[0] + r * np.cos(theta),
                         self.center[1] + r * np.sin(theta)], axis=-1)

    def translated(self, dx: float, dy: float) -> "StarDomain":
        return StarDomain((self.center[0] + dx, self.center[1] + dy), self.profile)

    def dilated(self, s: float) -> "StarDomain":
        """The dilate s Omega about the origin: center s o, radius s (1 + phi)."""
        p = self.profile
        return StarDomain((s * self.center[0], s * self.center[1]),
                          BoundaryProfile(s * (1.0 + p.a0) - 1.0,
                                          s * p.cos_coeffs, s * p.sin_coeffs))


def unit_disk(radius: float = 1.0, center: tuple[float, float] = (0.0, 0.0)) -> StarDomain:
    if radius <= 0.0:
        raise ValueError("disk radius must be positive")
    return StarDomain(center, BoundaryProfile.constant(radius - 1.0))


def volume(d: StarDomain) -> float:
    """Exact area: pi [(1 + a0)^2 + (1/2) sum (a_k^2 + b_k^2)]."""
    p = d.profile
    mode_mass = float(np.sum(p.cos_coeffs ** 2 + p.sin_coeffs ** 2))
    return math.pi * ((1.0 + p.a0) ** 2 + 0.5 * mode_mass)


def barycenter(d: StarDomain) -> np.ndarray:
    """Exact barycenter: center + (1/|Omega|) (1/3) int r^3 (cos, sin) d theta."""
    p = d.profile
    theta = _exact_angles(3 * p.max_mode + 1, minimum=32)
    r3 = (1.0 + p.values(theta)) ** 3 / 3.0
    w = TWO_PI / len(theta)
    mx = w * float(r3 @ np.cos(theta))
    my = w * float(r3 @ np.sin(theta))
    vol = volume(d)
    return np.array([d.center[0] + mx / vol, d.center[1] + my / vol])


def _profile_from_coeffs(coeffs: np.ndarray) -> BoundaryProfile:
    """The profile whose radius 1 + phi has ``coeffs[k]`` as its coefficient
    of e^{-ik theta}, k = 0..K (a_k = 2 Re, b_k = -2 Im), with the trailing
    modes below ``_TRIM_TOL`` dropped."""
    return BoundaryProfile(float(coeffs[0].real) - 1.0, 2.0 * coeffs[1:].real,
                           -2.0 * coeffs[1:].imag).trimmed(rel_tol=_TRIM_TOL)


def fit_profile(radii: np.ndarray,
                max_modes: int | None = None) -> tuple[BoundaryProfile, float]:
    """Fourier-fit a sampled radius function, returning (profile, tail energy).

    ``radii`` are samples of r(theta) on a uniform grid starting at 0.
    The fit keeps at most ``max_modes`` modes (or all resolvable ones),
    dropping a trailing tail whose L^2 energy is reported.
    """
    radii = np.asarray(radii, dtype=float)
    m = len(radii)
    coeffs = np.fft.rfft(radii) / m
    kmax_avail = (m - 1) // 2
    kmax = kmax_avail if max_modes is None else min(max_modes, kmax_avail)
    tail = 2.0 * float(np.sum(np.abs(coeffs[kmax + 1:]) ** 2))
    return _profile_from_coeffs(coeffs[:kmax + 1]), tail


def profile_relative_to(d: StarDomain, c) -> BoundaryProfile:
    """Radial profile of the same boundary, re-expressed about the point c.

    Along the boundary x(t) = o + (1 + phi(t)) e_t let w = x - c and
    psi = arg w.  Then rho d psi = (w x w') / |w| dt, so the coefficient
    of e^{-ik psi} in rho(psi) is (1/2 pi) int (w x w') / |w| (conj(w) /
    |w|)^k dt, a smooth periodic integrand that the trapezoid rule in t
    sums to geometric accuracy; no angle is inverted.  The sum keeps the
    input's mode count plus a margin, doubled and then doubled again if
    the profile misses the boundary points by more than ``_REFIT_TOL``;
    from there the count keeps doubling while the miss falls, up to
    ``_REFIT_MAX_MODES``.  Each sum takes max(8 (K + 1), 256) points for K
    modes.  Near the boundary the integrand varies faster than that grid
    resolves and the sum aliases, so where the ladder stops unresolved it
    is run once more at 32 points per mode.  Raises ``NotStarShapedError``
    where the angle about c is not increasing at a grid point, and a plain
    ``ValueError`` naming the miss and the mode count where no sum
    reproduces the boundary.
    """
    p = d.profile
    offset = np.asarray(d.center, dtype=float) - np.asarray(c, dtype=float)
    if float(np.hypot(*offset)) == 0.0:
        return p
    dp = p.derivative()
    first = p.max_mode + _FIT_EXTRA_MODES
    tried_first = 4 * first  # the counts up to this one run whatever their misses
    per_mode, kmax, previous = _REFIT_POINTS, first, math.inf
    while True:
        t = np.linspace(0.0, TWO_PI, max(per_mode * (kmax + 1), 256), endpoint=False)
        e = np.exp(1j * t)
        r = 1.0 + p.values(t)
        w = complex(*offset) + r * e
        cross = (w.conjugate() * (dp.values(t) + 1j * r) * e).imag  # w x w'
        if np.min(cross) <= 0.0:
            raise NotStarShapedError("boundary angle about c is not monotone")
        rho, psi = np.abs(w), np.angle(w)
        # summed by numpy, not BLAS, so no bit depends on the BLAS thread count
        coeffs = np.einsum("j,jk->k", cross / rho,
                           np.exp(-1j * np.outer(psi, np.arange(kmax + 1)))) / len(t)
        profile = _profile_from_coeffs(coeffs)
        miss = float(np.max(np.abs(1.0 + profile.values(psi) - rho)))
        if miss <= _REFIT_TOL:
            return profile
        if kmax >= tried_first and (not miss < previous or 2 * kmax > _REFIT_MAX_MODES):
            if per_mode == _REFIT_FINE_POINTS:
                raise ValueError(
                    f"refit boundary deviates by {miss:.3g} (> {_REFIT_TOL:.1g}) at {kmax} "
                    "modes; the profile about c is not resolved")
            per_mode, kmax, previous = _REFIT_FINE_POINTS, first, math.inf
            continue
        previous = miss
        kmax *= 2


def recenter_rescale(d: StarDomain) -> StarDomain:
    """Normalize to volume pi with the barycenter at the origin.

    The domain is re-expressed about its barycenter (one trapezoid sum in
    the boundary parameter, :func:`profile_relative_to`) and dilated so
    the exact Fourier volume equals pi.  Idempotent up to roundoff.
    """
    c = barycenter(d)
    offset = float(np.hypot(c[0] - d.center[0], c[1] - d.center[1]))
    if offset < 1e-12:
        p = d.profile
    else:
        p = profile_relative_to(d, c)
    centered = StarDomain((0.0, 0.0), p)
    return centered.dilated(math.sqrt(math.pi / volume(centered)))


def ellipse(eps: float) -> StarDomain:
    """Volume-pi ellipse {x^2 + (1+eps) y^2 <= 1} scaled to area pi.

    The unscaled boundary radius is (1 + eps sin^2 theta)^{-1/2}; the
    normalizing dilation is (1+eps)^{1/4}.  The profile is fitted in
    Fourier modes (even cosine modes only, by symmetry) and then the
    fitted volume is renormalized exactly.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"ellipse eccentricity parameter must be in [0, 1), got {eps}")
    if eps == 0.0:
        return unit_disk()
    theta = np.linspace(0.0, TWO_PI, 256, endpoint=False)
    r = (1.0 + eps) ** 0.25 / np.sqrt(1.0 + eps * np.sin(theta) ** 2)
    profile, _ = fit_profile(r, _ELLIPSE_MODES)
    dom = StarDomain((0.0, 0.0), profile)
    return dom.dilated(math.sqrt(math.pi / volume(dom)))


def volume_flow(p: BoundaryProfile, t: float) -> StarDomain:
    """Domain swept out by the radial volume-interpolating flow at time t.

    The flow moves the radius of the unit disk to
    rho_t(theta) = sqrt(1 + t ((1 + phi)^2 - 1)), so the enclosed area
    interpolates linearly: |Omega_t| = pi + t (|Omega_phi| - pi).  In
    particular the area stays pi for every t when the target profile is
    volume-corrected.
    """
    t = float(t)
    if t == 0.0:
        return unit_disk()
    if t == 1.0:
        return StarDomain((0.0, 0.0), p)
    n = max(2048, 16 * (p.max_mode + 1))
    theta = np.linspace(0.0, TWO_PI, n, endpoint=False)
    radicand = 1.0 + t * ((1.0 + p.values(theta)) ** 2 - 1.0)
    if np.min(radicand) <= 0.0:
        raise ValueError(f"flow radius degenerates at t={t}: "
                         f"min radicand {np.min(radicand):.3g} <= 0")
    profile, _ = fit_profile(np.sqrt(radicand), max_modes=n // 4)
    return StarDomain((0.0, 0.0), profile)


def volume_corrected_profile(k: int, s: float) -> BoundaryProfile:
    """Single-mode profile a0 + s cos(k theta) with exact volume pi.

    The constant offset a0 = sqrt(1 - s^2/2) - 1 makes the Fourier volume
    formula return pi identically.
    """
    if k < 1:
        raise ValueError("mode index must be >= 1")
    if abs(s) >= 1.0:
        raise ValueError(f"amplitude must satisfy |s| < 1, got {s}")
    a0 = math.sqrt(1.0 - 0.5 * s * s) - 1.0
    return BoundaryProfile.single_mode(k, cos_amp=s, a0=a0)


def volume_corrected(p: BoundaryProfile) -> BoundaryProfile:
    """Adjust the constant mode so the induced domain has volume pi."""
    mode_mass = float(np.sum(p.cos_coeffs ** 2 + p.sin_coeffs ** 2))
    if mode_mass >= 2.0:
        raise ValueError("oscillating modes carry too much volume to correct")
    return p.with_a0(math.sqrt(1.0 - 0.5 * mode_mass) - 1.0)
