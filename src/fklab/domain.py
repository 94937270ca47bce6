"""Star-shaped planar domains described by a center and a radial profile.

A domain is the set of points ``center + rho * (cos t, sin t)`` with
``0 <= rho < 1 + phi(t)`` for a boundary profile ``phi``.  Volumes and
barycenters of such domains are trigonometric-polynomial integrals and
are computed exactly (uniform-grid trapezoid sums are exact for band-
limited integrands).  The module also provides the ellipse family, the
volume-interpolating radial flow from the unit disk to a target domain,
and renormalization to unit-disk volume with the barycenter at the
origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle import TWO_PI, BoundaryProfile

_FIT_EXTRA_MODES = 8  # fitted profiles keep the input's K plus this many


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

    def min_radius(self) -> float:
        theta = _exact_angles(4 * self.profile.max_mode)
        return float(np.min(self.radius(theta)))


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


def fit_profile(radii: np.ndarray, max_modes: int | None = None,
                tail_tol: float = 1e-15) -> tuple[BoundaryProfile, float]:
    """Fourier-fit a sampled radius function, returning (profile, tail energy).

    ``radii`` are samples of r(theta) on a uniform grid starting at 0.
    The fit keeps at most ``max_modes`` modes (or all resolvable ones),
    dropping a trailing tail whose L^2 energy is reported.
    """
    radii = np.asarray(radii, dtype=float)
    m = len(radii)
    coeffs = np.fft.rfft(radii) / m
    a0 = float(coeffs[0].real) - 1.0
    kmax_avail = (m - 1) // 2
    kmax = kmax_avail if max_modes is None else min(max_modes, kmax_avail)
    cos = 2.0 * coeffs[1:kmax + 1].real
    sin = -2.0 * coeffs[1:kmax + 1].imag
    tail = 2.0 * float(np.sum(np.abs(coeffs[kmax + 1:]) ** 2))
    profile = BoundaryProfile(a0, cos, sin).trimmed(rel_tol=tail_tol)
    return profile, tail


def profile_relative_to(d: StarDomain, c, max_modes: int | None = None,
                        fit_tol: float = 1e-9) -> BoundaryProfile:
    """Radial profile of the same boundary, re-expressed about the point c.

    Every ray from c must cross the boundary exactly once.  Angles are
    resolved by bisection on the boundary parameter, then the sampled
    radii are Fourier-fitted (keeping the input's mode count plus a
    fixed margin unless ``max_modes`` overrides it).
    """
    c = np.asarray(c, dtype=float)
    offset = c - np.asarray(d.center)
    dist = float(np.hypot(*offset))
    p = d.profile
    if dist >= d.min_radius():
        raise NotStarShapedError(
            f"center offset {dist:.3g} exceeds the minimal boundary radius")
    if max_modes is None:
        # start at the input's resolution plus a margin and escalate if the
        # refit tail is not yet below tolerance
        base = p.max_mode + _FIT_EXTRA_MODES
        candidates = [base, 2 * base, 4 * base]
    else:
        candidates = [max_modes]
    n_fit = max(8 * (candidates[-1] + 1), 256)

    if dist == 0.0:
        return p

    # Boundary point at parameter t, relative to c.
    def rel(t):
        pts = d.boundary_points(t)
        return pts[..., 0] - c[0], pts[..., 1] - c[1]

    n_coarse = max(4 * n_fit, 2048)
    t_grid = np.linspace(0.0, TWO_PI, n_coarse + 1)
    vx, vy = rel(t_grid)
    ang = np.unwrap(np.arctan2(vy, vx))
    if np.any(np.diff(ang) <= 0.0) or abs(ang[-1] - ang[0] - TWO_PI) > 1e-9:
        raise NotStarShapedError("boundary angle about c is not monotone")

    targets = ang[0] + np.arange(n_fit) * (TWO_PI / n_fit)
    idx = np.searchsorted(ang, targets, side="right") - 1
    idx = np.clip(idx, 0, n_coarse - 1)
    lo = t_grid[idx]
    hi = t_grid[idx + 1]
    # Vectorized bisection on the boundary parameter; the bracket width
    # bounds the radius error well below the requested tolerance.
    for _ in range(52):
        mid = 0.5 * (lo + hi)
        vx, vy = rel(mid)
        gap = np.arctan2(vy, vx) - targets
        gap = (gap + math.pi) % TWO_PI - math.pi
        above = gap > 0.0
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    t_star = 0.5 * (lo + hi)
    vx, vy = rel(t_star)
    rho = np.hypot(vx, vy)

    # Samples are indexed by angle targets[i] = ang[0] + i * step; the fit
    # lives on the shifted grid and is rotated back to the theta = 0 frame.
    phase = targets[0]
    check = math.inf
    for kmax in candidates:
        profile, _tail = fit_profile(rho, kmax)
        if phase != 0.0 and profile.max_mode:
            k = np.arange(1, profile.max_mode + 1, dtype=float)
            ck, sk = np.cos(k * phase), np.sin(k * phase)
            cos = profile.cos_coeffs * ck - profile.sin_coeffs * sk
            sin = profile.sin_coeffs * ck + profile.cos_coeffs * sk
            profile = BoundaryProfile(profile.a0, cos, sin)
        check = float(np.max(np.abs(1.0 + profile.values(targets) - rho)))
        if check <= fit_tol:
            return profile
    raise NotStarShapedError(
        f"refit boundary deviates by {check:.3g} (> {fit_tol:.1g}); "
        "profile about c is not resolvable at this truncation")


def recenter_rescale(d: StarDomain) -> StarDomain:
    """Normalize to volume pi with the barycenter at the origin.

    The domain is re-expressed about its barycenter (per-angle ray/boundary
    bisection plus a Fourier refit) and dilated so the exact Fourier
    volume equals pi.  Idempotent up to refit roundoff.
    """
    c = barycenter(d)
    offset = float(np.hypot(c[0] - d.center[0], c[1] - d.center[1]))
    if offset < 1e-12:
        p = d.profile
    else:
        p = profile_relative_to(d, c)
    vol = math.pi * ((1.0 + p.a0) ** 2
                     + 0.5 * float(np.sum(p.cos_coeffs ** 2 + p.sin_coeffs ** 2)))
    s = math.sqrt(math.pi / vol)
    scaled = BoundaryProfile(s * (1.0 + p.a0) - 1.0,
                             s * p.cos_coeffs, s * p.sin_coeffs)
    return StarDomain((0.0, 0.0), scaled)


def ellipse(eps: float, max_modes: int = 16) -> StarDomain:
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
    profile, _ = fit_profile(r, max_modes)
    dom = StarDomain((0.0, 0.0), profile)
    s = math.sqrt(math.pi / volume(dom))
    profile = BoundaryProfile(s * (1.0 + profile.a0) - 1.0,
                              s * profile.cos_coeffs, s * profile.sin_coeffs)
    return StarDomain((0.0, 0.0), profile)


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
