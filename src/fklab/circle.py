"""Exact Fourier calculus for boundary profiles on the unit circle.

A boundary profile is a truncated Fourier series

    phi(theta) = a0 + sum_{k=1}^{K} a_k cos(k theta) + b_k sin(k theta)

on the unit circle.  Everything in this module is evaluated in closed
form from the coefficients, so the quantities that anchor the rest of
the package (harmonic-extension energies, the H^{1/2} norm, the second
shape derivative of the torsional energy at the unit disk, Steklov
Rayleigh quotients) carry no discretization error.

Key closed forms used throughout (mode k >= 1, unit circle):

* boundary L^2 mass      :  int phi^2 = 2 pi a0^2 + pi sum (a_k^2 + b_k^2)
* harmonic extension     :  H(phi) = a0 + sum r^k (a_k cos k0 + b_k sin k0)
* extension energy       :  int_{B_1} |grad H|^2 = pi sum k (a_k^2 + b_k^2)
* energy Hessian at disk :  (extension energy - boundary mass) / 4

The Hessian is the planar case N = 2 of (extension energy - boundary
mass) / N^2 on the unit sphere, where the degree-k harmonic identity
(extension energy k times boundary mass) gives mode k the value
pi (k - 1) (a_k^2 + b_k^2) / 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k - 1] z^k over k = 1..K, by Horner's rule."""
    acc = np.full(z.shape, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= z
        acc += c
    acc *= z
    return acc


def _coeff_array(values) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(values, dtype=float)).copy()
    if arr.ndim != 1:
        raise ValueError("coefficient arrays must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ValueError("profile coefficients must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class BoundaryProfile:
    """Truncated Fourier series on the unit circle.

    ``cos_coeffs[k-1]`` and ``sin_coeffs[k-1]`` hold the coefficients of
    ``cos(k theta)`` and ``sin(k theta)``.  Instances are immutable and
    safe to share between threads.
    """

    a0: float
    cos_coeffs: np.ndarray
    sin_coeffs: np.ndarray

    def __post_init__(self):
        if not math.isfinite(self.a0):
            raise ValueError("profile coefficients must be finite")
        object.__setattr__(self, "cos_coeffs", _coeff_array(self.cos_coeffs))
        object.__setattr__(self, "sin_coeffs", _coeff_array(self.sin_coeffs))
        if self.cos_coeffs.shape != self.sin_coeffs.shape:
            raise ValueError("cos and sin coefficient arrays must have equal length")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "BoundaryProfile":
        return BoundaryProfile(0.0, np.zeros(0), np.zeros(0))

    @staticmethod
    def constant(value: float) -> "BoundaryProfile":
        return BoundaryProfile(float(value), np.zeros(0), np.zeros(0))

    @staticmethod
    def single_mode(k: int, cos_amp: float = 0.0, sin_amp: float = 0.0,
                    a0: float = 0.0) -> "BoundaryProfile":
        if k < 1:
            raise ValueError("mode index must be >= 1")
        cos = np.zeros(k)
        sin = np.zeros(k)
        cos[k - 1] = cos_amp
        sin[k - 1] = sin_amp
        return BoundaryProfile(a0, cos, sin)

    # -- basic queries -------------------------------------------------

    @property
    def max_mode(self) -> int:
        return len(self.cos_coeffs)

    def sup_norm_bound(self) -> float:
        """Certified sup-norm estimator |a0| + sum(|a_k| + |b_k|)."""
        return abs(self.a0) + float(np.sum(np.abs(self.cos_coeffs))
                                    + np.sum(np.abs(self.sin_coeffs)))

    def grid_sup(self) -> float:
        """max |phi| sampled on a uniform grid of max(4K + 1, 16) points."""
        theta = np.linspace(0.0, TWO_PI, max(4 * self.max_mode + 1, 16), endpoint=False)
        return float(np.max(np.abs(self.values(theta))))

    def values(self, theta) -> np.ndarray:
        """Evaluate phi at the given angles (vectorized): cos and sin once
        per angle, and the modes summed by Horner's rule in z = e^{i theta}
        as the real part of sum (a_k - i b_k) z^k."""
        theta = np.asarray(theta, dtype=float)
        out = np.full(theta.shape, self.a0)
        if self.max_mode:
            z = np.cos(theta) + 1j * np.sin(theta)
            out = out + horner(self.cos_coeffs - 1j * self.sin_coeffs, z).real
        return out

    # -- algebra -------------------------------------------------------

    def _padded(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        pad = k - self.max_mode
        if pad <= 0:
            return self.cos_coeffs, self.sin_coeffs
        return (np.concatenate([self.cos_coeffs, np.zeros(pad)]),
                np.concatenate([self.sin_coeffs, np.zeros(pad)]))

    def __add__(self, other: "BoundaryProfile") -> "BoundaryProfile":
        if not isinstance(other, BoundaryProfile):
            return NotImplemented
        k = max(self.max_mode, other.max_mode)
        ac, as_ = self._padded(k)
        bc, bs = other._padded(k)
        return BoundaryProfile(self.a0 + other.a0, ac + bc, as_ + bs)

    def __sub__(self, other: "BoundaryProfile") -> "BoundaryProfile":
        return self + (other * -1.0)

    def __mul__(self, scalar: float) -> "BoundaryProfile":
        c = float(scalar)
        return BoundaryProfile(self.a0 * c, self.cos_coeffs * c, self.sin_coeffs * c)

    __rmul__ = __mul__

    def derivative(self) -> "BoundaryProfile":
        """The exact theta-derivative phi' (mode k maps to k (b_k, -a_k))."""
        k = np.arange(1, self.max_mode + 1, dtype=float)
        return BoundaryProfile(0.0, k * self.sin_coeffs, -k * self.cos_coeffs)

    def with_a0(self, a0: float) -> "BoundaryProfile":
        return BoundaryProfile(float(a0), self.cos_coeffs, self.sin_coeffs)

    def truncated(self, max_mode: int) -> "BoundaryProfile":
        k = min(max_mode, self.max_mode)
        return BoundaryProfile(self.a0, self.cos_coeffs[:k], self.sin_coeffs[:k])

    def trimmed(self, rel_tol: float = 0.0) -> "BoundaryProfile":
        """Drop trailing modes with |a_k|, |b_k| <= rel_tol * scale."""
        scale = max(abs(self.a0), self.sup_norm_bound(), 1.0)
        keep = 0
        for k in range(self.max_mode, 0, -1):
            if max(abs(self.cos_coeffs[k - 1]), abs(self.sin_coeffs[k - 1])) > rel_tol * scale:
                keep = k
                break
        return self.truncated(keep)

    # -- serialization ---------------------------------------------------

    def to_record(self) -> str:
        """Text record ``a0 k:a_k:b_k ...`` with full-precision floats."""
        parts = [repr(float(self.a0))]
        for k in range(1, self.max_mode + 1):
            parts.append(f"{k}:{float(self.cos_coeffs[k-1])!r}"
                         f":{float(self.sin_coeffs[k-1])!r}")
        return " ".join(parts)

    @staticmethod
    def from_record(record: str) -> "BoundaryProfile":
        tokens = record.split()
        if not tokens:
            raise ValueError("empty profile record")
        a0 = float(tokens[0])
        modes: dict[int, tuple[float, float]] = {}
        for tok in tokens[1:]:
            fields = tok.split(":")
            if len(fields) != 3:
                raise ValueError(f"malformed mode token {tok!r}, expected k:a_k:b_k")
            k = int(fields[0])
            if k < 1:
                raise ValueError(f"mode index must be >= 1, got {k}")
            modes[k] = (float(fields[1]), float(fields[2]))
        kmax = max(modes) if modes else 0
        cos = np.zeros(kmax)
        sin = np.zeros(kmax)
        for k, (a, b) in modes.items():
            cos[k - 1] = a
            sin[k - 1] = b
        return BoundaryProfile(a0, cos, sin)


@dataclass(frozen=True, eq=False)
class ProjectionSplit:
    """L^2-orthogonal split into the span of modes {0, 1} and its complement.

    ``low`` carries the constant and first-moment directions (the kernel
    of the constrained energy Hessian), ``high`` everything of mode >= 2;
    ``low + high`` reconstructs the input exactly.
    """

    low: BoundaryProfile
    high: BoundaryProfile


def boundary_l2_sq(p: BoundaryProfile) -> float:
    """int_{circle} phi^2 d theta, in closed form."""
    mass = TWO_PI * p.a0 ** 2
    if p.max_mode:
        mass += math.pi * float(np.sum(p.cos_coeffs ** 2 + p.sin_coeffs ** 2))
    return mass


def extension_energy(p: BoundaryProfile) -> float:
    """Dirichlet energy of the harmonic extension of phi to the unit disk.

    Mode k extends to r^k (a_k cos k theta + b_k sin k theta), whose
    squared-gradient integral over the disk is pi k (a_k^2 + b_k^2); the
    constant mode extends to a constant and contributes nothing.
    """
    if p.max_mode == 0:
        return 0.0
    k = np.arange(1, p.max_mode + 1, dtype=float)
    return math.pi * float(np.sum(k * (p.cos_coeffs ** 2 + p.sin_coeffs ** 2)))


def h_half_norm_sq(p: BoundaryProfile) -> float:
    """Squared H^{1/2} norm: boundary L^2 mass plus extension energy."""
    return boundary_l2_sq(p) + extension_energy(p)


def hessian_form(p: BoundaryProfile) -> float:
    """Second shape derivative of the torsional energy at the unit disk.

    Equals (extension energy - boundary mass) / 4.  Mode 1 (the
    translation direction) is annihilated; the constant mode gives a
    negative value, which the volume constraint excludes.
    """
    return (extension_energy(p) - boundary_l2_sq(p)) / 4.0


def low_mode_projection(p: BoundaryProfile) -> ProjectionSplit:
    """Split off the modes-{0,1} component (constant + first moments).

    The split is orthogonal simultaneously for the boundary L^2 inner
    product and the extension energy, so the squared H^{1/2} norms of
    the parts add up exactly to the squared norm of the input.
    """
    if p.max_mode == 0:
        return ProjectionSplit(low=p, high=BoundaryProfile.zero())
    low = BoundaryProfile(p.a0, p.cos_coeffs[:1], p.sin_coeffs[:1])
    high_cos = p.cos_coeffs.copy()
    high_sin = p.sin_coeffs.copy()
    high_cos[0] = 0.0
    high_sin[0] = 0.0
    high = BoundaryProfile(0.0, high_cos, high_sin).trimmed()
    return ProjectionSplit(low=low, high=high)


def mode_rayleigh(k: int) -> float:
    """Extension-energy / boundary-mass Rayleigh quotient of mode k."""
    if k < 1:
        raise ValueError("mode index must be >= 1")
    basis = BoundaryProfile.single_mode(k, cos_amp=1.0)
    return extension_energy(basis) / boundary_l2_sq(basis)


def steklov_min_rayleigh(max_mode: int, min_mode: int = 2) -> float:
    """Minimum Steklov Rayleigh quotient over modes in [min_mode, max_mode].

    On the mean-free, moment-free subspace (modes >= 2) the quotient of
    mode k equals k, so the minimum is 2, attained by the degree-2
    harmonics.  ``min_mode`` is a diagnostic knob: restricting to modes
    >= 3 returns 3, and so on.
    """
    if min_mode < 2:
        raise ValueError("min_mode must be >= 2 (modes 0 and 1 are excluded)")
    if max_mode < min_mode:
        raise ValueError(f"max_mode must be >= {min_mode}, got {max_mode}")
    return min(mode_rayleigh(k) for k in range(min_mode, max_mode + 1))
