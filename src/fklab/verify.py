"""Named verification suites behind the ``verify`` CLI subcommand.

Each suite re-runs one block of the paper's statements end to end and
returns (check name, passed, detail) triples; the CLI renders them and
turns any failure into exit code 3.  The suites are the single
implementation of each check: the acceptance criteria run them and
assert on their results.  Every criterion but 1 (the ball reference),
5 and 11 (the combined sweep) runs one suite; two suites need no solve:
``fourier-identities`` (criterion 7), the Fourier identities of the
nearly-spherical step, and ``penalty`` (criterion 10), the volume
penalty of the selection principle.  ``row_checks``, the sign
rules of one deficit row, is shared by the ``saint-venant-signs`` and
``kohler-jobin`` suites and by the criteria that quantify over the
combined sweep.  Each member of those two suites is evaluated by one of
them, which runs its row rules and its Kohler-Jobin slack rule:
``saint-venant-signs`` the disk, ellipse(0.1) and a mode-3 profile,
``kohler-jobin`` ellipse(0.2).  ``tail-sup`` measures the domain outside
a ball exactly, from the polar overlap of the dilated domain.
"""

from __future__ import annotations

import math

import numpy as np

from . import asymmetry, circle, stability
from .circle import BoundaryProfile
from .domain import (StarDomain, ellipse, fit_profile, unit_disk, volume,
                     volume_corrected, volume_corrected_profile, volume_flow)

Check = tuple[str, bool, str]


def _check(name: str, ok: bool, detail: str) -> Check:
    return name, bool(ok), detail


def row_checks(r: stability.DeficitReport) -> list[Check]:
    """Sign rules of one deficit row: SV, FK per q, KJ and its ratio bound
    for q > 1, the reduction chain (a positive energy deficit forces every
    FK deficit positive) and the annular bound.  Sign slacks are 2e-4
    relative to the disk references Richardson-extrapolated from the ring
    pair the row was computed at, (``r.mesh_rings // 2``, ``r.mesh_rings``)."""
    coarse = stability.disk_data(r.mesh_rings // 2)
    fine = stability.disk_data(r.mesh_rings)
    e_ref = stability.richardson(coarse.energy(), fine.energy())
    tol_e = 2e-4 * abs(e_ref) / math.pi ** 2
    tag = r.domain_id
    out = [_check(f"SV sign, {tag}", r.deficit_energy >= -tol_e,
                  f"D = {r.deficit_energy:.3e}")]
    for q, fk in r.deficit_fk.items():
        lam_ref = stability.richardson(coarse.lambda_q(q), fine.lambda_q(q))
        tol_fk = 2e-4 * math.pi ** stability.fk_exponent(q) * lam_ref
        out.append(_check(f"FK sign, {tag}, q={q}", fk >= -tol_fk, f"value {fk:.3e}"))
        if q > 1.0:
            slack = r.kj_slack[q]
            tol_kj = 2e-4 * lam_ref * (-e_ref) ** stability.kj_exponent(q)
            out.append(_check(f"KJ sign, {tag}, q={q}", slack >= -tol_kj,
                              f"value {slack:.3e}"))
            lhs, rhs = r.cappio[q]
            out.append(_check(f"ratio bound, {tag}, q={q}", lhs >= rhs - 2e-4,
                              f"lhs {lhs:.3e} rhs {rhs:.3e}"))
    worst_fk = min(r.deficit_fk.values())
    out.append(_check(f"reduction chain, {tag}",
                      r.deficit_energy <= tol_e or worst_fk > 0.0,
                      f"D = {r.deficit_energy:.3e}, min FK {worst_fk:.3e}"))
    out.append(_annular_check(tag, r.alpha_annular_bound, r.alpha))
    return out


def _annular_check(label: str, bound: float, alpha: float) -> Check:
    return _check(f"annular bound <= alpha, {label}", bound <= alpha + 1e-8,
                  f"bound {bound:.3e}, alpha {alpha:.3e}")


def _member_checks(cfg, label: str,
                   d: StarDomain) -> tuple[stability.DeficitReport, list[Check]]:
    r = stability.evaluate_member(label, label, 0.0, d, cfg.q_list, cfg.rings,
                                  cfg.rings_fine)
    return r, row_checks(r)


def suite_steklov(cfg) -> list[Check]:
    out = []
    for mm in (2, 32):
        val = circle.steklov_min_rayleigh(mm)
        out.append(_check(f"min Rayleigh quotient, modes 2..{mm}", val == 2.0,
                          f"value {val!r}"))
    val3 = circle.steklov_min_rayleigh(32, min_mode=3)
    out.append(_check("restricted to modes >= 3", val3 == 3.0, f"value {val3!r}"))
    for k in (2, 5, 11):
        q = circle.mode_rayleigh(k)
        out.append(_check(f"mode-{k} quotient equals {k}", abs(q - k) < 1e-13,
                          f"value {q!r}"))
    return out


def _random_profile(rng, zero_mean: bool) -> BoundaryProfile:
    """Modes 1..K, K uniform in 1..16, with standard normal coefficients,
    and a standard normal constant mode unless ``zero_mean``."""
    k = int(rng.integers(1, 17))
    cos, sin = rng.standard_normal(k), rng.standard_normal(k)
    return BoundaryProfile(0.0 if zero_mean else float(rng.standard_normal()), cos, sin)


def suite_fourier_identities(cfg) -> list[Check]:
    """The closed-form identities of the nearly-spherical step on seeded
    random profiles: the H^{1/2} sandwich ext <= ||phi||^2 <= 2 ext on
    zero-mean profiles, and the split into modes {0, 1} and the rest, whose
    squared norms add up (Pythagoras) and whose sum is the profile.  Each
    worst case is relative to ||phi||^2."""
    count = 200
    rng = np.random.default_rng(cfg.seed)
    sandwich, pythagoras, recon = [], [], []
    for _ in range(count):
        p = _random_profile(rng, zero_mean=True)
        ext, nrm = circle.extension_energy(p), circle.h_half_norm_sq(p)
        sandwich.append(max(ext - nrm, nrm - 2.0 * ext) / nrm)
        p = _random_profile(rng, zero_mean=False)
        split = circle.low_mode_projection(p)
        total = circle.h_half_norm_sq(p)
        parts = circle.h_half_norm_sq(split.low) + circle.h_half_norm_sq(split.high)
        pythagoras.append(abs(total - parts) / total)
        recon.append(circle.h_half_norm_sq(split.low + split.high - p) / total)
    return [_check(f"ext <= ||phi||^2 <= 2 ext on {count} zero-mean profiles",
                   max(sandwich) <= 1e-12, f"worst slack {max(sandwich):.1e}"),
            _check(f"Pythagoras for the modes-{{0, 1}} split on {count} profiles",
                   max(pythagoras) <= 1e-12, f"worst defect {max(pythagoras):.1e}"),
            _check(f"low + high reconstructs the profile on {count} profiles",
                   max(recon) <= 1e-12, f"worst defect {max(recon):.1e}")]


def suite_fuglede(cfg) -> list[Check]:
    count = 50
    sups, margins = [], []
    for ss in np.random.SeedSequence(cfg.seed).spawn(count):
        rng = np.random.default_rng(ss)
        p = stability.random_near_sphere_profile(rng, rng.uniform(*stability.NEAR_SPHERE_SUP))
        sups.append(p.grid_sup())
        margins.append(stability.fuglede_margin(p))
    return [_check(f"sup norm <= 0.05 on {count} seeded profiles", max(sups) <= 0.05,
                   f"max sup {max(sups):.6f}"),
            _check(f"gap/||phi||^2 >= 1/128 on {count} seeded profiles",
                   min(margins) >= 1.0 / 128.0,
                   f"min margin {min(margins):.6f}, bound {1/128:.6f}")]


def suite_taylor(cfg) -> list[Check]:
    out = []
    s_values = (0.03, 0.05, 0.07, 0.09)
    for k in (1, 2, 3, 4):
        fit = stability.taylor_validation(k, s_values)
        target = stability.hessian_target(k)
        if k == 1:
            ok = abs(fit) <= 0.02 * math.pi / 8.0
            detail = f"fit {fit:.3e}, |fit| <= 0.02*pi/8"
        else:
            ok = abs(fit - target) <= 0.05 * target
            detail = f"fit {fit:.6f}, target {target:.6f}"
        out.append(_check(f"second-order limit, mode {k}", ok, detail))
    return out


def _kj_slack_checks(label: str, r: stability.DeficitReport,
                     equality: bool) -> list[Check]:
    """The Kohler-Jobin slack of a row per q: within 2e-4 of zero in the
    equality case, the disk, and positive otherwise."""
    if equality:
        return [_check(f"{label} slack ~ 0 at q={q}", abs(slack) <= 2e-4,
                       f"value {slack:.3e}") for q, slack in r.kj_slack.items()]
    return [_check(f"{label} slack > 0 at q={q}", slack > 0.0, f"value {slack:.3e}")
            for q, slack in r.kj_slack.items()]


def suite_kohler_jobin(cfg) -> list[Check]:
    """The exponent theta(q, N) at three points and the row of
    ellipse(0.2); the slacks of the disk and ellipse(0.1) are checked with
    their rows by ``saint-venant-signs``."""
    out = []
    for q, n, expected in ((1.0, 2, 1.0), (2.0, 2, 0.5), (6.0, 3, 0.0)):
        th = stability.kj_exponent(q, n)
        out.append(_check(f"exponent theta({q}, N={n})", abs(th - expected) < 1e-15,
                          f"value {th!r}"))
    r, checks = _member_checks(cfg, "ellipse(0.2)", ellipse(0.2))
    return out + checks + _kj_slack_checks("ellipse(0.2)", r, equality=False)


def suite_alpha_props(cfg) -> list[Check]:
    out = []
    for center in ((0.0, 0.0), (0.7, -0.2), (-1.3, 0.4), (-0.3, 0.5)):
        a_ball = asymmetry.alpha(unit_disk(center=center))
        out.append(_check(f"alpha of the unit disk at {center}", abs(a_ball) <= 1e-9,
                          f"value {a_ball:.2e}"))
    for r in (1.1, 0.9):
        exact = (math.pi / 3.0 + 2.0 * math.pi * (r ** 3 / 3.0 - r ** 2 / 2.0))
        val = asymmetry.alpha(unit_disk(r))
        out.append(_check(f"alpha of B_{r} vs closed form", abs(val - exact) <= 1e-12,
                          f"value {val:.12f}, |error| {abs(val - exact):.1e}"))
    out.append(_check("beta_2 = pi/3", abs(asymmetry.beta_const(2) - math.pi / 3) <= 1e-15,
                      f"value {asymmetry.beta_const(2)!r}"))

    # translation invariance of both asymmetries
    for k, s in ((3, 0.06), (2, 0.08)):
        base = StarDomain((0.0, 0.0), volume_corrected_profile(k, s))
        moved = base.translated(0.37, -0.58)
        a0v, _ = asymmetry.fraenkel(base)
        a1v, _ = asymmetry.fraenkel(moved)
        out.append(_check(f"Fraenkel translation invariance, mode-{k}",
                          abs(a0v - a1v) <= 1e-9, f"delta {abs(a0v - a1v):.2e}"))
        al0 = asymmetry.alpha(base)
        al1 = asymmetry.alpha(moved)
        out.append(_check(f"alpha translation invariance, mode-{k}",
                          abs(al0 - al1) <= 1e-9, f"delta {abs(al0 - al1):.2e}"))

    # annular rearrangement lower bound on a few shapes
    shapes = [(f"ellipse({e})", ellipse(e)) for e in (0.1, 0.15, 0.2)]
    shapes += [(f"mode-{k}({s})", StarDomain((0.0, 0.0), volume_corrected_profile(k, s)))
               for k, s in ((2, 0.08), (2, 0.1), (5, 0.05), (5, 0.06))]
    for label, d in shapes:
        bound = asymmetry.annular_lower_bound(*asymmetry.ball_overlaps(d))
        out.append(_annular_check(label, bound, asymmetry.alpha(d)))

    # Lipschitz in symmetric difference for nested dilates inside B_2
    for n in (10, 12):
        rads = np.linspace(0.8, 1.9, n)
        ratios = []
        for r1, r2 in zip(rads[:-1], rads[1:]):
            da = abs(asymmetry.alpha(unit_disk(r1)) - asymmetry.alpha(unit_disk(r2)))
            dv = math.pi * (r2 ** 2 - r1 ** 2)
            ratios.append(da / dv)
        out.append(_check(f"alpha Lipschitz constant on {n} nested disks in B_2",
                          max(ratios) <= 6.0, f"max ratio {max(ratios):.3f}"))

    # nearly spherical quadratic upper bound
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for _ in range(100):
        p = stability.random_near_sphere_profile(rng, rng.uniform(0.01, 0.05))
        val = asymmetry.alpha(StarDomain((0.0, 0.0), p))
        worst = max(worst, val / circle.boundary_l2_sq(p))
    out.append(_check("alpha / boundary-L2^2 bounded on 100 near-spheres",
                      worst <= 0.75, f"max ratio {worst:.4f}"))

    # two-sided sandwich of the volume penalty
    rng = np.random.default_rng(cfg.seed + 1)
    ok = True
    for _ in range(1000):
        eta = rng.uniform(0.05, 1.0)
        s2 = rng.uniform(0.0, 8.0)
        s1 = s2 + rng.uniform(0.0, 8.0)
        lhs = eta * (s1 - s2)
        mid = asymmetry.f_eta(s1, eta) - asymmetry.f_eta(s2, eta)
        rhs = (s1 - s2) / eta
        if not (lhs - 1e-12 <= mid <= rhs + 1e-12):
            ok = False
            break
    out.append(_check("volume penalty sandwich on 1000 random pairs", ok, ""))
    return out


def suite_penalty(cfg) -> list[Check]:
    """The penalized ball energy g(r) = F_eta(B_r) at half the threshold
    eta of ``asymmetry.eta_threshold``: its minimum over a radius grid
    through r = 1 lies at r = 1 with a finite coercivity constant, and g
    rises on both sides of it."""
    eta = asymmetry.eta_threshold() / 2
    grid = np.linspace(0.005, 2.0, 400)  # r = 1 is grid[199]
    r_min, c = asymmetry.radial_coercivity(eta, grid)

    def g(r):
        return asymmetry.ball_penalized_energy(r, eta)

    left = [r for r in grid if 0.9 <= r < 1.0]
    right = [r for r in grid if 1.0 < r <= 1.1]
    slope_l = np.polyfit(left, [g(r) for r in left], 1)[0]
    slope_r = np.polyfit(right, [g(r) for r in right], 1)[0]
    gaps = [(g(r) - g(1.0)) / abs(r - 1.0) for r in (0.96, 0.98, 1.02, 1.04)]
    return [_check(f"minimum of g at r = 1, eta = {eta:.4f}", abs(r_min - 1.0) <= 1e-12,
                   f"grid minimum at r = {r_min!r}"),
            _check("coercivity constant 0 < C < inf", 0.0 < c < math.inf, f"C = {c:.2f}"),
            _check("one-sided slopes on [0.9, 1) and (1, 1.1] of opposite signs",
                   slope_l < 0.0 < slope_r and math.isfinite(slope_l)
                   and math.isfinite(slope_r),
                   f"slopes {slope_l:.3f} / {slope_r:+.3f}"),
            _check("(g(r) - g(1)) / |r - 1| > 0 at r = 0.96, 0.98, 1.02, 1.04",
                   min(gaps) > 0.0, f"min {min(gaps):.3e}")]


FLOW_AREA_TOL = 1e-10


def flow_area_check(profile: BoundaryProfile, t_values) -> tuple[float, list, bool]:
    """Area along the radial flow toward ``profile``: the target volume
    |Omega_phi|, one (|Omega_t|, deviation) pair per flow time t, where the
    deviation is ||Omega_t| - (pi + t(|Omega_phi| - pi))|, and whether every
    deviation is at most FLOW_AREA_TOL.  Shared by the ``flow`` suite and
    ``fklab flow-check``."""
    target_vol = volume(StarDomain((0.0, 0.0), profile))
    rows = []
    for t in t_values:
        v = volume(volume_flow(profile, t))
        rows.append((v, abs(v - (math.pi + t * (target_vol - math.pi)))))
    return target_vol, rows, all(dev <= FLOW_AREA_TOL for _, dev in rows)


def suite_flow(cfg) -> list[Check]:
    out = []
    # volume-corrected targets: modes 2 and 5, and a seeded random profile
    # on modes <= 6 with N(0, 0.03^2) coefficients
    rng = np.random.default_rng(13)
    k = int(rng.integers(1, 7))
    cos, sin = rng.standard_normal(k) * 0.03, rng.standard_normal(k) * 0.03
    drawn = BoundaryProfile(float(rng.standard_normal()) * 0.03, cos, sin)
    for label, p in (("mode-2", volume_corrected_profile(2, 0.1)),
                     ("mode-5", volume_corrected_profile(5, 0.07)),
                     ("random", volume_corrected(drawn))):
        dev = max(abs(volume(volume_flow(p, t)) - math.pi)
                  for t in (0.0, 0.25, 0.5, 0.75, 1.0))
        out.append(_check(f"flow volume stays pi, {label} target", dev <= FLOW_AREA_TOL,
                          f"max |vol - pi| = {dev:.2e}"))
    # linear interpolation of the area for an uncorrected target
    q = BoundaryProfile.single_mode(3, cos_amp=0.2)
    _, rows, ok = flow_area_check(q, (0.3, 0.6, 0.9))
    out.append(_check("area interpolates linearly along the flow", ok,
                      f"max deviation {max(dev for _, dev in rows):.2e}"))
    end = volume_flow(q, 1.0)
    dev = np.max(np.abs(end.radius(np.linspace(0, 2 * math.pi, 64))
                        - (1.0 + q.values(np.linspace(0, 2 * math.pi, 64)))))
    out.append(_check("t=1 recovers the target boundary", dev == 0.0, f"dev {dev:.2e}"))
    return out


def suite_sharpness(cfg) -> list[Check]:
    eps = np.linspace(cfg.eps_min, cfg.eps_max, cfg.eps_count)
    slope, spread = stability.sharpness_fit(eps)
    return [
        _check("log-log deficit slope in [1.85, 2.15]", 1.85 <= slope <= 2.15,
               f"slope {slope:.4f}"),
        _check("A/eps spread <= 15%", spread <= 0.15, f"spread {spread:.3%}"),
    ]


def suite_saint_venant_signs(cfg) -> list[Check]:
    """The rows of the disk, ellipse(0.1) and a mode-3 profile, and the
    Kohler-Jobin slacks of the first two."""
    out = []
    for label, d in (("disk", unit_disk()), ("ellipse(0.1)", ellipse(0.1))):
        r, checks = _member_checks(cfg, label, d)
        out += checks + _kj_slack_checks(label, r, equality=label == "disk")
    mode3 = StarDomain((0.0, 0.0), volume_corrected_profile(3, 0.07))
    return out + _member_checks(cfg, "mode-3", mode3)[1]


# (amplitude, width) of the ``tail-sup`` spikes: after the volume
# correction each reaches radius 2.39 to 2.78, past B_{2.2}, so every one
# has mesh vertices where the sup is taken
TAIL_SPIKES = ((1.5, 0.18), (1.7, 0.15), (1.9, 0.13))


def _spike_profile(amplitude: float, width: float) -> BoundaryProfile:
    theta = np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)
    wrapped = np.minimum(theta, 2.0 * math.pi - theta)
    bump = amplitude * np.exp(-((wrapped / width) ** 2))
    profile, _ = fit_profile(1.0 + bump, max_modes=128)
    return volume_corrected(profile)


def _tail(level: stability.Level, ball_radius: float) -> tuple[float, float]:
    """(sup of the level's torsion over its vertices outside B_{R+1},
    |Omega \\ B_R|), balls at the origin.  The measure is exact:
    |Omega| - R^2 |Omega / R cap B_1|, by the polar overlap."""
    if ball_radius < 1.0:
        raise ValueError("tail radius must be >= 1")
    u = level.torsion()
    xy = u.mesh.vertices
    outside = np.hypot(xy[:, 0], xy[:, 1]) > ball_radius + 1.0
    sup = float(np.max(u.values[outside])) if np.any(outside) else 0.0
    inside = asymmetry.PolarOverlap(level.domain.dilated(1.0 / ball_radius)).area((0.0, 0.0))
    return max(sup, 0.0), max(level.volume - ball_radius ** 2 * inside, 0.0)


def suite_tail_sup(cfg) -> list[Check]:
    """The disk's empty tail, then a family of volume-pi spikes that each
    reach past B_{R+1}, R = 1.2: each gives a positive pair (sup of the
    torsion beyond B_{R+1}, |Omega \\ B_R|), and the family bounds the
    ratio sup / |Omega \\ B_R|^(1/2) on all of them."""
    out = []
    sup, meas = _tail(stability.disk_data(cfg.rings), 1.0)
    out.append(_check("disk tail at R=1", sup == 0.0 and meas <= 1e-12,
                      f"sup {sup:.2e}, measure {meas:.2e}"))
    ratios = []
    for amp, width in TAIL_SPIKES:
        p = _spike_profile(amp, width)
        sup, meas = _tail(stability.Level(StarDomain((0.0, 0.0), p), cfg.rings), 1.2)
        ratio = sup / math.sqrt(meas) if meas > 0.0 else math.nan
        positive = sup > 0.0 and meas > 0.0
        if positive:
            ratios.append(ratio)
        out.append(_check(f"spike amp={amp}: positive pair", positive,
                          f"sup {sup:.3e}, |Omega \\ B_R| {meas:.3e}, ratio {ratio:.3e}"))
    out.append(_check("tail ratio bounded across the family",
                      len(ratios) == len(TAIL_SPIKES) and max(ratios) <= 1.0,
                      f"max ratio {max(ratios, default=math.nan):.3e} "
                      f"over {len(ratios)} positive pairs"))
    return out


SUITES = {
    "fourier-identities": suite_fourier_identities,
    "penalty": suite_penalty,
    "steklov": suite_steklov,
    "fuglede": suite_fuglede,
    "taylor": suite_taylor,
    "kohler-jobin": suite_kohler_jobin,
    "alpha-props": suite_alpha_props,
    "flow": suite_flow,
    "sharpness": suite_sharpness,
    "saint-venant-signs": suite_saint_venant_signs,
    "tail-sup": suite_tail_sup,
}
