"""Output checks at the tolerances of the acceptance tests.

Every check returns a list of failure messages; an empty list is a pass.
The benchmark counts an operation as failed when it raised or when any
check on its output failed.  No tolerance here is looser than its
counterpart in ``tests/test_acceptance.py`` (criteria 2, 3, 5 and 8) or
``tests/test_stability.py`` (the ellipse closed form).
"""

from __future__ import annotations

import math

PI = math.pi
SIGN_REL = 2e-4        # criterion 5: relative slack of every sign rule
CAPPIO_ABS = 2e-4      # criterion 5: ratio bound lhs >= rhs - 2e-4
ANNULAR_ABS = 1e-8     # criterion 8: annular bound <= alpha + 1e-8
ELLIPSE_REL = 2e-3     # closed-form ellipse deficit, test_stability
FUGLEDE_MIN = 1.0 / 128.0  # criterion 3
TAYLOR_K1_ABS = 0.02 * PI / 8  # criterion 2, translation mode
TAYLOR_REL = 0.05      # criterion 2, modes 2..4


def ellipse_exact_deficit(eps: float) -> float:
    """Scale-invariant torsion deficit of {x^2 + (1+eps) y^2 <= 1}."""
    a, b = 1.0, (1.0 + eps) ** -0.5
    return 1.0 / (16.0 * PI) - a * b / (8.0 * PI * (a * a + b * b))


def ellipse_rel_err(eps: float, deficit: float) -> float:
    return abs(deficit / ellipse_exact_deficit(eps) - 1.0)


class RowChecker:
    """Sign rules of criteria 5 and 8 for one sweep row, against the
    Richardson-extrapolated disk references of the run's ring pair."""

    def __init__(self, stability, rings: int, rings_fine: int, q_list):
        self.q_list = tuple(float(q) for q in q_list)
        coarse, fine = stability.disk_data(rings), stability.disk_data(rings_fine)
        e_ref = stability.richardson(coarse.energy(), fine.energy())
        self.tol_e = SIGN_REL * abs(e_ref) / PI ** 2
        self.tol_fk, self.tol_kj, self.kj = {}, {}, {}
        for q in self.q_list:
            lam_ref = stability.richardson(coarse.lambda_q(q), fine.lambda_q(q))
            self.tol_fk[q] = SIGN_REL * PI ** stability.fk_exponent(q) * lam_ref
            if q > 1.0:
                th = stability.kj_exponent(q)
                self.tol_kj[q] = SIGN_REL * lam_ref * (-e_ref) ** th

    def check(self, r, csv_line: str, header: str) -> list[str]:
        bad = []
        if not r.deficit_energy >= -self.tol_e:
            bad.append(f"{r.domain_id}: SV deficit {r.deficit_energy:.3e}")
        for q in self.q_list:
            if not r.deficit_fk[q] >= -self.tol_fk[q]:
                bad.append(f"{r.domain_id}: FK deficit q={q} {r.deficit_fk[q]:.3e}")
            if q in self.tol_kj:
                if not r.kj_slack[q] >= -self.tol_kj[q]:
                    bad.append(f"{r.domain_id}: KJ slack q={q} {r.kj_slack[q]:.3e}")
                lhs, rhs = r.cappio[q]
                if not lhs >= rhs - CAPPIO_ABS:
                    bad.append(f"{r.domain_id}: ratio bound q={q} {lhs:.3e} < {rhs:.3e}")
            # reduction chain: a positive energy deficit forces positive FK deficits
            if r.deficit_energy > self.tol_e and not r.deficit_fk[q] > 0.0:
                bad.append(f"{r.domain_id}: FK deficit q={q} not positive")
        if not r.alpha_annular_bound <= r.alpha + ANNULAR_ABS:
            bad.append(f"{r.domain_id}: annular bound {r.alpha_annular_bound:.3e}"
                       f" > alpha {r.alpha:.3e}")
        if r.family == "ellipse":
            err = ellipse_rel_err(r.param, r.deficit_energy)
            if not err <= ELLIPSE_REL:
                bad.append(f"{r.domain_id}: ellipse deficit rel err {err:.3e}")
        cols = csv_line.split(",")
        if len(cols) != len(header.split(",")) or cols[0] != r.family:
            bad.append(f"{r.domain_id}: CSV row does not match the header")
        elif float(cols[header.split(",").index("deficit_E")]) != r.deficit_energy:
            bad.append(f"{r.domain_id}: CSV deficit_E does not round-trip")
        return bad


def check_fuglede(margin: float) -> list[str]:
    if not margin >= FUGLEDE_MIN:
        return [f"Fuglede margin {margin:.4e} < 1/128"]
    return []


def check_taylor(k: int, fit: float, target: float) -> list[str]:
    if k == 1:
        ok = abs(fit) <= TAYLOR_K1_ABS
    else:
        ok = abs(fit - target) <= TAYLOR_REL * target
    return [] if ok else [f"Taylor fit k={k}: {fit:.6e} vs {target:.6e}"]


def check_ellipse(eps: float, deficit: float) -> list[str]:
    err = ellipse_rel_err(eps, deficit)
    return [] if err <= ELLIPSE_REL else [f"ellipse {eps}: deficit rel err {err:.3e}"]
