"""Acceptance criteria, one test per criterion, at their stated tolerances.

Criteria 2, 3, 4, 6, 7, 8, 9 and 10 run the ``fklab verify`` suite that
implements their checks (``SUITE_OF``) at the stated configuration and
assert that every check passed.  Criterion 1 reads the ``ball-reference``
rows.  Criteria 5 and 8 apply ``verify.row_checks`` to every row of the
combined sweep (8 ellipses + 52 seeded random near-spheres, q in
{1.5, 2, 3}), which is computed once per session and shared by the
criteria that quantify over it; criterion 11 reads its minimum ratios.
"""

import math
import time

from fklab import cli, verify

# the stated configuration of every criterion
STATED = cli.RunConfig(rings=64, rings_fine=128, seed=7, eps_min=0.02,
                       eps_max=0.2, eps_count=8, q_list=(1.5, 2.0, 3.0))
# the verify suite that implements each criterion that has one
SUITE_OF = {2: "taylor", 3: "fuglede", 4: "sharpness", 6: "steklov",
            7: "fourier-identities", 8: "alpha-props", 9: "flow", 10: "penalty"}


def report(criterion: int, detail: str):
    print(f"ACCEPTANCE {criterion:2d} PASS: {detail}")


def assert_passed(checks):
    assert checks
    assert [c for c in checks if not c[1]] == []


def run_suite(criterion: int) -> tuple[str, float]:
    """Run the criterion's suite at the stated configuration; return a
    summary of its passed checks and its seconds."""
    start = time.monotonic()
    checks = verify.SUITES[SUITE_OF[criterion]](STATED.validate())
    elapsed = time.monotonic() - start
    assert_passed(checks)
    return "; ".join(f"{name} ({detail})" if detail else name
                     for name, _, detail in checks), elapsed


def sweep_row_checks(result):
    return [c for r in result.reports for c in verify.row_checks(r)]


class TestAcceptance:
    def test_01_ball_reference(self):
        start = time.monotonic()
        _, rows = cli.ball_reference(STATED)
        elapsed = time.monotonic() - start
        closed = [row for row in rows if not math.isnan(row[3])]
        assert {"energy E(B_1)", "eigenvalue lambda(B_1)"} <= {row[0] for row in closed}
        for name, _, _, err, tol in closed:
            assert err <= tol, name
        assert elapsed < 10.0
        report(1, ", ".join(f"{name} err {err:.2e} (<={tol:.0e})"
                            for name, _, _, err, tol in closed)
               + f", {elapsed:.1f}s (<10s)")

    def test_02_hessian_taylor(self):
        detail, elapsed = run_suite(2)
        assert elapsed < 120.0
        report(2, f"{detail}; {elapsed:.0f}s (<120s)")

    def test_03_fuglede_bound(self):
        report(3, run_suite(3)[0])

    def test_04_sharpness(self):
        report(4, run_suite(4)[0])

    def test_05_signs_everywhere(self, combined_sweep):
        result, _elapsed = combined_sweep
        reports = result.reports
        assert len(reports) >= 60
        checks = sweep_row_checks(result)
        assert_passed(checks)
        report(5, f"{len(reports)} domains x q={result.q_list}: all {len(checks)} "
                  f"row checks pass, min D {min(r.deficit_energy for r in reports):.2e}")

    def test_06_steklov(self):
        report(6, run_suite(6)[0])

    def test_07_exact_fourier_identities(self):
        report(7, run_suite(7)[0])

    def test_08_alpha_calculus(self, combined_sweep):
        detail, _ = run_suite(8)
        result, _ = combined_sweep
        annular = [c for c in sweep_row_checks(result)
                   if c[0].startswith("annular bound")]
        assert len(annular) == len(result.reports)
        assert_passed(annular)
        report(8, f"{detail}; annular bound holds on all "
                  f"{len(result.reports)} sweep domains")

    def test_09_flow_volumes(self):
        report(9, run_suite(9)[0])

    def test_10_penalty_structure(self):
        report(10, run_suite(10)[0])

    def test_11_empirical_sigma(self, combined_sweep):
        result, elapsed = combined_sweep
        assert len(result.reports) >= 60
        assert result.min_ratio_energy > 0.0
        assert result.min_ratio_fk[2.0] > 0.0
        assert elapsed < 900.0
        report(11, f"min D/A^2 = {result.min_ratio_energy:.4f} > 0, "
                   f"min FK_2/A^2 = {result.min_ratio_fk[2.0]:.4f} > 0, "
                   f"sweep of {len(result.reports)} domains in "
                   f"{elapsed:.0f}s (<900s)")
