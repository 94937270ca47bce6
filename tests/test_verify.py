"""The shared row rules of ``fklab verify``, and a guard that every
verify suite is run by some test."""

import dataclasses

import pytest

from fklab import cli, stability, verify
from fklab.domain import ellipse, unit_disk

from test_acceptance import SUITE_OF

# the suites that no acceptance criterion runs
OTHER_SUITES = ("saint-venant-signs", "kohler-jobin", "tail-sup")


@pytest.fixture(scope="module")
def rows():
    """Rows at rings 16/32 of an ellipse (positive energy deficit) and of
    the disk (deficits zero to rounding)."""
    return {label: stability.evaluate_member(label, label, 0.0, d,
                                             (1.5, 2.0, 3.0), 16, 32)
            for label, d in (("ellipse", ellipse(0.1)), ("disk", unit_disk()))}


def failed(r):
    return [name for name, ok, _ in verify.row_checks(r, 16, 32) if not ok]


# (row, rule, doctored fields): each breaks exactly one rule
DOCTORED = [
    ("ellipse", "SV sign", lambda r: {"deficit_energy": -1.0}),
    # on the ellipse a negative FK deficit also breaks the reduction chain
    ("disk", "FK sign", lambda r: {"deficit_fk": {**r.deficit_fk, 2.0: -1.0}}),
    ("ellipse", "KJ sign", lambda r: {"kj_slack": {**r.kj_slack, 3.0: -1.0}}),
    ("ellipse", "ratio bound", lambda r: {"cappio": {**r.cappio, 1.5: (-1.0, 0.0)}}),
    ("ellipse", "reduction chain",
     lambda r: {"deficit_fk": {**r.deficit_fk, 2.0: 0.0}}),
    ("ellipse", "annular bound",
     lambda r: {"alpha_annular_bound": r.alpha + 1e-6}),
]


class TestRowChecks:
    def test_computed_rows_pass(self, rows):
        for r in rows.values():
            assert failed(r) == []

    def test_rules_per_row(self, rows):
        # SV, FK x3, (KJ + ratio) x3, reduction chain, annular bound
        assert len(verify.row_checks(rows["ellipse"], 16, 32)) == 12

    @pytest.mark.parametrize("label, rule, doctor", DOCTORED,
                             ids=[rule for _, rule, _ in DOCTORED])
    def test_doctored_row_fails_one_rule(self, rows, label, rule, doctor):
        r = rows[label]
        names = failed(dataclasses.replace(r, **doctor(r)))
        assert len(names) == 1 and names[0].startswith(rule), names


class TestSuiteCoverage:
    def test_every_suite_is_run_by_a_test(self):
        assert not set(SUITE_OF.values()) & set(OTHER_SUITES)
        assert set(SUITE_OF.values()) | set(OTHER_SUITES) == set(verify.SUITES)

    @pytest.mark.parametrize("name", OTHER_SUITES)
    def test_suite_passes_at_default_config(self, name):
        checks = verify.SUITES[name](cli.RunConfig())
        assert checks
        assert [c for c in checks if not c[1]] == []
