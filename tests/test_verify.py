"""The shared row rules of ``fklab verify``, its exact tail measure, how its
solve-free suites fail, and a guard that every suite is run by some test."""

import dataclasses

import numpy as np
import pytest

from fklab import asymmetry, circle, cli, stability, verify
from fklab.domain import StarDomain, ellipse, unit_disk, volume_corrected_profile
from fklab.geometry import triangles_disk_area

from oracles import two_disks_symmetric_difference
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


class TestTailSup:
    def test_disk_trivial(self):
        sup, measure = verify._tail(stability.disk_data(64), 1.0)
        assert sup == 0.0
        assert measure <= 1e-12

    def test_elongated_domain(self):
        # volume-pi mode-1 domain reaching radius ~1.5: nothing beyond
        # B_{2.2}, but positive measure outside B_{1.2}
        d = StarDomain((0, 0), volume_corrected_profile(1, 0.6))
        sup, measure = verify._tail(stability.Level(d, 48), 1.2)
        assert sup == 0.0
        assert measure > 0.05

    def test_radius_validated(self):
        with pytest.raises(ValueError):
            verify._tail(stability.disk_data(64), 0.5)

    @pytest.mark.parametrize("rho, center, radius, exact", [  # B_rho(center) outside B_radius
        (1.0, (0.3, 0.0), 1.0, two_disks_symmetric_difference(0.3) / 2),
        (1.5, (0.0, 0.0), 1.2, np.pi * (1.5 ** 2 - 1.2 ** 2))], ids=["lens", "annulus"])
    def test_disk_measure_is_exact(self, rho, center, radius, exact):
        level = stability.Level(unit_disk(rho, center=center), 16)
        assert verify._tail(level, radius)[1] == pytest.approx(exact, rel=1e-13)

    def test_spikes_reach_past_the_outer_ball(self):
        # every spike has torsion to take the sup of beyond B_{2.2}
        theta = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
        for amp, width in verify.TAIL_SPIKES:
            d = StarDomain((0, 0), verify._spike_profile(amp, width))
            assert np.max(d.radius(theta)) > 2.3

    def test_spike_with_no_vertex_beyond_the_outer_ball_fails(self, monkeypatch):
        # the amp-1.3 spike stays inside B_{2.2}: a sup of 0 is no evidence,
        # so its pair fails and the family has a ratio short
        real = verify._spike_profile
        monkeypatch.setattr(verify, "_spike_profile",
                            lambda amp, width: real(1.3, 0.22) if amp == 1.5 else real(amp, width))
        checks = verify.suite_tail_sup(cli.RunConfig(rings=16, rings_fine=32))
        assert [ok for _, ok, _ in checks] == [True, False, True, True, False]
        assert "over 2 positive pairs" in checks[-1][2]

    def test_mesh_clipping_converges_to_exact_measure(self):
        # the clipped mesh area misses O(h^2) of the curved boundary
        errors, d = [], StarDomain((0, 0), verify._spike_profile(1.3, 0.22))
        for level in (stability.Level(d, 32), stability.Level(d, 64)):
            tri = level.mesh.vertices[level.mesh.triangles]
            clipped = level.mesh.area() - float(np.sum(triangles_disk_area(tri, (0, 0), 1.2)))
            errors.append(abs(clipped - verify._tail(level, 1.2)[1]))
        assert errors[1] < min(2e-3, errors[0] / 3)


class TestSolveFreeSuitesFail:
    def test_lossy_split_fails_pythagoras_and_reconstruction(self, monkeypatch):
        real = circle.low_mode_projection
        monkeypatch.setattr(circle, "low_mode_projection",
                            lambda p: dataclasses.replace(real(p), high=real(p).high * 0.5))
        checks = verify.suite_fourier_identities(cli.RunConfig())
        assert [ok for _, ok, _ in checks] == [True, False, False]

    def test_understated_extension_energy_fails_sandwich(self, monkeypatch):
        real = circle.extension_energy
        monkeypatch.setattr(circle, "extension_energy", lambda p: 0.4 * real(p))
        assert not verify.suite_fourier_identities(cli.RunConfig())[0][1]

    def test_eta_twice_the_threshold_fails_every_penalty_check(self, monkeypatch):
        # above the threshold g(0+) < g(1): the minimum leaves r = 1
        real = asymmetry.eta_threshold
        monkeypatch.setattr(asymmetry, "eta_threshold", lambda *a: 4.0 * real(*a))
        checks = verify.suite_penalty(cli.RunConfig())
        assert len(checks) == 4 and not any(ok for _, ok, _ in checks)


class TestSuiteCoverage:
    def test_only_criteria_1_5_and_11_have_no_suite(self):
        # keeps the check logic of a criterion in its suite, not in
        # test_acceptance.py
        assert set(range(1, 12)) - set(SUITE_OF) == {1, 5, 11}

    def test_every_suite_is_run_by_a_test(self):
        assert not set(SUITE_OF.values()) & set(OTHER_SUITES)
        assert set(SUITE_OF.values()) | set(OTHER_SUITES) == set(verify.SUITES)

    @pytest.mark.parametrize("name", OTHER_SUITES)
    def test_suite_passes_at_default_config(self, name):
        checks = verify.SUITES[name](cli.RunConfig())
        assert checks
        assert [c for c in checks if not c[1]] == []
