import ast
import functools
import inspect
import math
import multiprocessing
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from fklab import fem, verify
from fklab import stability as st
from fklab.circle import BoundaryProfile, h_half_norm_sq
from fklab.domain import (StarDomain, ellipse, unit_disk, volume,
                          volume_corrected_profile)

from conftest import direct

PI = math.pi
FAST = dict(rings=32, rings_fine=64)  # acceptance runs the 64/128 pair


def scaled(d: StarDomain, t: float) -> StarDomain:
    p = d.profile
    return StarDomain(d.center, BoundaryProfile(t * (1 + p.a0) - 1,
                                                t * p.cos_coeffs,
                                                t * p.sin_coeffs))


# every public entry point that takes a Richardson pair (rings, rings_fine)
PAIR_ENTRIES = {
    "energy_deficit": lambda r, f: st.energy_deficit(ellipse(0.1), r, f),
    "taylor_validation": lambda r, f: st.taylor_validation(2, (0.03, 0.05, 0.07), r, f),
    "fuglede_margin": lambda r, f: st.fuglede_margin(volume_corrected_profile(2, 0.01),
                                                     r, f),
    "evaluate_member": lambda r, f: st.evaluate_member("e", "ellipse", 0.1, ellipse(0.1),
                                                       rings=r, rings_fine=f),
    "SweepSpec": lambda r, f: st.SweepSpec(rings=r, rings_fine=f),
}


class TestExtrapolation:
    def test_richardson_kills_quadratic_error(self):
        exact = 0.7
        coarse = exact + 4e-3
        fine = exact + 1e-3
        assert st.richardson(coarse, fine) == pytest.approx(exact, abs=1e-12)

    def test_observed_order(self):
        vals = [1.0 + 4e-2, 1.0 + 1e-2, 1.0 + 2.5e-3]
        assert st.observed_order(*vals) == pytest.approx(2.0, abs=1e-9)
        assert math.isnan(st.observed_order(1.0, 1.0, 1.0))

    @pytest.mark.parametrize("entry", list(PAIR_ENTRIES.values()), ids=list(PAIR_ENTRIES))
    def test_fine_level_must_be_twice_the_coarse_one(self, monkeypatch, entry):
        # richardson (factor 2^2) and observed_order (log2) assume a
        # mesh ratio of 2; rejected before any mesh is built
        calls = count_calls(monkeypatch)
        with pytest.raises(ValueError, match="twice"):
            entry(32, 48)
        assert calls == {"mesh": 0, "factor": []}

    @pytest.mark.parametrize("rings", [4, 6, 33])
    @pytest.mark.parametrize("entry", list(PAIR_ENTRIES.values()), ids=list(PAIR_ENTRIES))
    def test_coarse_level_must_be_even_and_at_least_8(self, monkeypatch, entry, rings):
        # the order level of a row sits at rings // 2, which is half the
        # coarse level and at least the chain's bottom at rings 4 only for
        # a nested coarse level; rejected before any mesh is built
        calls = count_calls(monkeypatch)
        with pytest.raises(ValueError, match="even and >= 8"):
            entry(rings, 2 * rings)
        assert calls == {"mesh": 0, "factor": []}

    def test_disk_reference_is_cached(self):
        a = st.disk_data(16)
        b = st.disk_data(16)
        assert a is b


class TestKJExponent:
    def test_values(self):
        assert st.kj_exponent(1.0, 2) == pytest.approx(1.0, abs=1e-15)
        assert st.kj_exponent(2.0, 2) == pytest.approx(0.5, abs=1e-15)
        assert st.kj_exponent(6.0, 3) == pytest.approx(0.0, abs=1e-15)

    def test_admissible_range(self):
        for q in (1.1, 1.5, 2.0, 3.0, 4.0):
            assert 0.0 < st.kj_exponent(q, 2) <= 1.0
        with pytest.raises(ValueError):
            st.kj_exponent(0.5, 2)


class TestEnergyDeficit:
    def test_disk_is_zero(self):
        val = st.energy_deficit(unit_disk(), **FAST)
        assert abs(val) <= 2e-4 * abs(-PI / 16) / PI ** 2

    def test_ellipse_against_exact_torsion(self):
        # closed-form ellipse energy: E = -pi a^3 b^3 / (8 (a^2 + b^2))
        eps = 0.1
        a, b = (1 + eps) ** 0.25, (1 + eps) ** -0.25
        exact = (1 / (16 * PI)) - a * b / (8 * PI * (a * a + b * b))
        val = st.energy_deficit(ellipse(eps), **FAST)
        assert val == pytest.approx(exact, rel=2e-3)

    def test_quadratic_in_eps(self):
        d1 = st.energy_deficit(ellipse(0.05), **FAST)
        d2 = st.energy_deficit(ellipse(0.1), **FAST)
        assert d2 / d1 == pytest.approx(4.0, rel=0.1)

    def test_dilation_invariance(self):
        d = ellipse(0.1)
        v1 = st.energy_deficit(d, **FAST)
        v2 = st.energy_deficit(scaled(d, 1.3), **FAST)
        assert v2 == pytest.approx(v1, rel=1e-9)

    def test_observed_order_near_two(self):
        # the order a sweep row reports, that of its FK deficit at q = 2
        # over the rings 32/64/128 levels
        for eps in (0.1, 0.15):
            r = st.evaluate_member(f"ellipse-{eps}", "ellipse", eps, ellipse(eps),
                                   q_list=(2.0,), rings=64, rings_fine=128)
            assert r.extrap_order >= 1.8


def ellipse_energy(eps: float) -> float:
    """-pi a^3 b^3 / (8 (a^2 + b^2)) at the volume-pi axes, ab = 1."""
    a, b = (1 + eps) ** 0.25, (1 + eps) ** -0.25
    return -PI / (8 * (a * a + b * b))


class TestTorsionEnergy:
    @pytest.mark.parametrize("eps", [0.02, 0.2, 0.4])
    def test_ellipse_closed_form(self, eps):
        energy, stats = st.torsion_energy(ellipse(eps))
        assert energy == pytest.approx(ellipse_energy(eps), rel=1e-13, abs=0)
        assert stats.modes == 32
        assert stats.bound <= st.TREFFTZ_TOL * abs(energy)

    def test_disk(self):
        energy, stats = st.torsion_energy(unit_disk())
        assert energy == pytest.approx(-PI / 16, rel=1e-13, abs=0)
        assert stats.bound == pytest.approx(PI * stats.miss / 2, rel=1e-15)

    @pytest.mark.parametrize("k,modes", [(2, 32), (3, 64), (4, 128)])
    def test_mode_count_rises_until_the_bound_holds(self, k, modes):
        # the first mode count whose bound passes is returned; at s = 0.09
        # mode 3 needs 64 modes and mode 4 needs 128.  The fit at twice
        # the modes lies within both bounds of it.
        d = StarDomain((0.0, 0.0), volume_corrected_profile(k, 0.09))
        energy, stats = st.torsion_energy(d)
        assert stats.modes == modes
        assert stats.bound <= st.TREFFTZ_TOL * abs(energy)
        for fewer in st.TREFFTZ_MODES[:st.TREFFTZ_MODES.index(modes)]:
            e, miss = st._trefftz(d, fewer)
            assert PI * miss / 2 > st.TREFFTZ_TOL * abs(e)
        finer, miss = st._trefftz(d, 2 * modes)
        assert abs(finer - energy) <= stats.bound + PI * miss / 2

    def test_far_from_the_disk_raises_with_the_miss(self):
        d = StarDomain((0.0, 0.0), BoundaryProfile.single_mode(2, cos_amp=0.4))
        with pytest.raises(fem.SolverError,
                           match=r"misses the boundary by up to \S+ at 256 modes"):
            st.torsion_energy(d)

    @pytest.mark.parametrize("member", ["ellipse-0.1", "random-12"])
    def test_fem_energy_within_its_error(self, member):
        # the FEM's Richardson energy at rings 64/128, what a sweep row took
        # before it took the meshless one: off by 8.1e-9 to 9.7e-9 relative
        spec = st.SweepSpec(eps_values=(0.1,), random_count=13)
        d = {m: d for m, _, _, d in st.build_family(spec)}[member]
        energy, stats = st.torsion_energy(d)
        fem_energy = st.richardson(st.Level(d, 64).energy(), st.Level(d, 128).energy())
        assert fem_energy == pytest.approx(energy, rel=2e-8, abs=0)
        assert stats.bound <= 1e-10 * abs(energy)

    def test_translation_invariant(self):
        d = StarDomain((0.0, 0.0), volume_corrected_profile(3, 0.05))
        e0, _ = st.torsion_energy(d)
        e1, _ = st.torsion_energy(d.translated(0.7, -1.3))
        assert e1 == e0

    def test_least_squares_against_lapack(self, rng):
        a = rng.standard_normal((40, 9))
        b = rng.standard_normal(40)
        x = st._householder_lstsq(a.T, b)
        expected = np.linalg.lstsq(a, b, rcond=None)[0]
        assert np.max(np.abs(x - expected)) <= 1e-13


ELLIPSE_Q = (2.0, 3.0, 4.0)
DISK_Q = (1.0, 1.5, 2.0, 3.0)


@functools.lru_cache(maxsize=None)
def row(eps: float, q_list=ELLIPSE_Q) -> st.DeficitReport:
    """The sweep row of ellipse(eps) (the disk at eps = 0), at FAST rings."""
    return st.evaluate_member(f"ellipse-{eps}", "ellipse", eps, ellipse(eps),
                              q_list, **FAST)


class TestFKDeficit:
    def test_disk_all_q(self):
        fk = row(0.0, DISK_Q).deficit_fk
        assert tuple(fk) == DISK_Q
        for q in fk:
            assert fk[q] == pytest.approx(0.0, abs=1e-12)

    def test_ellipse_positive(self):
        assert row(0.1).deficit_fk[2.0] > 0.0

    def test_q1_matches_energy_route(self):
        d = ellipse(0.15)
        route_a = row(0.15, (1.0,)).deficit_fk[1.0]
        # identity: lambda_{2,1} = -1/(2E), so the q=1 deficit is computable
        # from scale-normalized energies alone
        vals = []
        for r in (FAST["rings"], FAST["rings_fine"]):
            e_dom = st.Level(d, r).energy() * volume(d) ** (-2.0)
            e_ref = st.disk_data(r).energy() * PI ** (-2.0)
            vals.append(-0.5 / e_dom + 0.5 / e_ref)
        route_b = st.richardson(vals[0], vals[1])
        assert route_a == pytest.approx(route_b, rel=1e-4)


class TestKohlerJobin:
    def test_disk_slack_zero(self):
        assert row(0.0, DISK_Q).kj_slack[2.0] == pytest.approx(0.0, abs=1e-12)

    def test_ellipse_positive(self):
        assert row(0.1).kj_slack[2.0] > 0.0

    def test_slack_shrinks_with_eps(self):
        slacks = [row(e).kj_slack[2.0] for e in (0.2, 0.15, 0.1, 0.05)]
        assert all(b < a for a, b in zip(slacks, slacks[1:]))

    def test_cappio_disk(self):
        lhs, rhs = row(0.0, DISK_Q).cappio[2.0]
        assert abs(lhs) < 1e-12 and abs(rhs) < 1e-12

    @pytest.mark.parametrize("eps,q", [(0.1, 2.0), (0.2, 3.0)])
    def test_cappio_ellipse(self, eps, q):
        lhs, rhs = row(eps).cappio[q]
        assert lhs >= rhs > 0.0


class TestTaylorValidation:
    def test_translation_mode_is_flat(self):
        fit = st.taylor_validation(1, (0.03, 0.05, 0.07, 0.09), **FAST)
        assert abs(fit) <= 0.02 * PI / 8

    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_quadratic_form(self, k):
        fit = st.taylor_validation(k, (0.03, 0.05, 0.07, 0.09), **FAST)
        assert fit == pytest.approx(st.hessian_target(k), rel=0.05)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            st.taylor_validation(0, (0.03, 0.05, 0.07))
        with pytest.raises(ValueError):
            st.taylor_validation(2, (0.05, 0.2, 0.3))


class TestFugledeMargin:
    def test_mode_two_limit(self):
        # gap -> (pi/8) s^2 while the squared norm is 3 pi s^2: ratio 1/24
        p = volume_corrected_profile(2, 0.01)
        margin = st.fuglede_margin(p, **FAST)
        assert margin == pytest.approx(1 / 24, rel=0.03)

    def test_mode_five_limit(self):
        p = volume_corrected_profile(5, 0.01)
        margin = st.fuglede_margin(p, **FAST)
        assert margin == pytest.approx(1 / 12, rel=0.03)

    def test_random_mixture_above_bound(self):
        rng = np.random.default_rng(17)
        p = st.random_near_sphere_profile(rng, 0.03)
        assert st.fuglede_margin(p, **FAST) >= 1 / 128

    def test_preconditions(self):
        with pytest.raises(ValueError):
            st.fuglede_margin(volume_corrected_profile(2, 0.2), **FAST)
        uncorrected = BoundaryProfile.single_mode(2, cos_amp=0.04)
        with pytest.raises(ValueError):
            st.fuglede_margin(uncorrected, **FAST)
        translation = volume_corrected_profile(1, 0.04)
        with pytest.raises(ValueError):
            st.fuglede_margin(translation, **FAST)


class TestSharpness:
    def test_slope_and_spread(self):
        eps = np.linspace(0.02, 0.2, 5)
        slope, spread = st.sharpness_fit(eps)
        assert 1.85 <= slope <= 2.15
        assert spread <= 0.15

    def test_input_validation(self):
        with pytest.raises(ValueError):
            st.sharpness_fit([0.1, 0.2])


class TestRandomFamily:
    def test_profile_properties(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            target = rng.uniform(0.015, 0.047)
            p = st.random_near_sphere_profile(rng, target)
            d = StarDomain((0, 0), p)
            assert volume(d) == pytest.approx(PI, rel=1e-10)
            assert p.grid_sup() <= target * 1.1
            from fklab.domain import barycenter
            assert np.hypot(*barycenter(d)) < 1e-8
            low = 2 * PI * (p.cos_coeffs[0] ** 2 + p.sin_coeffs[0] ** 2)
            assert low <= 0.01 * h_half_norm_sq(p)

    def test_deterministic_given_seed(self):
        p1 = st.random_near_sphere_profile(np.random.default_rng(8), 0.03)
        p2 = st.random_near_sphere_profile(np.random.default_rng(8), 0.03)
        assert p1.to_record() == p2.to_record()


class TestSweep:
    def test_build_family_counts(self):
        spec = st.SweepSpec(eps_values=(0.05, 0.1), random_count=3, seed=1)
        fam = st.build_family(spec)
        assert [m[0] for m in fam] == ["ellipse-0.05", "ellipse-0.1",
                                       "random-0", "random-1", "random-2"]
        assert all(volume(m[3]) == pytest.approx(PI, rel=1e-9) for m in fam)

    def test_negative_random_count_rejected(self):
        with pytest.raises(ValueError, match="random_count"):
            st.build_family(st.SweepSpec(random_count=-2))

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError, match="eps_values.*random_count"):
            st.SweepSpec(eps_values=(), random_count=0, rings=8, rings_fine=16)
        assert len(st.build_family(st.SweepSpec(eps_values=(), random_count=1))) == 1
        assert len(st.build_family(st.SweepSpec(eps_values=(0.1,), random_count=0))) == 1

    def test_disk_report_has_nan_ratios(self):
        rep = st.evaluate_member("disk", "ellipse", 0.0, unit_disk(),
                                 q_list=(2.0,), **FAST)
        assert abs(rep.deficit_energy) < 1e-10
        assert math.isnan(rep.ratio_energy_asym_sq)

    def test_fk_ratio_decays_in_q(self):
        # recorded qualitative check: the empirical stability constant for
        # the L^q embedding shrinks as q grows (conformal-limit decay)
        r = row(0.1)
        ratios = [r.deficit_fk[q] / r.fraenkel ** 2 for q in (2.0, 3.0, 4.0)]
        print(f"FK(q)/A^2 at q=2,3,4: {ratios}")
        assert ratios[0] > ratios[1] > ratios[2] > 0.0

    def test_nonsharp_quartic_has_larger_margin_at_small_asymmetry(self):
        # with the quartic constant fitted on the family, the quartic bound
        # D >= A^4/C8 holds with far more slack at small A than the sharp
        # quadratic bound D >= sigma A^2
        data = []
        for eps in (0.04, 0.08, 0.16):
            d = ellipse(eps)
            from fklab.asymmetry import fraenkel
            a, _ = fraenkel(d)
            data.append((a, st.energy_deficit(d, **FAST)))
        c8 = max(a ** 4 / dv for a, dv in data)
        sigma = min(dv / a ** 2 for a, dv in data)
        a_min, d_min = min(data)
        quartic_slack = d_min / (a_min ** 4 / c8)
        quadratic_slack = d_min / (sigma * a_min ** 2)
        assert quartic_slack > 5.0 * quadratic_slack


# rows of the interior stiffness at the bottom of the default level chain,
# rings 4: the largest matrix a run factors
BOTTOM = fem.ring_skeleton(4).n_interior


def count_calls(monkeypatch):
    """Count mesh builds and record the row count of every factorization,
    dense or sparse, while the test runs."""
    calls = {"mesh": 0, "factor": []}

    def mesh(*args, **kwargs):
        calls["mesh"] += 1
        return polar_mesh(*args, **kwargs)

    def factorize(a, *args, **kwargs):
        calls["factor"].append(a.shape[0])
        return factor(a, *args, **kwargs)

    polar_mesh, factor = fem.polar_mesh, fem.factorize
    monkeypatch.setattr(fem, "polar_mesh", mesh)
    monkeypatch.setattr(fem, "factorize", factorize)
    return calls


def count_torsion_solves(monkeypatch):
    """The ring count of every torsion solve while the test runs."""
    rings = []
    solve = fem.solve_torsion

    def counted(mesh, *args, **kwargs):
        rings.append(mesh.skeleton.rings)
        return solve(mesh, *args, **kwargs)

    monkeypatch.setattr(fem, "solve_torsion", counted)
    return rings


class TestSharedLevel:
    def test_member_factors_only_its_chain_bottom(self, monkeypatch):
        # three levels (order, coarse, fine), one mesh each; every solve
        # takes the V-cycle over the member's own chain, whose bottom, the
        # rings-4 order level, is the only matrix factored; the order
        # level's solutions start the coarse level's and the asymmetries
        # need no mesh
        assert BOTTOM == 37
        st.prepare_disk_references((4, 8, 16), (1.5, 2.0, 3.0))
        calls = count_calls(monkeypatch)
        st.evaluate_member("e", "ellipse", 0.1, ellipse(0.1), rings=8,
                           rings_fine=16)
        assert calls == {"mesh": 3, "factor": [BOTTOM]}

    def test_near_sphere_row_takes_the_meshless_energy(self, monkeypatch):
        # no torsion solve on any level: the energy and the energy deficit
        # are the meshless ones, bit for bit, with their evidence
        d = st.build_family(st.SweepSpec(eps_values=(), random_count=1))[0][3]
        st.prepare_disk_references((4, 8, 16), (1.5, 2.0, 3.0))
        solves = count_torsion_solves(monkeypatch)
        r = st.evaluate_member("r", "random", 0.0, d, rings=8, rings_fine=16)
        energy, stats = st.torsion_energy(d)
        assert solves == []
        assert r.energy == energy
        assert r.deficit_energy == st.energy_deficit(d, 8, 16)
        assert r.energy_stats == stats

    def test_far_shape_row_falls_back_to_the_fem_energy(self, monkeypatch):
        # the Trefftz fit's bound fails on r = 1 + 0.3 cos 2 theta, so the
        # row's coarse and fine levels solve their torsion, not its order
        # level, and every energy value of the row comes from their one
        # Richardson energy against the exact disk energy
        d = StarDomain((0.0, 0.0), volume_corrected_profile(2, 0.3))
        with pytest.raises(fem.SolverError):
            st.torsion_energy(d)
        q_list = (1.5, 2.0, 3.0)
        st.prepare_disk_references((4, 8, 16), q_list)
        solves = count_torsion_solves(monkeypatch)
        r = st.evaluate_member("far", "profile", 0.0, d, q_list, rings=8, rings_fine=16)
        assert sorted(solves) == [8, 16]
        assert r.energy_stats is None
        levels = {rings: st.Level(d, rings) for rings in (8, 16)}
        assert r.energy == st.richardson(levels[8].energy(), levels[16].energy())
        assert r.deficit_energy == (r.energy * volume(d) ** (-2.0)
                                    - st.DISK_ENERGY * PI ** (-2.0))
        for q in q_list:
            th = st.kj_exponent(q)
            assert r.cappio[q][1] == (st.DISK_ENERGY / r.energy) ** th - 1.0
            assert r.kj_slack[q] == st.richardson(*[
                levels[rings].lambda_q(q) * (-r.energy) ** th
                - st.disk_data(rings).lambda_q(q) * (-st.DISK_ENERGY) ** th
                for rings in (8, 16)])
        assert [c for c in verify.row_checks(r) if not c[1]] == []

    @pytest.mark.parametrize("gap", [
        lambda: st.energy_gap(ellipse(0.1)),
        lambda: st.energy_deficit(ellipse(0.1), 8, 16),
        lambda: st.fuglede_margin(volume_corrected_profile(2, 0.01), 8, 16),
        lambda: st.sharpness_fit(np.linspace(0.02, 0.2, 5)),
        lambda: st.taylor_validation(2, (0.03, 0.05, 0.07), 8, 16),
    ], ids=["energy_gap", "energy_deficit", "fuglede_margin", "sharpness_fit",
            "taylor_validation"])
    def test_torsion_only_paths_build_no_mesh(self, monkeypatch, gap):
        # every energy comes from torsion_energy: no mesh, no factorization
        # and no new disk level
        disk_levels = dict(st._DISK)
        calls = count_calls(monkeypatch)
        gap()
        assert calls == {"mesh": 0, "factor": []}
        assert st._DISK == disk_levels

    def test_odd_bottom_is_factored_by_superlu_and_passes_row_checks(self, monkeypatch):
        # rings 36 -> 18 -> 9: the order level at rings 9 is the chain's
        # bottom, 217 unknowns, too many rings for the dense inverse
        st.prepare_disk_references((9, 18, 36), (1.5, 2.0, 3.0))
        calls = count_calls(monkeypatch)
        r = st.evaluate_member("e", "ellipse", 0.1, ellipse(0.1), rings=18, rings_fine=36)
        bottom = fem.ring_skeleton(9).n_interior
        assert calls == {"mesh": 3, "factor": [bottom]}
        assert type(st.Level(ellipse(0.1), 9).precond).__name__ == "SuperLU"
        assert [c for c in verify.row_checks(r) if not c[1]] == []


def record_solves(monkeypatch):
    """(rings, q) -> values of every domain L^q solve, the eigenvalue's at
    q = 2, while the test runs, in call order; solves on the cached disk
    meshes are left out.  A disk solve runs on the mesh its cached level
    holds at that moment, so a released level's mesh is never rebuilt to
    tell it apart."""
    values = {}
    solve = fem.poincare_sobolev

    def recorded(mesh, q, *args, **kwargs):
        out = solve(mesh, q, *args, **kwargs)
        rings = mesh.skeleton.rings
        disk = st._DISK.get(rings)
        if disk is None or mesh is not vars(disk).get("mesh"):
            values.setdefault((rings, float(q)), []).append(out[0])
        return out

    monkeypatch.setattr(fem, "poincare_sobolev", recorded)
    return values


class TestNestedLevels:
    def test_one_coarse_chain_for_all_q(self, monkeypatch):
        assert [r for r in (4, 6, 7, 8, 9, 10, 128) if st.nested(r)] == [8, 10, 128]
        st.prepare_disk_references((4, 8, 16))
        calls = count_calls(monkeypatch)
        level = st.Level(ellipse(0.1), 16)
        for q in (1.5, 2.0, 3.0):
            level.lambda_q(q)
        assert calls == {"mesh": 3, "factor": [BOTTOM]}  # rings 16, 8 and 4

    def test_value_depends_on_domain_rings_and_q_alone(self, monkeypatch):
        d = ellipse(0.1)
        q_list = (2.0, 3.0)
        st.prepare_disk_references((32, 64, 128), q_list)
        member = record_solves(monkeypatch)
        st.evaluate_member("e", "ellipse", 0.1, d, q_list)
        monkeypatch.undo()
        for q in q_list:
            standalone = st.Level(d, 128).lambda_q(q)
            assert member[128, q] == [standalone]
        # the disk, its cache filled finest first instead of coarsest first
        prepared = {q: st.disk_data(128).lambda_q(q) for q in q_list}
        monkeypatch.setattr(st, "_DISK", {})
        for q in q_list:
            assert st.disk_data(128).lambda_q(q) == prepared[q]
            assert st.Level(unit_disk(), 128).lambda_q(q) == prepared[q]
        assert sorted(st._DISK) == [4, 8, 16, 32, 64, 128]

    def test_missing_start_is_computed_not_cold(self, monkeypatch):
        d = ellipse(0.15)
        member = record_solves(monkeypatch)
        st.evaluate_member("e", "ellipse", 0.15, d, (1.0, 3.0), rings=8, rings_fine=16)
        monkeypatch.undo()
        st.prepare_disk_references((4, 8, 16))
        calls = count_calls(monkeypatch)
        level = st.Level(d, 16, coarse=st.Level(d, 8))
        assert [level.lambda_q(1.0)] == member[16, 1.0]
        assert calls == {"mesh": 3, "factor": [BOTTOM]}  # rings 16, 8 and 4
        assert [level.lambda_q(3.0)] == member[16, 3.0]  # on the same chain
        assert calls == {"mesh": 3, "factor": [BOTTOM]}
        cold, _ = fem.poincare_sobolev(level.mesh, 3.0, precond=direct(level.mesh))
        assert cold != member[16, 3.0][0]

    def test_q_list_without_two_solves_each_q_once(self, monkeypatch):
        d = ellipse(0.1)
        st.prepare_disk_references((4, 8, 16), (1.0, 2.0, 3.0))
        full = st.evaluate_member("e", "ellipse", 0.1, d, (1.0, 2.0, 3.0),
                                  rings=8, rings_fine=16)
        calls = count_calls(monkeypatch)
        solves = record_solves(monkeypatch)
        part = st.evaluate_member("e", "ellipse", 0.1, d, (1.0, 3.0),
                                  rings=8, rings_fine=16)
        assert calls == {"mesh": 3, "factor": [BOTTOM]}  # rings 4, 8 and 16
        assert {k: len(v) for k, v in solves.items()} == {
            (r, q): 1 for r in (4, 8, 16) for q in (1.0, 2.0, 3.0)}
        assert part.eigenvalue == full.eigenvalue
        for q in (1.0, 3.0):
            assert part.lambda_q[q] == full.lambda_q[q]
            assert part.deficit_fk[q] == full.deficit_fk[q]
        assert part.kj_slack == {3.0: full.kj_slack[3.0]}


class TestDiskReferences:
    Q = (1.5, 2.0, 3.0)

    def test_prepared_levels_hold_no_operator(self, monkeypatch):
        monkeypatch.setattr(st, "_DISK", {})
        st.prepare_disk_references((8, 16), self.Q)
        assert sorted(st._DISK) == [4, 8, 16]
        for level in st._DISK.values():
            assert not {"mesh", "precond"} & set(vars(level))
            assert level._solutions == {}
            held = [v for v in vars(level).values()
                    if isinstance(v, (fem.TriMesh, fem.VCycle, fem.DenseInverse,
                                      np.ndarray, sp.spmatrix))]
            assert held == []
            assert set(level._lq) == set(self.Q)  # the values stay
        assert [st._DISK[r]._energy is not None for r in (4, 8, 16)] == [False, True, True]

    def test_released_level_rebuilds_bit_for_bit(self, monkeypatch):
        monkeypatch.setattr(st, "_DISK", {})
        st.prepare_disk_references((8, 16), self.Q)
        # a new q on a released level: mesh and V-cycle chain rebuilt
        assert st.disk_data(16).lambda_q(2.5) == st.Level(unit_disk(), 16).lambda_q(2.5)
        # a finer level starts from released q-solutions, which are solved
        # again to the values kept
        st.prepare_disk_references((8, 16), self.Q)
        kept = st.disk_data(16).lambda_q(2.0)
        calls = count_calls(monkeypatch)
        assert st.disk_data(32).lambda_q(2.0) == st.Level(unit_disk(), 32).lambda_q(2.0)
        assert calls["factor"] == [BOTTOM, BOTTOM]  # the disk chain's and the new chain's
        assert st._DISK[16]._lq[2.0] == kept

    def test_prepared_references_leave_only_transfers_live(self, monkeypatch):
        # the disk hierarchy of a sweep: after preparation only the numbers
        # and the process-wide interior transfers of rings 4-64 stay
        # allocated, about 3.07 MB, against 18.8 MB when every disk level
        # kept its mesh, operators, V-cycle and q-solutions
        monkeypatch.setattr(st, "_DISK", {})
        for rings in (4, 8, 16, 32, 64, 128):
            fem.ring_skeleton(rings)
        fem._interior_transfer.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            st.prepare_disk_references((32, 64, 128), self.Q)
            live = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert live <= 1.25 * 3.07e6

    def test_installed_references_need_no_mesh(self, monkeypatch):
        # the sweep pool's initializer, called as a worker started by spawn
        # or forkserver would call it, then as a forked one would; no row
        # reads a disk energy, so the references hold lambda_q only
        levels = (4, 8, 16)
        st.prepare_disk_references(levels, self.Q)

        def values():
            return {r: [st.disk_data(r).lambda_q(q) for q in self.Q] for r in levels}

        prepared, references = values(), st.disk_references()
        monkeypatch.setattr(st, "_DISK", {})
        calls = count_calls(monkeypatch)
        for _ in range(2):
            st.install_disk_references(references)
            assert values() == prepared
            assert [level._energy for level in st._DISK.values()] == [None] * len(st._DISK)
        assert calls == {"mesh": 0, "factor": []}


class TestOneSolvePath:
    SOLVERS = ("solve_torsion", "poincare_sobolev", "principal_eigenvalue")

    def test_torsion_field_gives_the_energy(self, monkeypatch):
        d = ellipse(0.1)
        energy = st.Level(d, 16).energy()
        level = st.Level(d, 16)
        solves = count_torsion_solves(monkeypatch)
        u = level.torsion()
        assert fem.energy_of(u) == energy
        assert level.energy() == energy
        assert len(solves) == 1  # the energy was kept, not solved again
        assert u.mesh is level.mesh
        assert not any(isinstance(v, fem.ScalarField) for v in vars(level).values())
        assert level.torsion_stats.residual <= fem.DEFAULT_CG_TOL
        assert 1 < level.torsion_stats.iterations  # by the V-cycle

    def test_solvers_take_no_default_preconditioner(self):
        assert not hasattr(fem.TriMesh, "_interior_factor")
        for name in self.SOLVERS:
            precond = inspect.signature(getattr(fem, name)).parameters["precond"]
            assert precond.kind is inspect.Parameter.KEYWORD_ONLY
            assert precond.default is inspect.Parameter.empty

    def test_only_fem_and_stability_call_the_solvers(self):
        # every other module solves through a stability.Level, which
        # chooses the preconditioner; a Level passes a solver to its
        # _solve, so any reference to one counts, imports included
        def name(node):
            if isinstance(node, ast.Attribute):
                return node.attr
            if isinstance(node, ast.Name):
                return node.id
            return node.name if isinstance(node, ast.alias) else None

        callers = {path.stem for path in Path(fem.__file__).parent.glob("*.py")
                   if any(name(node) in self.SOLVERS
                          for node in ast.walk(ast.parse(path.read_text())))}
        assert callers == {"fem", "stability"}

    def test_callers_of_a_level_torsion(self):
        # a sweep row reads one torsion energy, the FEM's only when the
        # Trefftz fit fails, and then from its coarse and fine levels alone;
        # the other callers are the disk references, their tolerance scale
        # in row_checks and the commands that print a FEM torsion
        def functions(tree, prefix):
            for node in tree.body:
                if isinstance(node, ast.FunctionDef):
                    yield f"{prefix}.{node.name}", node
                elif isinstance(node, ast.ClassDef):
                    yield from functions(node, f"{prefix}.{node.name}")

        def calls_torsion(func):
            return any(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                       and node.func.attr in ("energy", "torsion")
                       for node in ast.walk(func))

        callers = {name for path in Path(fem.__file__).parent.glob("*.py")
                   for name, func in functions(ast.parse(path.read_text()), path.stem)
                   if calls_torsion(func)}
        assert callers == {"stability.Level.energy", "stability.prepare_disk_references",
                           "stability.evaluate_member", "verify.row_checks", "verify._tail",
                           "cli.ball_reference", "cli.cmd_mesh_dump"}


class TestLevelFailure:
    def test_sweep_failure_names_member_rings_and_solver(self, monkeypatch):
        spec = st.SweepSpec(eps_values=(0.05,), random_count=0,
                            rings=8, rings_fine=16)
        st.prepare_disk_references((4, 8, 16), spec.q_list)
        monkeypatch.setattr(fem, "DESCENT_MAX_ITER", 1)
        with pytest.raises(fem.SolverError) as info:
            st.sigma_scan(spec, workers=1)
        assert str(info.value).startswith(
            "sweep member ellipse-0.05 failed: rings 4: L^2.0 descent ")
        assert "iterations" in str(info.value)
        assert "relative drop" in str(info.value)


class TestDefaultWorkers:
    def test_one_cpu_affinity_scans_serially(self, monkeypatch):
        # the default worker count is the CPUs the process may run on, not
        # every CPU of the machine
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert st.available_cpus() == 1

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")
        monkeypatch.setattr(st, "ProcessPoolExecutor", no_pool)
        spec = st.SweepSpec(eps_values=(0.05,), random_count=0, rings=8, rings_fine=16)
        assert [r.domain_id for r in st.sigma_scan(spec).reports] == ["ellipse-0.05"]

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert st.available_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert st.available_cpus() == 1


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers must inherit the patched evaluate_member")
class TestSweepFailure:
    SPEC = st.SweepSpec(eps_values=(0.05,), random_count=2, seed=1,
                        rings=8, rings_fine=16)

    def failure(self, monkeypatch, exc, workers):
        def fake(domain_id, *args):
            if domain_id == "random-0":
                raise exc
        monkeypatch.setattr(st, "evaluate_member", fake)
        with pytest.raises(Exception) as info:
            st.sigma_scan(self.SPEC, workers=workers)
        return type(info.value), str(info.value)

    @pytest.mark.parametrize("exc", [ValueError("bad input"),
                                     fem.SolverError("stagnated")],
                             ids=["ValueError", "SolverError"])
    def test_same_failure_at_any_worker_count(self, monkeypatch, exc):
        serial = self.failure(monkeypatch, exc, 1)
        parallel = self.failure(monkeypatch, exc, 2)
        assert serial == parallel
        assert serial[0] is type(exc)
        if isinstance(exc, fem.SolverError):
            assert serial[1] == "sweep member random-0 failed: stagnated"
        else:
            assert serial[1] == "bad input"
