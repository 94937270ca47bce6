import dataclasses
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fklab
from fklab import fem, stability, verify
from fklab.cli import (_CONFIG_KEYS, DISK_EIGENVALUE, RunConfig, UsageError, ball_reference,
                       csv_header, csv_row, load_config, main, parse_domain_spec)

README = Path(__file__).resolve().parents[1] / "README.md"


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg.rings == 64 and cfg.rings_fine == 128
        assert cfg.q_list == (1.5, 2.0, 3.0)

    def test_file_parsing(self, tmp_path):
        path = tmp_path / "fklab.conf"
        path.write_text(
            "# comment\n"
            "mesh.rings = 32\n"
            "mesh.rings_fine = 64   # inline comment\n"
            "sweep.seed = 11\n"
            "q.list = 1.5,2\n")
        cfg = load_config(str(path))
        assert cfg.rings == 32 and cfg.rings_fine == 64
        assert cfg.seed == 11
        assert cfg.q_list == (1.5, 2.0)

    def test_env_var(self, tmp_path, monkeypatch):
        path = tmp_path / "env.conf"
        path.write_text("mesh.rings = 16\nmesh.rings_fine = 32\n")
        monkeypatch.setenv("FKLAB_CONFIG", str(path))
        assert load_config(None).rings == 16

    def test_readme_config_block_matches_parser(self, tmp_path):
        # the documented config names every key the parser knows and no
        # other, with the default values
        block = README.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
        keys = [ln.split("#", 1)[0].split("=", 1)[0].strip()
                for ln in block.splitlines() if ln.split("#", 1)[0].strip()]
        assert sorted(keys) == sorted(_CONFIG_KEYS)
        path = tmp_path / "readme.conf"
        path.write_text(block)
        assert load_config(str(path)) == RunConfig()

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("mesh.circles = 3\n")
        with pytest.raises(UsageError):
            load_config(str(path))

    def test_validation(self):
        with pytest.raises(UsageError):
            RunConfig(rings=3).validate()
        with pytest.raises(UsageError):
            RunConfig(rings=64, rings_fine=64).validate()
        with pytest.raises(UsageError):
            RunConfig(eps_min=0.3, eps_max=0.2).validate()
        with pytest.raises(UsageError):
            RunConfig(q_list=(0.5,)).validate()
        with pytest.raises(UsageError):
            RunConfig(workers=-3).validate()
        RunConfig(workers=0).validate()

    def test_fine_level_must_be_twice_the_coarse_one(self, capsys):
        # Richardson extrapolation and the observed order assume a mesh
        # ratio of 2; 32/48 would extrapolate with the wrong factor
        with pytest.raises(UsageError, match="twice"):
            RunConfig(rings=32, rings_fine=48).validate()
        assert main(["--rings", "32", "--rings-fine", "48",
                     "deficit", "ellipse:0.1"]) == 1
        assert "twice" in capsys.readouterr().err

    @pytest.mark.parametrize("rings", [4, 6, 33])
    def test_coarse_level_must_be_even_and_at_least_8(self, capsys, rings):
        # a row's order level sits at rings // 2, half the coarse level
        # and at least rings 4 only for even rings >= 8; rejected before
        # the CSV header is written
        with pytest.raises(UsageError, match="even and >= 8"):
            RunConfig(rings=rings, rings_fine=2 * rings).validate()
        assert main(["--rings", str(rings), "--rings-fine", str(2 * rings),
                     "deficit", "ellipse:0.1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "even and >= 8" in err


class TestDomainSpecs:
    def test_ellipse_spec(self):
        family, param, dom = parse_domain_spec("ellipse:0.1")
        assert family == "ellipse" and param == 0.1

    def test_profile_spec_is_normalized(self):
        _, _, dom = parse_domain_spec("profile:0 2:0.05:0")
        from fklab.domain import volume
        assert volume(dom) == pytest.approx(math.pi, rel=1e-10)

    def test_file_spec(self, tmp_path):
        path = tmp_path / "dom.txt"
        path.write_text("0.1 -0.2\n0.0 3:0.05:0.0\n")
        _, _, dom = parse_domain_spec(f"file:{path}")
        from fklab.domain import barycenter, volume
        assert volume(dom) == pytest.approx(math.pi, rel=1e-10)
        assert np.hypot(*barycenter(dom)) < 1e-8

    def test_bad_specs(self):
        for spec in ("nokind", "ellipse:x", "ellipse:2.0", "unknown:1",
                     "profile:0 zz", "file:/definitely/not/there"):
            with pytest.raises(UsageError):
                parse_domain_spec(spec)


class TestCSVSchema:
    def test_header_matches_contract(self):
        assert csv_header((1.5, 2.0, 3.0)) == (
            "family,param,volume,energy,lambda,"
            "lambda_q_1.5,lambda_q_2,lambda_q_3,"
            "fraenkel,alpha,deficit_E,"
            "deficit_FK_1.5,deficit_FK_2,deficit_FK_3,"
            "ratio_E_A2,"
            "kj_slack_1.5,kj_slack_2,kj_slack_3,"
            "mesh_rings,extrap_order")

    def test_row_alignment(self):
        from fklab import stability
        from fklab.domain import unit_disk
        rep = stability.evaluate_member("d", "ellipse", 0.0, unit_disk(),
                                        q_list=(2.0,), rings=16, rings_fine=32)
        header = csv_header((2.0,))
        row = csv_row(rep, (2.0,))
        assert len(header.split(",")) == len(row.split(","))
        assert row.split(",")[0] == "ellipse"


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert main(["bogus-command"]) == 1
        assert main(["deficit"]) == 1
        assert main(["deficit", "nosuchkind:1", "--rings", "16",
                     "--rings-fine", "32"]) == 1
        assert main(["verify", "no-such-suite"]) == 1

    @pytest.mark.parametrize("key", ["tol.cg", "tol.eig", "tol.descent", "r_max"])
    def test_removed_tolerance_key_is_unknown(self, tmp_path, capsys, key):
        # the solver tolerances are constants of fklab.fem and no command
        # reads an outer radius r_max, so none of them is a config key
        path = tmp_path / "tol.conf"
        path.write_text(f"{key} = 1e-9\n")
        assert main(["--config", str(path), "ball-reference"]) == 1
        captured = capsys.readouterr()
        assert "unknown config key" in captured.err and key in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("args", [["sweep", "random", "--count", "0"],
                                      ["sweep", "combined", "--count", "-2"],
                                      ["sweep", "ellipse", "--count", "5"],
                                      ["--workers", "-3", "sweep", "random"]],
                             ids=["count-0", "count-negative", "count-ellipse",
                                  "workers-negative"])
    def test_bad_sweep_sizes_are_one(self, capsys, monkeypatch, args):
        def no_scan(spec, workers=None):
            raise AssertionError("sweep ran")
        monkeypatch.setattr(stability, "sigma_scan", no_scan)
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("fklab: error:") and "Traceback" not in err

    @pytest.mark.parametrize("args", [["mesh-dump", "ellipse:0.1", "--mesh-rings", "0"],
                                      ["deficit", "ellipse:0.1", "--q", ""],
                                      ["sweep", "ellipse", "--eps", ""]],
                             ids=["mesh-rings-0", "q-empty", "eps-empty"])
    def test_empty_or_zero_option_is_not_the_default(self, capsys, monkeypatch, args):
        def no_run(*_args, **_kwargs):
            raise AssertionError("the defaults ran")
        monkeypatch.setattr(stability, "sigma_scan", no_run)
        monkeypatch.setattr(stability, "prepare_disk_references", no_run)
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(("fklab: error:", "fklab: input error:"))
        assert "Traceback" not in captured.err and captured.out == ""

    def test_verify_failure_is_three(self, capsys, monkeypatch):
        monkeypatch.setitem(verify.SUITES, "always-fails",
                            lambda cfg: [("doomed", False, "by design")])
        assert main(["verify", "always-fails"]) == 3
        out = capsys.readouterr().out
        assert "FAIL always-fails: doomed" in out

    def test_verify_pass_is_zero(self, capsys):
        assert main(["verify", "steklov"]) == 0
        out = capsys.readouterr().out
        assert "6/6 checks passed" in out


class TestCommands:
    def test_flow_check(self, capsys):
        assert main(["flow-check", "--k", "2", "--s", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "volume-corrected" in out
        assert out.count("t=") == 5

    def test_deficit_rows(self, capsys):
        code = main(["--rings", "16", "--rings-fine", "32",
                     "deficit", "ellipse:0", "--q", "2"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == csv_header((2.0,))
        cells = lines[1].split(",")
        deficit_e = float(cells[lines[0].split(",").index("deficit_E")])
        assert abs(deficit_e) < 1e-10

    def test_deficit_row_far_from_the_disk_takes_the_fem_energy(self, capsys):
        # r = 1 + 0.3 cos 2 theta fails the meshless fit's bound, so the row
        # takes the Richardson-extrapolated FEM energy instead
        spec = "profile:0 2:0.3:0"
        dom = parse_domain_spec(spec)[2]
        with pytest.raises(fem.SolverError):
            stability.torsion_energy(dom)
        assert main(["--rings", "8", "--rings-fine", "16", "deficit", spec]) == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        energy = row.split(",")[header.split(",").index("energy")]
        fem_energy = stability.richardson(stability.Level(dom, 8).energy(),
                                          stability.Level(dom, 16).energy())
        assert float(energy) == fem_energy

    def test_deficit_rows_start_after_the_disk_is_released(self, monkeypatch, capsys):
        # the disk references are prepared once, then released, so no row
        # runs next to the disk's meshes and V-cycles
        held = []
        evaluate = stability.evaluate_member

        def recorded(*args):
            held.append(sorted(r for r, level in stability._DISK.items()
                               if {"mesh", "precond"} & set(vars(level))))
            return evaluate(*args)

        monkeypatch.setattr(stability, "_DISK", {})
        monkeypatch.setattr(stability, "evaluate_member", recorded)
        assert main(["--rings", "8", "--rings-fine", "16",
                     "deficit", "ellipse:0.1", "ellipse:0.2", "--q", "2"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3
        assert held == [[], []]
        assert sorted(stability._DISK) == [4, 8, 16]

    def test_mesh_dump(self, capsys):
        assert main(["mesh-dump", "ellipse:0.1", "--mesh-rings", "4"]) == 0
        out = capsys.readouterr().out
        assert out.count("\nt ") + out.startswith("t ") == 96
        assert "b " in out and "v " in out

    def test_mesh_dump_with_field(self, capsys):
        assert main(["mesh-dump", "ellipse:0", "--mesh-rings", "4",
                     "--field", "torsion"]) == 0
        out = capsys.readouterr().out
        assert "n 0 " in out

    def test_sweep_reproducible_bytes(self, tmp_path, capsys):
        args = ["--rings", "16", "--rings-fine", "32", "sweep", "random",
                "--count", "2", "--seed", "7", "--q", "2"]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()
        assert f1.read_text().startswith(csv_header((2.0,)))

    def test_sweep_plot(self, tmp_path, capsys):
        svg = tmp_path / "plot.svg"
        code = main(["--rings", "16", "--rings-fine", "32", "sweep", "ellipse",
                     "--eps", "0.05:0.2:3", "--q", "2", "--out",
                     str(tmp_path / "c.csv"), "--plot", str(svg)])
        capsys.readouterr()
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<svg") and "metadata" in text

    @pytest.mark.parametrize("family, count, n_eps, n_random", [
        ("ellipse", None, 8, 0), ("random", None, 0, 50), ("combined", None, 8, 52),
        ("random", 3, 0, 3), ("combined", 1, 8, 1)])
    def test_sweep_spec_per_family(self, capsys, monkeypatch, family, count,
                                   n_eps, n_random):
        seen = []

        def fake_scan(spec, workers=None):
            seen.append(spec)
            raise fem.SolverError("stop after the spec")
        monkeypatch.setattr(stability, "sigma_scan", fake_scan)
        args = ["sweep", family] + ([] if count is None else ["--count", str(count)])
        assert main(args) == 2
        capsys.readouterr()
        [spec] = seen
        assert len(spec.eps_values) == n_eps and spec.random_count == n_random
        assert (spec.seed, spec.q_list, spec.rings, spec.rings_fine) == (
            7, (1.5, 2.0, 3.0), 64, 128)

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(stability.SweepSpec)])
    def test_default_combined_sweep_is_the_library_default(self, capsys, monkeypatch,
                                                          field):
        # rings, seed, q and the random count have one home, SweepSpec
        seen = []

        def fake_scan(spec, workers=None):
            seen.append(spec)
            raise fem.SolverError("stop after the spec")
        monkeypatch.setattr(stability, "sigma_scan", fake_scan)
        assert main(["sweep", "combined"]) == 2
        capsys.readouterr()
        [spec] = seen
        assert getattr(spec, field) == getattr(stability.SweepSpec(), field)

    @pytest.mark.parametrize("flag, expected", [("0", 3), ("2", 2)])
    def test_sweep_workers_zero_is_every_available_cpu(self, capsys, monkeypatch,
                                                       flag, expected):
        # the CLI hands 0 on as sigma_scan's default, which sizes the pool
        seen = []

        def fake_pool(max_workers, **kwargs):
            seen.append(max_workers)
            raise fem.SolverError("stop after the worker count")
        monkeypatch.setattr(stability, "ProcessPoolExecutor", fake_pool)
        monkeypatch.setattr(stability, "available_cpus", lambda: 3)
        assert main(["--rings", "8", "--rings-fine", "16", "--workers", flag,
                     "sweep", "random", "--count", "1"]) == 2
        capsys.readouterr()
        assert seen == [expected]

    def test_ball_reference(self, capsys):
        assert main(["--rings", "32", "--rings-fine", "64",
                     "ball-reference"]) == 0
        out = capsys.readouterr().out
        assert "energy E(B_1)" in out and "beta_2" in out

    def test_ball_reference_prints_the_deficit_references(self):
        # the disk values every deficit at rings 16 subtracts, bit for bit,
        # prepared and released as a sweep prepares them
        q_list = (1.5, 2.0, 3.0)
        stability.prepare_disk_references((16,), q_list)
        level = stability.disk_data(16)
        expected = {"energy E(B_1)": level.energy(),
                    "eigenvalue lambda(B_1)": level.eigenvalue(),
                    "lambda_{2,1}(B_1)": level.lambda_q(1.0),
                    "lambda_{2,1.5}(B_1)": level.lambda_q(1.5),
                    "lambda_{2,3}(B_1)": level.lambda_q(3.0)}
        header, rows = ball_reference(RunConfig(rings=16, rings_fine=32, q_list=q_list))
        got = {name: value for name, _, value, _, _ in rows if name != "beta_2"}
        assert got == expected
        assert f"torsion residual = {level.torsion_stats.residual:.1e}" in header
        assert level.torsion_stats.residual <= fem.DEFAULT_CG_TOL

    def test_full_precision_output(self, capsys):
        main(["--rings", "16", "--rings-fine", "32",
              "deficit", "ellipse:0.1", "--q", "2"])
        out = capsys.readouterr().out
        # 17 significant digits in scientific notation
        assert any(len(cell.split("e")[0].replace("-", "").replace(".", "")) == 17
                   for cell in out.splitlines()[1].split(",") if "e" in cell)


class TestStartMethods:
    SWEEP = ["--rings", "8", "--rings-fine", "16", "sweep", "random",
             "--count", "3", "--seed", "7", "--q", "1.5,2,3"]

    def test_sweep_csv_is_independent_of_start_method(self, tmp_path, capsys):
        # each parallel sweep runs in a child interpreter, so the start
        # method of the test process itself never changes
        src = os.path.dirname(os.path.dirname(fklab.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        serial = tmp_path / "serial.csv"
        assert main(["--workers", "1"] + self.SWEEP + ["--out", str(serial)]) == 0
        capsys.readouterr()
        for method in multiprocessing.get_all_start_methods():
            out = tmp_path / f"{method}.csv"
            args = ["--workers", "2"] + self.SWEEP + ["--out", str(out)]
            code = ("import multiprocessing, sys\n"
                    f"multiprocessing.set_start_method({method!r}, force=True)\n"
                    f"from fklab.cli import main\nsys.exit(main({args!r}))\n")
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, (method, proc.stderr)
            assert out.read_bytes() == serial.read_bytes(), method


class TestImports:
    def test_no_scipy_optimize_or_special(self):
        # each of them would add about 0.1 s to every fresh process: each
        # `fklab deficit` call and each spawned sweep worker
        src = os.path.dirname(os.path.dirname(fklab.__file__))
        code = ("import sys, fklab, fklab.cli\n"
                "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
                "(['scipy', 'optimize'], ['scipy', 'special'])))\n")
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_sweep_member_without_scipy_sparse_linalg(self):
        # every factorization of a halving chain is its dense bottom;
        # scipy.sparse.linalg would add about 0.1 s and 10 MB to each fresh
        # process
        src = os.path.dirname(os.path.dirname(fklab.__file__))
        code = ("import sys, fklab.cli\n"
                "from fklab import stability\n"
                "from fklab.domain import ellipse\n"
                "stability.prepare_disk_references((8, 16), (1.5, 2.0, 3.0))\n"
                "stability.evaluate_member('e', 'ellipse', 0.1, ellipse(0.1), rings=8, "
                "rings_fine=16)\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse.linalg')))\n")
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_single_domain_commands_without_scipy_sparse_linalg(self):
        # each solves through its level's V-cycle chain, whose dense
        # bottom at rings 4 is its only factorization
        src = os.path.dirname(os.path.dirname(fklab.__file__))
        commands = [["ball-reference"], ["verify", "tail-sup"],
                    ["mesh-dump", "ellipse:0.1", "--field", "torsion"]]
        code = ("import contextlib, io, sys\n"
                "from fklab.cli import main\n"
                f"for args in {commands!r}:\n"
                "    with contextlib.redirect_stdout(io.StringIO()):\n"
                "        code = main(args)\n"
                "    print(args[0], code, sorted(m for m in sys.modules\n"
                "                                if m.startswith('scipy.sparse.linalg')))\n")
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "ball-reference 0 []", "verify 0 []", "mesh-dump 0 []"]

    def test_torsion_only_suites_without_scipy_linalg(self):
        # every energy of taylor and fuglede is meshless, and the least
        # squares of its fit is numpy's Householder QR, not LAPACK's
        src = os.path.dirname(os.path.dirname(fklab.__file__))
        code = ("import contextlib, io, sys\n"
                "from fklab.cli import main\n"
                "for suite in ('taylor', 'fuglede'):\n"
                "    with contextlib.redirect_stdout(io.StringIO()):\n"
                "        code = main(['verify', suite])\n"
                "    print(suite, code, sorted(m for m in sys.modules if m.startswith(\n"
                "        ('scipy.linalg', 'scipy.sparse.linalg'))))\n")
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["taylor 0 []", "fuglede 0 []"]

    def test_disk_eigenvalue_is_j01_squared(self):
        import mpmath
        with mpmath.workdps(40):
            assert DISK_EIGENVALUE == float(mpmath.besseljzero(0, 1) ** 2)
