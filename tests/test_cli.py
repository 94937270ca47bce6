import math

import numpy as np
import pytest

from fklab import verify
from fklab.cli import (RunConfig, UsageError, csv_header, csv_row, load_config,
                       main, parse_domain_spec)


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
            "tol.cg = 1e-9\n"
            "sweep.seed = 11\n"
            "q.list = 1.5,2\n")
        cfg = load_config(str(path))
        assert cfg.rings == 32 and cfg.rings_fine == 64
        assert cfg.cg_tol == 1e-9
        assert cfg.seed == 11
        assert cfg.q_list == (1.5, 2.0)

    def test_env_var(self, tmp_path, monkeypatch):
        path = tmp_path / "env.conf"
        path.write_text("mesh.rings = 16\nmesh.rings_fine = 32\n")
        monkeypatch.setenv("FKLAB_CONFIG", str(path))
        assert load_config(None).rings == 16

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
            RunConfig(cg_tol=0.5).validate()
        with pytest.raises(UsageError):
            RunConfig(cg_tol=1e-13).validate()
        RunConfig(cg_tol=1e-10).validate()
        with pytest.raises(UsageError):
            RunConfig(eps_min=0.3, eps_max=0.2).validate()
        with pytest.raises(UsageError):
            RunConfig(q_list=(0.5,)).validate()


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

    def test_cg_tol_below_direct_solve_floor_is_one(self, tmp_path, capsys):
        path = tmp_path / "tight.conf"
        path.write_text("tol.cg = 1e-13\n")
        assert main(["--config", str(path), "ball-reference"]) == 1
        err = capsys.readouterr().err
        assert "tol.cg must be >= 1e-10" in err and "direct torsion solve" in err

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

    def test_ball_reference(self, capsys):
        assert main(["--rings", "32", "--rings-fine", "64",
                     "ball-reference"]) == 0
        out = capsys.readouterr().out
        assert "energy E(B_1)" in out and "beta_2" in out

    def test_full_precision_output(self, capsys):
        main(["--rings", "16", "--rings-fine", "32",
              "deficit", "ellipse:0.1", "--q", "2"])
        out = capsys.readouterr().out
        # 17 significant digits in scientific notation
        assert any(len(cell.split("e")[0].replace("-", "").replace(".", "")) == 17
                   for cell in out.splitlines()[1].split(",") if "e" in cell)
