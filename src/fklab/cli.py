"""Command-line front end: configuration, subcommands, CSV/SVG output.

Subcommands: ``ball-reference``, ``deficit``, ``sweep``, ``verify``,
``flow-check``, ``mesh-dump``.  Configuration comes from a plain
``key = value`` text file (path in ``FKLAB_CONFIG`` or ``--config``),
with CLI flags overriding file values.  The solver tolerances are not
configurable: they are the constants of ``fklab.fem``.  Exit codes:
0 success, 1 usage or input error, 2 numerical failure, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import asymmetry, fem, stability, verify
from .circle import BoundaryProfile
from .domain import (NotStarShapedError, StarDomain, ellipse, recenter_rescale,
                     volume_corrected_profile)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3

# j_{0,1}^2, the first zero of J_0 squared, correctly rounded
DISK_EIGENVALUE = 5.783185962946784


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    rings: int = stability.DEFAULT_RINGS
    rings_fine: int = stability.DEFAULT_RINGS_FINE
    eps_min: float = float(stability.SweepSpec.eps_values[0])
    eps_max: float = float(stability.SweepSpec.eps_values[-1])
    eps_count: int = len(stability.SweepSpec.eps_values)
    seed: int = stability.SweepSpec.seed
    q_list: tuple = stability.SweepSpec.q_list
    workers: int = 0  # 0 = all available cores

    def validate(self) -> "RunConfig":
        try:
            stability._pair(self.rings, self.rings_fine)
        except ValueError as exc:
            raise UsageError(f"mesh.{exc}")
        if not (0.0 < self.eps_min < self.eps_max < 0.5):
            raise UsageError("sweep eps range must satisfy 0 < min < max < 0.5")
        if self.eps_count < 2:
            raise UsageError("sweep.count must be >= 2")
        if not self.q_list or any(not 1.0 <= q <= fem.DEFAULT_Q_MAX
                                  for q in self.q_list):
            raise UsageError(f"q.list entries must lie in [1, {fem.DEFAULT_Q_MAX}]")
        if self.workers < 0:
            raise UsageError("workers must be >= 0 (0 = all available cores)")
        return self


_CONFIG_KEYS = {
    "mesh.rings": ("rings", int),
    "mesh.rings_fine": ("rings_fine", int),
    "sweep.eps_min": ("eps_min", float),
    "sweep.eps_max": ("eps_max", float),
    "sweep.count": ("eps_count", int),
    "sweep.seed": ("seed", int),
    "q.list": ("q_list", lambda s: tuple(float(x) for x in s.split(","))),
    "workers": ("workers", int),
}


def load_config(path: str | None) -> RunConfig:
    if path is None:
        path = os.environ.get("FKLAB_CONFIG")
    cfg = RunConfig()
    if not path:
        return cfg
    updates = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected 'key = value'")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in _CONFIG_KEYS:
                    raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
                field, conv = _CONFIG_KEYS[key]
                try:
                    updates[field] = conv(value)
                except ValueError as exc:
                    raise UsageError(f"{path}:{lineno}: bad value for {key}: {exc}")
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    return replace(cfg, **updates)


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.16e}"


def _qlabel(q: float) -> str:
    return f"{q:g}"


def csv_header(q_list) -> str:
    cols = ["family", "param", "volume", "energy", "lambda"]
    cols += [f"lambda_q_{_qlabel(q)}" for q in q_list]
    cols += ["fraenkel", "alpha", "deficit_E"]
    cols += [f"deficit_FK_{_qlabel(q)}" for q in q_list]
    cols += ["ratio_E_A2"]
    cols += [f"kj_slack_{_qlabel(q)}" for q in q_list]
    cols += ["mesh_rings", "extrap_order"]
    return ",".join(cols)


def csv_row(r: stability.DeficitReport, q_list) -> str:
    vals = [r.family, _fmt(r.param), _fmt(r.volume), _fmt(r.energy),
            _fmt(r.eigenvalue)]
    vals += [_fmt(r.lambda_q.get(float(q), math.nan)) for q in q_list]
    vals += [_fmt(r.fraenkel), _fmt(r.alpha), _fmt(r.deficit_energy)]
    vals += [_fmt(r.deficit_fk.get(float(q), math.nan)) for q in q_list]
    vals += [_fmt(r.ratio_energy_asym_sq)]
    vals += [_fmt(r.kj_slack.get(float(q), math.nan)) for q in q_list]
    vals += [str(r.mesh_rings), _fmt(r.extrap_order)]
    return ",".join(vals)


def parse_domain_spec(spec: str) -> tuple[str, float, StarDomain]:
    """Parse ``ellipse:<eps>``, ``profile:<record>`` or ``file:<path>``.

    Profile and file domains are normalized (volume pi, barycenter at
    the origin) before any deficits are computed.
    """
    if ":" not in spec:
        raise UsageError(f"bad domain spec {spec!r}; expected kind:value")
    kind, _, value = spec.partition(":")
    if kind == "ellipse":
        try:
            eps = float(value)
        except ValueError:
            raise UsageError(f"bad ellipse parameter {value!r}")
        try:
            return "ellipse", eps, ellipse(eps)
        except ValueError as exc:
            raise UsageError(str(exc))
    if kind == "profile":
        try:
            profile = BoundaryProfile.from_record(value)
            dom = recenter_rescale(StarDomain((0.0, 0.0), profile))
        except (ValueError, NotStarShapedError) as exc:
            raise UsageError(f"bad profile record: {exc}")
        return "profile", 0.0, dom
    if kind == "file":
        try:
            with open(value) as fh:
                lines = [ln.strip() for ln in fh if ln.strip()]
            cx, cy = (float(t) for t in lines[0].split())
            profile = BoundaryProfile.from_record(lines[1])
            dom = recenter_rescale(StarDomain((cx, cy), profile))
        except (OSError, ValueError, IndexError, NotStarShapedError) as exc:
            raise UsageError(f"bad domain file {value!r}: {exc}")
        return "file", 0.0, dom
    raise UsageError(f"unknown domain spec kind {kind!r}")


def write_svg(path: str, xs, ys, xlabel: str, ylabel: str, title: str) -> None:
    """Self-contained log-log scatter plot with the data embedded."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = (xs > 0) & (ys > 0) & np.isfinite(xs) & np.isfinite(ys)
    xs, ys = np.log10(xs[keep]), np.log10(ys[keep])
    if len(xs) == 0:
        raise UsageError("no positive data points to plot")
    w, h, m = 640, 480, 60
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    x1 = x1 if x1 > x0 else x0 + 1.0
    y1 = y1 if y1 > y0 else y0 + 1.0

    def px(x):
        return m + (x - x0) / (x1 - x0) * (w - 2 * m)

    def py(y):
        return h - m - (y - y0) / (y1 - y0) * (h - 2 * m)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
             f'<title>{title}</title>',
             '<metadata>log10 data points: '
             + " ".join(f"({a:.6f},{b:.6f})" for a, b in zip(xs, ys))
             + '</metadata>',
             f'<rect width="{w}" height="{h}" fill="white"/>',
             f'<line x1="{m}" y1="{h-m}" x2="{w-m}" y2="{h-m}" stroke="black"/>',
             f'<line x1="{m}" y1="{m}" x2="{m}" y2="{h-m}" stroke="black"/>',
             f'<text x="{w/2}" y="{h-15}" text-anchor="middle">{xlabel} (log10)</text>',
             f'<text x="18" y="{h/2}" text-anchor="middle" '
             f'transform="rotate(-90 18 {h/2})">{ylabel} (log10)</text>',
             f'<text x="{w/2}" y="25" text-anchor="middle">{title}</text>']
    order = np.argsort(xs)
    pts = " ".join(f"{px(xs[i]):.1f},{py(ys[i]):.1f}" for i in order)
    parts.append(f'<polyline points="{pts}" fill="none" stroke="steelblue"/>')
    for a, b in zip(xs, ys):
        parts.append(f'<circle cx="{px(a):.1f}" cy="{py(b):.1f}" r="3.5" '
                     'fill="crimson"/>')
    for lab, x, y in ((f"{x0:.2f}", m, h - m + 18), (f"{x1:.2f}", w - m, h - m + 18)):
        parts.append(f'<text x="{x}" y="{y}" text-anchor="middle" '
                     f'font-size="11">{lab}</text>')
    for lab, y in ((f"{y0:.2f}", h - m), (f"{y1:.2f}", m)):
        parts.append(f'<text x="{m-6}" y="{y+4}" text-anchor="end" '
                     f'font-size="11">{lab}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


# -- subcommands ------------------------------------------------------------


def ball_reference(cfg: RunConfig) -> tuple[str, list[tuple]]:
    """Header line and unit-disk rows (name, exact, computed, err, tol);
    nan without a closed form."""
    level = stability.disk_data(cfg.rings)
    level.torsion()  # solved here, so its statistics exist where the energy was prepared
    header = (f"unit-disk reference at rings={cfg.rings} (h = {level.mesh.h:.4f}, "
              f"torsion residual = {level.torsion_stats.residual:.1e})")
    energy = level.energy()
    lam = level.eigenvalue()

    rows = []
    e_exact = asymmetry.ball_energy(2)
    rows.append(("energy E(B_1)", e_exact, energy, abs(energy / e_exact - 1.0), 5e-3))
    rows.append(("eigenvalue lambda(B_1)", DISK_EIGENVALUE, lam,
                 abs(lam / DISK_EIGENVALUE - 1.0), 1e-2))
    lam1 = level.lambda_q(1.0)
    rows.append(("lambda_{2,1}(B_1)", 8.0 / math.pi, lam1,
                 abs(lam1 * math.pi / 8.0 - 1.0), 5e-3))
    for q in cfg.q_list:
        if q in (1.0, 2.0):
            continue
        lq = level.lambda_q(q)
        rows.append((f"lambda_{{2,{_qlabel(q)}}}(B_1)", math.nan, lq, math.nan, math.nan))
    # quadrature cross-check of the weighted ball mass
    nodes, weights = np.polynomial.legendre.leggauss(64)
    r = 0.5 * (nodes + 1.0)
    beta_quad = 2.0 * math.pi * 0.5 * float(np.sum(weights * (1.0 - r) * r))
    rows.append(("beta_2", math.pi / 3.0, beta_quad,
                 abs(beta_quad - math.pi / 3.0), 1e-10))
    return header, rows


def cmd_ball_reference(cfg: RunConfig) -> int:
    header, rows = ball_reference(cfg)
    print(header)
    ok = True
    for name, exact, got, err, tol in rows:
        if math.isnan(err):
            print(f"  {name:26s} computed {_fmt(got)} (no closed form)")
            continue
        status = "ok" if err <= tol else "FAIL"
        ok &= err <= tol
        print(f"  {name:26s} exact {_fmt(exact)} computed {_fmt(got)} "
              f"err {err:.2e} tol {tol:.0e} {status}")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_deficit(cfg: RunConfig, specs, q_list) -> int:
    print(csv_header(q_list))
    # the disk hierarchy is released before the first member builds its own
    stability.prepare_disk_references((cfg.rings // 2, cfg.rings, cfg.rings_fine), q_list)
    for spec in specs:
        family, param, dom = parse_domain_spec(spec)
        report = stability.evaluate_member(spec, family, param, dom,
                                           q_list, cfg.rings, cfg.rings_fine)
        print(csv_row(report, q_list))
    return EXIT_OK


# random members per sweep family when --count is not given
_DEFAULT_RANDOM_COUNT = {"ellipse": 0, "random": 50,
                         "combined": stability.SweepSpec.random_count}


def cmd_sweep(cfg: RunConfig, family: str, count: int | None, out: str | None,
              plot: str | None) -> int:
    if family not in _DEFAULT_RANDOM_COUNT:
        raise UsageError(f"unknown sweep family {family!r}")
    if count is not None and family == "ellipse":
        raise UsageError("--count applies only to the random and combined families")
    if count is not None and count < 1:
        raise UsageError(f"--count must be >= 1, got {count}")
    eps_values = () if family == "random" else tuple(
        np.round(np.linspace(cfg.eps_min, cfg.eps_max, cfg.eps_count), 6))
    random_count = _DEFAULT_RANDOM_COUNT[family] if count is None else count
    spec = stability.SweepSpec(eps_values=eps_values, random_count=random_count,
                               seed=cfg.seed, q_list=cfg.q_list,
                               rings=cfg.rings, rings_fine=cfg.rings_fine)

    result = stability.sigma_scan(spec, workers=cfg.workers or None)

    lines = [csv_header(cfg.q_list)]
    lines += [csv_row(r, cfg.q_list) for r in result.reports]
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    print("# fitted constants", file=sys.stderr)
    print(f"#   ellipse log-log slope : {_fmt(result.slope)} "
          f"(fit residual {_fmt(result.slope_residual)})", file=sys.stderr)
    print(f"#   min D/A^2             : {_fmt(result.min_ratio_energy)}", file=sys.stderr)
    for q, v in sorted(result.min_ratio_fk.items()):
        print(f"#   min FK_{_qlabel(q):3s}/A^2        : {_fmt(v)}", file=sys.stderr)
    for q, v in sorted(result.kj_slack_min.items()):
        print(f"#   min KJ slack q={_qlabel(q):4s}: {_fmt(v)}", file=sys.stderr)

    if plot:
        if family == "ellipse":
            xs = [r.param for r in result.reports]
            xlabel = "eps"
        else:
            xs = [r.fraenkel for r in result.reports]
            xlabel = "Fraenkel asymmetry"
        ys = [r.deficit_energy for r in result.reports]
        write_svg(plot, xs, ys, xlabel, "energy deficit", f"{family} sweep")
    return EXIT_OK


def cmd_verify(cfg: RunConfig, suite: str) -> int:
    if suite not in verify.SUITES:
        raise UsageError(f"unknown suite {suite!r}; available: "
                         + ", ".join(sorted(verify.SUITES)))
    checks = verify.SUITES[suite](cfg)
    failed = 0
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        failed += 0 if ok else 1
        suffix = f" ({detail})" if detail else ""
        print(f"{status} {suite}: {name}{suffix}")
    print(f"{suite}: {len(checks) - failed}/{len(checks)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY


def cmd_flow_check(cfg: RunConfig, mode: int, amplitude: float,
                   record: str | None, t_values) -> int:
    if record is not None:
        profile = BoundaryProfile.from_record(record)
    else:
        profile = volume_corrected_profile(mode, amplitude)
    target_vol, rows, ok = verify.flow_area_check(profile, t_values)
    corrected = abs(target_vol - math.pi) <= 1e-12
    print(f"target volume {_fmt(target_vol)} "
          f"({'volume-corrected' if corrected else 'uncorrected'})")
    for t, (v, dev) in zip(t_values, rows):
        print(f"  t={t:5.2f}  |Omega_t| = {_fmt(v)}  deviation {dev:.2e}")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_mesh_dump(cfg: RunConfig, spec: str, rings: int | None,
                  field: str) -> int:
    _, _, dom = parse_domain_spec(spec)
    level = stability.Level(dom, cfg.rings if rings is None else rings)
    sys.stdout.write(level.mesh.dump())
    if field == "torsion":
        for i, v in enumerate(level.torsion().values):
            print(f"n {i} {float(v)!r}")
    elif field != "none":
        raise UsageError(f"unknown field {field!r}")
    return EXIT_OK


# -- argument parsing --------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="fklab", description=__doc__)
    parser.add_argument("--config", help="config file (else $FKLAB_CONFIG)")
    parser.add_argument("--rings", type=int, help="override mesh.rings")
    parser.add_argument("--rings-fine", type=int, help="override mesh.rings_fine")
    parser.add_argument("--workers", type=int, help="sweep worker count")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("ball-reference", help="closed-form vs FEM disk values")

    p = sub.add_parser("deficit", help="deficit CSV rows for given domains")
    p.add_argument("specs", nargs="+", metavar="SPEC",
                   help="ellipse:EPS | profile:RECORD | file:PATH")
    p.add_argument("--q", default=None, help="comma-separated exponents")

    p = sub.add_parser("sweep", help="family sweep with CSV output")
    p.add_argument("family", choices=["ellipse", "random", "combined"])
    p.add_argument("--eps", default=None, metavar="MIN:MAX:COUNT")
    p.add_argument("--count", type=int, default=None,
                   help="random member count (random and combined only)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--q", default=None, help="comma-separated exponents")
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.add_argument("--plot", default=None, help="write an SVG log-log plot")

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", help=", ".join(sorted(verify.SUITES)))

    p = sub.add_parser("flow-check", help="volume along the radial flow")
    p.add_argument("--k", type=int, default=2, help="cosine mode of the target")
    p.add_argument("--s", type=float, default=0.1, help="target amplitude")
    p.add_argument("--profile", default=None, help="explicit profile record")
    p.add_argument("--t", default="0,0.25,0.5,0.75,1",
                   help="comma-separated flow times")

    p = sub.add_parser("mesh-dump", help="text dump of a mesh (and field)")
    p.add_argument("spec", metavar="SPEC")
    p.add_argument("--mesh-rings", type=int, default=None, dest="mesh_rings")
    p.add_argument("--field", default="none", choices=["none", "torsion"])
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args.config)
        overrides = {}
        if args.rings is not None:
            overrides["rings"] = args.rings
        if args.rings_fine is not None:
            overrides["rings_fine"] = args.rings_fine
        if args.workers is not None:
            overrides["workers"] = args.workers
        if getattr(args, "eps", None) is not None:
            try:
                lo, hi, n = args.eps.split(":")
                overrides.update(eps_min=float(lo), eps_max=float(hi),
                                 eps_count=int(n))
            except ValueError:
                raise UsageError(f"bad --eps {args.eps!r}, expected MIN:MAX:COUNT")
        if getattr(args, "seed", None) is not None:
            overrides["seed"] = args.seed
        if getattr(args, "q", None) is not None:
            try:
                overrides["q_list"] = tuple(float(x) for x in args.q.split(","))
            except ValueError:
                raise UsageError(f"bad --q {args.q!r}")
        cfg = replace(cfg, **overrides).validate()

        if args.command == "ball-reference":
            return cmd_ball_reference(cfg)
        if args.command == "deficit":
            return cmd_deficit(cfg, args.specs, cfg.q_list)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.family, args.count, args.out, args.plot)
        if args.command == "verify":
            return cmd_verify(cfg, args.suite)
        if args.command == "flow-check":
            try:
                t_values = [float(t) for t in args.t.split(",")]
            except ValueError:
                raise UsageError(f"bad --t {args.t!r}")
            return cmd_flow_check(cfg, args.k, args.s, args.profile, t_values)
        if args.command == "mesh-dump":
            return cmd_mesh_dump(cfg, args.spec, args.mesh_rings, args.field)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"fklab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, NotStarShapedError) as exc:
        print(f"fklab: input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except fem.SolverError as exc:
        print(f"fklab: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
