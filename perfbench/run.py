#!/usr/bin/env python3
"""fklab benchmark: deficit sweeps (serial and parallel) and torsion-only
gap fits, run against the public API at production settings.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_serial --seed 7 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
runs the workload untraced for half the time, then replays the same
operations with every layer wrapped (``spans.py``) and reports per-layer
counts and self times, plus the tracing overhead between the two halves.
Every output is checked (``checks.py``); a raised error or a failed check
counts as a failed operation.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the
environment record and the spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy loads; probes and workers inherit it

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

WORKLOADS = ("sweep_serial", "sweep_parallel", "gap_fits")
Q_LIST = (1.5, 2.0, 3.0)
SETUP_PROBES = 3
# one ellipse in every six rows, close to the 8 + 52 mix of the combined sweep
ROWS_PER_ELLIPSE = 6
SERIAL_RANDOMS = 40
FUGLEDE_PER_ELLIPSE = 6
FUGLEDE_PROFILES = 120
TAYLOR_S = (0.03, 0.05, 0.07, 0.09)
BALL_E_REL, BALL_LAMBDA_REL = 5e-3, 1e-2  # acceptance criterion 1
LAMBDA_DISK = 5.78319


class Op:
    """One timed call: ``fn`` does the work, ``check`` judges its output
    and ``ellipse_errs`` lists its ellipse deficits' closed-form errors.
    Ops with ``latency`` set are the samples of ``domain_p50_s``."""

    def __init__(self, key, kind, domains, fn, check, ellipse_errs=None,
                 latency=True):
        self.key, self.kind, self.domains = key, kind, domains
        self.fn, self.check = fn, check
        self.ellipse_errs = ellipse_errs or (lambda out: [])
        self.latency = latency


def row_ellipse_errs(out):
    from checks import ellipse_rel_err
    return [ellipse_rel_err(r.param, r.deficit_energy)
            for r in out[0] if r.family == "ellipse"]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# -- workloads ---------------------------------------------------------------


def sweep_serial_ops(seed, rings):
    import numpy as np

    import checks
    from fklab import cli, stability
    spec = stability.SweepSpec(seed=seed, random_count=SERIAL_RANDOMS,
                               q_list=Q_LIST, rings=rings, rings_fine=2 * rings)
    family = stability.build_family(spec)
    ellipses = [m for m in family if m[1] == "ellipse"]
    ellipses = [ellipses[i] for i in np.random.default_rng(seed).permutation(len(ellipses))]
    members = []
    for i, m in enumerate(m for m in family if m[1] == "random"):
        if i % (ROWS_PER_ELLIPSE - 1) == 0 and ellipses:
            members.append(ellipses.pop())
        members.append(m)
    checker = checks.RowChecker(stability, rings, 2 * rings, Q_LIST)
    header = cli.csv_header(Q_LIST)

    def op(i, member):
        def fn():
            r = stability.evaluate_member(*member, Q_LIST, rings, 2 * rings)
            return [r], [cli.csv_row(r, Q_LIST)]
        return Op(f"row-{i}", member[1], 1, fn,
                  lambda out: sum((checker.check(r, line, header)
                                   for r, line in zip(*out)), []),
                  row_ellipse_errs)
    return [op(i, m) for i, m in enumerate(members)], 1


def sweep_parallel_ops(seed, rings):
    import numpy as np

    import checks
    from fklab import cli, stability
    workers = nproc()
    size = 2 * workers  # one ellipse and 2*workers - 1 near-spheres per scan
    eps = list(stability.SweepSpec().eps_values)
    order = np.random.default_rng(seed).permutation(len(eps))
    checker = checks.RowChecker(stability, rings, 2 * rings, Q_LIST)
    header = cli.csv_header(Q_LIST)

    def check(out):
        reports, lines = out
        bad = [] if len(reports) == size else [f"scan returned {len(reports)} rows"]
        return bad + sum((checker.check(r, line, header)
                          for r, line in zip(reports, lines)), [])

    def op(i):
        scan_seed = int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
        spec = stability.SweepSpec(eps_values=(float(eps[order[i % len(eps)]]),),
                                   random_count=size - 1, seed=scan_seed,
                                   q_list=Q_LIST, rings=rings, rings_fine=2 * rings)

        def fn():
            result = stability.sigma_scan(spec, workers=workers)
            return result.reports, [cli.csv_row(r, Q_LIST) for r in result.reports]
        return Op(f"scan-{i}", "scan", size, fn, check, row_ellipse_errs)
    return [op(i) for i in range(64)], workers


def gap_fits_ops(seed, rings):
    import numpy as np

    import checks
    from fklab import stability
    from fklab.domain import ellipse
    fine = 2 * rings
    ops = []
    for k in (1, 2, 3, 4):
        ops.append(Op(f"taylor-{k}", "taylor", len(TAYLOR_S),
                      lambda k=k: stability.taylor_validation(k, TAYLOR_S, rings, fine),
                      lambda fit, k=k: checks.check_taylor(
                          k, fit, stability.hessian_target(k)), latency=False))
    eps = list(stability.SweepSpec().eps_values)
    eps = [float(eps[i]) for i in np.random.default_rng(seed).permutation(len(eps))]
    profiles = []
    for ss in np.random.SeedSequence(seed).spawn(FUGLEDE_PROFILES):
        rng = np.random.default_rng(ss)
        profiles.append(stability.random_near_sphere_profile(
            rng, rng.uniform(0.015, 0.047)))
    for i, p in enumerate(profiles):
        if i % FUGLEDE_PER_ELLIPSE == 0:
            e = eps[(i // FUGLEDE_PER_ELLIPSE) % len(eps)]
            ops.append(Op(f"ellipse-{i // FUGLEDE_PER_ELLIPSE}", "ellipse", 1,
                          lambda e=e: (e, stability.energy_deficit(ellipse(e), rings, fine)),
                          lambda out: checks.check_ellipse(*out),
                          lambda out: [checks.ellipse_rel_err(*out)], latency=False))
        bad = [] if p.grid_sup() <= 0.05 else [f"fuglede-{i}: sup norm above 0.05"]
        ops.append(Op(f"fuglede-{i}", "fuglede", 1,
                      lambda p=p: stability.fuglede_margin(p, rings, fine),
                      lambda m, bad=bad: bad + checks.check_fuglede(m)))
    return ops, 0


WORKLOAD_OPS = {"sweep_serial": sweep_serial_ops,
            "sweep_parallel": sweep_parallel_ops,
            "gap_fits": gap_fits_ops}
# enough to emit every metric: a row, a scan, or the four Taylor fits, an
# ellipse and a Fuglede margin
MANDATORY = {"sweep_serial": 1, "sweep_parallel": 1, "gap_fits": 6}


# -- measurement -------------------------------------------------------------


def run_ops(ops, seconds, mandatory, rec=None):
    """Closed loop with one caller: start the next operation while the
    time budget lasts (the first ``mandatory`` always run).  Returns one
    record per operation; checks run outside the timed region."""
    done = []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if i >= mandatory and time.perf_counter() - start >= seconds:
            break
        span = rec.open("bench.op", op.key) if rec else None
        t0 = time.perf_counter()
        try:
            out, failures = op.fn(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, failures = None, [f"{op.key}: {type(exc).__name__}: {exc}"]
        wall = time.perf_counter() - t0
        if span:
            rec.close(span)
            rec.collect_workers()
        if failures is None:
            failures = op.check(out)
        done.append({"op": op, "wall": wall, "out": out, "failures": failures})
    return done


def probe_setup(levels, q_list):
    """Seconds from launching a fresh process to its prepared references."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"),
                             json.dumps(list(levels)), json.dumps(list(q_list))],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.close()
    if proc.wait(timeout=120) != 0 or not line:
        return None, ["setup probe failed"]
    ref = json.loads(line)
    bad = []
    if abs(ref["energy"] / (-math.pi / 16) - 1.0) > BALL_E_REL:
        bad.append(f"disk energy {ref['energy']!r} off the closed form")
    if abs(ref["eigenvalue"] / LAMBDA_DISK - 1.0) > BALL_LAMBDA_REL:
        bad.append(f"disk eigenvalue {ref['eigenvalue']!r} off the reference")
    return elapsed, bad


def end_to_end(workload, records, setup_times):
    walls = sum(r["wall"] for r in records)
    domains = sum(r["op"].domains for r in records)
    per_domain = [r["wall"] / r["op"].domains for r in records if r["op"].latency]
    errs = [e for r in records if r["out"] is not None
            for e in r["op"].ellipse_errs(r["out"])]
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "setup_s": (statistics.median(setup_times) if setup_times else math.nan, "s"),
        "domains_per_s": (domains / walls, "1/s"),
        "domain_p50_s": (statistics.median(per_domain), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "ellipse_deficit_rel_err": (max(errs) if errs else math.nan, "ratio"),
    }
    extra = {"samples": len(per_domain), "domains": domains}
    if workload == "gap_fits":
        from fklab import stability
        fits = {r["op"].key: r["out"] for r in records
                if r["op"].kind == "taylor" and not r["failures"]}
        herr = [abs(fits[f"taylor-{k}"] / stability.hessian_target(k) - 1.0)
                for k in (2, 3, 4) if f"taylor-{k}" in fits]
        extra["gaps_per_s"] = (domains / walls, "1/s")
        extra["hessian_rel_err"] = (max(herr) if herr else math.nan, "ratio")
    return metrics, extra


def per_layer(replay, spans_rec, wall_a, wall_b, workers, n_domains):
    from spans import layer_metrics
    metrics = {k: (v, _layer_unit(k)) for k, v in
               layer_metrics(spans_rec.spans, n_domains).items()}
    busy = 0.0
    if workers:
        member_s = sum(s["end"] - s["start"] for s in spans_rec.spans
                       if s["name"] == "stability.member")
        busy = member_s / (workers * sum(r["wall"] for r in replay))
    metrics["stability.pool.busy_frac"] = (busy, "ratio")
    metrics["trace.overhead_frac"] = (wall_b / wall_a - 1.0, "ratio")
    return metrics


def _layer_unit(name):
    if name.endswith(".s") or name.endswith("self_s"):
        return "s"
    return "count"


def count_units(workload, spans_rec, replay):
    if workload == "gap_fits":
        return [r["op"].key for r in replay]
    return [s["member"] for s in spans_rec.spans if s["name"] == "stability.member"]


def compare_counts(path, table):
    """Per-member counts must repeat exactly across traced runs of the same
    code, seed and workload; the first run records them."""
    if not path.exists():
        path.write_text(json.dumps(table, sort_keys=True))
        return "recorded", []
    before = json.loads(path.read_text())
    common = sorted(set(before) & set(table))
    bad = [f"counts of {k} differ from an earlier traced run: "
           f"{before[k]} != {table[k]}" for k in common if before[k] != table[k]]
    return f"compared {len(common)} members", bad


# -- environment ---------------------------------------------------------------


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "fklab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(workers):
    import multiprocessing

    import numpy
    import scipy

    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, ValueError):  # informational only
            return "unknown"
    return {
        "nproc": nproc(), "workers": workers,
        "start_method": multiprocessing.get_start_method(),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(), "src_sha256_16": src_digest(),
    }


# -- main --------------------------------------------------------------------


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rings", type=int, default=64,
                    help="coarse Richardson level (fine = 2x, order level = x/2);"
                         " the benchmark runs at 64, the self-check smaller")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fklab" / "__init__.py").is_file():
        print(f"fklab sources not found under {SRC}", file=sys.stderr)
        return 2
    from fklab import stability

    rings = args.rings
    sweep = args.workload.startswith("sweep")
    levels = (rings // 2, rings, 2 * rings) if sweep else (rings, 2 * rings)
    q_list = Q_LIST if sweep else ()
    OUT.mkdir(exist_ok=True)
    attempts = []  # failure messages of every attempted operation

    setup_times = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            elapsed, bad = probe_setup(levels, q_list)
            attempts.append(bad)
            if elapsed is not None:
                setup_times.append(elapsed)

    from spans import Recorder, installed, member_counts
    sink = OUT / f"tmp-{os.getpid()}"
    rec = Recorder(sink)
    if args.trace:
        sink.mkdir(exist_ok=True)
        with installed(rec):
            stability.prepare_disk_references(levels, q_list)
    else:
        stability.prepare_disk_references(levels, q_list)

    ops, workers = WORKLOAD_OPS[args.workload](args.seed, rings)
    mandatory = MANDATORY[args.workload]
    report = {}
    if args.trace:
        first = run_ops(ops, args.seconds / 2, mandatory)
        replay_ops = [r["op"] for r in first]
        with installed(rec):
            replay = run_ops(replay_ops, math.inf, len(replay_ops), rec)
        records = first + replay
        wall_a = sum(r["wall"] for r in first)
        wall_b = sum(r["wall"] for r in replay)
        n_domains = sum(r["op"].domains for r in replay)
        metrics = per_layer(replay, rec, wall_a, wall_b, workers, n_domains)
        units = count_units(args.workload, rec, replay)
        table = member_counts(rec.spans, units)
        key = f"{args.workload}-seed{args.seed}-rings{rings}-{src_digest()}"
        status, bad = compare_counts(OUT / f"counts-{key}.json", table)
        attempts.append(bad)
        report["counts_repeat"] = status
        report["counts_per_member"] = _distinct_rows(table)
        rec.write(OUT / f"spans-{args.workload}-seed{args.seed}-rings{rings}.jsonl")
        shutil.rmtree(sink, ignore_errors=True)
    else:
        records = run_ops(ops, args.seconds, mandatory)
        metrics, extra = end_to_end(args.workload, records, setup_times)
        report.update(extra)

    attempts += [r["failures"] for r in records]
    attempted, failed = len(attempts), sum(1 for a in attempts if a)
    failed_frac = failed / attempted
    for msg in (m for a in attempts for m in a):
        print(f"FAILED: {msg}", file=sys.stderr)

    env = environment(workers)
    report.update({"failed_frac": failed_frac, "ops": len(records)})
    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "rings": rings,
              "environment": env, "report": _plain(report),
              "metrics": _plain(metrics),
              "op_walls_s": [[r["op"].key, r["wall"]] for r in records]}
    (OUT / f"result-{args.workload}-seed{args.seed}-rings{rings}-trace{args.trace}.json"
     ).write_text(json.dumps(result, indent=1))

    print(f"# environment {json.dumps(env)}")
    for name, val in sorted({**metrics, **{k: v for k, v in report.items()
                                           if isinstance(v, tuple)}}.items()):
        print(f"# {args.workload} {name} = {val[0]!r} {val[1]}")
    for name, val in report.items():
        if not isinstance(val, tuple):
            print(f"# {args.workload} {name}: {json.dumps(val)}")
    ok = failed == 0 and all(math.isfinite(v[0]) for v in metrics.values())
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": _num(v[0]), "unit": v[1]}
                                  for k, v in metrics.items()}}))
    return 0


def _num(x):
    return x if math.isfinite(x) else None


def _plain(d):
    return {k: ({"value": _num(v[0]), "unit": v[1]} if isinstance(v, tuple) else v)
            for k, v in d.items()}


def _distinct_rows(table):
    rows = {}
    for counts in table.values():
        key = json.dumps(counts, sort_keys=True)
        rows[key] = rows.get(key, 0) + 1
    return [{"members": n, "counts": json.loads(k)} for k, n in rows.items()]


if __name__ == "__main__":
    sys.exit(main())
