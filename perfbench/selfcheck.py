"""Quick self-check of the benchmark itself.

Runs every workload of ``BENCHMARK.json`` untraced and traced at tiny
rings, with a zero time budget so only the mandatory operations run (one
sweep row, one parallel scan, or the four Taylor fits, one ellipse and
one Fuglede margin), and asserts that each run exits 0, checks its
outputs as correct, and emits every named metric with its unit as a
finite number.  Run from the repository root (under a minute):

    python3 perfbench/selfcheck.py
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RINGS = 16


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace),
         "--rings", str(RINGS)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            tag = f"{wl['name']} trace={trace}"
            out = run(wl["name"], trace)
            if set(out) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(out)}")
                continue
            if out["correct"] is not True or out["failed"] != 0 \
                    or out["attempted"] < 1:
                problems.append(f"{tag}: correct={out['correct']} "
                                f"attempted={out['attempted']} failed={out['failed']}")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = out["metrics"]
            if set(got) != set(want):
                problems.append(f"{tag}: metrics {sorted(set(got) ^ set(want))} "
                                "missing or unexpected")
            for name, unit in want.items():
                entry = got.get(name, {})
                value = entry.get("value")
                if entry.get("unit") != unit or not isinstance(value, (int, float)) \
                        or not math.isfinite(value):
                    problems.append(f"{tag}: {name} = {entry}")
            print(f"{tag}: {len(got)} metrics, attempted {out['attempted']}")
    for p in problems:
        print(f"SELFCHECK FAIL {p}")
    print("SELFCHECK OK" if not problems else f"SELFCHECK: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
