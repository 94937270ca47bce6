"""Spans and call counts around the public functions of each fklab layer.

The wrappers live here, in the benchmark, and are installed on module and
class attributes for the duration of a traced phase; nothing inside
``src/`` is modified.  Spans are kept in memory (name, start, end, parent
span, member key, counts) and written as JSON lines when the run ends.
Sweep workers forked by ``stability.sigma_scan`` inherit the installed
wrappers and flush their spans to per-process files after every member,
which the parent collects after the scan.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from functools import cached_property, wraps
from pathlib import Path

# layer metric name -> span name that feeds it (self time, per domain)
SELF_TIME_METRICS = {
    "fem.mesh.s": "fem.mesh",
    "fem.assembly.s": "fem.assembly",
    "fem.factor.s": "fem.factor",
    "fem.torsion.s": "fem.torsion",
    "fem.eigen.s": "fem.eigen",
    "fem.descent.s": "fem.descent",
    "asymmetry.fraenkel.s": "asymmetry.fraenkel",
    "geometry.clip.s": "geometry.clip",
    "asymmetry.alpha.s": "asymmetry.alpha",
    "asymmetry.overlaps.s": "asymmetry.overlaps",
    "stability.member.self_s": "stability.member",
    "domain.s": "domain",
    "circle.s": "circle",
    "cli.render.s": "cli.render",
}
CALL_METRICS = {
    "fem.mesh.calls": "fem.mesh",
    "fem.factor.calls": "fem.factor",
    "fem.torsion.calls": "fem.torsion",
    "geometry.clip.calls": "geometry.clip",
}
# structural counts compared member by member across traced runs
COUNTED = ("fem.mesh", "fem.factor", "fem.torsion", "fem.eigen",
           "fem.descent", "fem.norm_eval", "geometry.clip")


class Recorder:
    """In-memory spans of one process."""

    def __init__(self, sink: Path):
        self.origin = os.getpid()
        self.pid = self.origin
        self.sink = sink
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.next_id = 0

    def _own(self) -> None:
        # a forked worker starts with a copy of the parent's spans: drop
        # them, but keep the open stack so member keys and parents carry over
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans = []

    def open(self, name: str, tag: str | None = None) -> dict:
        self._own()
        parent = self.stack[-1] if self.stack else None
        member = parent["member"] if parent else None
        if tag is not None:
            member = tag if member is None else f"{member}/{tag}"
        span = {"id": f"{self.pid}:{self.next_id}", "name": name,
                "parent": parent["id"] if parent else None, "member": member,
                "pid": self.pid, "start": time.perf_counter(), "end": None,
                "counts": {}}
        self.next_id += 1
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self.stack.pop()
        if self.pid != self.origin and span["name"] == "stability.member":
            self._flush_worker()

    def count(self, name: str) -> None:
        self._own()
        if self.stack:
            counts = self.stack[-1]["counts"]
            counts[name] = counts.get(name, 0) + 1

    def _flush_worker(self) -> None:
        done = [s for s in self.spans if s["end"] is not None]
        with open(self.sink / f"worker-{self.pid}.jsonl", "a") as fh:
            for s in done:
                fh.write(json.dumps(s) + "\n")
        self.spans = [s for s in self.spans if s["end"] is None]

    def collect_workers(self) -> None:
        """Move the spans flushed by sweep workers into this recorder."""
        for path in sorted(self.sink.glob("worker-*.jsonl")):
            with open(path) as fh:
                self.spans.extend(json.loads(line) for line in fh)
            path.unlink()

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _timed(rec: Recorder, name: str, fn, tag=None, extra=None):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.open(name, tag(args) if tag else None)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if extra is not None:
            span.update(extra(out))
        return out
    return wrapper


def _counted(rec: Recorder, name: str, fn):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        rec.count(name)
        return fn(*args, **kwargs)
    return wrapper


def _targets(rec: Recorder):
    """(owner, attribute, replacement) for every wrapped public function."""
    import scipy.sparse.linalg as spla

    from fklab import asymmetry, circle, cli, domain, fem, stability

    def lu_fill(lu):
        return {"fill_nnz": int(lu.L.nnz + lu.U.nnz)}

    def cg_iters(out):
        return {"iters": int(out[1].iterations)}

    out = [
        (fem, "polar_mesh", _timed(rec, "fem.mesh", fem.polar_mesh)),
        (spla, "splu", _timed(rec, "fem.factor", spla.splu, extra=lu_fill)),
        (fem, "solve_torsion",
         _timed(rec, "fem.torsion", fem.solve_torsion, extra=cg_iters)),
        (fem, "principal_eigenvalue",
         _timed(rec, "fem.eigen", fem.principal_eigenvalue)),
        (fem, "poincare_sobolev",
         _timed(rec, "fem.descent", fem.poincare_sobolev)),
        (fem, "lq_integral", _counted(rec, "fem.norm_eval", fem.lq_integral)),
        (asymmetry, "fraenkel",
         _timed(rec, "asymmetry.fraenkel", asymmetry.fraenkel)),
        (asymmetry, "triangles_disk_area",
         _timed(rec, "geometry.clip", asymmetry.triangles_disk_area)),
        (asymmetry, "alpha", _timed(rec, "asymmetry.alpha", asymmetry.alpha)),
        (asymmetry, "ball_overlaps",
         _timed(rec, "asymmetry.overlaps", asymmetry.ball_overlaps)),
        (stability, "prepare_disk_references",
         _timed(rec, "stability.disk_refs", stability.prepare_disk_references)),
        (stability, "evaluate_member",
         _timed(rec, "stability.member", stability.evaluate_member,
                tag=lambda args: str(args[0]))),
        (cli, "csv_row", _timed(rec, "cli.render", cli.csv_row)),
        (domain.StarDomain, "radius",
         _timed(rec, "domain", domain.StarDomain.radius)),
        (circle.BoundaryProfile, "values",
         _timed(rec, "circle", circle.BoundaryProfile.values)),
        (circle.BoundaryProfile, "grid_sup",
         _timed(rec, "circle", circle.BoundaryProfile.grid_sup)),
        (stability, "h_half_norm_sq",
         _timed(rec, "circle", stability.h_half_norm_sq)),
    ]
    # domain helpers as the calling layers imported them
    for mod, names in ((stability, ("volume", "ellipse", "volume_corrected",
                                    "volume_corrected_profile",
                                    "recenter_rescale")),
                       (asymmetry, ("volume", "barycenter",
                                    "profile_relative_to"))):
        out += [(mod, n, _timed(rec, "domain", getattr(mod, n))) for n in names]
    # first access of the assembled matrices (cached properties)
    for attr in ("stiffness", "mass"):
        prop = fem.TriMesh.__dict__[attr]
        new = cached_property(_timed(rec, "fem.assembly", prop.func))
        new.__set_name__(fem.TriMesh, attr)
        out.append((fem.TriMesh, attr, new))
    return out


@contextmanager
def installed(rec: Recorder):
    """Wrap every layer's public functions while the block runs."""
    targets = _targets(rec)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    for owner, attr, new in targets:
        setattr(owner, attr, new)
    try:
        yield rec
    finally:
        for owner, attr, old in saved:
            setattr(owner, attr, old)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the part covered by its child spans."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def member_counts(spans: list[dict], units) -> dict[str, dict[str, int]]:
    """Per member key: number of calls of each counted layer."""
    table = {u: dict.fromkeys(COUNTED, 0) for u in units}
    for s in spans:
        row = table.get(s["member"])
        if row is None:
            continue
        if s["name"] in row:
            row[s["name"]] += 1
        for name, n in s["counts"].items():
            row[name] += n
    return table


def layer_metrics(spans: list[dict], n_domains: int) -> dict[str, float]:
    """Per-domain self times and call counts of every traced layer."""
    inside = [s for s in spans if s["member"] is not None]
    own = self_times(spans)
    per = max(n_domains, 1)
    out = {}
    for metric, name in SELF_TIME_METRICS.items():
        out[metric] = sum(own[s["id"]] for s in inside if s["name"] == name) / per
    for metric, name in CALL_METRICS.items():
        out[metric] = sum(1 for s in inside if s["name"] == name) / per
    out["fem.descent.norm_evals"] = sum(
        s["counts"].get("fem.norm_eval", 0) for s in inside) / per
    out["fem.factor.fill_nnz"] = max(
        (s.get("fill_nnz", 0) for s in inside), default=0)
    out["fem.torsion.cg_iters"] = max(
        (s.get("iters", 0) for s in inside), default=0)
    out["stability.disk_refs.s"] = sum(
        s["end"] - s["start"] for s in spans
        if s["name"] == "stability.disk_refs" and s["member"] is None)
    return out
