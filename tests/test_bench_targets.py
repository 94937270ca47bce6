"""Guard for the trace targets of ``perfbench``: ``perfbench/spans.py``
wraps fklab's public functions by attribute name, so every name it wraps
must exist, must still be the call that does its layer's work, and must
be restored when the traced block ends."""

import importlib.util
from pathlib import Path

from fklab import stability
from fklab.domain import ellipse

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_exist_and_are_restored(tmp_path):
    spans = load_spans()
    rec = spans.Recorder(tmp_path)
    targets = spans._targets(rec)
    assert targets
    assert [f"{o.__name__}.{a}" for o, a, _ in targets if a not in vars(o)] == []
    before = [(o, a, vars(o)[a]) for o, a, _ in targets]
    with spans.installed(rec):
        assert [f"{o.__name__}.{a}" for o, a, old in before if vars(o)[a] is old] == []
    assert [f"{o.__name__}.{a}" for o, a, old in before if vars(o)[a] is not old] == []


def test_traced_member_counts_mesh_assembly_and_norm_evaluations(tmp_path):
    # a layer whose work moved out of the wrapped call would read 0
    spans = load_spans()
    rec = spans.Recorder(tmp_path)
    with spans.installed(rec):
        stability.evaluate_member("e", "ellipse", 0.1, ellipse(0.1), rings=8,
                                  rings_fine=16)
    inside = [s for s in rec.spans if s["member"] == "e"]
    calls = {name: sum(s["name"] == name for s in inside)
             for name in ("fem.mesh", "fem.assembly")}
    calls["fem.norm_eval"] = sum(s["counts"].get("fem.norm_eval", 0) for s in inside)
    assert all(calls.values()), calls


def test_traced_member_factors_only_its_chain_bottom(tmp_path):
    # every solve of a member is preconditioned by the V-cycle over its own
    # level chain, so the member's one factorization is its rings-4 level's,
    # a dense inverse; a sparse factorization that came back would show
    # here as a fem.factor span, and a solve that moved out of its solver
    # call as a missing span
    spans = load_spans()
    rec = spans.Recorder(tmp_path)
    stability.prepare_disk_references((4, 8, 16), (1.5, 2.0, 3.0))
    with spans.installed(rec):
        stability.evaluate_member("e", "ellipse", 0.1, ellipse(0.1), rings=8,
                                  rings_fine=16)
    inside = [s for s in rec.spans if s["member"] == "e"]
    assert [s for s in inside if s["name"] == "fem.factor"] == []
    solves = {name: [s for s in inside if s["name"] == name]
              for name in ("fem.torsion", "fem.eigen", "fem.descent")}
    assert {name: len(v) for name, v in solves.items()} == {
        "fem.torsion": 3, "fem.eigen": 0, "fem.descent": 9}  # rings 4, 8, 16, and
    # q = 2 is one of the descents
    assert all(s["iters"] > 1 for s in solves["fem.torsion"][1:])
