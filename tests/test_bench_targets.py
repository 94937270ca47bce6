"""Guard for the trace targets of ``perfbench``: ``perfbench/spans.py``
wraps fklab's public functions by attribute name, so every name it wraps
must exist and must be restored when the traced block ends."""

import importlib.util
from pathlib import Path

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
