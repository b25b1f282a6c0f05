"""The perfbench traced run wraps each "module.function" key of
TRACE_TARGETS in perfbench/run.py with a bare getattr, so a polspin name
that goes away breaks `run.py --trace 1`.  The keys are read with ast,
without importing the harness."""

import ast
import importlib
from pathlib import Path

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def trace_targets() -> list[str]:
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)]
                == ["TRACE_TARGETS"]):
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError(f"{RUN_PY} assigns no TRACE_TARGETS")


def test_trace_targets_resolve_in_polspin():
    names = trace_targets()
    assert names
    missing = []
    for name in names:
        module, func = name.rsplit(".", 1)
        if not callable(getattr(importlib.import_module(f"polspin.{module}"),
                                func, None)):
            missing.append(name)
    assert missing == []
