"""The traced benchmark run (`perfbench/run.py --trace 1`) reads `correct`
only when every workload's operations pass their checks and its per-layer
self-check finds no problem: each counter in `expect_nonzero` moves, each
in `expect_zero` stays 0, and counts agree between traced cycles.  This
runs two traced cycles of each workload through the harness's own code, so
a change to polspin that breaks those expectations fails here first."""

import importlib.util
import json
import os
import sys
from pathlib import Path
from unittest import mock

import polspin.cli
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def harness():
    """perfbench/run.py as a module, with perfbench/ on sys.path for its
    own imports; the BLAS thread variables it sets are restored after."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


def _workload_names():
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [w["name"] for w in spec["workloads"]]


@pytest.mark.parametrize("workload", _workload_names())
def test_traced_cycles_pass_self_check(harness, workload, tmp_path):
    names = [m["name"] for m in harness.load_spec()["per_layer"]]
    wl = harness.WORKLOADS[workload](polspin, 1, tmp_path)
    run = harness.Run(wl)
    tracer = harness.Tracer()
    with tracer.installed("polspin", harness.TRACE_TARGETS):
        run.loop(0.0, min_cycles=2, tracer=tracer)
    run.check()
    _, problems = harness.traced_layers(wl, tracer, 0, run.next_op, names)
    assert run.failed == {}
    assert problems == []
