"""Every demo script runs to completion against the package in src/, with
runtime warnings raised as errors as in the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def run_demo(demo: Path) -> subprocess.CompletedProcess:
    """Run one demo; stdout and stderr come back as bytes."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                          cwd=ROOT, env=env, capture_output=True, timeout=120)


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr.decode()
