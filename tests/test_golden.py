"""Byte-for-byte golden outputs of the CLI.

Each case runs `polspin.cli.main` on a fixed config and compares the file
it writes with `tests/golden/<case>.txt`.  A refactor that claims "CLI
output unchanged" proves it here.  After a deliberate output change,
regenerate the files with `PYTHONPATH=src python tests/test_golden.py`
and say why in the change log.
"""

import json
import sys
from pathlib import Path

import pytest

from polspin.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASE_A_CHAIN6 = {"case": "A", "compensate": True, "seed": 7, "mc_samples": 1000,
                 "chain": {"n_sites": 6, "storage_site": 5, "gate_error": 0.01}}
CASE_B_WINDOW = {"case": "B", "hadamard_time_ns": 0.17862, "seed": 3,
                 "mc_samples": 1000,
                 "window": {"bandwidth_ueV": 100.0, "lineshape": "gaussian"},
                 "chain": {"n_sites": 4, "storage_site": 3, "gate_error": 0.02}}
DEGENERATE = {"case": "degenerate", "seed": 11, "mc_samples": 1000}
GATE_ERROR_CHAIN = {"case": "A", "compensate": True, "seed": 5, "mc_samples": 500,
                    "chain": {"n_sites": 5, "storage_site": 4, "gate_error": 0.05}}

SWEEP = ["sweep", "--param", "chain.gate_error", "--from", "0", "--to", "0.05",
         "--steps", "4"]

CASES = {
    f"run_{name}_{fmt}": (doc, ["run", "--format", fmt])
    for name, doc in (("case_a_chain6", CASE_A_CHAIN6),
                      ("case_b_window", CASE_B_WINDOW),
                      ("degenerate", DEGENERATE))
    for fmt in ("text", "csv", "json-like")
}
CASES["tomography_chain5_text"] = (GATE_ERROR_CHAIN, ["tomography"])
CASES["tomography_chain5_json-like"] = (GATE_ERROR_CHAIN,
                                        ["tomography", "--format", "json-like"])
CASES["sweep_chain5_gate_error"] = (GATE_ERROR_CHAIN, SWEEP)


def run_case(name: str, workdir: Path) -> bytes:
    doc, args = CASES[name]
    cfg = workdir / f"{name}.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    out = workdir / f"{name}.out"
    assert main(["--config", str(cfg), "--out", str(out)] + args) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    assert run_case(name, tmp_path) == (GOLDEN / f"{name}.txt").read_bytes()


if __name__ == "__main__":
    import tempfile
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            (GOLDEN / f"{case}.txt").write_bytes(run_case(case, Path(tmp)))
            print("wrote", case, file=sys.stderr)
