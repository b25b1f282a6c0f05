"""Byte-for-byte golden outputs of the CLI and of the demos.

Each CLI case runs `polspin.cli.main` on a fixed config (none for
`check-dot`) and compares the file it writes with
`tests/golden/<case>.txt`; each demo case compares a
demo's stdout with `tests/golden/demo_<demo>.txt`.  A refactor that claims
"output unchanged" proves it here.  After a deliberate output change,
regenerate the files with `PYTHONPATH=src python tests/test_golden.py`
and say why in the change log.
"""

import json
import sys
from pathlib import Path

import pytest

from polspin.cli import main
from test_demos import DEMOS, run_demo

GOLDEN = Path(__file__).resolve().parent / "golden"

CASE_A_CHAIN6 = {"case": "A", "compensate": True, "seed": 7, "mc_samples": 1000,
                 "chain": {"n_sites": 6, "storage_site": 5, "gate_error": 0.01}}
CASE_B_WINDOW = {"case": "B", "hadamard_time_ns": 0.17862, "seed": 3,
                 "mc_samples": 1000,
                 "window": {"bandwidth_ueV": 100.0, "lineshape": "gaussian"},
                 "chain": {"n_sites": 4, "storage_site": 3, "gate_error": 0.02}}
DEGENERATE = {"case": "degenerate", "seed": 11, "mc_samples": 1000}
# uncompensated case A behind a window that reaches the second valence
# level: success depends on the input, so the Monte Carlo figures are summed
# per sample, and the reference input's hole has two absorption branches
CASE_A_TILTED = {"case": "A", "compensate": False,
                 "window": {"bandwidth_ueV": 800.0}, "seed": 9,
                 "mc_samples": 2000}
GATE_ERROR_CHAIN = {"case": "A", "compensate": True, "seed": 5, "mc_samples": 500,
                    "chain": {"n_sites": 5, "storage_site": 4, "gate_error": 0.05}}

CASE_A_WINDOW = {"case": "A", "compensate": True, "seed": 12345, "mc_samples": 2000,
                 "window": {"bandwidth_ueV": 20.0, "lineshape": "gaussian"},
                 "chain": {"n_sites": 2, "storage_site": 1, "gate_error": 0.0}}
# an off-centre window narrower than the conduction splitting: the window
# weights the conduction energy eigenstates, not the mS spins
CASE_B_OFFCENTRE = {"case": "B", "window": {"bandwidth_ueV": 23.0,
                                            "center_offset_ueV": 10.0}}

SWEEP = ["sweep", "--param", "chain.gate_error", "--from", "0", "--to", "0.05",
         "--steps", "4"]
TRANSPORT_SWEEP = ["sweep", "--param", "noise.transport_time_ns", "--from", "0",
                   "--to", "50", "--steps", "6"]
# tomography's verdict mode reads this file from the run's directory: a
# Hermitian, positive semidefinite Choi matrix whose coherence is damped and
# phase-rotated, written as rows of [re, im] pairs
CHOI_FILE = "choi.json"
DAMPED_CHOI = [[[0.5, 0], [0, 0], [0, 0], [0.3, -0.2]],
               [[0, 0], [0, 0], [0, 0], [0, 0]],
               [[0, 0], [0, 0], [0, 0], [0, 0]],
               [[0.3, 0.2], [0, 0], [0, 0], [0.5, 0]]]
CHECK_DOT_PASS = ["check-dot", "--capacitance", "1e-17", "--resistance", "26000",
                  "--confinement", "2000", "--temperature", "4.0"]
BANDWIDTH_SWEEP = ["sweep", "--param", "window.bandwidth_ueV", "--from", "50",
                   "--to", "2000", "--steps", "5"]

CASES = {
    f"run_{name}_{fmt}": (doc, ["run", "--format", fmt])
    for name, doc in (("case_a_chain6", CASE_A_CHAIN6),
                      ("case_b_window", CASE_B_WINDOW),
                      ("degenerate", DEGENERATE))
    for fmt in ("text", "csv", "json-like")
}
CASES.update({f"run_case_a_tilted_{fmt}": (CASE_A_TILTED, ["run", "--format", fmt])
              for fmt in ("text", "json-like")})
CASES.update({
    f"levels_{name}_{fmt}": (doc, ["levels", "--format", fmt])
    for name, doc in (("case_a_window", {"case": "A",
                                         "window": {"bandwidth_ueV": 100.0}}),
                      ("case_b_window", CASE_B_WINDOW),
                      ("degenerate", DEGENERATE))
    for fmt in ("text", "csv", "json-like")
})
CASES["tomography_chain5_text"] = (GATE_ERROR_CHAIN, ["tomography"])
CASES["tomography_chain5_json-like"] = (GATE_ERROR_CHAIN,
                                        ["tomography", "--format", "json-like"])
CASES["tomography_case_b_offcentre_text"] = (CASE_B_OFFCENTRE, ["tomography"])
CASES["tomography_choi_file_text"] = (DEGENERATE,
                                      ["tomography", "--choi", CHOI_FILE])
CASES["tomography_choi_file_json-like"] = (
    DEGENERATE, ["tomography", "--choi", CHOI_FILE, "--format", "json-like"])
CASES["sweep_chain5_gate_error"] = (GATE_ERROR_CHAIN, SWEEP)
CASES["sweep_chain5_gate_error_json-like"] = (
    GATE_ERROR_CHAIN, SWEEP + ["--format", "json-like"])
CASES["sweep_case_b_window_transport_time"] = (CASE_B_WINDOW, TRANSPORT_SWEEP)
CASES["sweep_case_a_bandwidth"] = (CASE_A_WINDOW, BANDWIDTH_SWEEP)
CASES["check_dot_pass"] = (None, CHECK_DOT_PASS)

DEMO_CASES = {f"demo_{demo.stem}": demo for demo in DEMOS}


def run_case(name: str, workdir: Path) -> bytes:
    doc, args = CASES[name]
    out = workdir / f"{name}.out"
    flags = ["--out", str(out)]
    if doc is not None:
        cfg = workdir / f"{name}.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        flags += ["--config", str(cfg)]
    if CHOI_FILE in args:
        choi = workdir / CHOI_FILE
        choi.write_text(json.dumps(DAMPED_CHOI), encoding="utf-8")
        args = [str(choi) if a == CHOI_FILE else a for a in args]
    assert main(flags + args) == 0
    return out.read_bytes()


def demo_stdout(name: str) -> bytes:
    proc = run_demo(DEMO_CASES[name])
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    assert run_case(name, tmp_path) == (GOLDEN / f"{name}.txt").read_bytes()


@pytest.mark.parametrize("name", sorted(DEMO_CASES))
def test_demo_stdout_matches_golden(name):
    assert demo_stdout(name) == (GOLDEN / f"{name}.txt").read_bytes()


if __name__ == "__main__":
    import tempfile
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            (GOLDEN / f"{case}.txt").write_bytes(run_case(case, Path(tmp)))
            print("wrote", case, file=sys.stderr)
    for case in sorted(DEMO_CASES):
        (GOLDEN / f"{case}.txt").write_bytes(demo_stdout(case))
        print("wrote", case, file=sys.stderr)
