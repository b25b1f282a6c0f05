"""Checks of the benchmark's own oracle and tracer:
python3 -m pytest -q perfbench"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracle  # noqa: E402
from tracing import SpanStats, Tracer  # noqa: E402


def choi_from_kraus(kraus):
    """polspin's convention: (1/2) sum_ij S(|i><j|) ⊗ |i><j|."""
    choi = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1.0
            choi += np.kron(sum(k @ e @ k.conj().T for k in kraus), e)
    return choi / 2


def process_fidelity(choi):
    omega = np.array([1, 0, 0, 1]) / math.sqrt(2)
    return float(np.real(omega @ choi @ omega) / np.real(np.trace(choi)))


AMPLITUDE_DAMPING = [np.array([[1, 0], [0, math.sqrt(0.7)]]),
                     np.array([[0, math.sqrt(0.3)], [0, 0]])]
ROTATION = [np.array([[math.cos(0.4), -1j * math.sin(0.4)],
                      [-1j * math.sin(0.4), math.cos(0.4)]])]


@pytest.mark.parametrize("kraus", [[np.eye(2)], AMPLITUDE_DAMPING, ROTATION])
def test_quadrature_matches_haar_average_identity(kraus):
    # trace-preserving maps: F_avg = (2 F_pro + 1) / 3
    choi = choi_from_kraus(kraus)
    expected = (2 * process_fidelity(choi) + 1) / 3
    assert oracle.haar_mean_fidelity(choi) == pytest.approx(expected, abs=1e-12)


def test_quadrature_matches_polspin_monte_carlo():
    from polspin.cli import config_from_dict
    from polspin.pipeline import monte_carlo_average_fidelity, process_tomography
    cfg = config_from_dict({"case": "degenerate", "seed": 5})
    mc = monte_carlo_average_fidelity(cfg, 20000)
    quad = oracle.haar_mean_fidelity(process_tomography(cfg).choi)
    assert quad == pytest.approx(2 / 3, abs=1e-9)
    assert abs(mc.mean_fidelity - quad) <= 5 * mc.stderr


def test_check_report_flags_a_shifted_mean():
    choi = choi_from_kraus(AMPLITUDE_DAMPING)
    rep = {"round_trip_fidelity": 0.9, "mean_fidelity": oracle.haar_mean_fidelity(choi),
           "stderr": 1e-4, "success_probability": 1.0, "leakage": 0.0,
           "hole_purity_mean": 1.0, "collection_fraction": 1.0,
           "process_fidelity": process_fidelity(choi),
           "entanglement_entropy_bits": 0.0, "cptp": True,
           "stages": [(0.9, 1.0)], "choi": choi}
    assert oracle.check_report(rep, degenerate=False, ideal=False) == []
    rep["mean_fidelity"] += 1e-3
    assert oracle.check_report(rep, degenerate=False, ideal=False)
    rep["mean_fidelity"] = 1.5
    assert any("not a probability" in p
               for p in oracle.check_report(rep, degenerate=False, ideal=False))


def test_tracer_rebinds_imported_names_and_restores_them():
    import polspin.pipeline
    import polspin.qstate
    original = polspin.qstate.is_cptp
    tracer = Tracer()
    with tracer.installed("polspin", {"qstate.is_cptp": {}}):
        assert polspin.pipeline.is_cptp is polspin.qstate.is_cptp is not original
        tracer.op = 0
        polspin.pipeline.is_cptp(np.eye(4) / 4, tol=1e-9)
    assert polspin.pipeline.is_cptp is original
    assert [s[3] for s in tracer.spans] == ["qstate.is_cptp"]


def test_self_time_subtracts_children():
    spans = [(1, 0, 0, "inner", 1.0, 3.0, None, None),
             (0, None, 0, "outer", 0.0, 10.0, None, None)]
    st = SpanStats(spans, ops=2)
    assert st.self_seconds("outer") == pytest.approx(4.0)
    assert st.seconds("outer") == pytest.approx(5.0)
    assert st.module_self_seconds("inner") == pytest.approx(1.0)
