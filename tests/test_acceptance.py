"""Acceptance suite: one check per release criterion, each printing a
PASS/FAIL line.  Runnable under pytest or directly:

    python3 tests/test_acceptance.py
"""

import json
import math
import sys

import numpy as np
import pytest
from sympy import Rational
from sympy.physics.quantum.cg import CG

import polspin.qstate as qs
from polspin.angular import clebsch_gordan
from polspin.bands import (CASE_A, CASE_B, FieldConfig, INAS_GAAS_QW,
                           SpectralWindow, build_level_scheme,
                           precession_period, resolvability_check,
                           zeeman_splitting)
from polspin.constants import HBAR_UEV_NS, H_OVER_E2_OHM, MU_B_UEV_PER_T
from polspin.noise import NoiseModel, coherence_factor, dephasing_kraus
from polspin.pipeline import (ChainParams, DotConstraints, ScenarioConfig,
                              dot_constraint_check, haar_qubits,
                              monte_carlo_average_fidelity,
                              process_tomography, run_detection)
from polspin.qstate import density_from_pauli, is_cptp, ptm_from_kraus
from polspin.transfer import (PhotonQubit, absorb_case_a, absorb_case_b,
                              absorb_degenerate, absorption_branches,
                              dipole_matrix_element, ls_table)

SQ2 = 1.0 / math.sqrt(2.0)

SCHEME_A = build_level_scheme(CASE_A, INAS_GAAS_QW, FieldConfig(1.0))
SCHEME_B = build_level_scheme(CASE_B, INAS_GAAS_QW, FieldConfig(1.0))



def _haar(n, seed):
    return haar_qubits(seed, n)


def criterion_01_cg_expansion():
    """The LS table the stages read, C[mJ, mL, mS], against sympy's CG, its
    |3/2, +1/2> row, and exhaustive CG orthonormality."""
    table = ls_table()
    half = lambda x: Rational(int(2 * x), 2)
    for a, mj in enumerate((-1.5, -0.5, 0.5, 1.5)):
        for b, ml in enumerate((-1, 0, 1)):
            for c, ms in enumerate((-0.5, 0.5)):
                ref = float(CG(1, ml, half(0.5), half(ms), half(1.5), half(mj)).doit())
                assert abs(table[a, b, c] - ref) < 1e-13
    assert abs(table[2, 1, 1] - math.sqrt(2 / 3)) < 1e-12   # |0, +1/2>
    assert abs(table[2, 2, 0] - math.sqrt(1 / 3)) < 1e-12   # |+1, -1/2>
    js = [(0.5, m / 2) for m in (-1, 1)] + [(1.5, m / 2) for m in (-3, -1, 1, 3)]
    for ja, ma in js:
        for jb, mb in js:
            acc = sum(clebsch_gordan(1, ml, 0.5, ms, ja, ma)
                      * clebsch_gordan(1, ml, 0.5, ms, jb, mb)
                      for ml in (-1, 0, 1) for ms in (-0.5, 0.5))
            want = 1.0 if (ja, ma) == (jb, mb) else 0.0
            assert abs(acc - want) < 1e-12


def criterion_02_degenerate_entanglement():
    """Electron-hole entropy equals the binary entropy of (|a|², |b|²)."""
    for q in _haar(1000, 2002):
        out = absorb_degenerate(PhotonQubit(q[0], q[1]))
        p = abs(q[0]) ** 2
        want = -sum(w * math.log2(w) for w in (p, 1 - p) if w > 1e-15)
        got = qs.entanglement_entropy(out.amplitudes)
        assert abs(got - want) < 1e-10
    out = absorb_degenerate(PhotonQubit(SQ2, SQ2))
    assert abs(qs.entanglement_entropy(out.amplitudes) - 1.0) < 1e-10


def criterion_03_disentanglement():
    """Hole purity 1 for 1000 random inputs, case A (compensated,
    infinite-resolution) and case B."""
    for q in _haar(1000, 2003):
        out = absorb_case_a(PhotonQubit(q[0], q[1]), SCHEME_A,
                            compensate=True)
        assert abs(qs.purity(out.hole_state()) - 1.0) < 1e-10
        out = absorb_case_b(PhotonQubit(q[0], q[1]), SCHEME_B)
        assert abs(qs.purity(out.hole_state()) - 1.0) < 1e-10


def criterion_04_sqrt2_imbalance():
    """Uncompensated dipole ratio sqrt(2) out of the topmost level, the
    entries of the uncompensated case-A absorption branch; equal-input
    fidelity 0.971405 against a brute-force state oracle."""
    top = SCHEME_A.light_hole_levels[-1].state
    up = dipole_matrix_element(top, +0.5, "z")
    dn = dipole_matrix_element(top, -0.5, "x")
    assert abs(up / dn - math.sqrt(2.0)) < 1e-12
    [branch] = absorption_branches(SCHEME_A)
    assert (up, dn) == (branch.kraus[1, 0], branch.kraus[0, 1])
    out = absorb_case_a(PhotonQubit(SQ2, SQ2), SCHEME_A,
                        compensate=False)
    v = out.amplitudes[:, 0]
    fid = abs(np.vdot(v, np.array([SQ2, SQ2]))) ** 2
    oracle = np.array([SQ2 * math.sqrt(1 / 3), SQ2 * math.sqrt(2 / 3)])
    oracle /= np.linalg.norm(oracle)
    fid_oracle = abs(np.vdot(oracle, np.array([SQ2, SQ2]))) ** 2
    assert abs(fid - fid_oracle) < 1e-12
    assert abs(fid - 0.971405) < 1e-6


def criterion_05_precession_and_readout():
    """tau from the constants table; the detection run's synchronized
    readout stores the qubit exactly at n·tau, not at tau/4."""
    tau = precession_period(0.4, 1.0)
    table = 2.0 * math.pi * HBAR_UEV_NS / (0.4 * MU_B_UEV_PER_T * 1.0)
    assert abs(tau - table) < 1e-6

    def stored_fidelity(q, t):
        cfg = ScenarioConfig(case="B", field=FieldConfig(1.0),
                             hadamard_time_ns=t)
        return run_detection(q, cfg).stages[-1].fidelity

    for n in range(1, 6):
        assert abs(stored_fidelity(np.array([0.48 + 0.36j, 0.8]), n * tau) - 1.0) < 1e-10
    assert stored_fidelity(np.array([1.0, 0.0]), tau / 4) < 1.0 - 1e-6


def criterion_06_resolvability():
    """Window inequalities against direct Zeeman arithmetic, and the
    Gaussian leakage bound at 100 ueV."""
    dv = zeeman_splitting(8.87, 1.0)
    dc = zeeman_splitting(0.4, 1.0)
    rep = resolvability_check(SpectralWindow(100.0), INAS_GAAS_QW,
                              FieldConfig(1.0))
    assert rep.valence_resolved == (100.0 < dv)
    assert rep.conduction_unresolved == (100.0 > dc)
    assert rep.valence_resolved and rep.conduction_unresolved
    out = absorb_case_a(
        PhotonQubit(SQ2, SQ2, window=SpectralWindow(100.0)),
        SCHEME_A)
    assert out.leakage < 1e-3
    rep = resolvability_check(SpectralWindow(600.0), INAS_GAAS_QW,
                              FieldConfig(1.0))
    assert rep.valence_resolved == (600.0 < dv)
    assert not rep.valence_resolved


def _dephased(rho, t_ns, t2_ns):
    """An electron density matrix after T2 phase damping over t, sent
    through the dephasing transfer matrix the storage stage uses."""
    r = ptm_from_kraus(dephasing_kraus(coherence_factor(t_ns, t2_ns)))
    c = np.einsum("iab,ba->i", qs.PAULIS, rho).real
    return density_from_pauli(r @ c)


def criterion_07_dephasing():
    """|+> fidelity (1+e^-1)/2 at t = T2; exact composition law."""
    plus = np.array([SQ2, SQ2])
    rho = np.outer(plus, plus)
    out = _dephased(rho, 100.0, 100.0)
    fid = np.real(plus @ out @ plus)
    assert abs(fid - (1 + math.exp(-1)) / 2) < 1e-12
    assert abs(fid - 0.683940) < 1e-6
    a = _dephased(_dephased(rho, 13.0, 80.0), 29.0, 80.0)
    b = _dephased(rho, 42.0, 80.0)
    assert np.max(np.abs(a - b)) < 1e-12


def criterion_08_end_to_end_identity():
    """Ideal case A and B round trips: process fidelity 1 at 1e-8; every
    configured channel passes the conditional CPTP check at 1e-8."""
    tau = precession_period(0.4, 1.0)
    ideal_a = ScenarioConfig(case="A", field=FieldConfig(1.0),
                             window=None, compensate=True, seed=1)
    ideal_b = ScenarioConfig(case="B", field=FieldConfig(1.0),
                             window=None, hadamard_time_ns=tau, seed=1)
    for cfg in (ideal_a, ideal_b):
        res = process_tomography(cfg)
        assert abs(res.process_fidelity - 1.0) < 1e-8
        assert res.cptp
    configured = [
        ideal_a, ideal_b,
        ScenarioConfig(case="A", field=FieldConfig(1.0),
                       window=SpectralWindow(300.0), compensate=False, seed=1),
        ScenarioConfig(case="A", field=FieldConfig(1.0), window=None,
                       noise=NoiseModel(transport_time_ns=40.0,
                                        transport_loss=0.3,
                                        transport_dephasing_fraction=0.2),
                       chain=ChainParams(gate_error=0.03),
                       storage_time_ns=2e5, seed=1),
        ScenarioConfig(case="B", field=FieldConfig(1.0),
                       window=SpectralWindow(400.0),
                       hadamard_time_ns=0.37 * tau, seed=1),
        ScenarioConfig(case="degenerate", field=FieldConfig(0.0),
                       window=None, seed=1),
        ScenarioConfig(case="A", field=FieldConfig(1.0), window=None,
                       emission_direction=(0.0, 0.0, 1.0), seed=1),
    ]
    for cfg in configured:
        res = process_tomography(cfg)
        assert is_cptp(res.choi, tol=1e-8, conditional=True)


def criterion_09_classical_baseline():
    """Degenerate Haar average 2/3 within 3 stderr at 1e5 samples,
    bit-identical across repeated runs."""
    cfg = ScenarioConfig(case="degenerate", field=FieldConfig(0.0),
                         window=None, seed=2009)
    mc = monte_carlo_average_fidelity(cfg, 100_000)
    assert abs(mc.mean_fidelity - 2.0 / 3.0) < 3 * mc.stderr
    again = monte_carlo_average_fidelity(cfg, 100_000)
    assert mc == again


def criterion_10_dot_gate():
    """Tunnel-resistance threshold is the resistance quantum."""
    assert abs(H_OVER_E2_OHM - 25_812.807) < 1e-9
    base = dict(capacitance_farad=1e-18, confinement_energy_uev=1000.0,
                temperature_k=4.0)
    assert dot_constraint_check(DotConstraints(
        tunnel_resistance_ohm=26_000.0, **base)).resistance_ok
    assert not dot_constraint_check(DotConstraints(
        tunnel_resistance_ohm=25_000.0, **base)).resistance_ok


def criterion_11_cli_determinism(tmp_path=None):
    """Two runs of each CLI command with the same config and seed produce
    byte-identical output files."""
    import tempfile
    from pathlib import Path
    from polspin.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tdir:
        tdir = Path(tdir)
        cfg_path = tdir / "cfg.json"
        cfg_path.write_text(json.dumps({
            "case": "degenerate",
            "field": {"b_tesla": 0.0},
            "window": None,
            "seed": 11,
            "mc_samples": 2000,
        }), encoding="utf-8")
        commands = [
            ["run", "--format", "json-like"],
            ["run", "--format", "text"],
            ["levels"],
            ["tomography"],
            ["sweep", "--param", "noise.transport_loss", "--from", "0",
             "--to", "0.5", "--steps", "3"],
            ["check-dot", "--capacitance", "1e-17", "--resistance", "30000",
             "--confinement", "2000", "--temperature", "4.0"],
        ]
        for i, cmd in enumerate(commands):
            blobs = []
            for rep in range(2):
                out = tdir / f"out_{i}_{rep}"
                args = ["--out", str(out)] + cmd
                if cmd[0] != "check-dot":
                    args = ["--config", str(cfg_path)] + args
                code = cli_main(args)
                assert code == 0
                blobs.append(out.read_bytes())
            assert blobs[0] == blobs[1]


CRITERIA = [
    ("01 LS expansion + CG orthonormality", criterion_01_cg_expansion),
    ("02 degenerate entanglement entropy", criterion_02_degenerate_entanglement),
    ("03 hole disentanglement", criterion_03_disentanglement),
    ("04 sqrt2 imbalance", criterion_04_sqrt2_imbalance),
    ("05 precession + synchronized readout", criterion_05_precession_and_readout),
    ("06 spectral resolvability", criterion_06_resolvability),
    ("07 T2 dephasing", criterion_07_dephasing),
    ("08 end-to-end identity + CPTP", criterion_08_end_to_end_identity),
    ("09 classical baseline 2/3", criterion_09_classical_baseline),
    ("10 quantum-dot gate", criterion_10_dot_gate),
    ("11 CLI determinism", criterion_11_cli_determinism),
]


@pytest.mark.parametrize("name,fn", CRITERIA, ids=[n for n, _ in CRITERIA])
def test_acceptance(name, fn):
    try:
        fn()
    except AssertionError:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


if __name__ == "__main__":
    failures = 0
    for name, fn in CRITERIA:
        try:
            fn()
            print(f"ACCEPTANCE {name}: PASS")
        except AssertionError as exc:
            failures += 1
            print(f"ACCEPTANCE {name}: FAIL ({exc})")
    sys.exit(1 if failures else 0)
