import math

import numpy as np
import pytest

import polspin.qstate as qs
from polspin.angular import AngularMomentumState, CONDUCTION, HEAVY_HOLE, LIGHT_HOLE
from polspin.bands import (FieldConfig, INAS_GAAS_QW, INPLANE, NORMAL,
                           SpectralWindow, build_level_scheme,
                           degenerate_scheme, precession_period)
from polspin.errors import DarkDirection, HeavyHoleTopmost
from polspin.pipeline import ScenarioConfig, end_to_end_stages, run_end_to_end
from polspin.transfer import (CIRCULAR, HADAMARD, LINEAR_ZX, PhotonQubit,
                              absorb_case_a, absorb_case_b, absorb_degenerate,
                              branch_dipole_vectors, dipole_matrix_element,
                              precess, synchronized_hadamard, _mode_map)

SQ2 = 1.0 / math.sqrt(2.0)
SQ23 = math.sqrt(2.0 / 3.0)
SQ13 = math.sqrt(1.0 / 3.0)

LH_UP = AngularMomentumState(LIGHT_HOLE, j=1.5, mj=+0.5)
LH_DN = AngularMomentumState(LIGHT_HOLE, j=1.5, mj=-0.5)
HH_UP = AngularMomentumState(HEAVY_HOLE, j=1.5, mj=+1.5)
C_UP = AngularMomentumState(CONDUCTION, j=0.5, mj=+0.5)
C_DN = AngularMomentumState(CONDUCTION, j=0.5, mj=-0.5)


@pytest.fixture(scope="module")
def scheme_a():
    return build_level_scheme(INAS_GAAS_QW, FieldConfig(1.0, NORMAL))


@pytest.fixture(scope="module")
def scheme_b():
    return build_level_scheme(INAS_GAAS_QW, FieldConfig(1.0, INPLANE))


def rand_qubits(n, seed=0):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, 4))
    v = z[:, :2] + 1j * z[:, 2:]
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def electron_vector(outcome):
    """Pure electron amplitudes of a leak-free absorption (hole column 0)."""
    return outcome.amplitudes[:, 0]


# --- photon qubit invariants -------------------------------------------------

def test_photon_normalization_enforced():
    with pytest.raises(ValueError):
        PhotonQubit(LINEAR_ZX, 1.0, 1.0)


# --- dipole matrix elements --------------------------------------------------

def test_dipole_z_from_topmost():
    assert dipole_matrix_element(LH_UP, C_UP, "z") == pytest.approx(SQ23, abs=1e-12)
    assert dipole_matrix_element(LH_UP, C_DN, "z") == 0.0


def test_dipole_x_from_topmost():
    assert dipole_matrix_element(LH_UP, C_DN, "x") == pytest.approx(SQ13, abs=1e-12)
    assert dipole_matrix_element(LH_UP, C_UP, "x") == 0.0


def test_sqrt2_imbalance():
    up = dipole_matrix_element(LH_UP, C_UP, "z")
    dn = dipole_matrix_element(LH_UP, C_DN, "x")
    assert up / dn == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_dipole_spin_conservation_stretched():
    assert dipole_matrix_element(HH_UP, C_DN, "sigma_plus") == 0.0
    assert dipole_matrix_element(HH_UP, C_DN, "sigma_minus") == 0.0
    # the stretched state couples only to the matching spin
    assert dipole_matrix_element(HH_UP, C_UP, "sigma_minus",
                                 k_sign=+1) == pytest.approx(1.0, abs=1e-12)


def test_dipole_rejects_wrong_bands():
    with pytest.raises(ValueError):
        dipole_matrix_element(C_UP, C_DN, "z")
    with pytest.raises(ValueError):
        dipole_matrix_element(LH_UP, LH_DN, "z")


def test_selection_rule_exclusivity(scheme_a):
    """z populates only mS=+1/2, x only mS=-1/2 from the topmost level."""
    out_z = absorb_case_a(PhotonQubit(LINEAR_ZX, 1.0, 0.0), scheme_a)
    out_x = absorb_case_a(PhotonQubit(LINEAR_ZX, 0.0, 1.0), scheme_a)
    vz = electron_vector(out_z)   # (mS=-1/2, mS=+1/2)
    vx = electron_vector(out_x)
    assert abs(vz[0]) < 1e-14 and abs(vz[1] - 1.0) < 1e-12
    assert abs(vx[1]) < 1e-14 and abs(vx[0] - 1.0) < 1e-12


# --- degenerate absorption ---------------------------------------------------

def test_degenerate_single_branch_product():
    out = absorb_degenerate(PhotonQubit(CIRCULAR, 1.0, 0.0))
    assert qs.entanglement_entropy(out.amplitudes) == pytest.approx(
        0.0, abs=1e-12)
    v = out.amplitudes
    assert abs(v[0, 0]) == pytest.approx(1.0, abs=1e-12)   # e: -1/2, h: -3/2


def test_degenerate_entangled_pair_structure():
    a, b = 0.6, 0.8j
    out = absorb_degenerate(PhotonQubit(CIRCULAR, a, b))
    v = out.amplitudes
    assert v[0, 0] == pytest.approx(a, abs=1e-12)
    assert v[1, 3] == pytest.approx(b, abs=1e-12)
    others = [v[e, h] for e in range(2) for h in range(4)
              if (e, h) not in ((0, 0), (1, 3))]
    assert np.max(np.abs(others)) < 1e-14
    assert out.leakage == 0.0


def test_degenerate_symmetric_entropy_one_bit():
    out = absorb_degenerate(PhotonQubit(CIRCULAR, SQ2, SQ2))
    assert qs.entanglement_entropy(out.amplitudes) == pytest.approx(
        1.0, abs=1e-12)


def test_degenerate_hole_purity_oracle():
    # Tr(rho_h²) = p² + (1-p)² with p = |alpha|²
    p = 0.9
    out = absorb_degenerate(PhotonQubit(CIRCULAR, math.sqrt(p), math.sqrt(1 - p)))
    assert qs.purity(out.hole_state()) == pytest.approx(p * p + (1 - p) ** 2,
                                                        abs=1e-12)
    assert qs.purity(out.hole_state()) == pytest.approx(0.82, abs=1e-12)


def test_degenerate_entropy_matches_formula():
    for q in rand_qubits(50, seed=4):
        out = absorb_degenerate(PhotonQubit(CIRCULAR, q[0], q[1]))
        p = abs(q[0]) ** 2
        want = 0.0
        for w in (p, 1 - p):
            if w > 1e-15:
                want -= w * math.log2(w)
        got = qs.entanglement_entropy(out.amplitudes)
        assert got == pytest.approx(want, abs=1e-10)


# --- case A absorption -------------------------------------------------------

def test_case_a_compensated_exact_transfer(scheme_a):
    for q in rand_qubits(200, seed=5):
        out = absorb_case_a(PhotonQubit(LINEAR_ZX, q[0], q[1]), scheme_a,
                            compensate=True)
        v = electron_vector(out)
        # electron = alpha |mS=+1/2> + beta |mS=-1/2>
        assert abs(v[1] - q[0]) < 1e-10 and abs(v[0] - q[1]) < 1e-10
        assert qs.purity(out.hole_state()) == pytest.approx(1.0, abs=1e-10)


def test_case_a_uncompensated_fidelity_oracle(scheme_a):
    # brute-force oracle: weight (alpha, beta) by (sqrt(2/3), sqrt(1/3)),
    # normalize, project on the target
    for q in rand_qubits(100, seed=6):
        out = absorb_case_a(PhotonQubit(LINEAR_ZX, q[0], q[1]), scheme_a)
        v = electron_vector(out)
        raw = np.array([q[1] * SQ13, q[0] * SQ23])
        raw = raw / np.linalg.norm(raw)
        fid_oracle = abs(np.vdot(raw, np.array([q[1], q[0]]))) ** 2
        fid = abs(np.vdot(v, np.array([q[1], q[0]]))) ** 2
        assert fid == pytest.approx(fid_oracle, abs=1e-12)


def test_case_a_uncompensated_plus_value(scheme_a):
    out = absorb_case_a(PhotonQubit(LINEAR_ZX, SQ2, SQ2), scheme_a)
    v = electron_vector(out)
    fid = abs(np.vdot(v, np.array([SQ2, SQ2]))) ** 2
    want = ((SQ23 + SQ13) / math.sqrt(2.0)) ** 2
    assert fid == pytest.approx(want, abs=1e-12)
    assert fid == pytest.approx(0.971405, abs=1e-6)


def test_case_a_single_branch_fidelity_one(scheme_a):
    for comp in (False, True):
        out = absorb_case_a(PhotonQubit(LINEAR_ZX, 1.0, 0.0), scheme_a, comp)
        v = electron_vector(out)
        assert abs(v[1]) == pytest.approx(1.0, abs=1e-12)


def test_case_a_success_probability(scheme_a):
    out = absorb_case_a(PhotonQubit(LINEAR_ZX, 1.0, 0.0), scheme_a)
    assert out.success_probability == pytest.approx(2.0 / 3.0, rel=1e-12)
    out = absorb_case_a(PhotonQubit(LINEAR_ZX, 0.0, 1.0), scheme_a)
    assert out.success_probability == pytest.approx(1.0 / 3.0, rel=1e-12)
    out = absorb_case_a(PhotonQubit(LINEAR_ZX, SQ2, SQ2), scheme_a,
                        compensate=True)
    assert out.success_probability == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_case_a_leakage_and_purity_with_window(scheme_a):
    # 300 ueV window against a 513 ueV splitting leaks noticeably
    w = SpectralWindow(300.0)
    out = absorb_case_a(PhotonQubit(LINEAR_ZX, SQ2, SQ2, window=w), scheme_a)
    assert 0.0 < out.leakage < 0.5
    assert qs.purity(out.hole_state()) < 1.0
    # narrow window: leakage negligible, hole pure again
    w = SpectralWindow(100.0)
    out = absorb_case_a(PhotonQubit(LINEAR_ZX, SQ2, SQ2, window=w), scheme_a)
    assert out.leakage < 1e-3
    assert qs.purity(out.hole_state()) == pytest.approx(1.0, abs=1e-10)


def test_case_a_leakage_oracle(scheme_a):
    """Lineshape-integral oracle for the leaked weight at equal input."""
    w = SpectralWindow(300.0)
    dv = scheme_a.valence_splitting_uev
    dc = scheme_a.conduction_splitting_uev
    out = absorb_case_a(PhotonQubit(LINEAR_ZX, SQ2, SQ2, window=w), scheme_a)
    main = 0.5 * (2 / 3) * w.amplitude(dc / 2) ** 2 + 0.5 * (1 / 3) * w.amplitude(-dc / 2) ** 2
    leak = 0.5 * (2 / 3) * w.amplitude(dv - dc / 2) ** 2 + 0.5 * (1 / 3) * w.amplitude(dv + dc / 2) ** 2
    assert out.leakage == pytest.approx(leak / (main + leak), rel=1e-10)


def test_case_a_scheme_mismatch(scheme_b):
    with pytest.raises(HeavyHoleTopmost):
        absorb_case_a(PhotonQubit(LINEAR_ZX, 1.0, 0.0), scheme_b)


def test_case_a_wrong_basis(scheme_a):
    with pytest.raises(ValueError):
        absorb_case_a(PhotonQubit(CIRCULAR, 1.0, 0.0), scheme_a)


# --- case B absorption -------------------------------------------------------

def test_case_b_sigma_plus_excites_spin_down(scheme_b):
    out = absorb_case_b(PhotonQubit(CIRCULAR, 1.0, 0.0), scheme_b)
    v = electron_vector(out)
    assert abs(v[0]) == pytest.approx(1.0, abs=1e-12)   # mS = -1/2
    # in the eigenbasis that is the equal superposition (|0>+|1>)/sqrt2
    zero = scheme_b.conduction_levels[0].state
    one = scheme_b.conduction_levels[1].state
    overlap0 = np.vdot(zero, v)
    overlap1 = np.vdot(one, v)
    assert abs(overlap0) == pytest.approx(SQ2, abs=1e-12)
    assert abs(overlap1) == pytest.approx(SQ2, abs=1e-12)


def test_case_b_equal_input_lands_on_eigenstate(scheme_b):
    # (alpha, beta) = (1, 1)/sqrt2 excites the symmetric eigenstate |1>
    out = absorb_case_b(PhotonQubit(CIRCULAR, SQ2, SQ2), scheme_b)
    v = electron_vector(out)
    one = scheme_b.conduction_levels[1].state
    assert abs(np.vdot(one, v)) == pytest.approx(1.0, abs=1e-12)


def test_case_b_equal_weights_no_imbalance(scheme_b):
    for q in rand_qubits(100, seed=7):
        out = absorb_case_b(PhotonQubit(CIRCULAR, q[0], q[1]), scheme_b)
        v = electron_vector(out)
        assert abs(v[0] - q[0]) < 1e-10 and abs(v[1] - q[1]) < 1e-10


def test_case_b_hole_purity_random(scheme_b):
    for q in rand_qubits(1000, seed=8):
        out = absorb_case_b(PhotonQubit(CIRCULAR, q[0], q[1]), scheme_b)
        assert qs.purity(out.hole_state()) == pytest.approx(1.0, abs=1e-10)


def test_case_b_success_probability(scheme_b):
    out = absorb_case_b(PhotonQubit(CIRCULAR, 0.6, 0.8), scheme_b)
    assert out.success_probability == pytest.approx(1.0 / 6.0, rel=1e-12)


def test_case_b_scheme_mismatch(scheme_a):
    with pytest.raises(HeavyHoleTopmost):
        absorb_case_b(PhotonQubit(CIRCULAR, 1.0, 0.0), scheme_a)


def test_absorption_channels_are_conditional_cptp(scheme_a, scheme_b):
    """Each absorption map, photon -> electron with the hole traced out,
    is a valid conditional channel."""
    from polspin.transfer import absorption_branches
    from polspin.qstate import choi_of_map, is_cptp

    for branches in (
        absorption_branches(scheme_a, SpectralWindow(100.0), compensate=False),
        absorption_branches(scheme_a, SpectralWindow(300.0), compensate=True),
        absorption_branches(scheme_b, SpectralWindow(100.0)),
    ):
        kraus = [br.kraus for br in branches]
        choi = choi_of_map(lambda rho: sum(k @ rho @ k.conj().T for k in kraus))
        assert is_cptp(choi, tol=1e-8, conditional=True)


# --- precession and synchronized readout ------------------------------------

def test_precession_periodicity(scheme_b):
    tau = precession_period(0.4, 1.0)
    st = np.array([1, 0], dtype=complex)
    for n in range(1, 6):
        out = precess(st, scheme_b, n * tau)
        assert abs(np.vdot(st, out)) ** 2 == pytest.approx(1.0, abs=1e-10)
    # a density matrix comes back as one, the same state
    rho = precess(np.outer(st, st.conj()), scheme_b, 3 * tau)
    assert np.max(np.abs(rho - np.outer(st, st.conj()))) < 1e-10


def test_precession_half_period_flips(scheme_b):
    tau = precession_period(0.4, 1.0)
    # matrix-exponential oracle: U = V diag(exp(-iE t/hbar)) V†
    from polspin.constants import HBAR_UEV_NS
    energies = np.array([lv.energy_uev for lv in scheme_b.conduction_levels])
    vecs = np.column_stack([lv.state for lv in scheme_b.conduction_levels])
    u_oracle = (vecs * np.exp(-1j * energies * (tau / 2) / HBAR_UEV_NS)) @ vecs.conj().T
    st = np.array([1, 0], dtype=complex)
    out = precess(st, scheme_b, tau / 2)
    assert np.allclose(out, u_oracle @ st, atol=1e-12)
    assert abs(out[1]) ** 2 == pytest.approx(1.0, abs=1e-10)


def test_precession_zero_field_identity():
    scheme0 = build_level_scheme(INAS_GAAS_QW, FieldConfig(0.0, INPLANE))
    st = np.array([0.6, 0.8j])
    out = precess(st, scheme0, 17.3)
    assert abs(np.vdot(st, out)) ** 2 == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("shape", [(), (3,), (2, 1), (4, 4), (2, 2, 2)])
def test_precess_refuses_other_shapes(scheme_b, shape):
    with pytest.raises(ValueError, match="2-vector or a 2x2"):
        precess(np.ones(shape), scheme_b, 1.0)
    with pytest.raises(ValueError, match="2-vector or a 2x2"):
        synchronized_hadamard(np.ones(shape), scheme_b, 0.0)


def logical_readout(state):
    return HADAMARD @ state


def test_synchronized_hadamard_zero_time(scheme_b):
    for q in rand_qubits(50, seed=9):
        out = absorb_case_b(PhotonQubit(CIRCULAR, q[0], q[1]), scheme_b)
        stored = synchronized_hadamard(electron_vector(out), scheme_b, 0.0)
        logical = logical_readout(stored)
        assert abs(np.vdot(q, logical)) ** 2 == pytest.approx(1.0, abs=1e-10)


def test_synchronized_hadamard_full_periods(scheme_b):
    tau = precession_period(0.4, 1.0)
    st = np.array([0.48 + 0.36j, 0.8])
    for n in range(1, 6):
        stored = synchronized_hadamard(st, scheme_b, n * tau)
        logical = logical_readout(stored)
        want = logical_readout(synchronized_hadamard(st, scheme_b, 0.0))
        assert abs(np.vdot(want, logical)) ** 2 == pytest.approx(1.0, abs=1e-10)


def test_synchronized_hadamard_quarter_period(scheme_b):
    """Composition oracle, built from the same constants independently."""
    tau = precession_period(0.4, 1.0)
    from polspin.constants import HBAR_UEV_NS
    energies = np.array([lv.energy_uev for lv in scheme_b.conduction_levels])
    vecs = np.column_stack([lv.state for lv in scheme_b.conduction_levels])

    def oracle(qvec, t):
        u = (vecs * np.exp(-1j * energies * t / HBAR_UEV_NS)) @ vecs.conj().T
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        return h @ (h @ u @ qvec)   # apply + read out in the logical frame

    # a basis input dephases to 1/2 at tau/4
    q = np.array([1.0, 0.0])
    stored = synchronized_hadamard(q, scheme_b, tau / 4)
    logical = logical_readout(stored)
    assert abs(np.vdot(q, logical)) ** 2 == pytest.approx(
        abs(np.vdot(q, oracle(q, tau / 4))) ** 2, abs=1e-12)
    assert abs(np.vdot(q, logical)) ** 2 == pytest.approx(0.5, abs=1e-10)

    # an eigenstate input only picks up a global phase, fidelity stays 1
    q = np.array([SQ2, SQ2])
    stored = synchronized_hadamard(q, scheme_b, tau / 4)
    assert abs(np.vdot(q, logical_readout(stored))) ** 2 == pytest.approx(
        1.0, abs=1e-10)


# --- emission ---------------------------------------------------------------
# Emission is the pipeline's emit stage: an ideal scenario (no window, noise
# or gate error) returns the input photon exactly where emission inverts
# absorption.

def ideal(case, **kw):
    field = {"A": FieldConfig(1.0, NORMAL), "B": FieldConfig(1.0, INPLANE),
             "degenerate": FieldConfig(0.0, NORMAL)}[case]
    return ScenarioConfig(case=case, field=field, **kw)


def test_emit_case_a_inverts_compensated_absorption():
    cfg = ideal("A", compensate=True)
    for q in rand_qubits(1000, seed=10):
        assert run_end_to_end(q, cfg).round_trip_fidelity == pytest.approx(
            1.0, abs=1e-10)


def test_emit_case_b_round_trip():
    cfg = ideal("B")
    for q in rand_qubits(1000, seed=11):
        assert run_end_to_end(q, cfg).round_trip_fidelity == pytest.approx(
            1.0, abs=1e-10)


def test_emit_degenerate_round_trip():
    # each heavy-hole branch re-emits the circular polarization that made
    # it, with unit weight; the hole keeps the which-path information, so
    # the emit stage fully dephases the branch basis
    emit = end_to_end_stages(ideal("degenerate"))[-1]
    assert emit.name == "emit"
    assert np.max(np.abs(emit.ptm - np.diag([1.0, 0.0, 0.0, 1.0]))) < 1e-12


def test_emit_case_b_single_branch_circular():
    # sigma+ excites a spin-down electron, which returns pure sigma+
    rho = run_end_to_end([1, 0], ideal("B")).photon_rho
    assert abs(rho[0, 0]) == pytest.approx(1.0, abs=1e-12)
    assert abs(rho[1, 1]) < 1e-14


def test_emit_off_axis_restored_by_waveplate():
    # 90 degrees away from each canonical direction, chosen so the two
    # projected dipole modes stay linearly independent: the emit stage
    # undoes the frame map
    for case, direction in (("A", (1.0, 0.0, 0.0)), ("B", (0.0, 1.0, 0.0))):
        cfg = ideal(case, emission_direction=direction)
        for q in rand_qubits(100, seed=13):
            assert run_end_to_end(q, cfg).round_trip_fidelity == pytest.approx(
                1.0, abs=1e-10)


def test_emit_case_b_along_field_rank_deficient(scheme_b):
    # viewing along B the two circular branches project onto the same mode
    t, _, _ = _mode_map(scheme_b, [1.0, 0.0, 0.0])
    assert np.linalg.matrix_rank(t, tol=1e-10) == 1
    res = run_end_to_end([1, 0], ideal("B", emission_direction=(1.0, 0.0, 0.0)))
    assert res.round_trip_fidelity < 1.0 - 1e-6


def test_emit_off_axis_differs_before_compensation(scheme_a):
    q = np.array([SQ2, SQ2])
    out = absorb_case_a(PhotonQubit(LINEAR_ZX, q[0], q[1]), scheme_a,
                        compensate=True)
    t, _, _ = _mode_map(scheme_a, [1.0, 0.0, 0.0])
    raw = t @ electron_vector(out)
    assert abs(np.vdot(q, raw / np.linalg.norm(raw))) ** 2 < 1.0 - 1e-6


def test_emit_rank_deficient_lossy(scheme_a):
    # along +z the z-dipole branch is dark: rank-1 map, flagged lossy
    _, lossy, _ = _mode_map(scheme_a, [0.0, 0.0, 1.0])
    assert lossy
    res = run_end_to_end([SQ2, SQ2], ideal("A", emission_direction=(0.0, 0.0, 1.0)))
    assert res.round_trip_fidelity < 1.0 - 1e-6


def test_emit_dark_direction():
    # artificial geometry: both branch dipoles along z, collection along z
    class FakeScheme:
        case = "A"
        canonical_k = np.array([0.0, 1.0, 0.0])
    import polspin.transfer as tr
    orig = tr.branch_dipole_vectors
    tr.branch_dipole_vectors = lambda s: (np.array([0, 0, 1.0], dtype=complex),
                                          np.array([0, 0, 0.5], dtype=complex))
    try:
        with pytest.raises(DarkDirection):
            tr._mode_map(FakeScheme(), np.array([0.0, 0.0, 1.0]))
    finally:
        tr.branch_dipole_vectors = orig


def test_emit_collection_fractions():
    # case A: the logical |0> is the spin-up electron, whose z dipole is
    # fully transverse at the canonical k; the circular spin-down branch half
    assert run_end_to_end([1, 0], ideal("A")).collection_fraction == pytest.approx(
        1.0, abs=1e-12)
    assert run_end_to_end([0, 1], ideal("A")).collection_fraction == pytest.approx(
        0.5, abs=1e-12)
    # case B: the z-dipole component never reaches a detector along G
    assert run_end_to_end([1, 0], ideal("B")).collection_fraction == pytest.approx(
        1 / 3, abs=1e-12)


def test_branch_dipoles_case_a(scheme_a):
    d_dn, d_up = branch_dipole_vectors(scheme_a)
    assert np.linalg.norm(d_up) == pytest.approx(SQ23, abs=1e-12)
    assert np.linalg.norm(d_dn) == pytest.approx(SQ13, abs=1e-12)
    # spin-up branch radiates a pure z dipole
    assert abs(d_up[2]) == pytest.approx(SQ23, abs=1e-12)
    assert np.allclose(d_up[:2], 0.0, atol=1e-14)
