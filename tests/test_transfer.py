import math

import numpy as np
import pytest

import polspin.qstate as qs
from polspin.bands import (CASE_A, CASE_B, FieldConfig, INAS_GAAS_QW,
                           SpectralWindow, build_level_scheme,
                           degenerate_scheme, precession_period)
from polspin.constants import MU_B_UEV_PER_T
from polspin.errors import DarkDirection, HeavyHoleTopmost
from polspin.pipeline import (ScenarioConfig, end_to_end_stages, haar_qubits,
                              run_end_to_end)
from polspin.transfer import (E_SPH, HADAMARD, PhotonQubit, absorb_case_a,
                              absorb_case_b, absorb_degenerate,
                              absorption_branches, branch_dipole_vectors,
                              dipole_matrix_element, emission_map, ls_table,
                              precession_unitary, transverse_frame,
                              _RECOMBINING_HOLES, _absorbing_holes, _channels,
                              _dipole_blocks, _frame_to_basis, _mode_map)
from test_pipeline import _gram_forms

SQ2 = 1.0 / math.sqrt(2.0)
SQ23 = math.sqrt(2.0 / 3.0)
SQ13 = math.sqrt(1.0 / 3.0)

# the J=3/2 quartet states |3/2, mJ>, mJ = -3/2 .. +3/2, as amplitude vectors
QUARTET = np.eye(4)
LH_DN, LH_UP, HH_UP = QUARTET[1], QUARTET[2], QUARTET[3]
# the conduction spins
C_DN, C_UP = -0.5, +0.5


@pytest.fixture(scope="module")
def scheme_a():
    return build_level_scheme(CASE_A, INAS_GAAS_QW, FieldConfig(1.0))


@pytest.fixture(scope="module")
def scheme_b():
    return build_level_scheme(CASE_B, INAS_GAAS_QW, FieldConfig(1.0))


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
        PhotonQubit(1.0, 1.0)


@pytest.mark.parametrize("alpha,beta", [(math.nan, 0.0), (complex("nan+1j"), 0.0),
                                        (math.inf, 0.0), (1.0, math.inf)])
def test_photon_non_finite_amplitudes_refused(alpha, beta):
    with pytest.raises(ValueError, match="finite"):
        PhotonQubit(alpha, beta)


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


@pytest.mark.parametrize("state,ms,pol,match", [
    (LH_UP[:2], C_UP, "z", "state"),          # a doublet is not a quartet state
    (LH_UP[:, None], C_UP, "z", "state"),
    (np.eye(4), C_UP, "z", "state"),
    (LH_UP, 0.0, "z", "ms"),
    (LH_UP, 1.5, "z", "ms"),
    (LH_UP, "up", "z", "ms"),
    (LH_UP, C_UP, "y", "polarization"),
])
def test_dipole_refuses_bad_arguments(state, ms, pol, match):
    with pytest.raises(ValueError, match=match):
        dipole_matrix_element(state, ms, pol)


POLS = ("z", "x", "sigma_plus", "sigma_minus")


@pytest.mark.parametrize("k_sign", [-1, 0, 1])
@pytest.mark.parametrize("case", ["A", "B", "degenerate"])
def test_dipole_matrix_element_reads_the_absorption_block(case, k_sign,
                                                          scheme_a, scheme_b):
    """Each entry is the matching entry of the level's selection-rule block,
    the block absorption contracts, bit for bit, for every valence level."""
    scheme = {"A": scheme_a, "B": scheme_b, "degenerate": degenerate_scheme()}[case]
    for level in scheme.valence_levels:
        [block] = _dipole_blocks([level.state], POLS, k_sign)
        for s, ms in enumerate((C_DN, C_UP)):
            for p, pol in enumerate(POLS):
                assert dipole_matrix_element(level.state, ms, pol, k_sign) == block[s, p]


@pytest.mark.parametrize("case", ["A", "B", "degenerate"])
def test_absorption_branches_are_dipole_entries(case, scheme_a, scheme_b):
    """The unwindowed, uncompensated Kraus branches are the dipole matrix
    elements of their levels in the scheme's photon basis and k, bit for
    bit."""
    scheme = {"A": scheme_a, "B": scheme_b, "degenerate": degenerate_scheme()}[case]
    pols, k_sign = {"A": (("z", "x"), 0), "B": (("sigma_plus", "sigma_minus"), -1),
                    "degenerate": (("sigma_plus", "sigma_minus"), +1)}[case]
    branches = absorption_branches(scheme)
    holes = _absorbing_holes(scheme, None)
    assert [br.hole_index for br in branches] == [hole for hole, _, _, _ in holes]
    for br, (_, level, _, _) in zip(branches, holes):
        for s, ms in enumerate((C_DN, C_UP)):
            for p, pol in enumerate(pols):
                assert br.kraus[s, p] == dipole_matrix_element(level.state, ms, pol,
                                                               k_sign)


# --- the former selection-rule construction, kept as the channels' oracle ---
# Before the one LS table, each build walked the LS expansion of every
# quartet state through a per-polarization list of ΔmL channels.

def _ls_terms(m):
    """(coefficient, mL, mS) of each non-zero LS component of quartet state
    m, in the (mL, mS) order the former constructions walked."""
    row = ls_table()[m]
    return [(row[i, j], ml, ms) for i, ml in enumerate((-1, 0, 1))
            for j, ms in enumerate((-0.5, 0.5)) if row[i, j] != 0.0]


def _polarization_deltas(pol, k_sign=-1):
    """Allowed orbital changes (ΔmL = mL_cond - mL_val, weight) for one
    polarization: a sigma± photon adds ±1 unit of angular momentum along
    its k, so ΔmL = ±k_sign where k_sign is the sign of k·G."""
    if pol == "z":
        return [(0, 1.0)]
    if pol == "x":
        return [(+1, 1.0), (-1, 1.0)]
    if pol == "sigma_plus":
        return [(+k_sign, 1.0)]
    if pol == "sigma_minus":
        return [(-k_sign, 1.0)]
    raise ValueError(f"unknown polarization {pol!r}")


def _dipole_block(m, pols, k_sign):
    """Dipole amplitudes of quartet state m, from one LS expansion: row
    the conduction spin (mS=-1/2, mS=+1/2), column the polarization."""
    block = np.zeros((2, len(pols)))
    for coeff, ml, ms in _ls_terms(m):
        row = block[int(ms > 0)]
        for col, pol in enumerate(pols):
            for dml, weight in _polarization_deltas(pol, k_sign):
                if ml + dml == 0:   # conduction band is mL = 0
                    row[col] += weight * coeff
    return block


def _old_dipole_matrix_element(m, conduction_ms, pol, k_sign):
    """The former single-entry reader: the LS expansion filtered by the
    conduction spin, summed over the polarization's channels."""
    amp = 0.0
    for coeff, ml, ms in _ls_terms(m):
        if ms != conduction_ms:
            continue
        for dml, weight in _polarization_deltas(pol, k_sign):
            if ml + dml == 0:
                amp += weight * coeff
    return amp


@pytest.mark.parametrize("k_sign", [-1, 0, 1])
def test_dipole_block_equals_single_entries(k_sign):
    """Every entry of a quartet state's (spin x polarization) block is the
    single-entry reading, bit for bit, and the former reading too."""
    for m, valence in enumerate(QUARTET):
        block = _dipole_block(m, POLS, k_sign)
        assert block.shape == (2, len(POLS))
        for s, spin in enumerate((C_DN, C_UP)):
            for p, pol in enumerate(POLS):
                entry = dipole_matrix_element(valence, spin, pol, k_sign)
                old = _old_dipole_matrix_element(m, spin, pol, k_sign)
                assert block[s, p] == entry == old, (m, s, pol)


@pytest.mark.parametrize("k_sign", [-1, 0, 1])
def test_ls_table_reads_as_former_blocks(k_sign):
    """Each quartet state's slice of the one LS table, read through the
    channels, is that state's former block, bit for bit."""
    table, channels = ls_table(), _channels(POLS, k_sign)
    assert table.shape == (4, 3, 2)
    for m in range(4):
        assert np.array_equal(table[m].T @ channels,
                              _dipole_block(m, POLS, k_sign)), m


def test_selection_rule_exclusivity(scheme_a):
    """z populates only mS=+1/2, x only mS=-1/2 from the topmost level."""
    out_z = absorb_case_a(PhotonQubit(1.0, 0.0), scheme_a)
    out_x = absorb_case_a(PhotonQubit(0.0, 1.0), scheme_a)
    vz = electron_vector(out_z)   # (mS=-1/2, mS=+1/2)
    vx = electron_vector(out_x)
    assert abs(vz[0]) < 1e-14 and abs(vz[1] - 1.0) < 1e-12
    assert abs(vx[1]) < 1e-14 and abs(vx[0] - 1.0) < 1e-12


# --- degenerate absorption ---------------------------------------------------

def test_degenerate_single_branch_product():
    out = absorb_degenerate(PhotonQubit(1.0, 0.0))
    assert qs.entanglement_entropy(out.amplitudes) == pytest.approx(
        0.0, abs=1e-12)
    v = out.amplitudes
    assert abs(v[0, 0]) == pytest.approx(1.0, abs=1e-12)   # e: -1/2, h: -3/2


def test_degenerate_entangled_pair_structure():
    a, b = 0.6, 0.8j
    out = absorb_degenerate(PhotonQubit(a, b))
    v = out.amplitudes
    assert v[0, 0] == pytest.approx(a, abs=1e-12)
    assert v[1, 3] == pytest.approx(b, abs=1e-12)
    others = [v[e, h] for e in range(2) for h in range(4)
              if (e, h) not in ((0, 0), (1, 3))]
    assert np.max(np.abs(others)) < 1e-14
    assert out.leakage == 0.0


def test_degenerate_symmetric_entropy_one_bit():
    out = absorb_degenerate(PhotonQubit(SQ2, SQ2))
    assert qs.entanglement_entropy(out.amplitudes) == pytest.approx(
        1.0, abs=1e-12)


def test_degenerate_hole_purity_oracle():
    # Tr(rho_h²) = p² + (1-p)² with p = |alpha|²
    p = 0.9
    out = absorb_degenerate(PhotonQubit(math.sqrt(p), math.sqrt(1 - p)))
    assert qs.purity(out.hole_state()) == pytest.approx(p * p + (1 - p) ** 2,
                                                        abs=1e-12)
    assert qs.purity(out.hole_state()) == pytest.approx(0.82, abs=1e-12)


def test_degenerate_entropy_matches_formula():
    for q in rand_qubits(50, seed=4):
        out = absorb_degenerate(PhotonQubit(q[0], q[1]))
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
        out = absorb_case_a(PhotonQubit(q[0], q[1]), scheme_a,
                            compensate=True)
        v = electron_vector(out)
        # electron = alpha |mS=+1/2> + beta |mS=-1/2>
        assert abs(v[1] - q[0]) < 1e-10 and abs(v[0] - q[1]) < 1e-10
        assert qs.purity(out.hole_state()) == pytest.approx(1.0, abs=1e-10)


def test_case_a_uncompensated_fidelity_oracle(scheme_a):
    # brute-force oracle: weight (alpha, beta) by (sqrt(2/3), sqrt(1/3)),
    # normalize, project on the target
    for q in rand_qubits(100, seed=6):
        out = absorb_case_a(PhotonQubit(q[0], q[1]), scheme_a)
        v = electron_vector(out)
        raw = np.array([q[1] * SQ13, q[0] * SQ23])
        raw = raw / np.linalg.norm(raw)
        fid_oracle = abs(np.vdot(raw, np.array([q[1], q[0]]))) ** 2
        fid = abs(np.vdot(v, np.array([q[1], q[0]]))) ** 2
        assert fid == pytest.approx(fid_oracle, abs=1e-12)


def test_case_a_uncompensated_plus_value(scheme_a):
    out = absorb_case_a(PhotonQubit(SQ2, SQ2), scheme_a)
    v = electron_vector(out)
    fid = abs(np.vdot(v, np.array([SQ2, SQ2]))) ** 2
    want = ((SQ23 + SQ13) / math.sqrt(2.0)) ** 2
    assert fid == pytest.approx(want, abs=1e-12)
    assert fid == pytest.approx(0.971405, abs=1e-6)


def test_case_a_single_branch_fidelity_one(scheme_a):
    for comp in (False, True):
        out = absorb_case_a(PhotonQubit(1.0, 0.0), scheme_a, comp)
        v = electron_vector(out)
        assert abs(v[1]) == pytest.approx(1.0, abs=1e-12)


def test_case_a_success_probability(scheme_a):
    out = absorb_case_a(PhotonQubit(1.0, 0.0), scheme_a)
    assert out.success_probability == pytest.approx(2.0 / 3.0, rel=1e-12)
    out = absorb_case_a(PhotonQubit(0.0, 1.0), scheme_a)
    assert out.success_probability == pytest.approx(1.0 / 3.0, rel=1e-12)
    out = absorb_case_a(PhotonQubit(SQ2, SQ2), scheme_a,
                        compensate=True)
    assert out.success_probability == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_case_a_leakage_and_purity_with_window(scheme_a):
    # 300 ueV window against a 513 ueV splitting leaks noticeably
    w = SpectralWindow(300.0)
    out = absorb_case_a(PhotonQubit(SQ2, SQ2, window=w), scheme_a)
    assert 0.0 < out.leakage < 0.5
    assert qs.purity(out.hole_state()) < 1.0
    # narrow window: leakage negligible, hole pure again
    w = SpectralWindow(100.0)
    out = absorb_case_a(PhotonQubit(SQ2, SQ2, window=w), scheme_a)
    assert out.leakage < 1e-3
    assert qs.purity(out.hole_state()) == pytest.approx(1.0, abs=1e-10)


def test_case_a_leakage_oracle(scheme_a):
    """Lineshape-integral oracle for the leaked weight at equal input."""
    w = SpectralWindow(300.0)
    dv = scheme_a.valence_splitting_uev
    dc = scheme_a.conduction_splitting_uev
    out = absorb_case_a(PhotonQubit(SQ2, SQ2, window=w), scheme_a)
    main = 0.5 * (2 / 3) * w.amplitude(dc / 2) ** 2 + 0.5 * (1 / 3) * w.amplitude(-dc / 2) ** 2
    leak = 0.5 * (2 / 3) * w.amplitude(dv - dc / 2) ** 2 + 0.5 * (1 / 3) * w.amplitude(dv + dc / 2) ** 2
    assert out.leakage == pytest.approx(leak / (main + leak), rel=1e-10)


def test_case_a_scheme_mismatch(scheme_b):
    with pytest.raises(HeavyHoleTopmost):
        absorb_case_a(PhotonQubit(1.0, 0.0), scheme_b)


# --- case B absorption -------------------------------------------------------

def test_case_b_sigma_plus_excites_spin_down(scheme_b):
    out = absorb_case_b(PhotonQubit(1.0, 0.0), scheme_b)
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
    out = absorb_case_b(PhotonQubit(SQ2, SQ2), scheme_b)
    v = electron_vector(out)
    one = scheme_b.conduction_levels[1].state
    assert abs(np.vdot(one, v)) == pytest.approx(1.0, abs=1e-12)


def test_case_b_equal_weights_no_imbalance(scheme_b):
    for q in rand_qubits(100, seed=7):
        out = absorb_case_b(PhotonQubit(q[0], q[1]), scheme_b)
        v = electron_vector(out)
        assert abs(v[0] - q[0]) < 1e-10 and abs(v[1] - q[1]) < 1e-10


def test_case_b_hole_purity_random(scheme_b):
    for q in rand_qubits(1000, seed=8):
        out = absorb_case_b(PhotonQubit(q[0], q[1]), scheme_b)
        assert qs.purity(out.hole_state()) == pytest.approx(1.0, abs=1e-10)


def test_case_b_success_probability(scheme_b):
    out = absorb_case_b(PhotonQubit(0.6, 0.8), scheme_b)
    assert out.success_probability == pytest.approx(1.0 / 6.0, rel=1e-12)


def test_case_b_scheme_mismatch(scheme_a):
    with pytest.raises(HeavyHoleTopmost):
        absorb_case_b(PhotonQubit(1.0, 0.0), scheme_a)


def test_absorption_channels_are_conditional_cptp(scheme_a, scheme_b):
    """Each absorption map, photon -> electron with the hole traced out,
    is a valid conditional channel."""
    from polspin.qstate import choi_of_map, is_cptp

    for branches in (
        absorption_branches(scheme_a, SpectralWindow(100.0), compensate=False),
        absorption_branches(scheme_a, SpectralWindow(300.0), compensate=True),
        absorption_branches(scheme_b, SpectralWindow(100.0)),
    ):
        kraus = [br.kraus for br in branches]
        choi = choi_of_map(lambda rho: sum(k @ rho @ k.conj().T for k in kraus))
        assert is_cptp(choi, tol=1e-8, conditional=True)


# --- absorption against its former per-case construction ------------------
# The former code built a light-hole branch from the (mJ=-1/2, +1/2) doublet,
# weighting electron row r by the window at conduction_levels[r]'s offset,
# and the degenerate heavy-hole branches in a loop of their own.  Where the
# conduction eigenstates are the mS states (case A, the degenerate scheme)
# or no window applies, that is the same map, and the one selection-rule
# formula must reproduce it bit for bit.

def _old_lh_branch_kraus(level_state, window, scheme, valence_offset, pols,
                         k_sign):
    k = np.zeros((2, 2), dtype=complex)
    c_mid = 0.5 * (scheme.conduction_levels[0].energy_uev
                   + scheme.conduction_levels[-1].energy_uev)
    for col, pol in enumerate(pols):
        for row, c_state in enumerate((C_DN, C_UP)):
            amp = (level_state[0] * dipole_matrix_element(LH_DN, c_state, pol, k_sign)
                   + level_state[1] * dipole_matrix_element(LH_UP, c_state, pol, k_sign))
            if amp == 0.0:
                continue
            e_c = scheme.conduction_levels[row].energy_uev
            offset = (e_c - c_mid) + valence_offset
            weight = 1.0 if window is None else window.amplitude(offset)
            k[row, col] = amp * weight
    return k


def _old_absorption_kraus(scheme, window=None, compensate=False):
    """(hole index, Kraus) of each branch, as the former code built them."""
    if scheme.case == "degenerate":
        branches = []
        for spin, (hole, pol) in enumerate(((0, "sigma_plus"), (3, "sigma_minus"))):
            k = np.zeros((2, 2), dtype=complex)
            k[spin, spin] = dipole_matrix_element(QUARTET[3 * spin], spin - 0.5,
                                                  pol, +1)
            branches.append((hole, k))
        return branches
    pols, k_sign = ((("z", "x"), -1) if scheme.case == "A"
                    else (("sigma_plus", "sigma_minus"), -1))
    lh = [lv for lv in scheme.valence_levels if lv.label.startswith("lh")]
    top, partner = lh[-1], lh[-2]
    prefilter = np.diag([SQ2, 1.0]).astype(complex) if compensate else np.eye(2, dtype=complex)
    branches = [(0, _old_lh_branch_kraus(top.state[1:3], window, scheme, 0.0,
                                         pols, k_sign) @ prefilter)]
    if window is not None:
        dv = top.energy_uev - partner.energy_uev
        branches.append((1, _old_lh_branch_kraus(partner.state[1:3], window, scheme,
                                                 dv, pols, k_sign) @ prefilter))
    return branches


def _branch_pairs(scheme, window, compensate):
    return [(br.hole_index, br.kraus)
            for br in absorption_branches(scheme, window, compensate)]


def _exactly_equal(new, old):
    return (len(new) == len(old)
            and all(hn == ho and np.array_equal(kn, ko)
                    for (hn, kn), (ho, ko) in zip(new, old)))


OLD_WINDOWS = [None, SpectralWindow(23.0), SpectralWindow(23.0, 10.0),
               SpectralWindow(100.0, -11.5), SpectralWindow(300.0),
               SpectralWindow(100.0, 40.0, "lorentzian"),
               SpectralWindow(2000.0, 0.0, "lorentzian")]


@pytest.mark.parametrize("compensate", [False, True])
@pytest.mark.parametrize("window", OLD_WINDOWS, ids=repr)
def test_case_a_branches_equal_old_construction(scheme_a, window, compensate):
    assert _exactly_equal(_branch_pairs(scheme_a, window, compensate),
                          _old_absorption_kraus(scheme_a, window, compensate))


@pytest.mark.parametrize("compensate", [False, True])
@pytest.mark.parametrize("window", [None, SpectralWindow(23.0, 10.0)], ids=repr)
def test_degenerate_branches_equal_old_construction(window, compensate):
    # neither the window nor the prefilter touches the degenerate branches
    scheme = degenerate_scheme()
    assert _exactly_equal(_branch_pairs(scheme, window, compensate),
                          _old_absorption_kraus(scheme))


@pytest.mark.parametrize("compensate", [False, True])
def test_case_b_branches_without_window_equal_old_construction(scheme_b,
                                                               compensate):
    # the √2 prefilter belongs to case A alone
    assert _exactly_equal(_branch_pairs(scheme_b, None, compensate),
                          _old_absorption_kraus(scheme_b))


def _time_domain_kraus(case, window, partner, b_tesla=1.0):
    """First-order absorption out of the top (or partner) light-hole level,
    integrated in time with numpy only: K = ∫ f(t) e^{i(H_c + Δv - c)t} dt · D
    / ∫ f(t) dt, with H_c the conduction Zeeman Hamiltonian in the mS basis,
    Δv the level's depth below the top level, c the window's centre offset
    and f the pulse whose spectrum is the window (Gaussian <-> Gaussian,
    Lorentzian <-> two-sided exponential), peak 1."""
    dc = INAS_GAAS_QW.g_cb * MU_B_UEV_PER_T * b_tesla
    dv = INAS_GAAS_QW.g_lh * MU_B_UEV_PER_T * b_tesla if partner else 0.0
    if case == "A":   # B ∥ z: σ_z in (mS=-1/2, mS=+1/2) order
        n_sigma = np.diag([-1.0, 1.0]).astype(complex)
        level = [(1.0, LH_DN)] if partner else [(1.0, LH_UP)]
        pols = ("z", "x")
    else:             # B ∥ x: the LH eigenstates are psi± = (|-1/2> ± |+1/2>)/√2
        n_sigma = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        level = [(SQ2, LH_DN), (-SQ2 if partner else SQ2, LH_UP)]
        pols = ("sigma_plus", "sigma_minus")
    d = np.array([[sum(a * dipole_matrix_element(v, c, pol, -1) for a, v in level)
                   for pol in pols] for c in (C_DN, C_UP)], dtype=complex)
    bw = window.bandwidth_uev
    if window.lineshape == "gaussian":
        sigma = bw / math.sqrt(8.0 * math.log(2.0))
        t_max = 9.0 / sigma
        pulse = lambda t: np.exp(-0.5 * (sigma * t) ** 2)
    else:
        gamma = bw / 2.0
        t_max = 42.0 / gamma
        pulse = lambda t: np.exp(-gamma * t)
    # composite 20-point Gauss-Legendre on [0, t_max]; f is even, so the
    # integrand's t and -t halves fold onto t > 0
    omega = abs(dv) + abs(window.center_offset_uev) + dc
    n_panels = int(math.ceil(t_max * omega / 2.0)) + 1
    x, wx = np.polynomial.legendre.leggauss(20)
    edges = np.linspace(0.0, t_max, n_panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    t = ((edges[:-1, None] + edges[1:, None]) / 2 + half * x).ravel()
    wt = (half * wx).ravel() * pulse(t)
    phase = (dv - window.center_offset_uev) * t
    # e^{iθ} + e^{-iθ} = 2 cos θ, with θ = φt + (dc t/2) n·σ and (n·σ)² = I
    a = np.sum(wt * 2.0 * np.cos(phase) * np.cos(dc * t / 2))
    b = np.sum(wt * -2.0 * np.sin(phase) * np.sin(dc * t / 2))
    return (a * np.eye(2) + b * n_sigma) @ d / np.sum(2.0 * wt)


DC = INAS_GAAS_QW.g_cb * MU_B_UEV_PER_T


@pytest.mark.parametrize("offset", [0.0, DC / 2, -DC / 2, 10.0])
@pytest.mark.parametrize("lineshape", ["gaussian", "lorentzian"])
@pytest.mark.parametrize("case", ["A", "B"])
def test_window_weights_match_time_domain_oracle(case, lineshape, offset,
                                                 scheme_a, scheme_b):
    """The window weights the conduction energy eigenstates: each one is
    reached at its own photon frequency.  In case B those are not the mS
    states, and an off-centre window filters along them."""
    scheme = scheme_a if case == "A" else scheme_b
    for bw in (23.0, 100.0):
        window = SpectralWindow(bw, offset, lineshape)
        top, partner = absorption_branches(scheme, window)
        for branch, is_partner in ((top, False), (partner, True)):
            want = _time_domain_kraus(case, window, is_partner)
            assert np.max(np.abs(branch.kraus - want)) < 1e-6, (bw, is_partner)


# --- precession and synchronized readout ------------------------------------

def test_precession_periodicity(scheme_b):
    tau = precession_period(0.4, 1.0)
    st = np.array([1, 0], dtype=complex)
    for n in range(1, 6):
        out = precession_unitary(scheme_b, n * tau) @ st
        assert abs(np.vdot(st, out)) ** 2 == pytest.approx(1.0, abs=1e-10)
    # a density matrix comes back the same state
    u = precession_unitary(scheme_b, 3 * tau)
    rho = u @ np.outer(st, st.conj()) @ u.conj().T
    assert np.max(np.abs(rho - np.outer(st, st.conj()))) < 1e-10


def test_precession_half_period_flips(scheme_b):
    tau = precession_period(0.4, 1.0)
    # matrix-exponential oracle: U = V diag(exp(-iE t/hbar)) V†
    from polspin.constants import HBAR_UEV_NS
    energies = np.array([lv.energy_uev for lv in scheme_b.conduction_levels])
    vecs = np.column_stack([lv.state for lv in scheme_b.conduction_levels])
    u_oracle = (vecs * np.exp(-1j * energies * (tau / 2) / HBAR_UEV_NS)) @ vecs.conj().T
    st = np.array([1, 0], dtype=complex)
    out = precession_unitary(scheme_b, tau / 2) @ st
    assert np.allclose(out, u_oracle @ st, atol=1e-12)
    assert abs(out[1]) ** 2 == pytest.approx(1.0, abs=1e-10)


def test_precession_zero_field_identity():
    scheme0 = build_level_scheme(CASE_B, INAS_GAAS_QW, FieldConfig(0.0))
    st = np.array([0.6, 0.8j])
    out = precession_unitary(scheme0, 17.3) @ st
    assert abs(np.vdot(st, out)) ** 2 == pytest.approx(1.0, abs=1e-12)


def logical_readout(state):
    return HADAMARD @ state


def test_synchronized_hadamard_zero_time(scheme_b):
    for q in rand_qubits(50, seed=9):
        out = absorb_case_b(PhotonQubit(q[0], q[1]), scheme_b)
        stored = (HADAMARD @ precession_unitary(scheme_b, 0.0)) @ electron_vector(out)
        logical = logical_readout(stored)
        assert abs(np.vdot(q, logical)) ** 2 == pytest.approx(1.0, abs=1e-10)


def test_synchronized_hadamard_full_periods(scheme_b):
    tau = precession_period(0.4, 1.0)
    st = np.array([0.48 + 0.36j, 0.8])
    for n in range(1, 6):
        stored = (HADAMARD @ precession_unitary(scheme_b, n * tau)) @ st
        logical = logical_readout(stored)
        want = logical_readout((HADAMARD @ precession_unitary(scheme_b, 0.0)) @ st)
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
    stored = (HADAMARD @ precession_unitary(scheme_b, tau / 4)) @ q
    logical = logical_readout(stored)
    assert abs(np.vdot(q, logical)) ** 2 == pytest.approx(
        abs(np.vdot(q, oracle(q, tau / 4))) ** 2, abs=1e-12)
    assert abs(np.vdot(q, logical)) ** 2 == pytest.approx(0.5, abs=1e-10)

    # an eigenstate input only picks up a global phase, fidelity stays 1
    q = np.array([SQ2, SQ2])
    stored = (HADAMARD @ precession_unitary(scheme_b, tau / 4)) @ q
    assert abs(np.vdot(q, logical_readout(stored))) ** 2 == pytest.approx(
        1.0, abs=1e-10)


# --- emission ---------------------------------------------------------------
# Emission is the pipeline's emit stage: an ideal scenario (no window, noise
# or gate error) returns the input photon exactly where emission inverts
# absorption.

def ideal(case, **kw):
    field = FieldConfig(0.0 if case == "degenerate" else 1.0)
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
    t, _ = _mode_map(scheme_b, [1.0, 0.0, 0.0])
    assert np.linalg.matrix_rank(t, tol=1e-10) == 1
    res = run_end_to_end([1, 0], ideal("B", emission_direction=(1.0, 0.0, 0.0)))
    assert res.round_trip_fidelity < 1.0 - 1e-6


def test_emit_off_axis_differs_before_compensation(scheme_a):
    q = np.array([SQ2, SQ2])
    out = absorb_case_a(PhotonQubit(q[0], q[1]), scheme_a,
                        compensate=True)
    t, _ = _mode_map(scheme_a, [1.0, 0.0, 0.0])
    raw = t @ electron_vector(out)
    assert abs(np.vdot(q, raw / np.linalg.norm(raw))) ** 2 < 1.0 - 1e-6


def test_emit_rank_deficient_lossy(scheme_a):
    # along +z the spin-up branch's z dipole is dark: it collects nothing,
    # and the frame map has rank 1
    t, fractions = _mode_map(scheme_a, [0.0, 0.0, 1.0])
    assert fractions[1] == 0.0 and fractions[0] > 0.0
    assert np.linalg.matrix_rank(t, tol=1e-10) == 1
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


@pytest.mark.parametrize("case", ["A", "B", "degenerate"])
@pytest.mark.parametrize("window", [None, SpectralWindow(100.0)],
                         ids=["no_window", "window"])
def test_unwanted_flag_marks_the_windowed_partner(case, window):
    """Only a window in a split case adds an unwanted branch, through the
    light hole below the target; the wanted branches come first, and the
    absorb stage's leakage row weighs the unwanted one alone."""
    cfg = ideal(case, window=window)
    scheme = cfg.scheme()
    holes = _absorbing_holes(scheme, window)
    branches = absorption_branches(scheme, window)
    flags = [br.unwanted for br in branches]
    assert flags == [unwanted for _, _, _, unwanted in holes]
    split = case != "degenerate"
    assert flags == ([False, True] if split and window else [False] * len(holes))
    if split:
        partner, top = scheme.light_hole_levels
        assert [level.label for _, level, _, _ in holes] == [
            top.label, partner.label][:len(holes)]
    # the leakage row, read at Haar inputs, is the diagonal Gram forms of
    # the branches after the wanted ones over the trace of all of them
    kraus, wanted = [br.kraus for br in branches], flags.count(False)
    forms = _gram_forms(kraus)[:len(kraus)]
    w, _, _ = end_to_end_stages(cfg)[0].hole_rows
    c = qs.pauli_vectors(haar_qubits(1, 50))
    i, j = np.triu_indices(4)
    want = forms[wanted:].sum(axis=0) @ c / forms[:, 0].sum()
    assert np.max(np.abs(w[0] @ (c[i] * c[j])[1:] - want)) <= 1e-12
    assert np.any(w[0]) == (True in flags)


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


# --- emission geometry against its former per-column construction ----------

def _old_transverse_frame(direction):
    n = np.asarray(direction, dtype=float)
    n = n / np.linalg.norm(n)
    e1 = np.array([0.0, 0.0, 1.0]) - n[2] * n
    if np.linalg.norm(e1) < 1e-9:
        e1 = np.array([1.0, 0.0, 0.0])
    e1 = e1 / np.linalg.norm(e1)
    return e1.astype(complex), np.cross(n, e1).astype(complex)


def _old_branch_dipole_vectors(scheme):
    vectors = []
    for ms, hole in zip((-0.5, +0.5), _RECOMBINING_HOLES[scheme.case]):
        d = np.zeros(3, dtype=complex)
        for m, amp in enumerate(scheme.valence_levels[hole].state):
            if amp == 0:
                continue
            for coeff, ml, term_ms in _ls_terms(m):
                if term_ms == ms:
                    d = d + amp * coeff * E_SPH[-ml]
        vectors.append(d)
    return vectors


def _old_mode_map(scheme, direction):
    """The former frame map: one branch dipole at a time."""
    n = np.asarray(direction, dtype=float)
    n = n / np.linalg.norm(n)
    e1, e2 = _old_transverse_frame(n)
    t = np.zeros((2, 2), dtype=complex)
    fractions = np.zeros(2)
    for col, d in enumerate(_old_branch_dipole_vectors(scheme)):
        proj = d - (n @ d) * n.astype(complex)
        norm = np.linalg.norm(proj)
        fractions[col] = (norm / np.linalg.norm(d)) ** 2
        if norm < 1e-12:
            continue
        t[0, col] = np.vdot(e1, proj / norm)
        t[1, col] = np.vdot(e2, proj / norm)
    if np.max(np.abs(t)) < 1e-12:
        raise DarkDirection("no recombination branch radiates into this direction")
    return t, fractions


EDGE_DIRECTIONS = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0),
                   (0.0, 1.0, 0.0), (1e-12, 0.0, 1.0), (0.3, 0.2, 1.0)]


@pytest.mark.parametrize("case", ["A", "B", "degenerate"])
def test_mode_map_matches_per_column_loop(case):
    """Both spin branches at once give the per-branch loop's frame map and
    fractions, and the written-out cross product np.cross's frame, over
    random directions and the axes (where the frame falls back to +x)."""
    scheme = EMISSION_SCHEMES[case]()
    assert np.array_equal(branch_dipole_vectors(scheme),
                          _old_branch_dipole_vectors(scheme))
    rng = np.random.default_rng(sum(map(ord, case)))
    for direction in list(rng.standard_normal((60, 3))) + EDGE_DIRECTIONS:
        e1, e2 = _old_transverse_frame(direction)
        assert np.array_equal(transverse_frame(direction), [e1, e2])
        t, fractions = _mode_map(scheme, direction)
        t_old, fractions_old = _old_mode_map(scheme, direction)
        assert np.max(np.abs(t - t_old)) < 1e-15, direction
        assert np.max(np.abs(fractions - fractions_old)) < 1e-15, direction


@pytest.mark.parametrize("case,direction", [("B", (1.0, 0.0, 0.0)),
                                            ("A", (0.0, 0.0, 1.0))])
def test_mode_map_rank_deficient_matches_per_column_loop(case, direction):
    # along B the two circular branches share a mode; along z case A's
    # spin-up branch is dark and keeps a zero column
    scheme = EMISSION_SCHEMES[case]()
    t, fractions = _mode_map(scheme, direction)
    t_old, fractions_old = _old_mode_map(scheme, direction)
    assert np.linalg.matrix_rank(t, tol=1e-10) == 1
    assert np.max(np.abs(t - t_old)) < 1e-15
    assert np.array_equal(fractions == 0.0, fractions_old == 0.0)


def test_mode_map_dark_direction_matches_per_column_loop(monkeypatch):
    # both branch dipoles along z, collected along z: both constructions
    # refuse the direction
    import polspin.transfer as tr
    dipoles = np.array([[0, 0, 1.0], [0, 0, 0.5]], dtype=complex)
    monkeypatch.setattr(tr, "branch_dipole_vectors", lambda s: dipoles)
    monkeypatch.setitem(globals(), "_old_branch_dipole_vectors",
                        lambda s: list(dipoles))
    scheme = EMISSION_SCHEMES["A"]()
    for mode_map in (tr._mode_map, _old_mode_map):
        with pytest.raises(DarkDirection):
            mode_map(scheme, (0.0, 0.0, 1.0))


# --- emission against its former construction -------------------------------

def _old_emission_kraus(scheme, direction=None):
    """The former emission: canonical map @ inv(T) @ T, with the
    pseudo-inverse where T is rank-deficient (a dark branch zeroes a
    column, so that covers the former lossy flag too), split by the
    projectors onto the two spins in the degenerate case."""
    t_can, _ = _mode_map(scheme, scheme.canonical_k)
    t = t_can if direction is None else _mode_map(scheme, direction)[0]
    invert = (np.linalg.pinv if np.linalg.matrix_rank(t, tol=1e-10) < 2
              else np.linalg.inv)
    geometry = _frame_to_basis(scheme) @ t_can @ invert(t) @ t
    if scheme.case == "degenerate":
        return [geometry @ np.diag(e).astype(complex) for e in np.eye(2)]
    return [geometry]


EMISSION_SCHEMES = {
    "A": lambda: build_level_scheme(CASE_A, INAS_GAAS_QW, FieldConfig(1.0)),
    "B": lambda: build_level_scheme(CASE_B, INAS_GAAS_QW, FieldConfig(1.0)),
    "degenerate": degenerate_scheme,
}


@pytest.mark.parametrize("case", sorted(EMISSION_SCHEMES))
def test_emission_default_direction_equals_old_construction(case):
    scheme = EMISSION_SCHEMES[case]()
    kraus, _ = emission_map(scheme)
    old = _old_emission_kraus(scheme)
    assert len(kraus) == len(old)
    assert all(np.array_equal(k, o) for k, o in zip(kraus, old))


@pytest.mark.parametrize("direction", [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                       (0.0, 0.0, 1.0), (0.0, 0.0, -1.0),
                                       (0.3, 0.2, 1.0), (-1.0, 0.5, 0.2)])
@pytest.mark.parametrize("case", sorted(EMISSION_SCHEMES))
def test_emission_explicit_direction_matches_old_construction(case, direction):
    scheme = EMISSION_SCHEMES[case]()
    kraus, fractions = emission_map(scheme, direction)
    old = _old_emission_kraus(scheme, direction)
    assert len(kraus) == len(old)
    assert max(np.max(np.abs(k - o)) for k, o in zip(kraus, old)) < 1e-14
    assert np.array_equal(fractions, _mode_map(scheme, direction)[1])
