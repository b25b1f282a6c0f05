import math

import numpy as np
import pytest

from polspin.qstate import (ELECTRON, HilbertFactor, PURE,
                            QuantumState, choi_from_ptm, choi_of_map,
                            density_from_pauli, density_state,
                            entanglement_entropy, fidelity, is_cptp,
                            partial_trace, pauli_vectors, process_fidelity,
                            ptm_from_choi, ptm_from_kraus, pure_state,
                            purity)

HOLE2 = HilbertFactor("hole", 2)
HOLE4 = HilbertFactor("hole", 4)

SQ2 = 1.0 / math.sqrt(2.0)


def rand_qubit(rng):
    z = rng.standard_normal(4)
    v = np.array([z[0] + 1j * z[1], z[2] + 1j * z[3]])
    return v / np.linalg.norm(v)


def entangled_pair(alpha, beta):
    """alpha |h0 e0> + beta |h3 e1> on electron ⊗ hole(4), electron slow axis."""
    vec = np.zeros(8, dtype=complex)
    vec[0 * 4 + 0] = alpha
    vec[1 * 4 + 3] = beta
    return pure_state(vec, (ELECTRON, HOLE4))


# --- construction -----------------------------------------------------------

def test_factor_constraints():
    with pytest.raises(ValueError):
        HilbertFactor("photon", 3)
    with pytest.raises(ValueError):
        HilbertFactor("hole", 3)
    with pytest.raises(ValueError):
        HilbertFactor("spin", 2)


def test_pure_state_norm_enforced():
    with pytest.raises(ValueError):
        QuantumState((ELECTRON,), PURE, np.array([1.0, 1.0]))


def test_density_invariants():
    with pytest.raises(ValueError):
        density_state(np.array([[0.5, 0.5], [0.1, 0.5]]), (ELECTRON,))
    with pytest.raises(ValueError):
        density_state(np.array([[0.9, 0.0], [0.0, 0.5]]), (ELECTRON,))
    with pytest.raises(ValueError):
        density_state(np.array([[1.5, 0.0], [0.0, -0.5]]), (ELECTRON,))


# --- tensor product ---------------------------------------------------------

def test_tensor_product_schmidt_rank_one():
    rng = np.random.default_rng(3)
    st = pure_state(np.kron(rand_qubit(rng), [1, 0]), (ELECTRON, HOLE2))
    assert entanglement_entropy(st, ("electron_spin",)) == pytest.approx(0.0, abs=1e-12)


def test_tensor_duplicate_label_rejected():
    with pytest.raises(ValueError):
        pure_state([1, 0, 0, 0], (ELECTRON, ELECTRON))


# --- partial trace ----------------------------------------------------------

def test_partial_trace_product_state_pure():
    st = pure_state(np.kron([0.6, 0.8], [SQ2, SQ2]), (ELECTRON, HOLE2))
    red = partial_trace(st, ("electron_spin",))
    assert purity(red) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(red.amplitudes, np.outer([0.6, 0.8], [0.6, 0.8]))


def test_partial_trace_bell_like_oracle():
    """Direct dense oracle: build the 8x8 density matrix by hand and trace
    the hole indices with explicit loops."""
    st = entangled_pair(SQ2, SQ2)
    rho = np.outer(st.amplitudes, st.amplitudes.conj())
    oracle = np.zeros((2, 2), dtype=complex)
    for e1 in range(2):
        for e2 in range(2):
            for h in range(4):
                oracle[e1, e2] += rho[e1 * 4 + h, e2 * 4 + h]
    red = partial_trace(st, ("electron_spin",))
    assert np.allclose(red.amplitudes, oracle, atol=1e-14)
    assert np.allclose(red.amplitudes, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_keeps_trace_one():
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        st = pure_state(v, (ELECTRON, HOLE4))
        red = partial_trace(st, ("hole",))
        assert np.trace(red.amplitudes).real == pytest.approx(1.0, abs=1e-12)


def test_partial_trace_unknown_label():
    st = entangled_pair(1.0, 0.0)
    with pytest.raises(ValueError):
        partial_trace(st, ("photon",))


# --- entropy and purity -----------------------------------------------------

def test_entropy_product_state_zero():
    assert entanglement_entropy(entangled_pair(1.0, 0.0),
                                ("hole",)) == pytest.approx(0.0, abs=1e-12)


def test_entropy_symmetric_one_bit():
    assert entanglement_entropy(entangled_pair(SQ2, SQ2),
                                ("electron_spin",)) == pytest.approx(1.0, abs=1e-12)


def test_entropy_biased_oracle():
    # independent oracle: -sum p log2 p on the squared Schmidt coefficients
    p = 0.9
    want = -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
    st = entangled_pair(math.sqrt(p), math.sqrt(1 - p))
    assert entanglement_entropy(st, ("electron_spin",)) == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(0.468996, abs=1e-6)


def test_entropy_requires_pure():
    mixed = density_state(np.eye(2) / 2, (ELECTRON,))
    with pytest.raises(ValueError):
        entanglement_entropy(mixed, ("electron_spin",))


def test_entropy_purity_equivalence():
    rng = np.random.default_rng(5)
    for _ in range(50):
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        st = pure_state(v, (ELECTRON, HOLE4))
        ent = entanglement_entropy(st, ("electron_spin",))
        pur = purity(partial_trace(st, ("electron_spin",)))
        if ent < 1e-12:
            assert pur == pytest.approx(1.0, abs=1e-10)
        if abs(pur - 1.0) < 1e-12:
            assert ent == pytest.approx(0.0, abs=1e-10)


def test_purity_extremes():
    assert purity(pure_state([0.6, 0.8], (ELECTRON,))) == pytest.approx(1.0, abs=1e-12)
    assert purity(density_state(np.eye(2) / 2, (ELECTRON,))) == pytest.approx(0.5, abs=1e-12)


# --- fidelity ----------------------------------------------------------------

def test_fidelity_identical_and_orthogonal():
    a = pure_state([1, 0], (ELECTRON,))
    b = pure_state([0, 1], (ELECTRON,))
    assert fidelity(a, a) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(a, b) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_plus_vs_maximally_mixed():
    plus = pure_state([SQ2, SQ2], (ELECTRON,))
    mixed = density_state(np.eye(2) / 2, (ELECTRON,))
    assert fidelity(plus, mixed) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_symmetric_random():
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = pure_state(rand_qubit(rng), (ELECTRON,))
        # random density matrix
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = m @ m.conj().T
        rho = rho / np.trace(rho).real
        b = density_state(rho, (ELECTRON,))
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-12)
        assert fidelity(a, a) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(b, b) == pytest.approx(1.0, abs=1e-10)


def test_fidelity_mixed_mixed_uhlmann_oracle():
    # closed form for commuting diagonal states: F = (sum sqrt(p q))²
    a = density_state(np.diag([0.7, 0.3]), (ELECTRON,))
    b = density_state(np.diag([0.2, 0.8]), (ELECTRON,))
    want = (math.sqrt(0.7 * 0.2) + math.sqrt(0.3 * 0.8)) ** 2
    assert fidelity(a, b) == pytest.approx(want, abs=1e-12)


def test_fidelity_dimension_mismatch():
    a = pure_state([1, 0], (ELECTRON,))
    b = pure_state([1, 0, 0, 0], (HOLE4,))
    with pytest.raises(ValueError):
        fidelity(a, b)


# --- channels ----------------------------------------------------------------

def dephasing_kraus(gamma):
    return (math.sqrt((1 + gamma) / 2) * np.eye(2),
            math.sqrt((1 - gamma) / 2) * np.diag([1.0, -1.0]))


def test_identity_channel():
    assert np.array_equal(ptm_from_kraus([np.eye(2)]), np.eye(4))
    c = pauli_vectors(np.array([[0.6, 0.8]]))[:, 0]
    out = density_from_pauli(ptm_from_kraus([np.eye(2)]) @ c)
    assert np.allclose(out, np.outer([0.6, 0.8], [0.6, 0.8]), atol=1e-14)


def test_full_dephasing_on_plus():
    c = pauli_vectors(np.array([[SQ2, SQ2]]))[:, 0]
    out = density_from_pauli(ptm_from_kraus(dephasing_kraus(0.0)) @ c)
    assert np.allclose(out, np.eye(2) / 2, atol=1e-12)


def test_uhlmann_matches_pure_overlap():
    # exercises the general eigendecomposition path with rank-1 inputs;
    # its precision floor is set by sqrt of the clipped eigenvalue dust
    rng = np.random.default_rng(13)
    for _ in range(20):
        a, b = rand_qubit(rng), rand_qubit(rng)
        fa = fidelity(density_state(np.outer(a, a.conj()), (ELECTRON,)),
                      density_state(np.outer(b, b.conj()), (ELECTRON,)))
        assert fa == pytest.approx(abs(np.vdot(a, b)) ** 2, abs=1e-7)


def test_trace_preserved_random_states():
    rng = np.random.default_rng(21)
    ptm = ptm_from_kraus(dephasing_kraus(0.37))
    c = pauli_vectors(np.array([rand_qubit(rng) for _ in range(1000)]))
    # the output trace is the first Pauli component
    assert np.max(np.abs((ptm @ c)[0] - 1.0)) < 1e-12


# --- choi / cptp -------------------------------------------------------------

def test_choi_identity():
    choi = choi_from_ptm(ptm_from_kraus([np.eye(2)]))
    omega = np.zeros(4, dtype=complex)
    omega[0] = omega[3] = SQ2
    assert np.allclose(choi, np.outer(omega, omega.conj()), atol=1e-14)
    evals = np.sort(np.linalg.eigvalsh(choi))
    assert evals[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.abs(evals[:-1]) < 1e-12)
    assert is_cptp(choi, tol=1e-8)


def test_choi_dephasing_off_diagonal():
    gamma = math.exp(-1.0)
    choi = choi_from_ptm(ptm_from_kraus(dephasing_kraus(gamma)))
    # analytic form: off-diagonal |0><1| block scaled by gamma
    assert choi[0, 3] == pytest.approx(gamma / 2, abs=1e-12)
    assert choi[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert is_cptp(choi, tol=1e-8)


def test_cptp_rejects_negative_eigenvalue():
    bad = np.diag([0.5, -0.01, 0.0, 0.51]).astype(complex)
    assert not is_cptp(bad, tol=1e-6)


def test_cptp_conditional_subnormalized():
    k = np.diag([0.5, 0.5]).astype(complex)
    choi = choi_from_ptm(ptm_from_kraus([k]))
    assert is_cptp(choi, tol=1e-8, conditional=True)
    assert not is_cptp(choi, tol=1e-8, conditional=False)


def rand_kraus(rng, n_ops, scale):
    """n_ops Kraus operators of a random map with sum K†K = scale² I."""
    z = rng.standard_normal((2 * n_ops, 2)) + 1j * rng.standard_normal((2 * n_ops, 2))
    v, _ = np.linalg.qr(z)                      # isometry: v†v = I
    return [scale * v[2 * i:2 * i + 2] for i in range(n_ops)]


@pytest.mark.parametrize("n_ops,scale", [(1, 1.0), (2, 1.0), (4, 1.0),
                                         (1, 0.8), (3, 0.3)])
def test_choi_ptm_round_trip(n_ops, scale):
    rng = np.random.default_rng(100 * n_ops + int(10 * scale))
    for _ in range(20):
        kraus = rand_kraus(rng, n_ops, scale)
        choi = choi_of_map(lambda rho: sum(k @ rho @ k.conj().T for k in kraus))
        ptm = ptm_from_choi(choi)
        assert ptm.dtype == np.float64
        assert np.max(np.abs(ptm - ptm_from_kraus(kraus))) < 1e-14
        assert np.max(np.abs(choi_from_ptm(ptm) - choi)) < 1e-14
        # sum K†K = scale² I: the first row is scale² (1, 0, 0, 0)
        assert np.max(np.abs(ptm[0] - [scale ** 2, 0, 0, 0])) < 1e-14
        assert is_cptp(choi_from_ptm(ptm), tol=1e-10, conditional=True)


def _choi_by_matrix_units(apply_map):
    """Oracle: ½ Σ_ij Φ(|i><j|) ⊗ |i><j|, four runs of any linear map."""
    units = np.eye(4, dtype=complex).reshape(4, 2, 2)
    return 0.5 * sum(np.kron(apply_map(e), e) for e in units)


def _kraus_map(kraus):
    return lambda rho: sum(k @ rho @ k.conj().T for k in kraus)


@pytest.mark.parametrize("n_ops", [1, 2, 3, 4])
def test_choi_of_map_two_probes_match_oracles(n_ops):
    """Trace-preserving, conditional and unnormalized Kraus maps: the two
    probes give the Choi matrix of the four matrix units and the PTM of
    the Kraus operators."""
    rng = np.random.default_rng(40 + n_ops)
    for _ in range(20):
        raw = rng.standard_normal((n_ops, 2, 2)) + 1j * rng.standard_normal((n_ops, 2, 2))
        for kraus in (rand_kraus(rng, n_ops, 1.0), rand_kraus(rng, n_ops, 0.7), raw):
            choi = choi_of_map(_kraus_map(kraus))
            assert np.max(np.abs(choi - _choi_by_matrix_units(_kraus_map(kraus)))) < 1e-12
            assert np.max(np.abs(ptm_from_choi(choi) - ptm_from_kraus(kraus))) < 1e-12


def test_choi_of_map_needs_hermiticity_not_cp():
    # the transpose preserves Hermiticity but is not completely positive
    choi = choi_of_map(lambda rho: rho.T)
    assert np.max(np.abs(choi - _choi_by_matrix_units(lambda rho: rho.T))) < 1e-12
    assert np.max(np.abs(ptm_from_choi(choi) - np.diag([1, 1, -1, 1]))) < 1e-12
    assert not is_cptp(choi, tol=1e-8)
    # rho -> rho X does not preserve Hermiticity: two probes cannot fix it
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    wrong = choi_of_map(lambda rho: rho @ x)
    assert np.max(np.abs(wrong - _choi_by_matrix_units(lambda rho: rho @ x))) > 0.1


def test_ptm_acts_on_pauli_vectors():
    rng = np.random.default_rng(8)
    kraus = rand_kraus(rng, 3, 0.9)
    amps = np.array([rand_qubit(rng) for _ in range(10)])
    c = pauli_vectors(amps)
    assert c.shape == (4, 10) and c.flags.c_contiguous
    assert np.max(np.abs(c[0] - 1.0)) < 1e-14
    for q, cq in zip(amps, c.T):
        rho = np.outer(q, q.conj())
        assert np.max(np.abs(density_from_pauli(cq) - rho)) < 1e-14
        out = sum(k @ rho @ k.conj().T for k in kraus)
        got = density_from_pauli(ptm_from_kraus(kraus) @ cq)
        assert np.max(np.abs(got - out)) < 1e-14


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 complex(0.0, math.nan)])
def test_cptp_rejects_non_finite(bad):
    choi = choi_from_ptm(np.eye(4))
    assert is_cptp(choi, tol=1e-8)
    choi[1, 2] = bad
    assert not is_cptp(choi, tol=1e-8)
    assert not is_cptp(choi, tol=1e-8, conditional=True)


def test_process_fidelity_identity_and_depolarizing():
    assert process_fidelity(choi_from_ptm(np.eye(4))) == pytest.approx(1.0, abs=1e-12)
    # fully depolarizing: rho -> I/2, entanglement fidelity 1/4
    choi = choi_of_map(lambda rho: np.trace(rho) * np.eye(2) / 2)
    assert process_fidelity(choi) == pytest.approx(0.25, abs=1e-12)
