import math

import numpy as np
import pytest

from polspin.qstate import (PAULIS, choi_from_ptm, choi_of_map,
                            density_from_pauli, entanglement_entropy, is_cptp,
                            pauli_vectors, process_fidelity, ptm_from_choi,
                            ptm_from_kraus, purity)
from polspin.transfer import AbsorptionOutcome

SQ2 = 1.0 / math.sqrt(2.0)


def rand_qubit(rng):
    z = rng.standard_normal(4)
    v = np.array([z[0] + 1j * z[1], z[2] + 1j * z[3]])
    return v / np.linalg.norm(v)


def rand_pair(rng):
    """A random normalised 2x4 electron ⊗ hole coefficient matrix."""
    m = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    return m / np.linalg.norm(m)


def entangled_pair(alpha, beta):
    """alpha |e0 h0> + beta |e1 h3> as a (2, 4) electron x hole matrix."""
    m = np.zeros((2, 4), dtype=complex)
    m[0, 0] = alpha
    m[1, 3] = beta
    return m


def outcome(m):
    return AbsorptionOutcome(m, 1.0, 0.0)


# --- tensor product ---------------------------------------------------------

def test_tensor_product_schmidt_rank_one():
    rng = np.random.default_rng(3)
    m = np.outer(rand_qubit(rng), [1, 0])
    assert entanglement_entropy(m) == pytest.approx(0.0, abs=1e-12)


# --- partial trace ----------------------------------------------------------

def test_partial_trace_product_state_pure():
    red = outcome(np.outer([0.6, 0.8], [SQ2, SQ2])).electron_state()
    assert purity(red) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(red, np.outer([0.6, 0.8], [0.6, 0.8]))


def test_partial_trace_bell_like_oracle():
    """Direct dense oracle: build the 8x8 density matrix by hand and trace
    the hole indices with explicit loops."""
    m = entangled_pair(SQ2, SQ2)
    vec = m.ravel()                    # electron index is the slow axis
    rho = np.outer(vec, vec.conj())
    oracle = np.zeros((2, 2), dtype=complex)
    for e1 in range(2):
        for e2 in range(2):
            for h in range(4):
                oracle[e1, e2] += rho[e1 * 4 + h, e2 * 4 + h]
    red = outcome(m).electron_state()
    assert np.allclose(red, oracle, atol=1e-14)
    assert np.allclose(red, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_keeps_trace_one():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = rand_pair(rng)
        vec = m.ravel()
        rho = np.outer(vec, vec.conj())
        oracle = np.zeros((4, 4), dtype=complex)
        for h1 in range(4):
            for h2 in range(4):
                for e in range(2):
                    oracle[h1, h2] += rho[e * 4 + h1, e * 4 + h2]
        red = outcome(m).hole_state()
        assert np.max(np.abs(red - oracle)) < 1e-14
        assert np.trace(red).real == pytest.approx(1.0, abs=1e-12)


# --- entropy and purity -----------------------------------------------------

def test_entropy_product_state_zero():
    assert entanglement_entropy(entangled_pair(1.0, 0.0)) == pytest.approx(
        0.0, abs=1e-12)


def test_entropy_symmetric_one_bit():
    assert entanglement_entropy(entangled_pair(SQ2, SQ2)) == pytest.approx(
        1.0, abs=1e-12)


def test_entropy_biased_oracle():
    # independent oracle: -sum p log2 p on the squared Schmidt coefficients
    p = 0.9
    want = -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
    m = entangled_pair(math.sqrt(p), math.sqrt(1 - p))
    assert entanglement_entropy(m) == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(0.468996, abs=1e-6)


def test_entropy_matches_reduced_state_eigenvalues():
    """-Σ λ log₂ λ over the eigenvalues λ of the electron reduced matrix,
    built with explicit loops."""
    rng = np.random.default_rng(17)
    for _ in range(50):
        m = rand_pair(rng)
        red = np.zeros((2, 2), dtype=complex)
        for e1 in range(2):
            for e2 in range(2):
                for h in range(4):
                    red[e1, e2] += m[e1, h] * np.conj(m[e2, h])
        want = -sum(lam * math.log2(lam) for lam in np.linalg.eigvalsh(red)
                    if lam > 0)
        assert abs(entanglement_entropy(m) - want) < 1e-12


def test_entropy_purity_equivalence():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = rand_pair(rng)
        ent = entanglement_entropy(m)
        pur = purity(outcome(m).electron_state())
        if ent < 1e-12:
            assert pur == pytest.approx(1.0, abs=1e-10)
        if abs(pur - 1.0) < 1e-12:
            assert ent == pytest.approx(0.0, abs=1e-10)


def test_purity_extremes():
    assert purity(np.outer([0.6, 0.8], [0.6, 0.8])) == pytest.approx(1.0, abs=1e-12)
    assert purity(np.eye(2) / 2) == pytest.approx(0.5, abs=1e-12)


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


def _ptm_by_pauli_images(kraus):
    """Oracle: R_ij = ½ tr(σ_i Σ_k K σ_j K†), each Pauli image formed
    operator by operator."""
    images = sum(k @ PAULIS @ k.conj().T for k in kraus)      # Φ(σ_j)
    return 0.5 * np.einsum("iab,jba->ij", PAULIS, images).real


@pytest.mark.parametrize("n_ops", [1, 2, 3, 4])
def test_ptm_from_kraus_matches_pauli_images(n_ops):
    """The one-contraction superoperator route agrees with the Pauli images
    of each operator, on trace-preserving and conditional random sets."""
    rng = np.random.default_rng(70 + n_ops)
    for _ in range(50):
        for scale in (1.0, 0.6):
            kraus = rand_kraus(rng, n_ops, scale)
            got = ptm_from_kraus(kraus)
            assert got.shape == (4, 4) and got.dtype == np.float64
            assert np.max(np.abs(got - _ptm_by_pauli_images(kraus))) < 1e-15
    # a stacked array and a list of arrays are the same Kraus set
    assert np.array_equal(ptm_from_kraus(np.array(kraus)), ptm_from_kraus(kraus))


def test_ptm_from_kraus_stacks_channels():
    """A (P, n, 2, 2) stack of Kraus sets maps to the (P, 4, 4) stack of
    their PTMs, each bit for bit the PTM of its set alone."""
    rng = np.random.default_rng(77)
    sets = np.array([rand_kraus(rng, 3, scale) for scale in (1.0, 0.6, 0.3)])
    got = ptm_from_kraus(sets)
    assert got.shape == (3, 4, 4)
    assert all(np.array_equal(g, ptm_from_kraus(k)) for g, k in zip(got, sets))
    assert np.array_equal(ptm_from_kraus(sets[None]), got[None])


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
