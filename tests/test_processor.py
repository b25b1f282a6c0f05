import math

import numpy as np
import pytest

from polspin.bands import zeeman_splitting
from polspin.processor import (_PAULI, _embed, _site_pauli, DonorChain,
                               G_DONOR_LAYER, G_TUNING_LAYER, exchange_gate,
                               fresh_chain, load_site, resonance_detuning,
                               shuttle, single_qubit_gate, site_channel_map)
from polspin.pipeline import _superop_from_map
from polspin.transfer import HADAMARD

SQ2 = 1.0 / math.sqrt(2.0)

X = np.array([[0, 1], [1, 0]], dtype=complex)
CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=complex)


def chain_unitary(ops, n=2):
    """Compose gate functions on a noiseless chain, return the full map on
    basis states for truth-table checks."""
    dim = 2 ** n
    cols = []
    for b in range(dim):
        chain = fresh_chain(n)
        rho = np.zeros((dim, dim), dtype=complex)
        rho[b, b] = 1.0
        chain = DonorChain(n, rho)
        for op in ops:
            chain = op(chain)
        cols.append(chain.rho)
    return cols


def qubit_at(chain, site):
    return chain.site_reduced(site)


def test_rotation_2pi_identity():
    chain = fresh_chain(1)
    chain = single_qubit_gate(chain, 0, "x", math.pi / 3)
    before = chain.rho.copy()
    chain = single_qubit_gate(chain, 0, "y", 2 * math.pi)
    assert np.max(np.abs(chain.rho - before)) < 1e-12


def test_x_pi_flips():
    chain = fresh_chain(1)
    chain = single_qubit_gate(chain, 0, "x", math.pi)
    assert np.allclose(chain.rho, np.diag([0.0, 1.0]), atol=1e-12)


def test_rotation_unitary_det_one():
    for axis in "xyz":
        for angle in (0.3, math.pi / 2, 2.2):
            c, s = math.cos(angle / 2), math.sin(angle / 2)
            pauli = {"x": X, "y": np.array([[0, -1j], [1j, 0]]),
                     "z": np.diag([1, -1])}[axis]
            u = c * np.eye(2) - 1j * s * pauli
            assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12


def test_hadamard_composition_matches_transfer():
    """Y(pi/2)·Z(pi) equals the transfer module's Hadamard up to phase."""
    cz = math.cos(math.pi / 2)
    y = (math.cos(math.pi / 4) * np.eye(2)
         - 1j * math.sin(math.pi / 4) * np.array([[0, -1j], [1j, 0]]))
    z = (math.cos(math.pi / 2) * np.eye(2)
         - 1j * math.sin(math.pi / 2) * np.diag([1, -1]))
    composed = y @ z
    phase = composed[0, 0] / HADAMARD[0, 0]
    assert abs(abs(phase) - 1.0) < 1e-12
    assert np.max(np.abs(composed - phase * HADAMARD)) < 1e-12


def test_bad_site_rejected():
    chain = fresh_chain(2)
    with pytest.raises(IndexError):
        single_qubit_gate(chain, 2, "x", 1.0)
    with pytest.raises(IndexError):
        exchange_gate(chain, 1, 0.5)


def test_full_swap_on_01():
    chain = fresh_chain(2)
    chain = single_qubit_gate(chain, 1, "x", math.pi)   # |01>
    chain = exchange_gate(chain, 0, 1.0)
    want = np.zeros((4, 4), dtype=complex)
    want[2, 2] = 1.0   # |10>
    assert np.max(np.abs(chain.rho - want)) < 1e-12


def test_sqrt_swap_squares_to_swap():
    rng = np.random.default_rng(5)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v /= np.linalg.norm(v)
    rho = np.outer(v, v.conj())
    a = DonorChain(2, rho)
    a = exchange_gate(exchange_gate(a, 0, 0.5), 0, 0.5)
    b = exchange_gate(DonorChain(2, rho), 0, 1.0)
    assert np.max(np.abs(a.rho - b.rho)) < 1e-12


def test_exchange_conserves_total_sz():
    # [U, Z⊗I + I⊗Z] = 0
    u4 = np.eye(4, dtype=complex)
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    p_singlet = (np.eye(4) - swap) / 2
    for f in (0.3, 0.5, 1.0, 1.7):
        u = np.eye(4) + (np.exp(-1j * math.pi * f) - 1) * p_singlet
        zz = np.kron(np.diag([1, -1]), np.eye(2)) + np.kron(np.eye(2), np.diag([1, -1]))
        assert np.max(np.abs(u @ zz - zz @ u)) < 1e-12
        assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-12


def test_cnot_from_sqrt_swap_truth_table():
    """sqrtSWAP plus z rotations compose to a CZ (the exchange-based
    construction: Rz1(-pi/2)·Rz2(pi/2)·sqrtSWAP·Rz1(-pi)·sqrtSWAP);
    Hadamards on the target turn it into a CNOT, checked on all four
    basis states against the canonical matrix."""
    cz_ops = [
        lambda c: exchange_gate(c, 0, 0.5),
        lambda c: single_qubit_gate(c, 0, "z", -math.pi),
        lambda c: exchange_gate(c, 0, 0.5),
        lambda c: single_qubit_gate(c, 1, "z", math.pi / 2),
        lambda c: single_qubit_gate(c, 0, "z", -math.pi / 2),
    ]

    def hadamard_t(c):
        u = np.kron(np.eye(2), HADAMARD)
        return DonorChain(c.n_sites, u @ c.rho @ u.conj().T,
                          gate_error=c.gate_error)

    seq = [hadamard_t] + cz_ops + [hadamard_t]
    outs = chain_unitary(seq, n=2)
    for b in range(4):
        got = outs[b]
        target = int(np.argmax(np.abs(CNOT[:, b])))
        assert np.abs(got[target, target]) == pytest.approx(1.0, abs=1e-10)


def test_cz_from_sqrt_swap_matrix():
    """Matrix composition oracle: the sequence equals CZ up to global phase."""
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                    dtype=complex)
    s = np.eye(4) + (np.exp(-1j * math.pi / 2) - 1) * (np.eye(4) - swap) / 2

    def rz(theta):
        return np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])

    u = (np.kron(rz(-math.pi / 2), np.eye(2))
         @ np.kron(np.eye(2), rz(math.pi / 2))
         @ s @ np.kron(rz(-math.pi), np.eye(2)) @ s)
    cz = np.diag([1, 1, 1, -1]).astype(complex)
    overlap = abs(np.trace(u.conj().T @ cz)) / 4
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_shuttle_adjacent_noiseless():
    rng = np.random.default_rng(6)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v /= np.linalg.norm(v)
    chain = load_site(fresh_chain(4), 0, np.outer(v, v.conj()))
    chain = shuttle(chain, 0, 1)
    assert np.max(np.abs(qubit_at(chain, 1) - np.outer(v, v.conj()))) < 1e-12


def test_shuttle_to_self_identity():
    chain = load_site(fresh_chain(3), 1, np.diag([0.3, 0.7]).astype(complex))
    out = shuttle(chain, 1, 1)
    assert np.max(np.abs(out.rho - chain.rho)) < 1e-14


def test_shuttle_long_noiseless_permutation():
    rng = np.random.default_rng(7)
    for _ in range(10):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        chain = load_site(fresh_chain(4), 0, np.outer(v, v.conj()))
        chain = shuttle(chain, 0, 3)
        assert np.max(np.abs(qubit_at(chain, 3) - np.outer(v, v.conj()))) < 1e-12
        # the vacated sites hold |0> again
        assert qubit_at(chain, 0)[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_shuttle_is_pure_permutation():
    """Noiseless shuttling permutes tensor factors exactly: checked on all
    2-qubit basis states and on random entangled 4-qubit states."""
    # 2-qubit: SWAP truth table
    for b in range(4):
        rho = np.zeros((4, 4), dtype=complex)
        rho[b, b] = 1.0
        out = shuttle(DonorChain(2, rho), 0, 1)
        swapped = (b >> 1) | ((b & 1) << 1)
        assert out.rho[swapped, swapped] == pytest.approx(1.0, abs=1e-12)
    # 4-qubit: random entangled pure states, shuttle site 0 -> 3
    rng = np.random.default_rng(9)
    for _ in range(5):
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        v /= np.linalg.norm(v)
        chain = DonorChain(4, np.outer(v, v.conj()))
        out = shuttle(chain, 0, 3)
        # oracle: adjacent SWAP chain as an index permutation of the state
        t = v.reshape(2, 2, 2, 2)
        for a, b in ((0, 1), (1, 2), (2, 3)):
            axes = list(range(4))
            axes[a], axes[b] = axes[b], axes[a]
            t = t.transpose(axes)
        w = t.reshape(16)
        assert np.max(np.abs(out.rho - np.outer(w, w.conj()))) < 1e-12


def test_shuttle_noise_oracle():
    """Depolarizing composition oracle for a 5-hop shuttle at e=0.01: each
    hop leaves the data qubit with one single-qubit depolarizing kick."""
    eps = 0.01
    v = np.array([1.0, 0.0], dtype=complex)
    rho = np.outer(v, v.conj())

    def depol(r):
        paulis = [X, np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
        return (1 - eps) * r + eps / 3 * sum(p @ r @ p.conj().T for p in paulis)

    oracle = rho
    for _ in range(5):
        oracle = depol(oracle)
    chain = load_site(fresh_chain(6, gate_error=eps), 0, rho)
    chain = shuttle(chain, 0, 5)
    got = qubit_at(chain, 5)
    assert np.max(np.abs(got - oracle)) < 1e-12
    # each kick contracts the Bloch vector by 1 - 4eps/3
    fid = float(np.real(v.conj() @ got @ v))
    c = 1 - 4 * eps / 3
    assert fid == pytest.approx((1 + c ** 5) / 2, rel=1e-12)


def test_shuttle_fidelity_monotone_in_hops():
    eps = 0.02
    v = np.array([SQ2, SQ2], dtype=complex)
    fids = []
    for hops in range(1, 5):
        chain = load_site(fresh_chain(5, gate_error=eps), 0, np.outer(v, v.conj()))
        chain = shuttle(chain, 0, hops)
        fids.append(float(np.real(v.conj() @ qubit_at(chain, hops) @ v)))
    assert all(a > b for a, b in zip(fids, fids[1:]))


def test_site_channel_map_matches_direct_simulation():
    eps = 0.03
    fn = site_channel_map(4, 0, 2, eps)
    rng = np.random.default_rng(8)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v /= np.linalg.norm(v)
    rho = np.outer(v, v.conj())
    chain = load_site(fresh_chain(4, gate_error=eps), 0, rho)
    chain = shuttle(chain, 0, 2)
    assert np.max(np.abs(fn(rho) - qubit_at(chain, 2))) < 1e-12


def test_resonance_detuning_values():
    mw = zeeman_splitting(G_DONOR_LAYER, 1.0)
    assert resonance_detuning(G_DONOR_LAYER, 1.0, mw) == pytest.approx(0.0, abs=1e-12)
    det = resonance_detuning(G_TUNING_LAYER, 1.0, mw)
    assert det == pytest.approx((1.563 - 1.998) * 57.8838180, rel=1e-9)
    assert det == pytest.approx(-25.18, abs=5e-3)
    assert resonance_detuning(1.0, 0.0, 7.0) == pytest.approx(-7.0)


def test_layer_g_defaults():
    chain = fresh_chain(2)
    assert chain.layer_g == (1.563, 1.998)


def _embed_by_kron_chain(op, site, span, n):
    """The n-step kron product _embed replaced, kept as its oracle."""
    full = np.array([[1.0]], dtype=complex)
    j = 0
    while j < n:
        if j == site:
            full = np.kron(full, op)
            j += span
        else:
            full = np.kron(full, np.eye(2, dtype=complex))
            j += 1
    return full


@pytest.mark.parametrize("n", range(1, 6))
def test_embed_equals_kron_chain(n):
    rng = np.random.default_rng(n)
    for span in (1, 2):
        op = (rng.standard_normal((2 ** span,) * 2)
              + 1j * rng.standard_normal((2 ** span,) * 2))
        for site in range(n - span + 1):
            sites = tuple(range(site, site + span))
            assert np.array_equal(_embed(op, sites, n),
                                  _embed_by_kron_chain(op, site, span, n))
    for site in range(n):
        for axis, p in _PAULI.items():
            assert np.array_equal(_site_pauli(axis, site, n),
                                  _embed_by_kron_chain(p, site, 1, n))


def test_site_pauli_is_read_only():
    u = _site_pauli("y", 1, 3)
    assert not u.flags.writeable
    with pytest.raises(ValueError):
        u[0, 0] = 0.0


@pytest.mark.parametrize("n,start,stop,eps", [(4, 0, 3, 0.01), (5, 0, 4, 0.05),
                                              (6, 2, 0, 0.1)])
def test_site_channel_map_closed_form(n, start, stop, eps):
    """Shuttling with per-site depolarizing error e is the depolarizing
    channel rho -> lam rho + (1 - lam) tr(rho) I/2, lam = (1 - 4e/3)^hops."""
    lam = (1 - 4 * eps / 3) ** abs(stop - start)
    expected = _superop_from_map(
        lambda rho: lam * rho + (1 - lam) * np.trace(rho) * np.eye(2) / 2)
    got = _superop_from_map(site_channel_map(n, start, stop, eps))
    assert np.max(np.abs(got - expected)) < 1e-12
