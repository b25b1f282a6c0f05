import math

import numpy as np
import pytest

from polspin.processor import (_apply_local, _depolarize, DonorChain,
                               exchange_gate, fresh_chain, load_site, shuttle,
                               site_channel_map)
from polspin.qstate import choi_of_map, ptm_from_choi
from polspin.transfer import HADAMARD

SQ2 = 1.0 / math.sqrt(2.0)

X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULIS = {"x": X, "y": np.array([[0, -1j], [1j, 0]]), "z": np.diag([1.0, -1.0])}
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
        load_site(chain, 2, np.eye(2) / 2)
    with pytest.raises(IndexError):
        exchange_gate(chain, 1, 0.5)


def test_full_swap_on_01():
    chain = load_site(fresh_chain(2), 1, np.diag([0.0, 1.0]))   # |01>
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
    def local(u, site):
        return lambda c: DonorChain(c.n_sites, _apply_local(c.rho, u, site),
                                    gate_error=c.gate_error)

    def rz(theta):
        return _exp_i(theta / 2 * PAULIS["z"])

    cz_ops = [
        lambda c: exchange_gate(c, 0, 0.5),
        local(rz(-math.pi), 0),
        lambda c: exchange_gate(c, 0, 0.5),
        local(rz(math.pi / 2), 1),
        local(rz(-math.pi / 2), 0),
    ]
    hadamard_t = local(HADAMARD, 1)

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


def _embed(op, first_site, n):
    """I(left) ⊗ op ⊗ I(right): the dense 2^n x 2^n lift of a gate on the
    contiguous sites from first_site, the oracle of the local gates."""
    span = int(round(math.log2(op.shape[0])))
    return np.kron(np.kron(np.eye(2 ** first_site, dtype=complex), op),
                   np.eye(2 ** (n - first_site - span), dtype=complex))


def _kron_chain(factors):
    full = np.array([[1.0]], dtype=complex)
    for f in factors:
        full = np.kron(full, f)
    return full


def _embed_by_kron_chain(op, site, span, n):
    """The n-step kron product of the site factors."""
    eye = np.eye(2, dtype=complex)
    return _kron_chain([eye] * site + [op] + [eye] * (n - site - span))


@pytest.mark.parametrize("n", range(1, 6))
def test_embed_equals_kron_chain(n):
    """The two-kron oracle `_embed` equals the n-step kron chain: it pins
    the site order (site 0 most significant) that the gate oracles assume."""
    rng = np.random.default_rng(n)
    for span in (1, 2):
        op = (rng.standard_normal((2 ** span,) * 2)
              + 1j * rng.standard_normal((2 ** span,) * 2))
        for site in range(n - span + 1):
            assert np.array_equal(_embed(op, site, n),
                                  _embed_by_kron_chain(op, site, span, n))


def _random_matrix(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def _exp_i(h):
    """exp(-i h) of a Hermitian matrix, from its eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w)) @ v.conj().T


def _depolarize_oracle(rho, sites, n, eps):
    """The Kraus sum (1-e) rho + e/3 Σ P rho P with embedded site Paulis,
    one site after the other."""
    for site in sites:
        out = (1 - eps) * rho
        for p in PAULIS.values():
            u = _embed(p, site, n)
            out = out + eps / 3 * (u @ rho @ u.conj().T)
        rho = out
    return rho


@pytest.mark.parametrize("eps", [0.01, 0.3])
@pytest.mark.parametrize("n", range(1, 6))
def test_depolarize_matches_kraus_sum(n, eps):
    """The partial-trace form equals the Kraus sum (1-e)rho + e/3 Σ P rho P
    with embedded site Paulis, on random non-Hermitian matrices."""
    rng = np.random.default_rng(100 + n)
    for site in range(n):
        rho = _random_matrix(rng, 2 ** n)
        want = _depolarize_oracle(rho, (site,), n, eps)
        assert np.max(np.abs(_depolarize(rho, (site,), n, eps) - want)) < 1e-12


@pytest.mark.parametrize("eps", [0.0, 0.01, 0.3])
@pytest.mark.parametrize("n", range(1, 7))
def test_single_qubit_gate_matches_dense_oracle(n, eps):
    """A one-site rotation U = exp(-i angle/2 σ) contracted locally
    (`_apply_local` with d = 2), then the site's depolarizing noise, equals
    the embedded 2^n x 2^n unitary followed by the Kraus-sum noise, at
    every site and on every axis, on random non-Hermitian chain matrices."""
    rng = np.random.default_rng(300 + n)
    for site in range(n):
        for pauli in PAULIS.values():
            rho = _random_matrix(rng, 2 ** n)
            u2 = _exp_i(rng.uniform(0.0, 2 * math.pi) / 2 * pauli)
            u = _embed(u2, site, n)
            want = _depolarize_oracle(u @ rho @ u.conj().T, (site,), n, eps)
            got = _depolarize(_apply_local(rho, u2, site), (site,), n, eps)
            assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("eps", [0.0, 0.01, 0.3])
@pytest.mark.parametrize("n", range(2, 7))
def test_exchange_gate_matches_dense_oracle(n, eps):
    """The local exchange pulse equals the embedded 2^n x 2^n unitary
    exp(-i pi f P_singlet) followed by the Kraus-sum noise on both sites,
    for every adjacent pair, on random non-Hermitian chain matrices."""
    rng = np.random.default_rng(400 + n)
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                    dtype=complex)
    p_singlet = (np.eye(4) - swap) / 2
    for site in range(n - 1):
        for f in (0.3, 0.5, 1.0):
            rho = _random_matrix(rng, 2 ** n)
            u = _embed(_exp_i(math.pi * f * p_singlet), site, n)
            want = _depolarize_oracle(u @ rho @ u.conj().T, (site, site + 1), n, eps)
            got = exchange_gate(DonorChain(n, rho, gate_error=eps), site, f).rho
            assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("n", range(1, 7))
def test_load_site_matches_kron_chain(n):
    """The loaded chain is |0><0| ⊗ ... ⊗ rho2 at the site ⊗ ... ⊗ |0><0|."""
    rng = np.random.default_rng(500 + n)
    ground = np.diag([1.0, 0.0]).astype(complex)
    for site in range(n):
        rho2 = _random_matrix(rng, 2)
        want = _kron_chain([rho2 if j == site else ground for j in range(n)])
        assert np.array_equal(load_site(fresh_chain(n), site, rho2).rho, want)


@pytest.mark.parametrize("n", range(1, 7))
def test_site_reduced_matches_sequential_trace(n):
    """The one-einsum reduced matrix equals tracing out the other sites one
    by one with np.trace, on random non-Hermitian chain matrices."""
    rng = np.random.default_rng(600 + n)
    for site in range(n):
        rho = _random_matrix(rng, 2 ** n)
        want = rho.reshape([2] * (2 * n))
        m = n
        for other in reversed([j for j in range(n) if j != site]):
            want = np.trace(want, axis1=other, axis2=other + m)
            m -= 1
        got = DonorChain(n, rho).site_reduced(site)
        assert np.max(np.abs(got - want.reshape(2, 2))) < 1e-12


def _site_channel_by_hermitian_split(n_sites, from_site, to_site, gate_error, rho2):
    """The map as computed before the chain ran arbitrary matrices: split
    into Hermitian and anti-Hermitian parts, each into rank-1 density
    matrices, one chain run per piece.  Kept as the oracle."""
    def run(h):
        evals, vecs = np.linalg.eigh(h)
        out = np.zeros((2, 2), dtype=complex)
        for lam, v in zip(evals, vecs.T):
            if abs(lam) < 1e-15:
                continue
            chain = fresh_chain(n_sites, gate_error)
            chain = load_site(chain, from_site, np.outer(v, v.conj()))
            chain = shuttle(chain, from_site, to_site)
            out = out + lam * chain.site_reduced(to_site)
        return out

    herm = (rho2 + rho2.conj().T) / 2.0
    anti = (rho2 - rho2.conj().T) / (2.0j)
    return run(herm) + 1j * run(anti)


@pytest.mark.parametrize("n,start,stop,eps", [(1, 0, 0, 0.2), (4, 0, 3, 0.05),
                                              (5, 4, 1, 0.3)])
def test_site_channel_map_equals_hermitian_split(n, start, stop, eps):
    rng = np.random.default_rng(n)
    rho2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    got = site_channel_map(n, start, stop, eps)(rho2)
    want = _site_channel_by_hermitian_split(n, start, stop, eps, rho2)
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("n", range(1, 6))
def test_site_channel_map_stack_equals_single_runs(n):
    """The chain map applied to a stack of matrices is, bit for bit, the
    map applied to each matrix alone, for every (from, to)."""
    rng = np.random.default_rng(70 + n)
    for eps in (0.0, 0.01, 0.3):
        for start in range(n):
            for stop in range(n):
                apply = site_channel_map(n, start, stop, eps)
                stack = (rng.standard_normal((3, 2, 2))
                         + 1j * rng.standard_normal((3, 2, 2)))
                got = apply(stack)
                assert got.shape == (3, 2, 2)
                for one, rho2 in zip(got, stack):
                    assert np.array_equal(one, apply(rho2)), (start, stop, eps)


@pytest.mark.parametrize("n,start,stop,eps", [(4, 0, 3, 0.01), (5, 0, 4, 0.05),
                                              (6, 2, 0, 0.1), (8, 0, 7, 0.01)])
def test_site_channel_map_closed_form(n, start, stop, eps):
    """Shuttling with per-site depolarizing error e is the depolarizing
    channel rho -> lam rho + (1 - lam) tr(rho) I/2, lam = (1 - 4e/3)^hops,
    whose Pauli transfer matrix is diag(1, lam, lam, lam)."""
    lam = (1 - 4 * eps / 3) ** abs(stop - start)
    got = ptm_from_choi(choi_of_map(site_channel_map(n, start, stop, eps)))
    assert np.max(np.abs(got - np.diag([1, lam, lam, lam]))) < 1e-12
