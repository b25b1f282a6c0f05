"""Quantum states and the Pauli-transfer-matrix algebra of qubit channels.

States are plain numpy arrays: a density matrix, or the coefficient matrix
M of a bipartite pure state, |ψ> = Σ_ab M_ab |a>|b>.  All operations are
pure functions.

Qubit channels are held only as their real Pauli transfer matrix
(PTM) R_ij = ½ tr(σ_i Φ(σ_j)) over the Pauli basis σ = (I, X, Y, Z).  A
qubit state ρ = ½ Σ c_i σ_i is the real vector c = (tr ρ, r) with r its
Bloch vector; Φ maps c to R c, so channels compose as R₂ @ R₁, and a map is
trace preserving iff the first row of R is (1, 0, 0, 0).  The Choi matrix,
output factor first, is (1/d) Σ_kl Φ(|k><l|) ⊗ |k><l| = ¼ Σ_ij R_ij σ_i ⊗ σ_jᵀ:
one fixed change of basis each way (`choi_from_ptm`, `ptm_from_choi`).

Kraus operators K go to their PTM through their Choi matrix ½ Σ_k vec K
(vec K)† (row-major vec), one product of the stacked operators, and the
change of basis of `ptm_from_choi`; for a stack of channels, one of each
per channel (`ptm_from_kraus`).  A map given as a callable is run once, on
the stack of the four Paulis (`choi_of_map`).
"""

from __future__ import annotations

import math

import numpy as np


def purity(rho: np.ndarray) -> float:
    """Tr(rho^2) of a density matrix, in [1/d, 1]."""
    return float(np.trace(rho @ rho).real)


def entanglement_entropy(amplitudes: np.ndarray) -> float:
    """Entropy of entanglement, in bits, of the normalised bipartite pure
    state with coefficient matrix `amplitudes`: the Shannon entropy of its
    squared singular values (the Schmidt weights).  Zero iff the state is a
    product."""
    weights = np.linalg.svd(amplitudes, compute_uv=False) ** 2
    return float(-sum(p * math.log2(p) for p in weights if p > 1e-15))


# Pauli basis (I, X, Y, Z) and, at 4 i + j, the Choi basis σ_i ⊗ σ_jᵀ
PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                   [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)
_CHOI_BASIS = np.array([np.kron(a, b.T) for a in PAULIS for b in PAULIS])
# R_ij = tr(C · σ_i ⊗ σ_jᵀ) is row 4 i + j, conj(σ_i ⊗ σ_jᵀ) flattened (the
# basis is Hermitian), times vec C; adding 0.0 turns -0.0 parts into 0.0
_TO_PTM = _CHOI_BASIS.conj().reshape(16, 16) + 0.0


def ptm_from_kraus(kraus) -> np.ndarray:
    """Pauli transfer matrix of rho -> sum_k K rho K† on a qubit: (4, 4) for
    n Kraus operators (n, 2, 2), (..., 4, 4) for stacks (..., n, 2, 2).

    The channel's Choi matrix, output factor first, is ½ Σ_k vec K
    (vec K)† (row-major vec), one product of the stacked, flattened Kraus
    operators; `_TO_PTM` takes it to R as in `ptm_from_choi`, one
    matrix-vector product per channel, whatever the stack.
    """
    k = np.asarray(kraus, dtype=complex)
    stack = k.shape[:-3]
    k = k.reshape(stack + (-1, 4))
    s = k.swapaxes(-1, -2) @ k.conj()
    return 0.5 * (_TO_PTM @ s.reshape(stack + (16, 1))).real.reshape(
        stack + (4, 4))


def ptm_from_choi(choi: np.ndarray) -> np.ndarray:
    """R_ij = tr(choi · σ_i ⊗ σ_jᵀ); real for a Hermitian Choi matrix."""
    return (_TO_PTM @ np.ravel(choi)).real.reshape(4, 4)


def choi_from_ptm(ptm: np.ndarray) -> np.ndarray:
    """Choi matrix ¼ Σ_ij R_ij σ_i ⊗ σ_jᵀ of a qubit PTM."""
    return 0.25 * np.einsum("k,kab->ab", np.ravel(ptm), _CHOI_BASIS)


def pauli_vectors(amps: np.ndarray) -> np.ndarray:
    """c = (q†q, q†Xq, q†Yq, q†Zq) of each row q of amps, as the columns of
    a C-contiguous (4, n) real array: (1, r) with r the Bloch vector for
    unit q, so that a PTM R maps all of them at once as R @ c."""
    a, b = amps[:, 0], amps[:, 1]
    pa, pb = np.abs(a) ** 2, np.abs(b) ** 2
    ab = 2.0 * a.conj() * b
    return np.stack([pa + pb, ab.real, ab.imag, pa - pb])


def density_from_pauli(c: np.ndarray) -> np.ndarray:
    """The 2x2 matrix ½ Σ c_i σ_i."""
    return 0.5 * np.einsum("i,iab->ab", c, PAULIS)


def choi_of_map(apply_map) -> np.ndarray:
    """Choi matrix ¼ Σ_k Φ(σ_k) ⊗ σ_kᵀ of a linear qubit map rho -> rho'
    given as a callable that maps each matrix of a (..., 2, 2) stack as it
    would map it alone; run once, on the (4, 2, 2) stack of the Paulis.
    The map need be neither completely positive nor Hermiticity preserving.
    """
    images = np.asarray(apply_map(PAULIS), dtype=complex)
    return 0.25 * np.einsum("kab,kdc->acbd", images, PAULIS).reshape(4, 4)


def is_cptp(choi: np.ndarray, tol: float, conditional: bool = False) -> bool:
    """Check complete positivity and (sub-)trace preservation of a Choi matrix.

    False for a matrix with a non-finite entry.  Otherwise: positive
    semidefinite within tol, and the partial trace over the output
    factor equal to I/d within tol (or <= I/d for conditional maps).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    choi = np.asarray(choi, dtype=complex)
    if not np.isfinite(choi).all():
        return False
    n = choi.shape[0]
    d = int(round(math.sqrt(n)))
    if d * d != n:
        raise ValueError("choi matrix must be d².d² for some d")
    adjoint = choi.conj().T
    if np.abs(choi - adjoint).max() > tol:
        return False
    if np.linalg.eigvalsh((choi + adjoint) / 2).min() < -tol:
        return False
    # trace out the output (first) factor
    red = choi.reshape(d, d, d, d).trace(axis1=0, axis2=2)
    gap = red - np.eye(d) / d
    if conditional:
        return bool(np.linalg.eigvalsh((gap + gap.conj().T) / 2).max() <= tol)
    return bool(np.abs(gap).max() <= tol)


def process_fidelity(choi: np.ndarray) -> float:
    """Entanglement fidelity of the (trace-normalised) Choi matrix with the
    identity channel."""
    choi = np.asarray(choi, dtype=complex)
    n = choi.shape[0]
    d = int(round(math.sqrt(n)))
    tr = np.trace(choi).real
    if tr <= 0:
        raise ValueError("choi matrix has non-positive trace")
    omega = np.eye(d).ravel() / math.sqrt(d)
    return float(np.real(omega.conj() @ (choi / tr) @ omega))
