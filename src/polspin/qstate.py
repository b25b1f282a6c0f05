"""Finite-dimensional quantum states and the Pauli-transfer-matrix algebra
of qubit channels.

States live on labelled tensor products of small Hilbert factors (photon,
electron spin, hole).  Everything is dense numpy: labelled states of at most
16 dimensions here, the 2^n_sites-dimensional donor chain in `processor`.
All values are immutable and all operations are pure functions.

Tolerances: 1e-12 for algebraic identities, 1e-10 for eigenvalue positivity.

Qubit channels are held only as their real Pauli transfer matrix
(PTM) R_ij = ½ tr(σ_i Φ(σ_j)) over the Pauli basis σ = (I, X, Y, Z).  A
qubit state ρ = ½ Σ c_i σ_i is the real vector c = (tr ρ, r) with r its
Bloch vector; Φ maps c to R c, so channels compose as R₂ @ R₁, and a map is
trace preserving iff the first row of R is (1, 0, 0, 0).  The Choi matrix,
output factor first, is (1/d) Σ_kl Φ(|k><l|) ⊗ |k><l| = ¼ Σ_ij R_ij σ_i ⊗ σ_jᵀ:
one fixed change of basis each way (`choi_from_ptm`, `ptm_from_choi`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

PURE = "pure_vector"
DENSITY = "density_matrix"

_FACTOR_LABELS = ("photon", "electron_spin", "hole")

_NORM_TOL = 1e-12
_EIG_TOL = 1e-10


@dataclass(frozen=True)
class HilbertFactor:
    """One labelled tensor factor of the composite space."""

    label: str
    dimension: int

    def __post_init__(self):
        if self.label not in _FACTOR_LABELS:
            raise ValueError(f"unknown factor label {self.label!r}")
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        if self.label in ("photon", "electron_spin") and self.dimension != 2:
            raise ValueError(f"{self.label} factor must have dimension 2")
        if self.label == "hole" and self.dimension not in (1, 2, 4):
            raise ValueError("hole factor dimension must be 1, 2 or 4")


PHOTON = HilbertFactor("photon", 2)
ELECTRON = HilbertFactor("electron_spin", 2)


@dataclass(frozen=True)
class QuantumState:
    """A pure state vector or density matrix over an ordered factor list."""

    factors: tuple[HilbertFactor, ...]
    representation: str
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        factors = tuple(self.factors)
        object.__setattr__(self, "factors", factors)
        labels = [f.label for f in factors]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate factor labels in {labels}")
        dim = self.dimension
        arr = np.asarray(self.amplitudes, dtype=complex)
        if self.representation == PURE:
            arr = arr.reshape(dim)
            n = np.linalg.norm(arr)
            if abs(n - 1.0) > 1e-9:
                raise ValueError(f"state vector norm {n} is not 1")
            if abs(n - 1.0) > _NORM_TOL:
                arr = arr / n
        elif self.representation == DENSITY:
            arr = arr.reshape(dim, dim)
            if np.max(np.abs(arr - arr.conj().T)) > 1e-9:
                raise ValueError("density matrix is not Hermitian")
            tr = np.trace(arr).real
            if abs(tr - 1.0) > 1e-9:
                raise ValueError(f"density matrix trace {tr} is not 1")
            if np.min(np.linalg.eigvalsh((arr + arr.conj().T) / 2)) < -_EIG_TOL:
                raise ValueError("density matrix has a negative eigenvalue")
        else:
            raise ValueError(f"unknown representation {self.representation!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dimension(self) -> int:
        return int(np.prod([f.dimension for f in self.factors]))

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.dimension for f in self.factors)

    def labels(self) -> tuple[str, ...]:
        return tuple(f.label for f in self.factors)

    def factor_index(self, label: str) -> int:
        for i, f in enumerate(self.factors):
            if f.label == label:
                return i
        raise ValueError(f"no factor labelled {label!r}")

    def densitymatrix(self) -> np.ndarray:
        """Density matrix form regardless of representation."""
        if self.representation == DENSITY:
            return self.amplitudes
        v = self.amplitudes
        return np.outer(v, v.conj())

    def is_pure(self) -> bool:
        return self.representation == PURE


def pure_state(amplitudes, factors) -> QuantumState:
    """Normalise a complex vector into a pure QuantumState."""
    v = np.asarray(amplitudes, dtype=complex).ravel()
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("cannot normalise the zero vector")
    return QuantumState(tuple(factors), PURE, v / n)


def density_state(matrix, factors) -> QuantumState:
    m = np.asarray(matrix, dtype=complex)
    return QuantumState(tuple(factors), DENSITY, m)


def partial_trace(state: QuantumState, keep: tuple[str, ...] | list[str]) -> QuantumState:
    """Reduced density matrix on the kept factors (in their original order)."""
    keep = tuple(keep)
    if not keep:
        raise ValueError("keep must name at least one factor")
    labels = state.labels()
    for k in keep:
        if k not in labels:
            raise ValueError(f"unknown factor label {k!r}")
    keep_idx = [i for i, lab in enumerate(labels) if lab in keep]
    drop_idx = [i for i, lab in enumerate(labels) if lab not in keep]
    dims = state.dims
    n = len(dims)
    rho = state.densitymatrix().reshape(dims + dims)
    # trace out dropped factors pairwise, highest index first to keep axes stable
    for i in sorted(drop_idx, reverse=True):
        rho = np.trace(rho, axis1=i, axis2=i + n)
        n -= 1
    kept_dim = int(np.prod([dims[i] for i in keep_idx]))
    rho = rho.reshape(kept_dim, kept_dim)
    factors = tuple(state.factors[i] for i in keep_idx)
    return QuantumState(factors, DENSITY, rho)


def purity(state: QuantumState) -> float:
    """Tr(rho^2), in [1/d, 1]."""
    rho = state.densitymatrix()
    return float(np.trace(rho @ rho).real)


def entanglement_entropy(state: QuantumState, cut: tuple[str, ...] | list[str]) -> float:
    """Entropy of entanglement across the bipartition (cut | rest), in bits.

    Defined for pure states only; the von Neumann entropy of either reduced
    state.  Zero iff the state is a product across the cut.
    """
    if not state.is_pure():
        raise ValueError("entanglement entropy requires a pure state")
    cut = tuple(cut)
    if not cut or set(cut) == set(state.labels()):
        raise ValueError("cut must be a proper non-empty subset of factors")
    reduced = partial_trace(state, cut)
    evals = np.linalg.eigvalsh(reduced.amplitudes)
    evals = np.clip(evals.real, 0.0, 1.0)
    return float(-sum(p * math.log2(p) for p in evals if p > 1e-15))


def fidelity(a: QuantumState, b: QuantumState) -> float:
    """Uhlmann fidelity F(a, b) in [0, 1]; |<a|b>|^2 when both are pure."""
    if a.dims != b.dims or a.labels() != b.labels():
        raise ValueError("states live on different factor sets")
    if a.is_pure() and b.is_pure():
        return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
    if a.is_pure():
        v = a.amplitudes
        return float(np.real(v.conj() @ b.densitymatrix() @ v))
    if b.is_pure():
        v = b.amplitudes
        return float(np.real(v.conj() @ a.densitymatrix() @ v))
    return float(_uhlmann(a.densitymatrix(), b.densitymatrix()))


def _psd_sqrt(rho: np.ndarray) -> np.ndarray:
    evals, vecs = np.linalg.eigh((rho + rho.conj().T) / 2)
    evals = np.clip(evals, 0.0, None)
    return (vecs * np.sqrt(evals)) @ vecs.conj().T


def _uhlmann(rho: np.ndarray, sigma: np.ndarray) -> float:
    s = _psd_sqrt(rho)
    inner = s @ sigma @ s
    evals = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    # rank-deficient inputs leave O(eps) dust whose sqrt would cost ~1e-8
    evals[evals < 1e-14] = 0.0
    return float(np.sum(np.sqrt(evals)) ** 2)


# Pauli basis (I, X, Y, Z) and, at 4 i + j, the Choi basis σ_i ⊗ σ_jᵀ
PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                   [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)
_CHOI_BASIS = np.array([np.kron(a, b.T) for a in PAULIS for b in PAULIS])


def ptm_from_kraus(kraus) -> np.ndarray:
    """Pauli transfer matrix of rho -> sum_k K rho K† on a qubit."""
    images = sum(k @ PAULIS @ k.conj().T for k in kraus)      # Φ(σ_j)
    return 0.5 * np.einsum("iab,jba->ij", PAULIS, images).real


def ptm_from_choi(choi: np.ndarray) -> np.ndarray:
    """R_ij = tr(choi · σ_i ⊗ σ_jᵀ); real for a Hermitian Choi matrix."""
    return np.einsum("kab,ba->k", _CHOI_BASIS, choi).real.reshape(4, 4)


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


# probes P_0 = (σ_0 + iσ_3)/2 and P_1 = (σ_1 + iσ_2)/2 = |0><1|
_PROBES = 0.5 * np.array([PAULIS[0] + 1j * PAULIS[3],
                          PAULIS[1] + 1j * PAULIS[2]])


def choi_of_map(apply_map) -> np.ndarray:
    """Choi matrix ¼ Σ_k Φ(σ_k) ⊗ σ_kᵀ of a linear qubit map rho -> rho'
    given as a callable, probed on two inputs.

    Precondition: the map preserves Hermiticity, Φ(A†) = Φ(A)†, as every
    CP map does.  Then Φ(σ_0) = Φ(P_0) + Φ(P_0)†, Φ(σ_3) = −i(Φ(P_0) −
    Φ(P_0)†), and likewise σ_1, σ_2 from P_1, so two runs of the map fix
    all four Pauli images.
    """
    a, b = (np.asarray(apply_map(p), dtype=complex) for p in _PROBES)
    ah, bh = a.conj().T, b.conj().T
    images = np.array([a + ah, b + bh, -1j * (b - bh), -1j * (a - ah)])
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
    if not np.all(np.isfinite(choi)):
        return False
    n = choi.shape[0]
    d = int(round(math.sqrt(n)))
    if d * d != n:
        raise ValueError("choi matrix must be d².d² for some d")
    if np.max(np.abs(choi - choi.conj().T)) > tol:
        return False
    if np.min(np.linalg.eigvalsh((choi + choi.conj().T) / 2)) < -tol:
        return False
    # trace out the output (first) factor
    red = choi.reshape(d, d, d, d).trace(axis1=0, axis2=2)
    gap = red - np.eye(d) / d
    if conditional:
        return bool(np.max(np.linalg.eigvalsh((gap + gap.conj().T) / 2)) <= tol)
    return bool(np.max(np.abs(gap)) <= tol)


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
