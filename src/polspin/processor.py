"""Gate-level model of the donor-chain storage and processing section.

Electrons bound to a row of donor ions hold the qubits.  Adjacent-site
exchange supplies the SWAP-family gates that shuttle a qubit along the
chain; the g-factor-addressed single-site rotations of the device are not
modelled, as no stage uses them.  Gate noise is a single depolarizing
parameter per touched site.

Gates act locally on the dense 2^n x 2^n chain matrix, or a stack of them:
a d x d gate is contracted with the sites' axes, O(d 4^n), and no 2^n x 2^n
operator is built.  The chain is linear, so one run on the stacked four
Paulis fixes a shuttle's qubit map.  Both pipeline
shuttle stages read one run of a single hop on a two-site chain, raised to
the number of hops (`pipeline._shuttle_ptm`), so their cost does not grow
with the chain; the n-site simulation here is their oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

_SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]   # exchanges |01> and |10>

# singlet projector: exp(-i pi f P_singlet) interpolates identity -> SWAP
_P_SINGLET = (np.eye(4, dtype=complex) - _SWAP) / 2.0


@dataclass(frozen=True)
class DonorChain:
    """State of an n-site donor chain as a dense 2^n x 2^n matrix, site 0
    the most significant bit, or a (..., 2^n, 2^n) stack of them.  Gates
    contract with the axes of the sites they touch, O(d 4^n) for a d x d
    gate, without building a 2^n x 2^n operator.  Every operation is
    linear, so `rho` may be any operator: `site_channel_map` runs the chain
    once on the stacked Paulis of `qstate.choi_of_map`."""

    n_sites: int
    rho: np.ndarray = field(repr=False)
    gate_error: float = 0.0

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError("chain needs at least one site")
        if not 0.0 <= self.gate_error <= 1.0:
            raise ValueError("gate_error is a probability")
        dim = 2 ** self.n_sites
        rho = np.asarray(self.rho, dtype=complex)
        rho = rho.reshape(rho.shape[:-2] + (dim, dim))
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)

    def site_reduced(self, site: int) -> np.ndarray:
        """Reduced 2x2 density matrix of one site, (..., 2, 2) for a stack."""
        self._check_site(site)
        left, right = 2 ** site, 2 ** (self.n_sites - site - 1)
        return np.einsum("...aibajb->...ij", self.rho.reshape(
            self.rho.shape[:-2] + (left, 2, right, left, 2, right)))

    def _check_site(self, site: int):
        if not 0 <= site < self.n_sites:
            raise IndexError(f"site {site} outside chain of {self.n_sites}")


def fresh_chain(n_sites: int = 4, gate_error: float = 0.0) -> DonorChain:
    """All sites initialised to |0>."""
    dim = 2 ** n_sites
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    return DonorChain(n_sites, rho, gate_error=gate_error)


def load_site(chain: DonorChain, site: int, qubit_rho: np.ndarray) -> DonorChain:
    """Place a fresh qubit at `site`, resetting every other site to |0>:
    the 2x2 block, or a (..., 2, 2) stack, sits on |0...0> and |0..1_site..0>."""
    chain._check_site(site)
    dim = 2 ** chain.n_sites
    rows = np.array([0, 2 ** (chain.n_sites - 1 - site)])
    rho = np.zeros(np.shape(qubit_rho)[:-2] + (dim, dim), dtype=complex)
    rho[..., rows[:, None], rows] = qubit_rho
    return replace(chain, rho=rho)


def _apply_local(rho: np.ndarray, op: np.ndarray, first_site: int) -> np.ndarray:
    """U rho U† for a d x d gate U on the sites first_site, first_site+1, ...,
    on each matrix of a (..., 2^n, 2^n) stack: U acts on the middle axis of
    each rho viewed as (2**first_site, d, rest), and U rho U† =
    (conj(U) (U rho)ᵀ)ᵀ.  O(d 4^n); no 2^n x 2^n operator is built."""
    shape, d = rho.shape, op.shape[0]
    split = shape[:-2] + (2 ** first_site, d, -1)
    half = np.matmul(op, rho.reshape(split)).reshape(shape).swapaxes(-1, -2)
    return np.matmul(op.conj(), half.reshape(split)).reshape(shape).swapaxes(-1, -2)


def _depolarize(rho: np.ndarray, sites: tuple[int, ...], n: int,
                strength: float) -> np.ndarray:
    """Single-qubit depolarizing noise on each touched site:
    rho -> (1-e) rho + e/3 (X rho X + Y rho Y + Z rho Z)
         = (1-4e/3) rho + 4e/3 (I/2 at the site ⊗ rho traced over the site),
    since Σ P rho P over P = I, X, Y, Z at the site is 2 I ⊗ tr_site rho."""
    if strength <= 0:
        return rho
    mix = 4.0 * strength / 3.0
    for s in sites:
        left, right = 2 ** s, 2 ** (n - s - 1)
        view = rho.reshape(rho.shape[:-2] + (left, 2, right, left, 2, right))
        half_traced = (mix / 2.0) * (view[..., 0, :, :, 0, :]
                                     + view[..., 1, :, :, 1, :])
        out = (1.0 - mix) * view
        out[..., 0, :, :, 0, :] += half_traced
        out[..., 1, :, :, 1, :] += half_traced
        rho = out.reshape(rho.shape)
    return rho


def exchange_gate(chain: DonorChain, site_i: int,
                  duration_fraction: float) -> DonorChain:
    """Exchange pulse between site_i and site_i+1.

    exp(-i pi f P_singlet): f=1 is an exact SWAP, f=1/2 the √SWAP whose
    square is SWAP.  Conserves total spin-z.  Gate noise hits both sites.
    """
    chain._check_site(site_i)
    chain._check_site(site_i + 1)
    u4 = np.eye(4, dtype=complex) + (np.exp(-1j * math.pi * duration_fraction) - 1.0) * _P_SINGLET
    rho = _apply_local(chain.rho, u4, site_i)
    rho = _depolarize(rho, (site_i, site_i + 1), chain.n_sites, chain.gate_error)
    return replace(chain, rho=rho)


def shuttle(chain: DonorChain, from_site: int, to_site: int) -> DonorChain:
    """Move a logical qubit along the chain by SWAPs of adjacent sites."""
    chain._check_site(from_site)
    chain._check_site(to_site)
    step = 1 if to_site >= from_site else -1
    for pos in range(from_site, to_site, step):
        chain = exchange_gate(chain, min(pos, pos + step), 1.0)
    return chain


def site_channel_map(n_sites: int, from_site: int, to_site: int,
                     gate_error: float):
    """Effective qubit channel of load at from_site -> shuttle -> read at
    to_site, as a linear function on a (..., 2, 2) stack of matrices.

    Obtained by driving the full chain simulation once on the given stack;
    the simulation is linear, so one run on the four stacked Paulis of
    `qstate.choi_of_map` gives the whole map.
    Ancilla sites start in |0> and exchange is a permutation of tensor
    factors, so the data-qubit map extracted this way is exact, not an
    approximation.

    The pipeline calls it on two sites only, for one hop; on n sites it
    costs O(4^n) memory and is the oracle the tests check that hop against.
    """
    def apply(rho2: np.ndarray) -> np.ndarray:
        chain = load_site(fresh_chain(n_sites, gate_error), from_site, rho2)
        return shuttle(chain, from_site, to_site).site_reduced(to_site)

    return apply
