"""Gate-level model of the donor-chain storage and processing section.

Electrons bound to a row of donor ions hold the qubits.  Site-selective
addressing comes from the layered g-factor contrast (Ge-like 1.563 in the
tuning layer vs Si-like 1.998 in the donor layer): Stark-shifting one
electron between layers pulls it in or out of resonance with a constant
microwave background.  Neighbour exchange supplies SWAP-family two-qubit
gates.  Gate noise is a single depolarizing parameter per touched site.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bands import zeeman_splitting

G_TUNING_LAYER = 1.563   # Ge-like, <100> direction
G_DONOR_LAYER = 1.998    # Si-like

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_SWAP = np.array([[1, 0, 0, 0],
                  [0, 0, 1, 0],
                  [0, 1, 0, 0],
                  [0, 0, 0, 1]], dtype=complex)

# singlet projector: exp(-i pi f P_singlet) interpolates identity -> SWAP
_P_SINGLET = (np.eye(4, dtype=complex) - _SWAP) / 2.0


@dataclass(frozen=True)
class DonorChain:
    """State of an n-site donor chain, stored as a dense density matrix."""

    n_sites: int
    rho: np.ndarray = field(repr=False)
    layer_g: tuple[float, float] = (G_TUNING_LAYER, G_DONOR_LAYER)
    b_tesla: float = 1.0
    gate_error: float = 0.0

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError("chain needs at least one site")
        if not 0.0 <= self.gate_error <= 1.0:
            raise ValueError("gate_error is a probability")
        if any(g <= 0 for g in self.layer_g):
            raise ValueError("layer g-factors must be positive")
        dim = 2 ** self.n_sites
        rho = np.asarray(self.rho, dtype=complex).reshape(dim, dim)
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)

    def site_reduced(self, site: int) -> np.ndarray:
        """Reduced 2x2 density matrix of one site."""
        self._check_site(site)
        dims = [2] * self.n_sites
        rho = self.rho.reshape(dims + dims)
        n = self.n_sites
        for i in reversed([j for j in range(self.n_sites) if j != site]):
            rho = np.trace(rho, axis1=i, axis2=i + n)
            n -= 1
        return rho.reshape(2, 2)

    def _check_site(self, site: int):
        if not 0 <= site < self.n_sites:
            raise IndexError(f"site {site} outside chain of {self.n_sites}")


def fresh_chain(n_sites: int = 4, gate_error: float = 0.0,
                b_tesla: float = 1.0) -> DonorChain:
    """All sites initialised to |0>."""
    dim = 2 ** n_sites
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    return DonorChain(n_sites, rho, gate_error=gate_error, b_tesla=b_tesla)


def load_site(chain: DonorChain, site: int, qubit_rho: np.ndarray) -> DonorChain:
    """Place a fresh qubit at `site`, resetting every other site to |0>."""
    chain._check_site(site)
    out = np.array([[1.0]], dtype=complex)
    ground = np.array([[1, 0], [0, 0]], dtype=complex)
    for j in range(chain.n_sites):
        out = np.kron(out, np.asarray(qubit_rho, dtype=complex) if j == site else ground)
    return replace(chain, rho=out)


def _embed(op: np.ndarray, sites: tuple[int, ...], n: int) -> np.ndarray:
    """Lift an operator on contiguous sites, starting at sites[0], to the
    full chain: I(left) ⊗ op ⊗ I(right)."""
    span = int(round(math.log2(op.shape[0])))
    assert span == len(sites)
    left = sites[0]
    right = n - left - span
    return np.kron(np.kron(np.eye(2 ** left, dtype=complex), op),
                   np.eye(2 ** right, dtype=complex))


@functools.lru_cache(maxsize=24)
def _site_pauli(axis: str, site: int, n: int) -> np.ndarray:
    """Pauli `axis` at one site of an n-site chain, read-only and shared.
    The cache holds every site Pauli of chains up to 8 sites."""
    u = _embed(_PAULI[axis], (site,), n)
    u.setflags(write=False)
    return u


def _depolarize(rho: np.ndarray, sites: tuple[int, ...], n: int,
                strength: float) -> np.ndarray:
    """Single-qubit depolarizing noise on each touched site:
    rho -> (1-e) rho + e/3 (X rho X + Y rho Y + Z rho Z)."""
    if strength <= 0:
        return rho
    for s in sites:
        acc = (1.0 - strength) * rho
        for p in "xyz":
            u = _site_pauli(p, s, n)
            acc = acc + (strength / 3.0) * (u @ rho @ u.conj().T)
        rho = acc
    return rho


def single_qubit_gate(chain: DonorChain, site: int, axis: str,
                      angle: float) -> DonorChain:
    """Apply exp(-i angle/2 sigma_axis) at one site, then gate noise."""
    chain._check_site(site)
    if axis not in _PAULI:
        raise ValueError("axis must be x, y or z")
    u2 = (math.cos(angle / 2.0) * np.eye(2, dtype=complex)
          - 1j * math.sin(angle / 2.0) * _PAULI[axis])
    u = _embed(u2, (site,), chain.n_sites)
    rho = u @ chain.rho @ u.conj().T
    rho = _depolarize(rho, (site,), chain.n_sites, chain.gate_error)
    return replace(chain, rho=rho)


def exchange_gate(chain: DonorChain, site_i: int,
                  duration_fraction: float) -> DonorChain:
    """Exchange pulse between site_i and site_i+1.

    exp(-i pi f P_singlet): f=1 is an exact SWAP, f=1/2 the √SWAP whose
    square is SWAP.  Conserves total spin-z.  Gate noise hits both sites.
    """
    chain._check_site(site_i)
    chain._check_site(site_i + 1)
    u4 = np.eye(4, dtype=complex) + (np.exp(-1j * math.pi * duration_fraction) - 1.0) * _P_SINGLET
    u = _embed(u4, (site_i, site_i + 1), chain.n_sites)
    rho = u @ chain.rho @ u.conj().T
    rho = _depolarize(rho, (site_i, site_i + 1), chain.n_sites, chain.gate_error)
    return replace(chain, rho=rho)


def shuttle(chain: DonorChain, from_site: int, to_site: int) -> DonorChain:
    """Move a logical qubit along the chain by nearest-neighbour SWAPs."""
    chain._check_site(from_site)
    chain._check_site(to_site)
    step = 1 if to_site >= from_site else -1
    pos = from_site
    while pos != to_site:
        nxt = pos + step
        chain = exchange_gate(chain, min(pos, nxt), 1.0)
        pos = nxt
    return chain


def resonance_detuning(g_site: float, b_tesla: float,
                       microwave_energy_uev: float) -> float:
    """Detuning g·µB·B - E_mw in µeV; zero means the site is resonant with
    the background microwave field."""
    if g_site <= 0 or b_tesla < 0 or microwave_energy_uev < 0:
        raise ValueError("inputs must be positive (B, E_mw non-negative)")
    return zeeman_splitting(g_site, b_tesla) - microwave_energy_uev


def site_channel_map(n_sites: int, from_site: int, to_site: int,
                     gate_error: float):
    """Effective qubit channel of load at from_site -> shuttle -> read at
    to_site, as a function on 2x2 density matrices.

    Obtained by driving the full chain simulation; ancilla sites start in
    |0> and exchange is a permutation of tensor factors, so the data-qubit
    map extracted this way is exact, not an approximation.
    """
    def apply(rho2: np.ndarray) -> np.ndarray:
        rho2 = np.asarray(rho2, dtype=complex)
        herm = (rho2 + rho2.conj().T) / 2.0
        anti = (rho2 - rho2.conj().T) / (2.0j)

        def run(h: np.ndarray) -> np.ndarray:
            # split a hermitian operator into rank-1 pieces the chain can hold
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

        return run(herm) + 1j * run(anti)

    return apply
