"""Decoherence channels: pure T2 dephasing and the wafer-crossing transport
channel between the III-V absorber and the group-IV storage section.

Only phase damping is modelled (the coherence budget is T2-driven; no T1).
The decay law is exponential: off-diagonal elements in the relevant energy
eigenbasis shrink by exp(-t/T2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qstate import QuantumChannel, QuantumState, apply_channel

# T2 defaults: ~0.5 ms for donor-bound spins in natural Si at ~1 K,
# ~100 ns for conduction electrons in III-V material.
T2_SI_NS = 5.0e5
T2_III_V_NS = 100.0


@dataclass(frozen=True)
class NoiseModel:
    """Timescales and knobs for the transport/storage noise stages."""

    t2_iii_v_ns: float = T2_III_V_NS
    t2_si_ns: float = T2_SI_NS
    transport_time_ns: float = 0.0
    transport_dephasing_fraction: float = 0.0
    transport_loss: float = 0.0

    def __post_init__(self):
        for name in ("t2_iii_v_ns", "t2_si_ns", "transport_time_ns"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, "
                                 f"got {getattr(self, name)!r}")
        if self.t2_iii_v_ns <= 0 or self.t2_si_ns <= 0:
            raise ValueError("T2 times must be positive")
        if self.transport_time_ns < 0:
            raise ValueError("transport time must be non-negative")
        if not 0.0 <= self.transport_dephasing_fraction <= 1.0:
            raise ValueError("dephasing fraction must lie in [0, 1]")
        if not 0.0 <= self.transport_loss <= 1.0:
            raise ValueError("transport loss must lie in [0, 1]")


def coherence_factor(t_ns: float, t2_ns: float) -> float:
    """Off-diagonal survival factor exp(-t/T2)."""
    if t_ns < 0:
        raise ValueError("time must be non-negative")
    if t2_ns <= 0:
        raise ValueError("T2 must be positive")
    return math.exp(-t_ns / t2_ns)


def dephasing_kraus(gamma: float) -> list[np.ndarray]:
    """Kraus pair of the qubit phase-damping channel with off-diagonal
    survival gamma = exp(-t/T2)."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    k0 = math.sqrt((1.0 + gamma) / 2.0) * np.eye(2, dtype=complex)
    k1 = math.sqrt((1.0 - gamma) / 2.0) * np.diag([1.0, -1.0]).astype(complex)
    return [k0, k1]


def dephasing_channel(t_ns: float, t2_ns: float,
                      basis: np.ndarray | None = None) -> QuantumChannel:
    """Phase damping over t with time constant t2, as a QuantumChannel.

    basis, when given, holds the energy eigenvectors as columns; the
    channel dephases in that eigenbasis rather than the computational one.
    """
    from .qstate import ELECTRON
    ks = dephasing_kraus(coherence_factor(t_ns, t2_ns))
    if basis is not None:
        u = np.asarray(basis, dtype=complex)
        ks = [u @ k @ u.conj().T for k in ks]
    return QuantumChannel(tuple(ks), (ELECTRON,))


def dephase(rho: QuantumState, t_ns: float, t2_ns: float,
            factor: str = "electron_spin",
            basis: np.ndarray | None = None) -> QuantumState:
    """Dephase one qubit factor of a state for time t.

    Off-diagonals in the (possibly rotated) energy eigenbasis decay by
    exp(-t/T2); populations are untouched.  Composes additively in t.
    """
    idx = rho.factor_index(factor)
    if rho.factors[idx].dimension != 2:
        raise ValueError("dephasing targets a single qubit factor")
    ch = dephasing_channel(t_ns, t2_ns, basis)
    ch = QuantumChannel(ch.kraus_operators, (rho.factors[idx],))
    return apply_channel(rho, ch)


def transport_channel(rho: QuantumState, noise: NoiseModel,
                      basis: np.ndarray | None = None):
    """Electrostatic transport across the wafer-fused interface.

    Dephases over the transport time with the III-V T2, applies the extra
    dephasing-fraction knob, and reports the arrival probability
    1 - transport_loss.  Returns (state, arrival_probability); a total loss
    returns (None, 0.0), the flagged vacuum outcome.
    """
    arrival = 1.0 - noise.transport_loss
    if arrival <= 0.0:
        return None, 0.0
    out = dephase(rho, noise.transport_time_ns, noise.t2_iii_v_ns, basis=basis)
    extra = 1.0 - noise.transport_dephasing_fraction
    if extra < 1.0:
        ks = dephasing_kraus(extra)
        if basis is not None:
            u = np.asarray(basis, dtype=complex)
            ks = [u @ k @ u.conj().T for k in ks]
        idx = out.factor_index("electron_spin")
        ch = QuantumChannel(tuple(ks), (out.factors[idx],))
        out = apply_channel(out, ch)
    return out, arrival
