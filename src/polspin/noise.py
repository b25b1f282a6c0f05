"""Decoherence channels as Kraus operators: pure T2 dephasing and the
wafer-crossing transport between the III-V absorber and the group-IV
storage section.  The pipeline stages turn them into Pauli transfer
matrices.

Only phase damping is modelled (the coherence budget is T2-driven; no T1).
The decay law is exponential: off-diagonal elements in the relevant energy
eigenbasis shrink by exp(-t/T2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# T2 defaults: ~0.5 ms for donor-bound spins in natural Si at ~1 K,
# ~100 ns for conduction electrons in III-V material.
T2_SI_NS = 5.0e5
T2_III_V_NS = 100.0


@dataclass(frozen=True)
class NoiseModel:
    """Timescales and knobs for the transport/storage noise stages.

    The two transport legs differ: both dephase with the III-V T2 over
    transport_time_ns and lose transport_loss, but only the forward leg
    (III-V absorber -> Si storage, across the wafer-fused interface) also
    dephases by transport_dephasing_fraction.  The return leg to the
    emitter leaves that fraction out.
    """

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


def transport_kraus(noise: NoiseModel, basis: np.ndarray, *,
                    forward: bool) -> np.ndarray:
    """Kraus operators of one transport leg, stacked, in the energy
    eigenbasis held as the columns of basis.  Both legs apply the III-V T2
    phase damping over the transport time; the forward leg follows it with
    the transport_dephasing_fraction, so its operators are the four
    products of the two Kraus pairs."""
    kraus = np.array(dephasing_kraus(coherence_factor(noise.transport_time_ns,
                                                      noise.t2_iii_v_ns)))
    if forward:
        extra = np.array(dephasing_kraus(1.0 - noise.transport_dephasing_fraction))
        kraus = (extra[:, None] @ kraus).reshape(-1, 2, 2)
    u = np.asarray(basis, dtype=complex)
    return u @ kraus @ u.conj().T
