"""Decoherence channels as Kraus operators: pure T2 dephasing, the one
channel of the storage stage and of each leg of the wafer-crossing
transport between the III-V absorber and the group-IV storage section.
The pipeline stages turn them into Pauli transfer matrices.

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


# the two phase-damping Kraus operators before their weights, I and Z, and
# the signs of gamma in their weights
_DEPHASING_PAIR = np.array([np.eye(2), np.diag([1.0, -1.0])], dtype=complex)
_DEPHASING_SIGNS = np.array([1.0, -1.0])


def dephasing_kraus(gamma) -> np.ndarray:
    """Kraus pair of the qubit phase-damping channel with off-diagonal
    survival gamma = exp(-t/T2), weights √((1 ± gamma)/2), shape (2, 2, 2);
    for an array of gammas, one pair per entry, gamma.shape + (2, 2, 2)."""
    g = np.asarray(gamma, dtype=float)
    # checked in Python floats, cheaper here than numpy's reductions
    if not all(0.0 <= x <= 1.0 for x in g.ravel().tolist()):
        raise ValueError("gamma must lie in [0, 1]")
    weights = np.sqrt((1.0 + g[..., None] * _DEPHASING_SIGNS) / 2.0)
    return weights[..., None, None] * _DEPHASING_PAIR
