"""Fixed reference work that gauges the machine's speed during a run.

On a shared host the speed of one core drifts by 1.5-2x within seconds as
other tenants come and go, and a run of tens of seconds does not average
that out.  run.py times reference work between operations and scales each
operation's wall time by nominal / (median reference time within a second
of it), which cancels most of the drift.  That noise slows small-object
Python code, 64x64 matrix chains and large arrays by different factors,
so there is one kernel shaped like each workload: small_work like stage
construction (rational arithmetic, a 4-site dense chain built with
np.kron, a small Haar batch), chain_work like the 6-site dense chain,
bulk_work like Monte Carlo over 100 000 samples.  None imports polspin,
so a change to polspin leaves them as they are.  Editing them changes
every scaled time: measure the baseline again.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

_SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                 dtype=complex)
_PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex))
_I2 = np.eye(2, dtype=complex)
_SAMPLES = 2000
_MAP = np.diag([1.0, 0.9, 0.9, 1.0]).astype(complex)

_BULK_SAMPLES = 100_000


def _rational_sum(n: int) -> Fraction:
    total = Fraction(0)
    for k in range(n):
        total += Fraction((-1) ** k, math.factorial(k % 7) * (k + 1))
    return total


def _embed(op: np.ndarray, site: int, span: int, n_sites: int) -> np.ndarray:
    full = np.array([[1.0]], dtype=complex)
    j = 0
    while j < n_sites:
        if j == site:
            full = np.kron(full, op)
            j += span
        else:
            full = np.kron(full, _I2)
            j += 1
    return full


def _chain_shuttle(n_sites: int, error: float) -> np.ndarray:
    dim = 2 ** n_sites
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    for site in range(n_sites - 1):
        u = _embed(_SWAP, site, 2, n_sites)
        rho = u @ rho @ u.conj().T
        for s in (site, site + 1):
            acc = (1.0 - error) * rho
            for p in _PAULI:
                v = _embed(p, s, 1, n_sites)
                acc = acc + (error / 3.0) * (v @ rho @ v.conj().T)
            rho = acc
    return rho


def _haar_contraction(samples: int) -> float:
    z = np.random.Generator(np.random.Philox(key=np.uint64(7))).standard_normal((samples, 4))
    v = np.stack([z[:, 0] + 1j * z[:, 1], z[:, 2] + 1j * z[:, 3]], axis=1)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    rho = np.einsum("ni,nj->nij", v, v.conj()).reshape(samples, 4)
    out = np.einsum("ab,nb->na", _MAP, rho).reshape(samples, 2, 2)
    traces = np.real(np.trace(out, axis1=1, axis2=2))
    fids = np.real(np.einsum("ni,nij,nj->n", v.conj(), out, v)) / traces
    weights = np.sum(np.abs(v @ _MAP[:2, :2].T) ** 2, axis=1)
    return float(np.mean(fids)) + float(np.std(weights, ddof=1))


def small_work() -> float:
    """Reference work shaped like stage construction."""
    r = _rational_sum(40)
    rho = _chain_shuttle(4, 0.01)
    return float(r) + float(np.real(np.trace(rho))) + _haar_contraction(_SAMPLES)


def chain_work() -> float:
    """Reference work shaped like the 6-site dense chain."""
    return float(np.real(np.trace(_chain_shuttle(6, 0.01))))


def bulk_work() -> float:
    """Reference work shaped like Monte Carlo over 100 000 samples."""
    return _haar_contraction(_BULK_SAMPLES)


# kernel name -> (function, nominal seconds).  The nominal durations are
# close to the kernels' medians on a 2-core Xeon VM (Python 3.11, numpy
# 2.4); times scaled with them are "reference seconds".
KERNELS = {"small": (small_work, 3e-3), "chain": (chain_work, 10e-3),
           "bulk": (bulk_work, 45e-3)}
