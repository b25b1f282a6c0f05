"""Output checks for the benchmark, independent of polspin's RNG stream.

The Monte Carlo mean a report carries is compared with a deterministic
Bloch-sphere quadrature of the same quantity, q† S(qq†) q / tr S(qq†),
where S is the 2x2 -> 2x2 map rebuilt from the report's Choi matrix.  Haar
measure on pure qubit states is the uniform measure on the Bloch sphere, so
Gauss-Legendre nodes in cos(theta) times a uniform grid in phi integrate
the smooth integrand to near machine precision.  Nothing here depends on
how polspin draws its samples or builds its stages.
"""

from __future__ import annotations

import math

import numpy as np

# MC mean vs quadrature: |mean - oracle| <= MC_SIGMAS * stderr + MC_FLOOR.
# The floor covers ideal maps, whose stderr is ~1e-17, and the 6-decimal
# rounding of the CLI's json-like output.
MC_SIGMAS = 5.0
MC_FLOOR = 1e-6
# slack for [0, 1] ranges and unit fidelities computed in double precision
RANGE_SLACK = 1e-9
IDEAL_TOL = 1e-6
DEGENERATE_BASELINE = 2.0 / 3.0


def _bloch_grid(n_theta: int, n_phi: int) -> tuple[np.ndarray, np.ndarray]:
    """Pure-state amplitudes (N, 2) and weights (N,) summing to 1."""
    x, w = np.polynomial.legendre.leggauss(n_theta)        # x = cos(theta)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    cos_half = np.sqrt((1.0 + x) / 2.0)
    sin_half = np.sqrt((1.0 - x) / 2.0)
    a = np.repeat(cos_half, n_phi).astype(complex)
    b = (sin_half[:, None] * np.exp(1j * phi)[None, :]).reshape(-1)
    weights = np.repeat(w / 2.0, n_phi) / n_phi
    return np.stack([a, b], axis=1), weights


_AMPS, _WEIGHTS = _bloch_grid(48, 96)


def apply_choi(choi: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """S(rho) for a batch rho (N, 2, 2), with polspin's Choi convention
    choi = (1/2) sum_ij S(|i><j|) ⊗ |i><j|."""
    c = np.asarray(choi, dtype=complex).reshape(2, 2, 2, 2)   # [a, i, b, j]
    return 2.0 * np.einsum("aibj,nij->nab", c, rho)


def haar_mean_fidelity(choi: np.ndarray) -> float:
    """Haar average of the post-selected fidelity q† S(qq†) q / tr S(qq†),
    counting inputs the map annihilates as fidelity 0 (as polspin does)."""
    q = _AMPS
    out = apply_choi(choi, np.einsum("ni,nj->nij", q, q.conj()))
    traces = np.real(np.trace(out, axis1=1, axis2=2))
    overlap = np.real(np.einsum("ni,nij,nj->n", q.conj(), out, q))
    fids = np.where(traces > 0, overlap / np.where(traces > 0, traces, 1.0), 0.0)
    return float(np.sum(_WEIGHTS * fids))


def _unit_interval(name: str, value: float, problems: list[str]):
    if not math.isfinite(value) or not -RANGE_SLACK <= value <= 1.0 + RANGE_SLACK:
        problems.append(f"{name}={value!r} is not a probability in [0, 1]")


def check_mc_mean(mean: float, stderr: float, oracle: float,
                  problems: list[str], what: str = "mean_fidelity"):
    if not math.isfinite(stderr) or stderr < 0:
        problems.append(f"stderr={stderr!r} is not a finite non-negative number")
        return
    tol = MC_SIGMAS * stderr + MC_FLOOR
    if not abs(mean - oracle) <= tol:
        problems.append(f"{what}={mean!r} differs from the quadrature "
                        f"{oracle!r} by more than {tol!r}")


def check_report(rep: dict, *, degenerate: bool, ideal: bool) -> list[str]:
    """Problems with one scenario report, given as a dict of floats with a
    complex 4x4 'choi' and a list of per-stage (fidelity, success) pairs.

    degenerate: the classical 2/3 baseline must hold.  ideal: a noiseless,
    compensated case A, whose round trip is exact.
    """
    problems: list[str] = []
    for name in ("round_trip_fidelity", "mean_fidelity", "success_probability",
                 "leakage", "hole_purity_mean", "collection_fraction",
                 "process_fidelity"):
        _unit_interval(name, rep[name], problems)
    for i, (fid, success) in enumerate(rep["stages"]):
        _unit_interval(f"stages[{i}].fidelity", fid, problems)
        _unit_interval(f"stages[{i}].success", success, problems)
    if not math.isfinite(rep["entanglement_entropy_bits"]):
        problems.append("entanglement_entropy_bits is not finite")
    if rep["cptp"] is not True:
        problems.append("cptp is not true")
    choi = np.asarray(rep["choi"], dtype=complex)
    if choi.shape != (4, 4) or not np.all(np.isfinite(choi)):
        problems.append("choi is not a finite 4x4 matrix")
        return problems
    check_mc_mean(rep["mean_fidelity"], rep["stderr"],
                  haar_mean_fidelity(choi), problems)
    if degenerate and not abs(rep["mean_fidelity"] - DEGENERATE_BASELINE) \
            <= MC_SIGMAS * rep["stderr"]:
        problems.append(f"degenerate mean {rep['mean_fidelity']!r} is not "
                        f"within {MC_SIGMAS} stderr of 2/3")
    if ideal and not abs(rep["round_trip_fidelity"] - 1.0) <= IDEAL_TOL:
        problems.append(f"ideal round_trip_fidelity "
                        f"{rep['round_trip_fidelity']!r} is not 1")
    return problems


def report_from_json(doc: dict) -> dict:
    """The check_report view of `polspin run --format json-like` output."""
    rep = {name: float(doc[name]) for name in (
        "round_trip_fidelity", "mean_fidelity", "stderr",
        "success_probability", "leakage", "hole_purity_mean",
        "collection_fraction", "process_fidelity",
        "entanglement_entropy_bits")}
    rep["cptp"] = doc["cptp"]
    rep["stages"] = [(float(st["fidelity"]), float(st["success"]))
                     for st in doc["stages"]]
    rep["choi"] = [[complex(z) for z in row] for row in doc["choi"]]
    return rep


def report_from_object(rep) -> dict:
    """The check_report view of a polspin.pipeline.ChannelReport."""
    out = {name: float(getattr(rep, name)) for name in (
        "round_trip_fidelity", "mean_fidelity", "stderr",
        "success_probability", "leakage", "hole_purity_mean",
        "collection_fraction", "process_fidelity",
        "entanglement_entropy_bits")}
    out["cptp"] = rep.cptp
    out["stages"] = [(st.fidelity, st.success) for st in rep.stages]
    out["choi"] = rep.choi
    return out


def check_sweep_row(row: dict, choi: np.ndarray, cptp: bool) -> list[str]:
    """Problems with one `pipeline.sweep` row, given the Choi matrix and
    CPTP verdict of that row's configuration."""
    problems: list[str] = []
    for name in ("mean_fidelity", "success_prob", "leakage", "hole_purity"):
        _unit_interval(name, row[name], problems)
    if cptp is not True:
        problems.append("cptp is not true")
    check_mc_mean(row["mean_fidelity"], row["stderr"],
                  haar_mean_fidelity(choi), problems)
    return problems
