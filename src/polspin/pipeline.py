"""End-to-end scenario runs: detection, storage, re-emission, Monte Carlo
averages, process tomography, device-constraint checks and parameter sweeps.

Every stage of a scenario is a conditional linear map on the 2x2 logical
qubit density matrix (logical amplitudes mean: alpha on the first slot of
the declared photon basis).  Stages compose into one superoperator, so a
Monte Carlo run is a single vectorised contraction.  It is deterministic
for a given (seed, sample count), and prefix-stable: the first m of n
samples do not depend on n.  Sample i is not tied to a fixed slice of the
random stream (the normal sampler rejects and redraws), so a run cannot be
split into independently seeded chunks that reproduce the whole.

Logical frame per case: the photon qubit (alpha, beta) maps to itself
through an ideal noiseless scenario, whatever the physical encoding
(z/x polarization -> mS spin pair -> eigenbasis -> Si donor spin), because
the per-case frame rotations are folded into the absorb / readout / emit
stages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import noise as noise_mod
from . import processor
from .bands import (BandScheme, CASE_A, CASE_B, DEGENERATE, FieldConfig,
                    INPLANE, NORMAL, MaterialParams, INAS_GAAS_QW,
                    SpectralWindow, build_level_scheme, degenerate_scheme)
from .constants import H_OVER_E2_OHM, charging_energy_uev, thermal_energy_uev
from .noise import NoiseModel
from .qstate import choi_of_map, is_cptp, process_fidelity
from .transfer import (CIRCULAR, LINEAR_ZX, PhotonQubit,
                       absorption_branches, absorb_degenerate, emission_map,
                       precession_unitary, _mode_map)

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainParams:
    """Donor-chain geometry used by the storage stages."""

    n_sites: int = 4
    storage_site: int = 3
    gate_error: float = 0.0

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError("chain needs at least one site")
        if not 0 <= self.storage_site < self.n_sites:
            raise ValueError("storage site outside the chain")
        if not 0.0 <= self.gate_error <= 1.0:
            raise ValueError("gate_error is a probability")


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one detection / re-emission scenario."""

    case: str = CASE_A
    material: MaterialParams = INAS_GAAS_QW
    field: FieldConfig = FieldConfig(1.0, NORMAL)
    window: SpectralWindow | None = None
    noise: NoiseModel = NoiseModel()
    chain: ChainParams = ChainParams()
    compensate: bool = True
    storage_time_ns: float = 0.0
    hadamard_time_ns: float = 0.0
    emission_direction: tuple[float, float, float] | None = None
    absorption_efficiency: float = 1.0
    seed: int = 0
    mc_samples: int = 1000
    input_qubit: tuple[complex, complex] = (1.0 / math.sqrt(2.0),
                                            1.0 / math.sqrt(2.0))

    def validate(self) -> list[str]:
        """All consistency violations, reported together."""
        problems = []
        if self.case not in (CASE_A, CASE_B, DEGENERATE):
            problems.append(f"unknown case {self.case!r}")
        if self.case == CASE_A and self.field.orientation != NORMAL:
            problems.append("case A requires the field normal to the surface "
                            "(orientation 'normal')")
        if self.case == CASE_B and self.field.orientation != INPLANE:
            problems.append("case B requires the field in the surface plane "
                            "(orientation 'inplane')")
        if self.case in (CASE_A, CASE_B) and self.field.b_tesla <= 0:
            problems.append("split-band cases require B > 0")
        # compressive strain is not a config-shape problem; it surfaces as
        # HeavyHoleTopmost when the scheme is built
        if not 0.0 <= self.absorption_efficiency <= 1.0:
            problems.append("absorption efficiency must lie in [0, 1]")
        for name in ("storage_time_ns", "hadamard_time_ns"):
            t = getattr(self, name)
            if not (math.isfinite(t) and t >= 0):
                problems.append(f"{name} must be finite and non-negative, "
                                f"got {t!r}")
        if self.emission_direction is not None and not all(
                math.isfinite(x) for x in self.emission_direction):
            problems.append("emission_direction must be finite")
        if self.mc_samples < 1:
            problems.append("mc_samples must be at least 1")
        n = abs(self.input_qubit[0]) ** 2 + abs(self.input_qubit[1]) ** 2
        if abs(n - 1.0) > 1e-9:
            problems.append("input qubit amplitudes must be normalized")
        return problems

    def scheme(self) -> BandScheme:
        if self.case == DEGENERATE:
            return degenerate_scheme(self.material)
        return build_level_scheme(self.material, self.field)

    def photon_basis(self) -> str:
        return LINEAR_ZX if self.case == CASE_A else CIRCULAR

    def input_photon(self) -> PhotonQubit:
        a, b = self.input_qubit
        return PhotonQubit(self.photon_basis(), a, b, window=self.window)


# ---------------------------------------------------------------------------
# stages as superoperators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Stage:
    name: str
    superop: np.ndarray = field(repr=False)   # 4x4, row-major vec convention

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return (self.superop @ rho.reshape(4)).reshape(2, 2)


def _superop_from_map(fn) -> np.ndarray:
    s = np.zeros((4, 4), dtype=complex)
    for k in range(2):
        for l in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[k, l] = 1.0
            s[:, 2 * k + l] = fn(e).reshape(4)
    return s


def _superop_from_kraus(kraus) -> np.ndarray:
    return _superop_from_map(
        lambda rho: sum(k @ rho @ k.conj().T for k in kraus))


def _detection_frame(case: str) -> np.ndarray:
    """Rotation from physical electron (mS-ordered) coordinates to the
    logical frame right after absorption."""
    return _X if case == CASE_A else _I2


def _eigen_columns(scheme: BandScheme) -> np.ndarray:
    return np.column_stack([scheme.conduction_levels[0].state,
                            scheme.conduction_levels[-1].state])


def _dephasing_basis(cfg: ScenarioConfig, scheme: BandScheme) -> np.ndarray | None:
    """Energy eigenbasis for transport dephasing, in logical coordinates.

    Case A: the logical basis states are the Zeeman eigenstates (None means
    diagonal).  Case B: the eigenstates are the ± superpositions, expressed
    here in the pre-readout logical frame.  Degenerate: no field, basis
    choice immaterial; the stored state is already diagonal.
    """
    if cfg.case != CASE_B:
        return None
    f = _detection_frame(cfg.case)
    return f @ _eigen_columns(scheme)


def _absorption_kraus_logical(cfg: ScenarioConfig, scheme: BandScheme) -> list[np.ndarray]:
    """Logical-frame Kraus branches of the absorption, scaled by the
    absorption efficiency and, if necessary, renormalised so the
    conditional map stays physical (sum K†K <= I)."""
    if cfg.case == DEGENERATE:
        phys = [np.array([[1, 0], [0, 0]], dtype=complex),
                np.array([[0, 0], [0, 1]], dtype=complex)]
    else:
        phys = [br.kraus for br in absorption_branches(
            scheme, cfg.window, cfg.compensate and cfg.case == CASE_A)]
    frame = _detection_frame(cfg.case)
    ks = [frame @ k for k in phys]
    total = sum(k.conj().T @ k for k in ks)
    top = float(np.max(np.linalg.eigvalsh(total)).real)
    scale = math.sqrt(cfg.absorption_efficiency) / max(1.0, math.sqrt(top))
    return [scale * k for k in ks]


def _physical_absorption_kraus(cfg: ScenarioConfig, scheme: BandScheme) -> list[np.ndarray]:
    """Unscaled physical-frame branches, for per-sample hole diagnostics."""
    if cfg.case == DEGENERATE:
        return [np.array([[1, 0], [0, 0]], dtype=complex),
                np.array([[0, 0], [0, 1]], dtype=complex)]
    return [br.kraus for br in absorption_branches(
        scheme, cfg.window, cfg.compensate and cfg.case == CASE_A)]


def _emission_kraus(cfg: ScenarioConfig, scheme: BandScheme) -> list[np.ndarray]:
    """Logical Kraus of prep -> recombination -> collection -> compensation.

    The split cases recombine coherently from a single hole level; the
    degenerate case leaves which-path information in the hole, one Kraus
    branch per circular polarization.
    """
    direction = (np.asarray(cfg.emission_direction, dtype=float)
                 if cfg.emission_direction is not None else scheme.canonical_k)
    direction = direction / np.linalg.norm(direction)
    t, _, lossy, _ = _mode_map(scheme, direction)
    if lossy or np.linalg.matrix_rank(t, tol=1e-10) < 2:
        inv = np.linalg.pinv(t)
    else:
        inv = np.linalg.inv(t)
    canonical = emission_map(scheme)
    geometry = canonical @ inv @ t       # identity wherever t has full rank
    prep = _X if cfg.case == CASE_A else _I2
    if cfg.case == DEGENERATE:
        return [geometry @ np.array([[1, 0], [0, 0]], dtype=complex) @ prep,
                geometry @ np.array([[0, 0], [0, 1]], dtype=complex) @ prep]
    return [geometry @ prep]


def detection_stages(cfg: ScenarioConfig, scheme: BandScheme) -> list[Stage]:
    stages = [Stage("absorb", _superop_from_kraus(
        _absorption_kraus_logical(cfg, scheme)))]

    basis = _dephasing_basis(cfg, scheme)
    nm = cfg.noise

    def transport_map(rho):
        ks = noise_mod.dephasing_kraus(
            noise_mod.coherence_factor(nm.transport_time_ns, nm.t2_iii_v_ns))
        extra = noise_mod.dephasing_kraus(1.0 - nm.transport_dephasing_fraction)
        if basis is not None:
            u = basis
            ks = [u @ k @ u.conj().T for k in ks]
            extra = [u @ k @ u.conj().T for k in extra]
        out = sum(k @ rho @ k.conj().T for k in ks)
        out = sum(k @ out @ k.conj().T for k in extra)
        return (1.0 - nm.transport_loss) * out

    stages.append(Stage("transport", _superop_from_map(transport_map)))

    shuttle_in = processor.site_channel_map(
        cfg.chain.n_sites, 0, cfg.chain.storage_site, cfg.chain.gate_error)
    stages.append(Stage("shuttle_in", _superop_from_map(shuttle_in)))

    if cfg.case == CASE_B:
        # physically: precess(t), then the Hadamard rotation onto the
        # eigenbasis.  In logical coordinates the Hadamard cancels against
        # the post-readout frame change (it is involutive), leaving only
        # the synchronization error of the precession phase.
        u = precession_unitary(scheme, cfg.hadamard_time_ns)
        stages.append(Stage("hadamard", _superop_from_kraus([u])))
    return stages


def return_stages(cfg: ScenarioConfig, scheme: BandScheme) -> list[Stage]:
    stages = []
    gamma = noise_mod.coherence_factor(cfg.storage_time_ns, cfg.noise.t2_si_ns)
    stages.append(Stage("storage", _superop_from_kraus(
        noise_mod.dephasing_kraus(gamma))))

    shuttle_out = processor.site_channel_map(
        cfg.chain.n_sites, cfg.chain.storage_site, 0, cfg.chain.gate_error)
    stages.append(Stage("shuttle_out", _superop_from_map(shuttle_out)))

    basis = _dephasing_basis(cfg, scheme)
    nm = cfg.noise

    def transport_map(rho):
        ks = noise_mod.dephasing_kraus(
            noise_mod.coherence_factor(nm.transport_time_ns, nm.t2_iii_v_ns))
        if basis is not None:
            ks = [basis @ k @ basis.conj().T for k in ks]
        return (1.0 - nm.transport_loss) * sum(k @ rho @ k.conj().T for k in ks)

    stages.append(Stage("transport_back", _superop_from_map(transport_map)))
    stages.append(Stage("emit", _superop_from_kraus(_emission_kraus(cfg, scheme))))
    return stages


def end_to_end_stages(cfg: ScenarioConfig) -> list[Stage]:
    scheme = cfg.scheme()
    return detection_stages(cfg, scheme) + return_stages(cfg, scheme)


def _compose(stages: list[Stage]) -> np.ndarray:
    s = np.eye(4, dtype=complex)
    for st in stages:
        s = st.superop @ s
    return s


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def haar_qubits(seed: int, n: int) -> np.ndarray:
    """n Haar-random qubit amplitude pairs, shape (n, 2) complex.

    Drawn from a Philox stream keyed by the seed.  The result is
    prefix-stable: haar_qubits(seed, m) equals haar_qubits(seed, n)[:m]
    for m < n.  Sample i does not consume a fixed block of draws (the
    ziggurat normal sampler rejects and redraws), so sample i cannot be
    reproduced on its own by advancing the generator.
    """
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    z = gen.standard_normal((n, 4))
    amps = z[:, 0] + 1j * z[:, 1], z[:, 2] + 1j * z[:, 3]
    v = np.stack(amps, axis=1)
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _branch_weights(kraus: list[np.ndarray], amps: np.ndarray) -> np.ndarray:
    """Squared norms ||K_i q||² per branch, vectorised over samples."""
    out = np.empty((amps.shape[0], len(kraus)))
    for i, k in enumerate(kraus):
        v = amps @ k.T
        out[:, i] = np.sum(np.abs(v) ** 2, axis=1)
    return out


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StageFidelity:
    name: str
    fidelity: float
    success: float


@dataclass(frozen=True)
class DetectionResult:
    chain: processor.DonorChain
    logical_rho: np.ndarray
    stages: tuple[StageFidelity, ...]
    success_probability: float
    leakage: float
    hole_purity: float
    entanglement_entropy_bits: float


@dataclass(frozen=True)
class EndToEndResult:
    photon_rho: np.ndarray
    round_trip_fidelity: float
    stages: tuple[StageFidelity, ...]
    success_probability: float
    leakage: float
    hole_purity: float
    collection_fraction: float


@dataclass(frozen=True)
class MonteCarloResult:
    mean_fidelity: float
    stderr: float
    n_samples: int
    success_probability: float
    leakage: float
    hole_purity_mean: float
    hole_purity_std: float


@dataclass(frozen=True)
class TomographyResult:
    choi: np.ndarray
    cptp: bool
    process_fidelity: float


@dataclass(frozen=True)
class ChannelReport:
    """Everything the CLI prints for one configured scenario."""

    case: str
    round_trip_fidelity: float
    mean_fidelity: float
    stderr: float
    success_probability: float
    leakage: float
    hole_purity_mean: float
    hole_purity_std: float
    entanglement_entropy_bits: float
    collection_fraction: float
    choi: np.ndarray
    cptp: bool
    process_fidelity: float
    stages: tuple[StageFidelity, ...]
    seed: int
    n_samples: int


def _stage_trace(stages, q) -> tuple[list[StageFidelity], np.ndarray]:
    """Per-stage fidelity and success of the pure input q, and the final
    (unnormalised) output density matrix."""
    rho = np.outer(q, q.conj())
    out = []
    for st in stages:
        rho = st.apply(rho)
        tr = float(np.trace(rho).real)
        if tr <= 0:
            out.append(StageFidelity(st.name, 0.0, 0.0))
            continue
        fid = float(np.real(q.conj() @ (rho / tr) @ q))
        out.append(StageFidelity(st.name, fid, tr))
    return out, rho


def _unit(q) -> np.ndarray:
    q = np.asarray(q, dtype=complex)
    return q / np.linalg.norm(q)


def _absorption_diagnostics(cfg, scheme, amps) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample (leakage, hole purity) from the physical branch weights."""
    kraus = _physical_absorption_kraus(cfg, scheme)
    w = _branch_weights(kraus, amps)
    total = np.sum(w, axis=1)
    total = np.where(total <= 0, 1.0, total)
    leak = w[:, 1] / total if w.shape[1] > 1 and cfg.case != DEGENERATE \
        else np.zeros(amps.shape[0])
    purity = np.sum((w / total[:, None]) ** 2, axis=1)
    return leak, purity


# The private _run_* helpers below take prebuilt stages (or their composed
# superoperator) so that scenario_report builds them once; the public
# functions build their own and delegate.

def _run_detection(q, cfg, scheme, stages) -> DetectionResult:
    trace, rho = _stage_trace(stages, q)
    tr = float(np.trace(rho).real)
    logical = rho / tr if tr > 0 else rho

    leak, pur = _absorption_diagnostics(cfg, scheme, q[None, :])
    photon = PhotonQubit(cfg.photon_basis(), q[0], q[1], window=cfg.window)
    if cfg.case == DEGENERATE:
        outcome = absorb_degenerate(photon, cfg.absorption_efficiency)
    else:
        from .transfer import absorb_case_a, absorb_case_b
        outcome = (absorb_case_a(photon, scheme, cfg.compensate,
                                 efficiency=cfg.absorption_efficiency)
                   if cfg.case == CASE_A
                   else absorb_case_b(photon, scheme,
                                      efficiency=cfg.absorption_efficiency))
    from .qstate import entanglement_entropy
    ent = entanglement_entropy(outcome.state, ("electron_spin",))

    chain = processor.fresh_chain(cfg.chain.n_sites, cfg.chain.gate_error)
    chain = processor.load_site(chain, cfg.chain.storage_site, logical)
    return DetectionResult(
        chain=chain, logical_rho=logical, stages=tuple(trace),
        success_probability=trace[-1].success,
        leakage=float(leak[0]), hole_purity=float(pur[0]),
        entanglement_entropy_bits=float(ent))


def run_detection(q, cfg: ScenarioConfig) -> DetectionResult:
    """Absorb a photon qubit, cross the interface and park the qubit in the
    donor chain; returns the loaded chain plus per-stage diagnostics."""
    _require_valid(cfg)
    scheme = cfg.scheme()
    return _run_detection(_unit(q), cfg, scheme, detection_stages(cfg, scheme))


def _run_end_to_end(q, cfg, scheme, stages) -> EndToEndResult:
    trace, rho = _stage_trace(stages, q)
    tr = float(np.trace(rho).real)
    photon_rho = rho / tr if tr > 0 else rho
    fid = float(np.real(q.conj() @ photon_rho @ q))

    leak, pur = _absorption_diagnostics(cfg, scheme, q[None, :])
    direction = (np.asarray(cfg.emission_direction, dtype=float)
                 if cfg.emission_direction is not None else scheme.canonical_k)
    _, _, _, fractions = _mode_map(scheme, direction / np.linalg.norm(direction))
    prep = _X if cfg.case == CASE_A else _I2
    e_amp = prep @ q
    collection = float(np.sum(np.abs(e_amp) ** 2 * fractions))

    return EndToEndResult(
        photon_rho=photon_rho, round_trip_fidelity=fid, stages=tuple(trace),
        success_probability=trace[-1].success, leakage=float(leak[0]),
        hole_purity=float(pur[0]), collection_fraction=collection)


def run_end_to_end(q, cfg: ScenarioConfig) -> EndToEndResult:
    """Detection, storage dephasing, retrieval and re-emission; the output
    photon is compared with the input in the canonical logical basis."""
    _require_valid(cfg)
    scheme = cfg.scheme()
    stages = detection_stages(cfg, scheme) + return_stages(cfg, scheme)
    return _run_end_to_end(_unit(q), cfg, scheme, stages)


def _sample_count(cfg: ScenarioConfig, n_samples: int | None = None) -> int:
    n = int(n_samples if n_samples is not None else cfg.mc_samples)
    if n < 1:
        raise ValueError("need at least one sample")
    return n


def _run_monte_carlo(cfg, scheme, s, n: int) -> MonteCarloResult:
    amps = haar_qubits(cfg.seed, n)

    rho_in = np.einsum("ni,nj->nij", amps, amps.conj())
    rho_out = np.einsum("ab,nb->na", s, rho_in.reshape(n, 4)).reshape(n, 2, 2)
    traces = np.real(np.trace(rho_out, axis1=1, axis2=2))
    safe = np.where(traces <= 0, 1.0, traces)
    fids = np.real(np.einsum("ni,nij,nj->n", amps.conj(), rho_out, amps)) / safe
    fids = np.where(traces <= 0, 0.0, fids)

    leak, pur = _absorption_diagnostics(cfg, scheme, amps)
    mean = float(np.mean(fids))
    stderr = float(np.std(fids, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    pur_std = float(np.std(pur, ddof=1)) if n > 1 else 0.0
    return MonteCarloResult(mean, stderr, n, float(np.mean(traces)),
                            float(np.mean(leak)), float(np.mean(pur)), pur_std)


def monte_carlo_average_fidelity(cfg: ScenarioConfig,
                                 n_samples: int | None = None) -> MonteCarloResult:
    """Haar-averaged round-trip fidelity, deterministic for a given seed."""
    _require_valid(cfg)
    n = _sample_count(cfg, n_samples)
    scheme = cfg.scheme()
    s = _compose(detection_stages(cfg, scheme) + return_stages(cfg, scheme))
    return _run_monte_carlo(cfg, scheme, s, n)


def _run_tomography(s) -> TomographyResult:
    choi = choi_of_map(lambda rho: (s @ rho.reshape(4)).reshape(2, 2))
    verdict = is_cptp(choi, tol=1e-8, conditional=True)
    return TomographyResult(choi, verdict, process_fidelity(choi))


def process_tomography(cfg: ScenarioConfig) -> TomographyResult:
    """Choi matrix of the photon -> photon logical channel, its physicality
    verdict (conditional maps allowed) and process fidelity to identity."""
    _require_valid(cfg)
    scheme = cfg.scheme()
    return _run_tomography(
        _compose(detection_stages(cfg, scheme) + return_stages(cfg, scheme)))


def scenario_report(cfg: ScenarioConfig) -> ChannelReport:
    """Run the reference input, the Monte Carlo average and tomography,
    building the scheme and the stage list once for all of them."""
    _require_valid(cfg)
    n = _sample_count(cfg)
    scheme = cfg.scheme()
    detection = detection_stages(cfg, scheme)
    stages = detection + return_stages(cfg, scheme)
    s = _compose(stages)
    q = _unit(cfg.input_qubit)
    e2e = _run_end_to_end(q, cfg, scheme, stages)
    det = _run_detection(q, cfg, scheme, detection)
    mc = _run_monte_carlo(cfg, scheme, s, n)
    tomo = _run_tomography(s)
    return ChannelReport(
        case=cfg.case,
        round_trip_fidelity=e2e.round_trip_fidelity,
        mean_fidelity=mc.mean_fidelity,
        stderr=mc.stderr,
        success_probability=mc.success_probability,
        leakage=mc.leakage,
        hole_purity_mean=mc.hole_purity_mean,
        hole_purity_std=mc.hole_purity_std,
        entanglement_entropy_bits=det.entanglement_entropy_bits,
        collection_fraction=e2e.collection_fraction,
        choi=tomo.choi,
        cptp=tomo.cptp,
        process_fidelity=tomo.process_fidelity,
        stages=e2e.stages,
        seed=cfg.seed,
        n_samples=mc.n_samples,
    )


def _require_valid(cfg: ScenarioConfig):
    problems = cfg.validate()
    if problems:
        raise ValueError("; ".join(problems))


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------

_SWEEPABLE = {
    "field.b_tesla": lambda cfg, v: replace(cfg, field=replace(cfg.field, b_tesla=v)),
    "window.bandwidth_ueV": lambda cfg, v: replace(
        cfg, window=replace(cfg.window or SpectralWindow(v), bandwidth_uev=v)),
    "window.center_offset_ueV": lambda cfg, v: replace(
        cfg, window=replace(cfg.window or SpectralWindow(100.0), center_offset_uev=v)),
    "noise.transport_time_ns": lambda cfg, v: replace(
        cfg, noise=replace(cfg.noise, transport_time_ns=v)),
    "noise.transport_loss": lambda cfg, v: replace(
        cfg, noise=replace(cfg.noise, transport_loss=v)),
    "noise.transport_dephasing_fraction": lambda cfg, v: replace(
        cfg, noise=replace(cfg.noise, transport_dephasing_fraction=v)),
    "storage_time_ns": lambda cfg, v: replace(cfg, storage_time_ns=v),
    "hadamard_time_ns": lambda cfg, v: replace(cfg, hadamard_time_ns=v),
    "chain.gate_error": lambda cfg, v: replace(
        cfg, chain=replace(cfg.chain, gate_error=v)),
    "absorption_efficiency": lambda cfg, v: replace(cfg, absorption_efficiency=v),
}


def sweep_parameters() -> tuple[str, ...]:
    return tuple(sorted(_SWEEPABLE))


def sweep(cfg: ScenarioConfig, param: str, values,
          n_samples: int | None = None) -> list[dict]:
    """One Monte Carlo row per value of a numeric config parameter."""
    if param not in _SWEEPABLE:
        raise KeyError(f"unknown sweep parameter {param!r}; "
                       f"choose from {', '.join(sweep_parameters())}")
    rows = []
    for v in values:
        sub = _SWEEPABLE[param](cfg, float(v))
        mc = monte_carlo_average_fidelity(sub, n_samples)
        rows.append({
            "param": param,
            "value": float(v),
            "mean_fidelity": mc.mean_fidelity,
            "stderr": mc.stderr,
            "success_prob": mc.success_probability,
            "leakage": mc.leakage,
            "hole_purity": mc.hole_purity_mean,
        })
    return rows


# ---------------------------------------------------------------------------
# quantum-dot emitter constraints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DotConstraints:
    """Single-electron parameters of the emitter quantum dot."""

    capacitance_farad: float
    tunnel_resistance_ohm: float
    confinement_energy_uev: float
    temperature_k: float

    def __post_init__(self):
        for name in ("capacitance_farad", "tunnel_resistance_ohm",
                     "confinement_energy_uev", "temperature_k"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class DotReport:
    charging_ok: bool
    confinement_ok: bool
    resistance_ok: bool
    charging_energy_uev: float
    thermal_energy_uev: float
    confinement_energy_uev: float
    tunnel_resistance_ohm: float
    resistance_threshold_ohm: float
    note: str

    @property
    def all_ok(self) -> bool:
        return self.charging_ok and self.confinement_ok and self.resistance_ok


def dot_constraint_check(d: DotConstraints) -> DotReport:
    """Check the three single-electron conditions on the emitter dot:
    charging energy and confinement both above kT, tunnel resistance above
    the resistance quantum h/e² ≈ 25 812.807 Ω."""
    e_c = charging_energy_uev(d.capacitance_farad)
    kt = thermal_energy_uev(d.temperature_k)
    return DotReport(
        charging_ok=e_c > kt,
        confinement_ok=d.confinement_energy_uev > kt,
        resistance_ok=d.tunnel_resistance_ohm > H_OVER_E2_OHM,
        charging_energy_uev=e_c,
        thermal_energy_uev=kt,
        confinement_energy_uev=d.confinement_energy_uev,
        tunnel_resistance_ohm=d.tunnel_resistance_ohm,
        resistance_threshold_ohm=H_OVER_E2_OHM,
        note=("charging condition evaluated as e²/C > kB·T "
              "(the voltage-vs-energy reading e/C > kT is dimensionally "
              "inconsistent and taken as shorthand for the charging energy)"),
    )
