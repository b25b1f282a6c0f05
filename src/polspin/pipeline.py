"""End-to-end scenario runs: detection, storage, re-emission, Monte Carlo
averages, process tomography, device-constraint checks and parameter sweeps.

Every stage of a scenario is a conditional linear map on the 2x2 logical
qubit density matrix (logical amplitudes mean: alpha on the first slot of
the photon basis its case fixes), held as its real 4x4 Pauli transfer matrix
(PTM; conventions in qstate).  Stages compose by matrix product into one
PTM R, so a Monte Carlo run evaluates every per-sample quantity as a
quadratic form on the Pauli vectors c = (1, Bloch vector) of the Haar
inputs: trace (R c)₀, fidelity numerator ½ c·R c, and the absorption
branches' Gram matrix G_ij = ½ c·m_ij, which fixes the hole state.
It is deterministic for a given (seed, sample count), and prefix-stable:
the first m of n samples do not depend on n.  Sample i is not tied to a
fixed slice of the random stream (the normal sampler rejects and redraws),
so a run cannot be split into independently seeded chunks that reproduce
the whole.  The Monte Carlo sums accumulate over fixed blocks of samples
in one pass: each block's Pauli vectors are formed once and feed the
fidelity sums of every point of a sweep and the hole diagnostics of every
absorb stage it builds, so a sweep row does not depend on how many points
share its sweep.  Where success does not depend on the input (case A
with its √2 compensation, case B and the degenerate case, each with no
window or one too narrow to reach the second valence level), the figures
are quadratic in c and summed by moments: from the block sums of the
products c_i c_j and of their outer products, with no per-sample work.
Every other figure is summed per sample, by the ratio.

Logical frame per case: the photon qubit (alpha, beta) maps to itself
through an ideal noiseless scenario, whatever the physical encoding
(z/x polarization -> mS spin pair -> eigenbasis -> Si donor spin), because
each stage's builder folds in its frame and diagnostics: the runs take the
physics from the Stage records (hole forms, collection row), not the config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from . import noise as noise_mod
from . import processor
from .bands import (BandScheme, CASE_A, CASE_B, DEGENERATE, FieldConfig,
                    MaterialParams, INAS_GAAS_QW, SpectralWindow,
                    build_level_scheme, degenerate_scheme)
from .constants import H_OVER_E2_OHM, charging_energy_uev, thermal_energy_uev
from .noise import NoiseModel
from .qstate import (PAULIS, choi_from_ptm, choi_of_map, density_from_pauli,
                     is_cptp, pauli_vectors, process_fidelity, ptm_from_choi,
                     ptm_from_kraus)
from .transfer import absorption_branches, emission_map, precession_unitary

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def json_key(name: str) -> str:
    """The JSON key of a config dataclass field: its name, with the µeV
    suffix _uev written _ueV."""
    return name[:-4] + "_ueV" if name.endswith("_uev") else name


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
    """Full description of one detection / re-emission scenario.  The case
    alone fixes the geometry: the field's orientation and the photon
    basis."""

    case: str = CASE_A
    material: MaterialParams = INAS_GAAS_QW
    field: FieldConfig = FieldConfig()
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
    input_qubit: tuple[complex, complex] = (2 ** -0.5, 2 ** -0.5)

    def __post_init__(self):
        """Refuse an inconsistent config, every problem reported together."""
        problems = []
        if self.case not in (CASE_A, CASE_B, DEGENERATE):
            problems.append(f"unknown case {self.case!r}")
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
        d = self.emission_direction
        if d is not None and len(d) != 3:
            problems.append("emission_direction must have 3 components")
        elif d is not None and not (all(map(math.isfinite, d)) and any(d)):
            problems.append("emission_direction must be finite and non-zero")
        if self.mc_samples < 1:
            problems.append("mc_samples must be at least 1")
        if not 0 <= self.seed < 2 ** 64:
            problems.append(f"seed must be in [0, 2**64), got {self.seed}")
        n = abs(self.input_qubit[0]) ** 2 + abs(self.input_qubit[1]) ** 2
        if not (math.isfinite(n) and abs(n - 1.0) <= 1e-9):
            problems.append("input_qubit amplitudes must be finite and "
                            "normalized")
        if problems:
            raise ValueError("; ".join(problems))

    def scheme(self) -> BandScheme:
        if self.case == DEGENERATE:
            return degenerate_scheme()
        return build_level_scheme(self.case, self.material, self.field)


# ---------------------------------------------------------------------------
# stages as Pauli transfer matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Stage:
    """One stage as a real 4x4 Pauli transfer matrix (conventions in qstate).

    Its builder in `_STAGE_BUILDERS` owns its physics, frame and
    diagnostics; no run reads them from the config.  The absorb stage
    also holds the Gram forms of the unscaled physical absorption branches
    (`_gram_forms`), which give each input's hole state, and how many
    branches are wanted: they come first, and the rest's weight is
    leakage.  The emit stage holds the collection row: an electron with
    logical Pauli vector v is collected with fraction row·v / v₀.
    """

    name: str
    ptm: np.ndarray = field(repr=False)
    branch_forms: np.ndarray | None = field(default=None, repr=False)
    wanted_branches: int = 0
    collection_row: np.ndarray | None = field(default=None, repr=False)


def _detection_frame(case: str) -> np.ndarray:
    """Rotation from physical electron (mS-ordered) coordinates to the
    logical frame right after absorption."""
    return _X if case == CASE_A else _I2


def _shuttle_ptm(chain: ChainParams, from_site: int, to_site: int) -> np.ndarray:
    """PTM of the shuttle from_site -> to_site, from the chain's light cone.

    Each hop is an exchange SWAP on (pos, next).  The site ahead has not
    been touched, so it is exactly |0><0| and a product with the rest; the
    site left behind is never touched again and only to_site is read, so
    tracing it out right after the hop commutes with every later gate.  The
    shuttle's qubit map is therefore exactly the one-hop map raised to
    |hops|: one hop on a two-site chain holding (qubit, |0>), probed on two
    inputs, whatever the chain's length.
    """
    hops = to_site - from_site
    if hops == 0:
        return np.eye(4)
    a, b = (0, 1) if hops > 0 else (1, 0)
    hop = ptm_from_choi(choi_of_map(processor.site_channel_map(
        2, a, b, chain.gate_error)))
    return np.linalg.matrix_power(hop, abs(hops))


# branch count k (one or two holes) -> the diagonal of a k x k matrix and
# its pairs i < j
_GRAM_INDEX = {k: (np.arange(k), *np.triu_indices(k, 1)) for k in (1, 2)}


def _gram_forms(kraus) -> np.ndarray:
    """Real (k², 4) rows f: f @ c is the Gram matrix G_ij = ⟨K_j q|K_i q⟩
    = ½ c·m_ij, m_ij,l = tr(σ_l K_j†K_i), of the k branches K at the input
    q with Pauli vector c, in the orthonormal basis of Hermitian matrices:
    G_ii, then √2 Re G_ij and √2 Im G_ij for i < j (length² Σ|G_ij|²)."""
    m = np.einsum("lab,jcb,ica->ijl", PAULIS, np.conj(kraus), kraus)
    d, i, j = _GRAM_INDEX[len(kraus)]
    return np.concatenate([0.5 * m[d, d].real, math.sqrt(0.5) * m[i, j].real,
                           math.sqrt(0.5) * m[i, j].imag])


def _refuse_dark(row):
    """Refuse a map whose PTM has row 0 `row`: an input with Bloch vector r
    passes with weight row₀ + row₁:₃·r, at best row₀ + |row₁:₃|.  Below the
    smallest normal float that weight is dark, as every later ratio would
    overflow."""
    if row[0] + np.linalg.norm(row[1:]) < np.finfo(float).tiny:
        raise ValueError("photon does not couple to this scheme")


def _absorb(cfg: ScenarioConfig, scheme: BandScheme) -> Stage:
    """The absorb stage; one whose physical branches are dark is refused
    (their diagonal Gram forms sum to row 0 of their PTM).  Its branches
    are the physical ones in the logical frame, scaled by the absorption
    efficiency and renormalised if need be so that sum K†K <= I."""
    branches = absorption_branches(scheme, cfg.window, cfg.compensate)
    physical = [br.kraus for br in branches]
    forms = _gram_forms(physical)
    _refuse_dark(forms[:len(physical)].sum(axis=0))
    ks = _detection_frame(cfg.case) @ np.asarray(physical)
    total = (ks.conj().transpose(0, 2, 1) @ ks).sum(axis=0)
    top = float(np.max(np.linalg.eigvalsh(total)).real)
    ks *= math.sqrt(cfg.absorption_efficiency) / max(1.0, math.sqrt(top))
    return Stage("absorb", ptm_from_kraus(ks), forms,
                 sum(not br.unwanted for br in branches))


def _transport_leg(cfg: ScenarioConfig, scheme: BandScheme,
                   forward: bool) -> Stage:
    """The forward or return transport, dephasing in the scheme's energy
    eigenbasis.  Case B's pre-readout frame is the mS frame, whose
    eigenstates are the ± superpositions; case A's and the degenerate
    eigenbases are the mS states (swapped when g_cb < 0), in which the
    channel is the unrotated one bit for bit."""
    kraus = noise_mod.transport_kraus(cfg.noise, scheme.eigenbasis,
                                      forward=forward)
    return Stage("transport" if forward else "transport_back",
                 (1.0 - cfg.noise.transport_loss) * ptm_from_kraus(kraus))


def _shuttle(cfg: ScenarioConfig, scheme: BandScheme, inward: bool) -> Stage:
    """The shuttle from the chain's first site to the storage site, or back."""
    ends = (0, cfg.chain.storage_site)
    return Stage("shuttle_in" if inward else "shuttle_out",
                 _shuttle_ptm(cfg.chain, *(ends if inward else ends[::-1])))


def _hadamard(cfg: ScenarioConfig, scheme: BandScheme) -> Stage:
    # physically: precession over t, then the Hadamard rotation onto the
    # eigenbasis.  In logical coordinates the Hadamard cancels against the
    # post-readout frame change (it is involutive), leaving only the
    # synchronization error of the precession phase.
    u = precession_unitary(scheme, cfg.hadamard_time_ns)
    return Stage("hadamard", ptm_from_kraus([u]))


def _storage(cfg: ScenarioConfig, scheme: BandScheme) -> Stage:
    gamma = noise_mod.coherence_factor(cfg.storage_time_ns, cfg.noise.t2_si_ns)
    return Stage("storage", ptm_from_kraus(noise_mod.dephasing_kraus(gamma)))


def _emit(cfg: ScenarioConfig, scheme: BandScheme) -> Stage:
    """Prep -> recombination -> collection -> compensation, one logical
    Kraus branch per recombining hole (`transfer.emission_map`).  Spin
    branches with collection fractions (f↓, f↑) give the mS-frame row
    ½[f↓+f↑, 0, 0, f↓−f↑], taken to the logical frame by the frame's PTM."""
    kraus, (down, up) = emission_map(scheme, cfg.emission_direction)
    frame = _detection_frame(cfg.case)
    row = 0.5 * np.array([down + up, 0.0, 0.0, down - up])
    return Stage("emit", ptm_from_kraus([k @ frame for k in kraus]),
                 collection_row=row @ ptm_from_kraus([frame]))


# One builder per stage name, so that a sweep can rebuild a single stage.
_STAGE_BUILDERS = {
    "absorb": _absorb, "transport": partial(_transport_leg, forward=True),
    "shuttle_in": partial(_shuttle, inward=True), "hadamard": _hadamard,
    "storage": _storage, "shuttle_out": partial(_shuttle, inward=False),
    "transport_back": partial(_transport_leg, forward=False), "emit": _emit,
}


def detection_stages(cfg: ScenarioConfig, scheme: BandScheme) -> list[Stage]:
    names = ["absorb", "transport", "shuttle_in"]
    if cfg.case == CASE_B:
        names.append("hadamard")
    return [_STAGE_BUILDERS[name](cfg, scheme) for name in names]


def return_stages(cfg: ScenarioConfig, scheme: BandScheme) -> list[Stage]:
    return [_STAGE_BUILDERS[name](cfg, scheme)
            for name in ("storage", "shuttle_out", "transport_back", "emit")]


def end_to_end_stages(cfg: ScenarioConfig) -> list[Stage]:
    scheme = cfg.scheme()
    return detection_stages(cfg, scheme) + return_stages(cfg, scheme)


def _compose(stages: list[Stage]) -> np.ndarray:
    """The stages' product PTM; one that passes no input is refused."""
    r = np.eye(4)
    for st in stages:
        r = st.ptm @ r
    _refuse_dark(r[0])
    return r


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def haar_qubits(seed: int, n: int) -> np.ndarray:
    """n Haar-random qubit amplitude pairs, shape (n, 2) complex.

    Drawn from a Philox stream keyed by the seed: four standard normals per
    sample, (re α, im α, re β, im β), normalized in place in real
    arithmetic and viewed as complex pairs.  The result is prefix-stable:
    haar_qubits(seed, m) equals haar_qubits(seed, n)[:m] for m < n.
    Sample i does not consume a fixed block of draws (the ziggurat normal
    sampler rejects and redraws), so sample i cannot be reproduced on its
    own by advancing the generator.
    """
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    z = gen.standard_normal((n, 4))
    norm = np.einsum("ij,ij->i", z, z)
    np.sqrt(norm, out=norm)
    z /= norm[:, None]
    return z.view(complex)


# Monte Carlo sums accumulate over fixed blocks of this many samples, so a
# point's figures do not depend on how many points share the pass.
_MC_BLOCK = 2048
# the ten products c_i c_j (i <= j) of a Pauli vector's entries, the weight
# of r_ij + r_ji on each in ½ c·r c, and the row where the products
# c_k c_k.. of each k begin
_PAIRS = np.triu_indices(4)
_PAIR_WEIGHTS = np.where(_PAIRS[0] == _PAIRS[1], 0.25, 0.5)
_PAIR_ROWS = (0, 4, 7, 9)
# the weight of the products c_i c_j after c₀² (pair 0) in c·a c is a_ij +
# a_ji, read as the entries (2, 9) of a flattened 4x4 a; a square c_k²
# takes a_kk plus a₀₀, the weight of c₀², folded on since c₁² + c₂² + c₃²
# = c₀² for a unit input
_FOLD = np.array([np.where(_PAIRS[0][1:] == _PAIRS[1][1:], 0,
                           4 * _PAIRS[0][1:] + _PAIRS[1][1:]),
                  4 * _PAIRS[1][1:] + _PAIRS[0][1:]])
_SQUARES = (_FOLD[0] == 0).astype(float)
# a denominator a·c whose Bloch part |a₁:₃| is below this share of a₀ is
# taken as the constant a₀, and its row is summed by moments
_FLAT_TOL = 1e-13


def _is_flat(rows) -> list[bool]:
    """Which of the (m, 4) linear forms a are constant on unit inputs:
    each |a_i|, i = 1..3, below _FLAT_TOL·a₀, which needs a₀ > 0.  The
    few rows of a run are checked in Python floats, cheaper here than
    numpy's reductions."""
    return [max(map(abs, a[1:])) < _FLAT_TOL * a[0] for a in rows.tolist()]


def _mc_stats(rs, forms, wanted, amps) -> tuple[list[dict], list[dict]]:
    """The Monte Carlo figures of the pure inputs, the rows of the (n, 2)
    amplitude array amps: mean fidelity, its standard error and mean
    success through each composed PTM of the (P, 4, 4) stack rs, and mean
    leakage, hole-purity mean and standard deviation of each absorb stage
    whose Gram forms are stacked in the (H, k², 4) array forms, each with
    `wanted` wanted branches; one dict per PTM and one per absorb stage.

    One pass over fixed blocks of _MC_BLOCK samples: each block's Pauli
    vectors c are formed on their own, so no quantity of all n samples is
    held.  The input q q† = ½ Σ c_j σ_j leaves as ½ Σ (r c)_i σ_i, so the
    output trace is t = (r c)₀ = Σ_j r_0j c₀c_j (c₀ = 1) and the fidelity
    numerator q† Φ(q q†) q is ½ c·r c; the hole purity is Σ|G_ij|² / (tr G)²
    with G from the Gram forms.  All are linear in the ten products cc =
    c_i c_j, formed once per block.  A row whose denominator is constant
    (`_is_flat`: t = r₀₀, or tr G = d₀ with d the sum of the diagonal
    forms) is a quadratic form in c, summed by moments (`_MomentSums`);
    every other row is summed per sample, by the ratio (`_RatioSums`).
    Each path runs only when it has rows.  A row's path and figures do not
    depend on P or H.
    """
    p, h, n = len(rs), len(forms), len(amps)
    k = math.isqrt(forms.shape[1])
    # each row's denominator: t, then tr G
    flat = _is_flat(rs[:, 0]) + _is_flat(forms[:, :k].sum(axis=1))
    size = min(n, _MC_BLOCK)
    if all(flat) or not any(flat):
        kind = _MomentSums if flat[0] else _RatioSums
        paths = [(kind(rs, forms, wanted, size), None)]
    else:
        flat = np.array(flat)
        paths = [(kind(rs[on[:p]], forms[on[p:]], wanted, size), on)
                 for kind, on in ((_MomentSums, flat), (_RatioSums, ~flat))]
    products = np.empty((len(_PAIRS[0]), size))
    for start in range(0, n, _MC_BLOCK):
        c = pauli_vectors(amps[start:start + _MC_BLOCK])
        cc = products[:, :c.shape[1]]
        for i, row in enumerate(_PAIR_ROWS):
            np.multiply(c[i], c[i:], out=cc[row:row + 4 - i])
        for path, _ in paths:
            path.add(c, cc)
    if paths[0][1] is None:
        mean, var, success, leak = paths[0][0].figures(n)
    else:
        mean, var = np.empty(p + h), np.empty(p + h)
        success, leak = np.empty(p), np.empty(h)
        for path, on in paths:
            mean[on], var[on], success[on[:p]], leak[on[p:]] = path.figures(n)
    err, std = np.sqrt(var[:p] / n), np.sqrt(var[p:])
    return ([{"mean_fidelity": float(mean[i]), "stderr": float(err[i]),
              "success_probability": float(success[i])} for i in range(p)],
            [{"leakage": float(leak[i]),
              "hole_purity_mean": float(mean[p + i]),
              "hole_purity_std": float(std[i])} for i in range(h)])


class _MomentSums:
    """Sums by moments of flat rows: each PTM r's fidelity ½ c·r c / r₀₀,
    then each absorb stage's hole purity c·FᵀF c, F its forms over d₀
    (scaled before the product, or a faint stage's would underflow), then
    the successes r₀·c and leakages, linear, as c₀ times their form.  The
    blocks add up S = Σ cc₁: ccᵀ, the nine products after c₀² against all
    ten; its first column is S1 = Σ cc₁: on unit inputs (c₀² = 1).  Each
    figure is x = w·cc₁: with mean s = w·S1 / n, its c₀² weight folded onto
    the squares (`_FOLD`): that leaves the one w of the figure on the
    sphere, small where the figure is nearly constant.  Taking s off the
    weights on the squares leaves w′ with Σ(x − s)² = w′ᵀSw′, free of
    cancellation.  Every weight, mean and spread is formed row by row (the
    spread by a matmul batched over rows), so a row does not depend on its
    stack."""

    def __init__(self, rs, forms, wanted, size):
        self.rs, self.forms, self.wanted = rs, forms, wanted
        self.s = 0.0

    def add(self, c, cc):
        # cc₁: and cc are offset operands, so numpy hands them to BLAS
        # gemm, which here is faster than the syrk it picks for cc @ cc.T
        self.s = self.s + cc[1:] @ cc.T

    def figures(self, n):
        """(mean, variance, success, leakage) per row after n samples."""
        rs, forms = self.rs, self.forms
        f, h, k = len(rs), len(forms), math.isqrt(forms.shape[1])
        a = np.zeros((2 * (f + h), 4, 4))   # each figure is c·a c
        np.divide(rs, 2.0 * rs[:, :1, :1], out=a[:f])
        scaled = forms / forms[:, :k, :1].sum(axis=1, keepdims=True)
        np.matmul(scaled.swapaxes(1, 2), scaled, out=a[f:f + h])
        a[f + h:2 * f + h, 0] = rs[:, 0]
        np.sum(scaled[:, self.wanted:k], axis=1, out=a[2 * f + h:, 0])
        w = a.reshape(-1, 16).take(_FOLD, axis=1).sum(axis=1)
        mean = (w * self.s[:, 0]).sum(axis=1) / n
        w = w[:f + h] - mean[:f + h, None] * _SQUARES
        var = (w[:, None] @ self.s[:, 1:] @ w[:, :, None]).ravel()
        var = np.maximum(var, 0.0) / (n - 1) if n > 1 else np.zeros_like(var)
        return (mean[:f + h], var, mean[f + h:2 * f + h],
                np.maximum(mean[2 * f + h:], 0.0))


class _RatioSums:
    """Per-sample sums of the rows that are not flat, block by block: each
    PTM r's success t = r₀·c and fidelity ½ c·r c / t, 0 for an annihilated
    input (t <= 0), then each absorb stage's hole purity and leakage
    (`_sample_hole`).  Every PTM's traces and numerators come from one
    (2P, 10) @ (10, m) product with the block's cc.  The figures x and x²
    are summed shifted by each row's first x, so that a constant row has a
    spread of ~0."""

    def __init__(self, rs, forms, wanted, size):
        p = len(rs)
        i, j = _PAIRS
        self.w = np.zeros((2 * p, len(i)))
        self.w[:p, :4] = rs[:, 0]
        self.w[p:] = _PAIR_WEIGHTS * (rs + rs.transpose(0, 2, 1))[:, i, j]
        self.forms, self.wanted = forms, wanted
        self.y = np.empty((2 * p, size))
        self.gram = np.empty((forms.shape[1] * len(forms), size))
        self.x = np.empty((p + len(forms), size))
        self.shift = None
        self.sum_t = self.sum_x = self.sum_x2 = self.sum_leak = 0.0

    def add(self, c, cc):
        m, p = c.shape[1], len(self.w) // 2
        y, x = self.y[:, :m], self.x[:, :m]
        np.matmul(self.w, cc, out=y)
        t = y[:p]
        self.sum_t = self.sum_t + t.sum(axis=1)
        t[t <= 0] = np.inf
        np.divide(y[p:], t, out=x[:p])
        leak, x[p:], _ = _sample_hole(self.forms, self.wanted, c,
                                      out=self.gram[:, :m])
        self.sum_leak = self.sum_leak + leak.sum(axis=1)
        if self.shift is None:
            self.shift = x[:, 0].copy()
        x -= self.shift[:, None]
        self.sum_x = self.sum_x + x.sum(axis=1)
        self.sum_x2 = self.sum_x2 + np.einsum("rm,rm->r", x, x)

    def figures(self, n):
        """(mean, variance, success, leakage) per row after n samples."""
        sum_x = self.sum_x
        var = np.maximum(self.sum_x2 - sum_x * sum_x / n, 0.0) / max(n - 1, 1)
        return (self.shift + sum_x / n, var, self.sum_t / n,
                self.sum_leak / n)


def _sample_hole(forms, wanted, c,
                 out=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sample (leakage, hole purity, tr G) of the inputs with Pauli
    vectors c (4, m): each (m,) for the (k², 4) Gram forms of one absorb
    stage, or (H, m) for the forms of H stages stacked (H, k², 4), whose
    Gram matrices come from one product, written to out if given.  The
    hole levels are orthonormal, so the hole is left in G / tr G: purity
    Σ|G_ij|² / (tr G)², leakage the unwanted diagonal entries G_ii,
    i >= wanted, summed over tr G (0 when every branch is wanted).  The
    diagonal is clipped at 0, as a form can round below ||K q||² = 0."""
    k = math.isqrt(forms.shape[-2])
    g = np.matmul(forms.reshape(-1, 4), c, out=out)
    g = g.reshape(forms.shape[:-1] + g.shape[-1:])
    diag = g[..., :k, :]
    np.maximum(diag, 0.0, out=diag)
    total = diag.sum(axis=-2)
    g /= np.where(total > 0, total, 1.0)[..., None, :]
    purity = np.einsum("...in,...in->...n", g, g)
    return g[..., wanted:k, :].sum(axis=-2), purity, total


def _input_hole(absorb: Stage, q) -> tuple[float, float, float]:
    """(leakage, hole purity P, entanglement entropy in bits) of one input
    q, which must couple, at the absorb stage.  The electron is a qubit, so
    the hole has at most two non-zero eigenvalues, λ± = (1 ± √(2P − 1))/2."""
    leak, purity, total = _sample_hole(absorb.branch_forms, absorb.wanted_branches,
                                       pauli_vectors(q[None, :]))
    if total[0] <= 0:
        raise ValueError("photon does not couple to this scheme")
    s = math.sqrt(min(max(2.0 * purity[0] - 1.0, 0.0), 1.0))
    entropy = -sum(x * math.log2(x) for x in ((1 + s) / 2, (1 - s) / 2)
                   if x > 0)
    # adding 0.0 turns the -0.0 of a product state into 0.0
    return float(leak[0]), float(purity[0]), entropy + 0.0


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


def _stage_trace(stages, c) -> tuple[list[StageFidelity], list[np.ndarray]]:
    """Per-stage fidelity and success of the pure input with Pauli vector
    c, and the Pauli vector that leaves each stage."""
    v = c
    out, vectors = [], []
    for st in stages:
        v = st.ptm @ v
        vectors.append(v)
        tr = float(v[0])
        if tr <= 0:
            out.append(StageFidelity(st.name, 0.0, 0.0))
            continue
        out.append(StageFidelity(st.name, float(0.5 * (c @ v) / tr), tr))
    return out, vectors


def _output_state(v) -> np.ndarray:
    """The density matrix of Pauli vector v, normalised unless its trace
    is 0."""
    rho = density_from_pauli(v)
    return rho / v[0] if v[0] > 0 else rho


def _unit(q) -> np.ndarray:
    """An input qubit as a unit 2-vector; anything else is refused."""
    q = np.asarray(q, dtype=complex)
    n = np.linalg.norm(q) if q.shape == (2,) else math.nan
    if not (math.isfinite(n) and n > 0):
        raise ValueError("input qubit must be a finite, non-zero 2-vector of "
                         f"amplitudes, got {q.tolist()}")
    return q / n


# The private _run_* helpers below take prebuilt stages (or their composed
# PTM) so that scenario_report builds them once; the public functions build
# their own and delegate.

def run_detection(q, cfg: ScenarioConfig) -> DetectionResult:
    """Absorb a photon qubit, cross the interface and park the qubit in the
    donor chain; returns the stored qubit (`logical_rho`, normalised) plus
    per-stage diagnostics."""
    q = _unit(q)
    stages = detection_stages(cfg, cfg.scheme())
    leak, purity, entropy = _input_hole(stages[0], q)
    trace, vectors = _stage_trace(stages, pauli_vectors(q[None, :])[:, 0])
    return DetectionResult(
        logical_rho=_output_state(vectors[-1]), stages=tuple(trace),
        success_probability=trace[-1].success, leakage=leak,
        hole_purity=purity, entanglement_entropy_bits=entropy)


def _run_end_to_end(q, stages) -> EndToEndResult:
    trace, vectors = _stage_trace(stages, pauli_vectors(q[None, :])[:, 0])
    # the electron that reaches the emitter, through the emit stage's row
    v = vectors[-2]
    collection = float(stages[-1].collection_row @ v / v[0]) if v[0] > 0 else 0.0
    return EndToEndResult(
        photon_rho=_output_state(vectors[-1]), round_trip_fidelity=trace[-1].fidelity,
        stages=tuple(trace), success_probability=trace[-1].success,
        collection_fraction=collection)


def run_end_to_end(q, cfg: ScenarioConfig) -> EndToEndResult:
    """Detection, storage dephasing, retrieval and re-emission; the output
    photon is compared with the input in the canonical logical basis.  A
    scenario that passes no input is refused."""
    stages = end_to_end_stages(cfg)
    _compose(stages)
    return _run_end_to_end(_unit(q), stages)


def _run_monte_carlo(r, absorb: Stage, amps) -> MonteCarloResult:
    [fid], [hole] = _mc_stats(r[None], absorb.branch_forms[None],
                              absorb.wanted_branches, amps)
    return MonteCarloResult(n_samples=len(amps), **fid, **hole)


def monte_carlo_average_fidelity(cfg: ScenarioConfig,
                                 n_samples: int | None = None) -> MonteCarloResult:
    """Haar-averaged round-trip fidelity over cfg.mc_samples inputs, or
    n_samples if given; deterministic for a given seed."""
    if n_samples is not None:
        cfg = replace(cfg, mc_samples=n_samples)
    stages = end_to_end_stages(cfg)
    return _run_monte_carlo(_compose(stages), stages[0],
                            haar_qubits(cfg.seed, cfg.mc_samples))


def choi_verdict(choi: np.ndarray) -> TomographyResult:
    """A qubit map's 4x4 Choi matrix with its physicality verdict
    (conditional maps allowed, tolerance 1e-8) and its process fidelity to
    identity, 0 for a map whose trace is not positive."""
    pf = process_fidelity(choi) if np.trace(choi).real > 0 else 0.0
    return TomographyResult(choi, is_cptp(choi, tol=1e-8, conditional=True), pf)


def process_tomography(cfg: ScenarioConfig) -> TomographyResult:
    """Choi matrix of the photon -> photon logical channel, its physicality
    verdict (conditional maps allowed) and process fidelity to identity."""
    return choi_verdict(choi_from_ptm(_compose(end_to_end_stages(cfg))))


def scenario_report(cfg: ScenarioConfig) -> ChannelReport:
    """Run the reference input, the Monte Carlo average and tomography,
    building the scheme and the stage list once for all of them."""
    stages = end_to_end_stages(cfg)
    r = _compose(stages)
    q = _unit(cfg.input_qubit)
    _, _, entropy = _input_hole(stages[0], q)
    e2e = _run_end_to_end(q, stages)
    mc = _run_monte_carlo(r, stages[0], haar_qubits(cfg.seed, cfg.mc_samples))
    return ChannelReport(
        case=cfg.case, round_trip_fidelity=e2e.round_trip_fidelity,
        entanglement_entropy_bits=entropy,
        collection_fraction=e2e.collection_fraction, stages=e2e.stages,
        seed=cfg.seed, **vars(mc), **vars(choi_verdict(choi_from_ptm(r))))


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------

# The band scheme feeds every stage but the shuttles and storage.
_SCHEME_STAGES = frozenset({"scheme", "absorb", "transport", "hadamard",
                            "transport_back", "emit"})
_ABSORB = frozenset({"absorb"})
_BOTH_TRANSPORTS = frozenset({"transport", "transport_back"})

# parameter, the dotted JSON name of a config field -> what its value
# touches: stage names, and "scheme" when the band scheme must be rebuilt
_SWEEPABLE = {
    "field.b_tesla": _SCHEME_STAGES,
    "window.bandwidth_ueV": _ABSORB,
    "window.center_offset_ueV": _ABSORB,
    "noise.transport_time_ns": _BOTH_TRANSPORTS,
    "noise.transport_loss": _BOTH_TRANSPORTS,
    "noise.transport_dephasing_fraction": frozenset({"transport"}),
    "storage_time_ns": frozenset({"storage"}),
    "hadamard_time_ns": frozenset({"hadamard"}),
    "chain.gate_error": frozenset({"shuttle_in", "shuttle_out"}),
    "absorption_efficiency": _ABSORB,
}


def sweep_parameters() -> tuple[str, ...]:
    return tuple(sorted(_SWEEPABLE))


def _setter(cfg: ScenarioConfig, param: str):
    """v -> cfg with the sweep parameter param set to v.  A config without a
    window gets SpectralWindow(v) from a bandwidth sweep; its other window
    fields have no window to sweep."""
    if param not in _SWEEPABLE:
        raise KeyError(f"unknown sweep parameter {param!r}; "
                       f"choose from {', '.join(sweep_parameters())}")
    section, _, key = param.rpartition(".")
    owner = getattr(cfg, section) if section else cfg
    if owner is None:
        if key != "bandwidth_ueV":
            raise KeyError(f"sweeping {param} needs a window in the config")
        return lambda v: replace(cfg, window=SpectralWindow(v))
    name = next(f.name for f in fields(owner) if json_key(f.name) == key)
    if not section:
        return lambda v: replace(cfg, **{name: v})
    return lambda v: replace(cfg, **{section: replace(owner, **{name: v})})


def sweep(cfg: ScenarioConfig, param: str, values) -> list[dict]:
    """One Monte Carlo row per value of a numeric config parameter.

    Every row evaluates the same seeded Haar inputs (common random
    numbers): a row equals monte_carlo_average_fidelity at that value, and
    differences between rows are not sampling noise.  The inputs are drawn
    once for the whole sweep.  So are the stages the parameter does not
    touch: each point rebuilds only its parameter's stages.  Every point is
    composed, and a dark one refused, before one pass over fixed blocks of
    samples sums the fidelities of all points and the hole diagnostics of
    every absorb stage built (one, unless the parameter touches absorb); a
    row does not depend on how many points share its sweep.

    Every point's config is built before any stage, and a value its field
    refuses is refused as a KeyError naming the parameter.  A sweep over
    two or more distinct values whose every point has the first point's
    composed PTM and absorb Gram forms, to 1e-12, is refused as flat.
    """
    set_value = _setter(cfg, param)
    touched = _SWEEPABLE[param]
    values = [float(v) for v in values]
    points = []
    for v in values:
        try:
            points.append(set_value(v))
        except ValueError as exc:
            raise KeyError(f"sweeping {param} to {v!r}: {exc}") from None
    ptms, forms = [], []
    stages = None
    for sub in points:
        if stages is None:
            amps = haar_qubits(sub.seed, sub.mc_samples)
            scheme = sub.scheme()
            stages = detection_stages(sub, scheme) + return_stages(sub, scheme)
        else:
            if "scheme" in touched:
                scheme = sub.scheme()
            stages = [_STAGE_BUILDERS[st.name](sub, scheme)
                      if st.name in touched else st for st in stages]
        if not forms or "absorb" in touched:
            forms.append(stages[0].branch_forms)
        ptms.append(_compose(stages))
    if not ptms:
        return []
    rs, fs = np.array(ptms), np.array(forms)
    if len(set(values)) > 1 and all(np.max(np.abs(x - x[0])) <= 1e-12
                                    for x in (rs, fs)):
        raise KeyError(f"sweeping {param} has no effect: every point of "
                       f"case {cfg.case} has the first point's channel and "
                       "hole forms")
    fids, holes = _mc_stats(rs, fs, stages[0].wanted_branches, amps)
    if len(holes) == 1:
        holes *= len(fids)
    return [{"param": param,
             "value": v,
             "mean_fidelity": fid["mean_fidelity"],
             "stderr": fid["stderr"],
             "success_prob": fid["success_probability"],
             "leakage": hole["leakage"],
             "hole_purity": hole["hole_purity_mean"]}
            for v, fid, hole in zip(values, fids, holes)]


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
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")


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
