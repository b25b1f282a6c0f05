"""End-to-end scenario runs: detection, storage, re-emission, Monte Carlo
averages, process tomography, device-constraint checks and parameter sweeps.

Every stage of a scenario is a conditional linear map on the 2x2 logical
qubit density matrix (logical amplitudes mean: alpha on the first slot of
the photon basis its case fixes), held as its real 4x4 Pauli transfer matrix
(PTM; conventions in qstate).  A report builds each stage at its one
point; a sweep builds each stage its parameter touches once for all its
points, as a (P, 4, 4) stack whose every row is bit for bit the build at
that point alone.  Stages compose by matrix product, a stack broadcast
against the single builds, into one PTM R per point.  Every Monte Carlo
figure (fidelity and success through R, hole purity and
leakage at absorption) is one figure row (`_fold`), a quadratic form in
the Pauli vector c = (1, Bloch vector) of a Haar input over a power of a
linear form in c: `_ptm_rows` writes those of the PTMs, `_hole_rows`
those of an absorb stage, and the Monte Carlo sums, the per-sample ratio
and the reference input all read these rows.
The Monte Carlo run is deterministic for a given (seed, sample count), and
prefix-stable: the first m of n samples do not depend on n.  Sample i is
not tied to a fixed slice of the random stream (the normal sampler rejects
and redraws), so a run cannot be split into independently seeded chunks
that reproduce the whole.  The sums accumulate over fixed blocks of samples
in one pass: each block's Pauli vectors are formed once and feed the rows
of every point of a sweep and of every absorb stage it builds, so a sweep
row does not depend on how many points share its sweep.  A row whose
denominator does not depend on the input (case A with its √2
compensation, case B and the degenerate case, each with no window or one
too narrow to reach the second valence level) is summed by moments: from
the block sums of the products c_i c_j and of their outer products, with
no per-sample work.  So is every success row, which has no denominator.
Every other row is summed per sample, by the ratio.

Logical frame per case: the photon qubit (alpha, beta) maps to itself
through an ideal noiseless scenario, whatever the physical encoding
(z/x polarization -> mS spin pair -> eigenbasis -> Si donor spin), because
each stage's builder folds in its frame and diagnostics: the runs take the
physics from the Stage records (hole rows, collection row), not the config.
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
    """One stage as a real 4x4 Pauli transfer matrix (conventions in qstate),
    or, built at the P points of a sweep, a (P, 4, 4) stack of them.

    Its builder in `_STAGE_BUILDERS` owns its physics, frame and
    diagnostics; no run reads them from the config.  The absorb stage
    also holds its hole rows: the figure rows (`_hole_rows`) of the
    leakage and hole purity of each input, from the unscaled physical
    absorption branches.  The emit stage holds the collection row: an
    electron with logical Pauli vector v is collected with fraction
    row·v / v₀.  Built at P points, every one of them is stacked along a
    leading axis of P, as the PTM is.
    """

    name: str
    ptm: np.ndarray = field(repr=False)
    hole_rows: tuple | None = field(default=None, repr=False)
    collection_row: np.ndarray | None = field(default=None, repr=False)


def _detection_frame(case: str) -> np.ndarray:
    """Rotation from physical electron (mS-ordered) coordinates to the
    logical frame right after absorption."""
    return _X if case == CASE_A else _I2


# the PTM of each case's detection frame
_FRAME_PTMS = {case: ptm_from_kraus([_detection_frame(case)])
               for case in (CASE_A, CASE_B, DEGENERATE)}


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


def _refuse_dark(row):
    """Refuse a map whose PTM has row 0 `row`: an input with Bloch vector r
    passes with weight row₀ + row₁:₃·r, at best row₀ + |row₁:₃|.  Below the
    smallest normal float that weight is dark, as every later ratio would
    overflow."""
    if row[0] + math.hypot(*row[1:]) < np.finfo(float).tiny:
        raise ValueError("photon does not couple to this scheme")


# Every builder maps the configs of the points a stage is built at, each
# with its band scheme, to one Stage: at one point the scalar build, at P
# points the same build along a leading axis of P (`_stack`).  The
# dephasing channels (the transports, storage) are built as one stack;
# absorb, the shuttles, hadamard and emit point by point, then stacked.

def _stack(values: list):
    """A stage's values at its points: one point's own value, or the values
    of P points stacked along a leading axis."""
    return values[0] if len(values) == 1 else np.array(values)


def _absorb(cfgs, schemes) -> Stage:
    """The absorb stage, with the hole rows of its physical branches, which
    refuse them if they are dark.  Its branches are the physical ones in
    the logical frame, scaled by the absorption efficiency and renormalised
    if need be so that sum K†K <= I."""
    kraus, holes = [], []
    for cfg, scheme in zip(cfgs, schemes):
        branches = absorption_branches(scheme, cfg.window, cfg.compensate)
        physical = [br.kraus for br in branches]
        holes.append(_hole_rows(physical,
                                sum(not br.unwanted for br in branches)))
        ks = _detection_frame(cfg.case) @ np.asarray(physical)
        total = (ks.conj().transpose(0, 2, 1) @ ks).sum(axis=0)
        top = float(np.max(np.linalg.eigvalsh(total)).real)
        ks *= math.sqrt(cfg.absorption_efficiency) / max(1.0, math.sqrt(top))
        kraus.append(ks)
    return Stage("absorb", ptm_from_kraus(_stack(kraus)),
                 tuple(map(_stack, zip(*holes))))


def _transport_leg(cfgs, schemes, forward: bool) -> Stage:
    """The forward or return transport, dephasing in the scheme's energy
    eigenbasis.  Case B's pre-readout frame is the mS frame, whose
    eigenstates are the ± superpositions; case A's and the degenerate
    eigenbases are the mS states (swapped when g_cb < 0), in which the
    channel is the unrotated one bit for bit."""
    noises = [cfg.noise for cfg in cfgs]
    kraus = noise_mod.transport_kraus(
        _stack([noise_mod.coherence_factor(nm.transport_time_ns,
                                           nm.t2_iii_v_ns) for nm in noises]),
        _stack([scheme.eigenbasis for scheme in schemes]),
        _stack([1.0 - nm.transport_dephasing_fraction for nm in noises])
        if forward else None)
    keep = np.asarray(_stack([1.0 - nm.transport_loss for nm in noises]))
    return Stage("transport" if forward else "transport_back",
                 keep[..., None, None] * ptm_from_kraus(kraus))


def _shuttle(cfgs, schemes, inward: bool) -> Stage:
    """The shuttle from the chain's first site to the storage site, or back."""
    ptms = []
    for cfg in cfgs:
        ends = (0, cfg.chain.storage_site)
        ptms.append(_shuttle_ptm(cfg.chain, *(ends if inward else ends[::-1])))
    return Stage("shuttle_in" if inward else "shuttle_out", _stack(ptms))


def _hadamard(cfgs, schemes) -> Stage:
    # physically: precession over t, then the Hadamard rotation onto the
    # eigenbasis.  In logical coordinates the Hadamard cancels against the
    # post-readout frame change (it is involutive), leaving only the
    # synchronization error of the precession phase.
    u = _stack([precession_unitary(scheme, cfg.hadamard_time_ns)
                for cfg, scheme in zip(cfgs, schemes)])
    return Stage("hadamard", ptm_from_kraus(u[..., None, :, :]))


def _storage(cfgs, schemes) -> Stage:
    gamma = _stack([noise_mod.coherence_factor(cfg.storage_time_ns,
                                               cfg.noise.t2_si_ns)
                    for cfg in cfgs])
    return Stage("storage", ptm_from_kraus(noise_mod.dephasing_kraus(gamma)))


def _emit(cfgs, schemes) -> Stage:
    """Prep -> recombination -> collection -> compensation, one logical
    Kraus branch per recombining hole (`transfer.emission_map`).  Spin
    branches with collection fractions (f↓, f↑) give the mS-frame row
    ½[f↓+f↑, 0, 0, f↓−f↑], taken to the logical frame by the frame's PTM."""
    kraus, rows = [], []
    for cfg, scheme in zip(cfgs, schemes):
        branches, (down, up) = emission_map(scheme, cfg.emission_direction)
        kraus.append(np.array(branches) @ _detection_frame(cfg.case))
        rows.append(0.5 * np.array([down + up, 0.0, 0.0, down - up])
                    @ _FRAME_PTMS[cfg.case])
    return Stage("emit", ptm_from_kraus(_stack(kraus)),
                 collection_row=_stack(rows))


# One builder per stage name, so that a sweep can stack a single stage.
_STAGE_BUILDERS = {
    "absorb": _absorb, "transport": partial(_transport_leg, forward=True),
    "shuttle_in": partial(_shuttle, inward=True), "hadamard": _hadamard,
    "storage": _storage, "shuttle_out": partial(_shuttle, inward=False),
    "transport_back": partial(_transport_leg, forward=False), "emit": _emit,
}


def _build(names, cfgs, schemes, along) -> list[Stage]:
    """The stages `names` at the points cfgs, with their schemes: a stage
    named in `along` (every one if it is None) stacked over all the
    points, any other built at the first point alone, which composes with
    the stacks by broadcasting."""
    return [_STAGE_BUILDERS[name](cfgs, schemes)
            if along is None or name in along
            else _STAGE_BUILDERS[name](cfgs[:1], schemes[:1])
            for name in names]


def detection_stages(cfgs, schemes, along=None) -> list[Stage]:
    """The stages from absorption to storage (`_build`)."""
    names = ["absorb", "transport", "shuttle_in"]
    if cfgs[0].case == CASE_B:
        names.append("hadamard")
    return _build(names, cfgs, schemes, along)


def return_stages(cfgs, schemes, along=None) -> list[Stage]:
    """The stages from storage to emission (`_build`)."""
    return _build(("storage", "shuttle_out", "transport_back", "emit"),
                  cfgs, schemes, along)


def end_to_end_stages(cfg: ScenarioConfig) -> list[Stage]:
    scheme = cfg.scheme()
    return detection_stages([cfg], [scheme]) + return_stages([cfg], [scheme])


def _compose(stages: list[Stage]) -> np.ndarray:
    """The stages' product PTM, or one per point when some stage is
    stacked; a point that passes no input is refused."""
    r = np.eye(4)
    for st in stages:
        r = st.ptm @ r
    for row in r[..., 0, :].reshape(-1, 4).tolist():
        _refuse_dark(row)
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
# the ten products c_i c_j (i <= j) of a Pauli vector's entries, and the
# row where the products c_k c_k.. of each k begin
_PAIRS = np.triu_indices(4)
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


def _fold(a, d, p) -> tuple:
    """Figure rows (w, d, p) of the numerators c·a c, a (R, 4, 4), over the
    denominator rows d (R, 4) to the powers p (R,), ascending: x = w·cc₁: /
    (d·c)^p at a unit input with Pauli vector c and products cc (`_PAIRS`),
    and 0 where d·c <= 0 and p > 0.  Each c·a c has its c₀² weight folded
    onto the squares (`_FOLD`), so w holds the nine weights of the products
    after c₀²."""
    return a.reshape(-1, 16).take(_FOLD, axis=1).sum(axis=1), d, p


def _ptm_rows(rs) -> tuple:
    """The figure rows (`_fold`) of the (P, 4, 4) PTM stack rs: each r's
    success r₀·c (p = 0), then each r's fidelity, the numerator
    q† Φ(q q†) q = ½ c·r c over the output trace r₀·c (p = 1).  The
    fidelity is divided by r₀₀ first, so d₀ = 1."""
    r = rs / rs[:, :1, :1]
    a = np.zeros((2, len(rs), 4, 4))
    a[0, :, 0] = rs[:, 0]
    np.multiply(r, 0.5, out=a[1])
    return _fold(a, np.concatenate((r[:, 0], r[:, 0])),
                 np.arange(2).repeat(len(rs)))


def _hole_rows(kraus, wanted) -> tuple:
    """The figure rows (`_fold`) of one absorb stage with the k physical
    branches `kraus`, the first `wanted` of them wanted: their Gram matrix
    G_ij = ⟨K_j q|K_i q⟩ = ½ m_ij·c, m_ij,l = tr(σ_l K_j†K_i), leaves the
    hole in G / tr G, with tr G = D·c, D = ½ Σ m_ii.  So its leakage is the
    unwanted G_ii summed over D·c (p = 1), then its purity is
    Σ|G_ij|² / (tr G)² = ¼ c·Re(MᴴM) c / (D·c)², M the k² rows m_ij
    (p = 2); dark branches are refused.  The m are divided by 2D₀ first, so
    d₀ = 1 (before the product, or a faint stage's MᴴM would underflow)."""
    m = np.einsum("lab,jcb,ica->ijl", PAULIS, np.conj(kraus),
                  kraus).reshape(-1, 4)
    diag = m[::len(kraus) + 1].real    # the m_ii: a view, scaled with m
    _refuse_dark(0.5 * diag.sum(axis=0))
    m /= diag[:, 0].sum()
    a = np.zeros((2, 4, 4))
    np.sum(diag[wanted:], axis=0, out=a[0, 0])
    a[1] = (m.conj().T @ m).real
    return _fold(a, np.tile(diag.sum(axis=0), (2, 1)), np.array((1, 2)))


def _ratios(rows, cc) -> np.ndarray:
    """The (R, m) figures x = w·cc₁: / (d·c)^p of the figure rows (w, d, p),
    p ascending, each 1 or 2, at the m inputs with products cc; 0 where
    d·c <= 0, as for an annihilated input.  One product of 2R rows gives
    numerators and denominators d·cc₀:₄ (c₀ c = c on unit inputs): BLAS
    takes it by gemm, which rounds each row the same way in any stack (a
    one-row product would go to gemv, which rounds otherwise)."""
    w, d, p = rows
    a = np.zeros((2 * len(w), len(_PAIRS[0])))
    a[:len(w), 1:], a[len(w):, :4] = w, d
    y = a @ cc
    x, den = y[:len(p)], y[len(p):]
    den[den <= 0] = np.inf
    x /= den
    twice = np.searchsorted(p, 2)
    x[twice:] /= den[twice:]
    return x


def _is_flat(rows) -> list[bool]:
    """Which of the (m, 4) linear forms a are constant on unit inputs:
    each |a_i|, i = 1..3, below _FLAT_TOL·a₀, which needs a₀ > 0.  The
    few rows of a run are checked in Python floats, cheaper here than
    numpy's reductions."""
    return [max(map(abs, a[1:])) < _FLAT_TOL * a[0] for a in rows.tolist()]


def _mc_stats(rs, holes, amps) -> tuple[list[dict], list[dict]]:
    """The Monte Carlo figures of the pure inputs, the rows of the (n, 2)
    amplitude array amps: mean fidelity, its standard error and mean
    success through each composed PTM of the (P, 4, 4) stack rs, and mean
    leakage, hole-purity mean and standard deviation of each of H absorb
    stages, whose hole rows (`Stage.hole_rows`) are stacked in `holes`:
    the H leakage rows, then the H purity rows; one dict per PTM and one
    per absorb stage.

    Every figure is a row x = w·cc₁: / (d·c)^p (`_fold`), whose numerator
    is linear in the ten products cc = c_i c_j of each input's Pauli
    vector c; one pass over fixed blocks of _MC_BLOCK samples forms them
    once per block, and no quantity of all n samples is held.  The rows
    are stacked by ascending p: successes, fidelities, leakages, purities.
    A row that is a quadratic form in c on unit inputs, its p = 0 or its
    denominator constant (`_is_flat`: d·c = d₀ = 1), is summed by moments
    (`_MomentSums`); every other row per sample, by the ratio
    (`_RatioSums`), which runs only when some row is not flat.  Leakage is
    clipped at 0 at the end, as a form can round below ||K q||² = 0.  A
    row's path and figures do not depend on P or H.
    """
    p, n = len(rs), len(amps)
    rows = tuple(map(np.concatenate, zip(_ptm_rows(rs), holes)))
    flat = np.logical_or(_is_flat(rows[1]), rows[2] == 0)
    # a flat stack is summed whole: copying its rows out slows a report
    paths = [(_MomentSums(rows), slice(None))] if flat.all() else [
        (kind(tuple(x[on] for x in rows)), on)
        for kind, on in ((_MomentSums, flat), (_RatioSums, ~flat))]
    products = np.empty((len(_PAIRS[0]), min(n, _MC_BLOCK)))
    for start in range(0, n, _MC_BLOCK):
        c = pauli_vectors(amps[start:start + _MC_BLOCK])
        cc = products[:, :c.shape[1]]
        for i, row in enumerate(_PAIR_ROWS):
            np.multiply(c[i], c[i:], out=cc[row:row + 4 - i])
        for path, _ in paths:
            path.add(cc)
    mean, var = np.empty((2, len(flat)))
    for path, on in paths:
        mean[on], var[on] = path.figures(n)
    var = np.maximum(var, 0.0) / (n - 1) if n > 1 else np.zeros_like(var)
    success, fidelity = mean[:2 * p].reshape(2, p)
    leak, purity = mean[2 * p:].reshape(2, -1)
    err, std = np.sqrt(var[p:2 * p] / n), np.sqrt(var[2 * p + len(leak):])
    leak = np.maximum(leak, 0.0)
    return ([{"mean_fidelity": float(fidelity[i]), "stderr": float(err[i]),
              "success_probability": float(success[i])} for i in range(p)],
            [{"leakage": float(leak[i]), "hole_purity_mean": float(purity[i]),
              "hole_purity_std": float(std[i])} for i in range(len(leak))])


class _MomentSums:
    """Sums by moments of flat figure rows, x = w·cc₁: on unit inputs: the
    blocks add up S = Σ cc₁: ccᵀ, the nine products after c₀² against all
    ten; its first column is S1 = Σ cc₁: (c₀² = 1), so the mean is
    s = w·S1 / n.  The folded weights leave the one w of the figure on the
    sphere, small where the figure is nearly constant, and taking s off
    the weights on the squares leaves w′ with Σ(x − s)² = w′ᵀSw′, free of
    cancellation.  Every mean and spread is formed row by row (the spread
    by a matmul batched over rows), so a row does not depend on its
    stack."""

    def __init__(self, rows):
        self.w = rows[0]
        self.s = 0.0

    def add(self, cc):
        # cc₁: and cc are offset operands, so numpy hands them to BLAS
        # gemm, which here is faster than the syrk it picks for cc @ cc.T
        self.s = self.s + cc[1:] @ cc.T

    def figures(self, n):
        """(mean, sum of squared deviations) per row after n samples."""
        mean = (self.w * self.s[:, 0]).sum(axis=1) / n
        w = self.w - mean[:, None] * _SQUARES
        return mean, (w[:, None] @ self.s[:, 1:] @ w[:, :, None]).ravel()


class _RatioSums:
    """Per-sample sums of figure rows that are not flat, block by block:
    each sample's x (`_ratios`), every row's numerator and denominator from
    one (2R, 10) @ (10, m) product with the block's cc.  The figures x and
    x² are summed shifted by each row's first x, so that a constant row has
    a spread of ~0."""

    def __init__(self, rows):
        self.rows = rows
        self.shift = None
        self.sum_x = self.sum_x2 = 0.0

    def add(self, cc):
        x = _ratios(self.rows, cc)
        if self.shift is None:
            self.shift = x[:, 0].copy()
        x -= self.shift[:, None]
        self.sum_x = self.sum_x + x.sum(axis=1)
        self.sum_x2 = self.sum_x2 + np.einsum("rm,rm->r", x, x)

    def figures(self, n):
        """(mean, sum of squared deviations) per row after n samples."""
        return self.shift + self.sum_x / n, self.sum_x2 - self.sum_x ** 2 / n


def _input_hole(absorb: Stage, c) -> tuple[float, float, float]:
    """(leakage, hole purity P, entanglement entropy in bits) of the one
    input with Pauli vector c (4, 1), which must couple, at the absorb
    stage: its hole rows read at c.  The electron is a qubit, so the hole
    has at most two non-zero eigenvalues, λ± = (1 ± √(2P − 1))/2."""
    if absorb.hole_rows[1][0] @ c[:, 0] <= 0:
        raise ValueError("photon does not couple to this scheme")
    leak, purity = _ratios(absorb.hole_rows, c[_PAIRS[0]] * c[_PAIRS[1]])
    s = math.sqrt(min(max(2.0 * purity[0] - 1.0, 0.0), 1.0))
    entropy = -sum(x * math.log2(x) for x in ((1 + s) / 2, (1 - s) / 2)
                   if x > 0)
    # adding 0.0 turns the -0.0 of a product state into 0.0
    return max(0.0, float(leak[0])), float(purity[0]), entropy + 0.0


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
    c = pauli_vectors(_unit(q)[None])
    stages = detection_stages([cfg], [cfg.scheme()])
    leak, purity, entropy = _input_hole(stages[0], c)
    trace, vectors = _stage_trace(stages, c[:, 0])
    return DetectionResult(
        logical_rho=_output_state(vectors[-1]), stages=tuple(trace),
        success_probability=trace[-1].success, leakage=leak,
        hole_purity=purity, entanglement_entropy_bits=entropy)


def _run_end_to_end(c, stages) -> EndToEndResult:
    trace, vectors = _stage_trace(stages, c[:, 0])
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
    return _run_end_to_end(pauli_vectors(_unit(q)[None]), stages)


def _run_monte_carlo(r, absorb: Stage, amps) -> MonteCarloResult:
    [fid], [hole] = _mc_stats(r[None], absorb.hole_rows, amps)
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
    c = pauli_vectors(_unit(cfg.input_qubit)[None])
    _, _, entropy = _input_hole(stages[0], c)
    e2e = _run_end_to_end(c, stages)
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
    once for the whole sweep.  Each stage is built once: the ones the
    parameter touches as one stack over all points, the others at the
    first point alone (`detection_stages`, `return_stages`); every row of
    a stack is bit for bit the stage built at its point alone.  The stacks
    are composed, and a dark point refused, before one pass over fixed
    blocks of samples sums the fidelities of all points and the hole
    diagnostics of the absorb stage (one row pair per point if the
    parameter touches absorb, else one); a row does not depend on how many
    points share its sweep.

    Every point's config is built before any stage, and a value its field
    refuses is refused as a KeyError naming the parameter.  A sweep over
    two or more distinct values whose every point has the first point's
    composed PTM and absorb hole rows, each to 1e-12 of the first point's
    largest entry, is refused as flat.
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
    if not points:
        return []
    amps = haar_qubits(points[0].seed, points[0].mc_samples)
    schemes = [points[0].scheme()]
    schemes += ([sub.scheme() for sub in points[1:]] if "scheme" in touched
                else schemes * (len(points) - 1))
    stages = (detection_stages(points, schemes, touched)
              + return_stages(points, schemes, touched))
    # one composed PTM per point, also where no stage is stacked (one point,
    # or a parameter that touches no stage of this case)
    rs = np.array(np.broadcast_to(_compose(stages), (len(points), 4, 4)))
    # the hole rows of each absorb stage built: one per point, or one
    absorb = stages[0]
    holes = (absorb.hole_rows if absorb.ptm.ndim == 3
             else [x[None] for x in absorb.hole_rows])
    if len(set(values)) > 1 and all(
            np.max(np.abs(x - x[0])) <= 1e-12 * np.max(np.abs(x[0]))
            for x in (rs, *holes)):
        raise KeyError(f"sweeping {param} has no effect: every point of "
                       f"case {cfg.case} has the first point's channel and "
                       "hole forms")
    fids, holes = _mc_stats(
        rs, [x.swapaxes(0, 1).reshape(-1, *x.shape[2:]) for x in holes], amps)
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
