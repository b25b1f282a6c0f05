import math
from dataclasses import replace

import numpy as np
import pytest

from polspin import pipeline, processor, transfer
from polspin.bands import FieldConfig, SpectralWindow
from polspin.constants import KB_UEV_PER_K
from polspin.noise import NoiseModel
from polspin.pipeline import (ChainParams, DotConstraints, ScenarioConfig,
                              dot_constraint_check, haar_qubits,
                              monte_carlo_average_fidelity,
                              process_tomography, run_detection,
                              run_end_to_end, scenario_report, sweep,
                              end_to_end_stages, _compose, _hole_rows,
                              _input_hole, _is_flat, _mc_stats)
from polspin.bands import precession_period
from polspin.noise import coherence_factor, dephasing_kraus
from polspin.processor import site_channel_map
from polspin.qstate import (PAULIS, choi_of_map, density_from_pauli,
                            entanglement_entropy, is_cptp,
                            pauli_vectors, ptm_from_choi, ptm_from_kraus,
                            purity)
from polspin.transfer import (PhotonQubit, absorb_case_a, absorb_case_b,
                              absorb_degenerate, emission_map,
                              precession_unitary)

SQ2 = 1.0 / math.sqrt(2.0)
TAU = precession_period(0.4, 1.0)


def cfg_case_a(**kw):
    base = dict(case="A", field=FieldConfig(1.0),
                window=SpectralWindow(100.0), compensate=True, seed=7)
    base.update(kw)
    return ScenarioConfig(**base)


def cfg_case_b(**kw):
    base = dict(case="B", field=FieldConfig(1.0),
                window=SpectralWindow(100.0), hadamard_time_ns=0.0, seed=7)
    base.update(kw)
    return ScenarioConfig(**base)


def cfg_degenerate(**kw):
    base = dict(case="degenerate", field=FieldConfig(0.0),
                window=None, seed=7)
    base.update(kw)
    return ScenarioConfig(**base)


PLUS = np.array([SQ2, SQ2])


# --- input qubit ---------------------------------------------------------------

@pytest.mark.parametrize("q", [[0, 0], [math.nan, 1], [complex("nan+1j"), 0],
                               [math.inf, 0], [1, 0, 0], [1], [[1, 0], [0, 1]],
                               1.0])
@pytest.mark.parametrize("run", [run_detection, run_end_to_end])
def test_bad_input_qubit_refused(run, q):
    """An input that is not a finite, non-zero 2-vector is refused by name
    rather than normalised into NaN figures or truncated."""
    with pytest.raises(ValueError, match="input qubit must be a finite, non-zero 2-vector"):
        run(q, cfg_case_a())


def test_unnormalised_input_qubit_is_normalised():
    assert run_end_to_end([3, 3], cfg_case_a()).round_trip_fidelity == \
        run_end_to_end(PLUS, cfg_case_a()).round_trip_fidelity


# --- detection ---------------------------------------------------------------

def test_detection_ideal_case_a():
    res = run_detection(PLUS, cfg_case_a(window=None))
    assert res.stages[-1].fidelity == pytest.approx(1.0, abs=1e-10)
    assert res.hole_purity == pytest.approx(1.0, abs=1e-10)
    assert res.entanglement_entropy_bits == pytest.approx(0.0, abs=1e-10)
    # the stored qubit is the input
    assert np.allclose(res.logical_rho, np.outer(PLUS, PLUS.conj()), atol=1e-10)


def _depolarizing_ptm(eps, hops):
    """diag(1, λ, λ, λ), λ = (1 − 4e/3)^|hops|: shuttling with per-site
    depolarizing error e."""
    lam = (1 - 4 * eps / 3) ** abs(hops)
    return np.diag([1.0, lam, lam, lam])


def test_detection_forty_site_chain():
    """A 40-site chain stores the qubit after 39 depolarizing hops; no
    2^40-dimensional chain is built."""
    res = run_detection(PLUS, cfg_case_a(window=None,
                                         chain=ChainParams(40, 39, 0.01)))
    lam = _depolarizing_ptm(0.01, 39)[1, 1]
    want = lam * np.outer(PLUS, PLUS.conj()) + (1 - lam) * np.eye(2) / 2
    assert np.max(np.abs(res.logical_rho - want)) < 1e-12
    assert res.stages[-1].fidelity == pytest.approx((1 + lam) / 2, abs=1e-12)


def test_detection_degenerate_stored_half():
    # the hole trace wipes the coherence: stored fidelity 1/2 at equal input
    res = run_detection(PLUS, cfg_degenerate())
    assert res.stages[-1].fidelity == pytest.approx(0.5, abs=1e-10)
    assert res.entanglement_entropy_bits == pytest.approx(1.0, abs=1e-10)


def test_detection_case_b_synchronized():
    res = run_detection(PLUS, cfg_case_b(hadamard_time_ns=TAU))
    assert res.stages[-1].fidelity == pytest.approx(1.0, abs=1e-10)
    assert res.stages[-1].name == "hadamard"


def test_detection_case_b_desynchronized():
    res = run_detection(np.array([1.0, 0.0]), cfg_case_b(hadamard_time_ns=TAU / 4))
    assert res.stages[-1].fidelity == pytest.approx(0.5, abs=1e-10)


def test_detection_success_probability_structure():
    eff = 0.37
    cfg = cfg_case_a(absorption_efficiency=eff, window=None)
    res = run_detection(PLUS, cfg)
    # compensated absorption passes 1/3 of the amplitude through
    assert res.success_probability == pytest.approx(eff / 3.0, rel=1e-10)
    cfg = cfg_case_a(absorption_efficiency=eff, window=None,
                     noise=NoiseModel(transport_loss=0.5))
    res = run_detection(PLUS, cfg)
    assert res.success_probability == pytest.approx(eff / 6.0, rel=1e-10)


# --- end to end --------------------------------------------------------------

def test_end_to_end_ideal_case_a():
    res = run_end_to_end(PLUS, cfg_case_a())
    assert res.round_trip_fidelity == pytest.approx(1.0, abs=1e-10)


def test_end_to_end_ideal_case_b():
    res = run_end_to_end(PLUS, cfg_case_b(hadamard_time_ns=TAU))
    assert res.round_trip_fidelity == pytest.approx(1.0, abs=1e-10)


def test_end_to_end_random_inputs_ideal():
    for q in haar_qubits(99, 40):
        res = run_end_to_end(q, cfg_case_a(window=None))
        assert res.round_trip_fidelity == pytest.approx(1.0, abs=1e-10)


def test_end_to_end_storage_dephasing():
    cfg = cfg_case_a(storage_time_ns=5.0e5)   # one T2 in silicon
    res = run_end_to_end(PLUS, cfg)
    assert res.round_trip_fidelity == pytest.approx((1 + math.exp(-1)) / 2,
                                                    abs=1e-9)
    assert res.round_trip_fidelity == pytest.approx(0.683940, abs=1e-6)


def test_end_to_end_degenerate_reference():
    res = run_end_to_end(PLUS, cfg_degenerate())
    assert res.round_trip_fidelity == pytest.approx(0.5, abs=1e-10)


def test_stage_fidelity_monotone_through_noise():
    rng = np.random.default_rng(123)
    for trial in range(100):
        noise = NoiseModel(
            transport_time_ns=float(rng.uniform(0, 50)),
            transport_dephasing_fraction=float(rng.uniform(0, 0.3)),
            transport_loss=float(rng.uniform(0, 0.3)),
        )
        chain = ChainParams(gate_error=float(rng.uniform(0, 0.05)))
        storage = float(rng.uniform(0, 2e5))
        cfg = (cfg_case_a if trial % 2 == 0 else cfg_case_b)(
            noise=noise, chain=chain, storage_time_ns=storage,
            seed=int(rng.integers(1 << 30)))
        q = haar_qubits(int(rng.integers(1 << 30)), 1)[0]
        res = run_end_to_end(q, cfg)
        fids = {s.name: s.fidelity for s in res.stages}
        order = [s.name for s in res.stages]
        # fidelity never increases across the noise stages
        for before, after in zip(order, order[1:]):
            if after in ("transport", "shuttle_in", "storage", "shuttle_out",
                         "transport_back"):
                assert fids[after] <= fids[before] + 1e-9


# --- Monte Carlo -------------------------------------------------------------

def test_mc_ideal_mean_one():
    mc = monte_carlo_average_fidelity(cfg_case_a(window=None), 200)
    assert mc.mean_fidelity == pytest.approx(1.0, abs=1e-10)
    assert mc.stderr == pytest.approx(0.0, abs=1e-10)


def test_mc_degenerate_two_thirds():
    mc = monte_carlo_average_fidelity(cfg_degenerate(), 100_000)
    assert abs(mc.mean_fidelity - 2.0 / 3.0) < 3 * mc.stderr
    assert mc.stderr < 2e-3


def test_mc_deterministic_per_seed():
    a = monte_carlo_average_fidelity(cfg_degenerate(seed=99), 5000)
    b = monte_carlo_average_fidelity(cfg_degenerate(seed=99), 5000)
    assert a == b
    c = monte_carlo_average_fidelity(cfg_degenerate(seed=100), 5000)
    assert a.mean_fidelity != c.mean_fidelity


def test_haar_sampling_moments():
    """Haar qubits: |alpha|² is uniform on [0, 1]."""
    amps = haar_qubits(5, 50_000)
    p = np.abs(amps[:, 0]) ** 2
    assert abs(np.mean(p) - 0.5) < 0.01
    assert abs(np.mean(p ** 2) - 1 / 3) < 0.01
    norms = np.abs(amps[:, 0]) ** 2 + np.abs(amps[:, 1]) ** 2
    assert np.max(np.abs(norms - 1)) < 1e-12


def test_haar_sampling_prefix_stable():
    # the first m samples do not depend on how many are drawn, bit for bit
    full = haar_qubits(17, 1000)
    for m in (1, 10, 999):
        assert np.array_equal(haar_qubits(17, m), full[:m])


def _haar_complex_normalized(seed, n):
    """The same normal draws as haar_qubits, normalized as complex pairs."""
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    z = gen.standard_normal((n, 4))
    v = np.stack((z[:, 0] + 1j * z[:, 1], z[:, 2] + 1j * z[:, 3]), axis=1)
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def test_haar_matches_complex_normalization():
    for n in (1, 2, 3, 2049, 100_000):
        amps = haar_qubits(11, n)
        assert amps.shape == (n, 2) and amps.dtype == complex
        assert np.max(np.abs(amps - _haar_complex_normalized(11, n))) <= 1e-15


def test_haar_prefix_stable_at_any_length():
    full = haar_qubits(23, 5000)
    for m in (1, 2, 3, 4, 5, 7, 8, 9, 2047, 2048, 2049, 4999):
        assert np.array_equal(haar_qubits(23, m), full[:m]), m


# --- stage PTMs and the per-sample kernel against independent oracles ---------

SIGMA = [np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0]).astype(complex)]


def _superop_from_map(fn):
    """Row-major vec superoperator of a map on 2x2 matrices, built column
    by column from the images of the matrix units."""
    s = np.zeros((4, 4), dtype=complex)
    for k in range(2):
        for l in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[k, l] = 1.0
            s[:, 2 * k + l] = fn(e).reshape(4)
    return s


def _kraus_map(kraus):
    return lambda rho: sum(k @ rho @ k.conj().T for k in kraus)


def _stage_superops(cfg):
    """(name, superoperator) of each stage, each written as a map on
    density matrices and probed column by column."""
    scheme = cfg.scheme()
    nm, ch = cfg.noise, cfg.chain
    u = scheme.eigenbasis if cfg.case == "B" else np.eye(2)
    t2 = _kraus_map([u @ k @ u.conj().T for k in dephasing_kraus(
        coherence_factor(nm.transport_time_ns, nm.t2_iii_v_ns))])
    extra = _kraus_map([u @ k @ u.conj().T for k in dephasing_kraus(
        1.0 - nm.transport_dephasing_fraction)])
    arrive = 1.0 - nm.transport_loss
    # the logical frame: case A's photon z/x slots are the spins up/down
    frame = np.array([[0, 1], [1, 0]]) if cfg.case == "A" else np.eye(2)
    absorb = frame @ np.array([br.kraus for br in transfer.absorption_branches(
        scheme, cfg.window, cfg.compensate)])
    # scaled by the efficiency, and renormalised so that sum K†K <= I
    top = np.max(np.linalg.eigvalsh(
        (absorb.conj().transpose(0, 2, 1) @ absorb).sum(axis=0)))
    absorb *= math.sqrt(cfg.absorption_efficiency) / max(1.0, math.sqrt(top))
    emit = [k @ frame for k in emission_map(scheme, cfg.emission_direction)[0]]
    maps = [("absorb", _kraus_map(absorb)),
            ("transport", lambda rho: arrive * extra(t2(rho))),
            ("shuttle_in", site_channel_map(ch.n_sites, 0, ch.storage_site,
                                            ch.gate_error))]
    if cfg.case == "B":
        maps.append(("hadamard", _kraus_map(
            [precession_unitary(scheme, cfg.hadamard_time_ns)])))
    maps += [("storage", _kraus_map(dephasing_kraus(
                 coherence_factor(cfg.storage_time_ns, nm.t2_si_ns)))),
             ("shuttle_out", site_channel_map(ch.n_sites, ch.storage_site, 0,
                                              ch.gate_error)),
             ("transport_back", lambda rho: arrive * t2(rho)),
             ("emit", _kraus_map(emit))]
    return [(name, _superop_from_map(fn)) for name, fn in maps]


def _ptm_of_superop(s):
    """R_ij = ½ tr(σ_i S(σ_j)) of a row-major superoperator S."""
    return np.array([[0.5 * np.trace(a @ (s @ b.reshape(4)).reshape(2, 2))
                      for b in SIGMA] for a in SIGMA])


def _composed(cfg):
    s = np.eye(4, dtype=complex)
    for _, so in _stage_superops(cfg):
        s = so @ s
    return s


def _sample_fidelities(r, c):
    """Dense per-sample (fidelity, trace) of the inputs with Pauli vectors
    c (columns of a (4, n) array) sent through the composed PTM r: the
    output trace is (r c)₀ and the fidelity numerator is ½ c·r c."""
    y = r @ c
    traces = y[0]
    num = 0.5 * np.einsum("in,in->n", c, y)
    fids = np.divide(num, traces, out=np.zeros_like(num), where=traces > 0)
    return fids, traces


def _density_matrix_oracle(s, amps):
    """Per-sample (fidelity, trace) from explicit density matrices."""
    n = amps.shape[0]
    rho_in = np.einsum("ni,nj->nij", amps, amps.conj())
    rho_out = np.einsum("ab,nb->na", s, rho_in.reshape(n, 4)).reshape(n, 2, 2)
    traces = np.real(np.trace(rho_out, axis1=1, axis2=2))
    safe = np.where(traces <= 0, 1.0, traces)
    fids = np.real(np.einsum("ni,nij,nj->n", amps.conj(), rho_out, amps)) / safe
    fids = np.where(traces <= 0, 0.0, fids)
    return fids, traces


def _absorbed_state_oracle(cfg, amps):
    """Per-sample (leakage, hole purity, entanglement entropy) of the
    electron ⊗ hole state that transfer.absorb_* leaves for each input."""
    scheme = cfg.scheme()
    out = []
    for a, b in amps:
        if cfg.case == "degenerate":
            st = absorb_degenerate(PhotonQubit(a, b))
        elif cfg.case == "A":
            st = absorb_case_a(PhotonQubit(a, b, window=cfg.window),
                               scheme, cfg.compensate)
        else:
            st = absorb_case_b(PhotonQubit(a, b, window=cfg.window),
                               scheme)
        out.append((st.leakage, purity(st.hole_state()),
                    entanglement_entropy(st.amplitudes)))
    return tuple(np.array(out).T)


def _branches(cfg):
    """cfg's physical absorption branches, and how many of them are wanted
    (they come first)."""
    branches = transfer.absorption_branches(cfg.scheme(), cfg.window,
                                            cfg.compensate)
    return ([br.kraus for br in branches],
            sum(not br.unwanted for br in branches))


def _gram_forms(kraus):
    """Real (k², 4) rows f: f @ c is the Gram matrix G_ij = ⟨K_j q|K_i q⟩
    = ½ c·m_ij, m_ij,l = tr(σ_l K_j†K_i), of the k branches K at the input
    q with Pauli vector c, in the orthonormal basis of Hermitian matrices:
    G_ii, then √2 Re G_ij and √2 Im G_ij for i < j (length² Σ|G_ij|²)."""
    m = np.einsum("lab,jcb,ica->ijl", PAULIS, np.conj(kraus), kraus)
    d, (i, j) = np.arange(len(kraus)), np.triu_indices(len(kraus), 1)
    return np.concatenate([0.5 * m[d, d].real, math.sqrt(0.5) * m[i, j].real,
                           math.sqrt(0.5) * m[i, j].imag])


def _sample_hole(kraus, wanted, c):
    """Per-sample (leakage, hole purity, tr G) of the inputs with Pauli
    vectors c (4, m) at the absorb stage with the k branches `kraus`, the
    oracle of its hole rows, from each sample's Gram matrix G
    (`_gram_forms`).  The hole levels are orthonormal, so the hole is left
    in G / tr G: purity Σ|G_ij|² / (tr G)², leakage the unwanted diagonal
    entries G_ii, i >= wanted, summed over tr G.  The diagonal is clipped
    at 0, as a form can round below ||K q||² = 0."""
    k = len(kraus)
    g = _gram_forms(kraus) @ c
    diag = g[:k]
    np.maximum(diag, 0.0, out=diag)
    total = diag.sum(axis=0)
    g /= np.where(total > 0, total, 1.0)
    return g[wanted:k].sum(axis=0), np.einsum("in,in->n", g, g), total


def _stacked_hole_rows(kraus_sets, wanted):
    """The hole rows of the absorb stages with the branches of each of
    kraus_sets, stacked as a sweep hands them to _mc_stats."""
    rows = [_hole_rows(kraus, wanted) for kraus in kraus_sets]
    return tuple(np.concatenate((x[0::2], x[1::2]))
                 for x in map(np.concatenate, zip(*rows)))


KERNEL_CONFIGS = {
    "case_a": cfg_case_a(window=SpectralWindow(1000.0),
                         noise=NoiseModel(transport_time_ns=30.0),
                         storage_time_ns=2e5),
    "case_b_window": cfg_case_b(window=SpectralWindow(600.0),
                                hadamard_time_ns=0.17862,
                                chain=ChainParams(4, 3, 0.02)),
    "degenerate": cfg_degenerate(),
    "case_b_lossy": cfg_case_b(
        hadamard_time_ns=0.1, absorption_efficiency=0.5, storage_time_ns=1e5,
        emission_direction=(0.3, 0.2, 1.0), chain=ChainParams(3, 2, 0.05),
        noise=NoiseModel(transport_time_ns=20.0, transport_loss=0.2,
                         transport_dephasing_fraction=0.3)),
}


@pytest.mark.parametrize("name", sorted(KERNEL_CONFIGS))
def test_stage_ptm_matches_superoperator(name):
    cfg = KERNEL_CONFIGS[name]
    stages = end_to_end_stages(cfg)
    want = _stage_superops(cfg)
    assert [st.name for st in stages] == [n for n, _ in want]
    for st, (_, so) in zip(stages, want):
        oracle = _ptm_of_superop(so)
        assert np.max(np.abs(oracle.imag)) < 1e-14, st.name
        assert st.ptm.dtype == np.float64, st.name
        assert np.max(np.abs(st.ptm - oracle.real)) < 1e-12, st.name


@pytest.mark.parametrize("name", sorted(KERNEL_CONFIGS))
def test_sample_quantities_match_density_matrices(name):
    cfg = KERNEL_CONFIGS[name]
    amps = haar_qubits(cfg.seed, 1000)
    stages = end_to_end_stages(cfg)
    c = pauli_vectors(amps)
    i, j = np.triu_indices(4)
    leak, purity = pipeline._ratios(stages[0].hole_rows, c[i] * c[j])
    got = _sample_fidelities(_compose(stages), c) + (leak, purity)
    want = (_density_matrix_oracle(_composed(cfg), amps)
            + _absorbed_state_oracle(cfg, amps)[:2])
    for label, g, w in zip(("fidelity", "trace", "leakage", "purity"), got, want):
        assert g.shape == (1000,), label
        assert np.max(np.abs(g - w)) < 1e-12, label


def _dense_stats(r, c):
    """The fidelity figures of _mc_stats, from the dense per-sample oracle."""
    fids, traces = _sample_fidelities(r, c)
    n = c.shape[1]
    return {"mean_fidelity": np.mean(fids),
            "stderr": np.std(fids, ddof=1) / math.sqrt(n) if n > 1 else 0.0,
            "success_probability": np.mean(traces)}


def _fidelity_stats(rs, amps):
    """The fidelity figures of _mc_stats for the PTM stack rs, next to one
    case A absorb stage."""
    return _mc_stats(rs, end_to_end_stages(cfg_case_a())[0].hole_rows,
                     amps)[0]


def _kernel_ptms():
    """Composed PTMs of every KERNEL_CONFIGS case, then random CP maps,
    half of them after a projection onto |0>, which leaves |1> with trace
    exactly 0."""
    rng = np.random.default_rng(2024)
    project = ptm_from_kraus([np.diag([1.0, 0.0]).astype(complex)])
    ptms = [_compose(end_to_end_stages(cfg)) for cfg in KERNEL_CONFIGS.values()]
    for k in range(6):
        kraus = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
        kraus /= math.sqrt(np.linalg.eigvalsh(
            sum(a.conj().T @ a for a in kraus)).max())
        ptm = ptm_from_kraus(list(kraus))
        ptms.append(ptm @ project if k % 2 else ptm)
    return np.array(ptms)


KERNEL_SIZES = [1, 2, 2047, 2048, 2049, 5000]


@pytest.mark.parametrize("n", KERNEL_SIZES)
def test_fidelity_stats_matches_dense_oracle(n):
    """The blocked kernel gives the dense per-sample figures at 1e-12, with
    every fifth input |1>, annihilated by the projecting maps (fidelity 0),
    and each PTM's figures do not depend on the stack it is evaluated in."""
    rs = _kernel_ptms()
    amps = haar_qubits(31, n)
    amps[::5] = [0.0, 1.0]
    c = pauli_vectors(amps)
    got = _fidelity_stats(rs, amps)
    assert len(got) == len(rs)
    for k, (r, stats) in enumerate(zip(rs, got)):
        if k >= len(KERNEL_CONFIGS) and k % 2:
            assert _sample_fidelities(r, c)[1][0] == 0.0
        want = _dense_stats(r, c)
        assert stats.keys() == want.keys()
        for key, value in stats.items():
            assert abs(value - want[key]) < 1e-12, (k, key)
        assert _fidelity_stats(rs[k:k + 1], amps) == [stats]
    if n == 1:
        assert all(stats["stderr"] == 0.0 for stats in got)


# The paper's working schemes succeed with the same probability for every
# input: the √2 compensation does that for case A.  Their trace rows are
# flat, and their Monte Carlo rows are summed by moments.
FLAT_CONFIGS = {
    "case_a_compensated": cfg_case_a(window=None),
    "case_b_window": cfg_case_b(hadamard_time_ns=0.17862),
    "degenerate": cfg_degenerate(),
}
TILTED_CONFIGS = {
    "case_a_uncompensated": cfg_case_a(window=None, compensate=False),
    "case_a_window_800": cfg_case_a(window=SpectralWindow(800.0)),
}


def _denominator_rows(cfg):
    """The trace row of cfg's composed PTM and the Gram trace row of its
    absorb stage (the sum of its diagonal forms)."""
    forms = _gram_forms(_branches(cfg)[0])
    return np.array([_compose(end_to_end_stages(cfg))[0],
                     forms[:math.isqrt(len(forms))].sum(axis=0)])


@pytest.mark.parametrize("name", sorted(FLAT_CONFIGS) + sorted(TILTED_CONFIGS))
def test_compensation_makes_the_channel_flat(name):
    """Compensated case A, case B with a 100 µeV window (read out in sync)
    and the degenerate case have an input-independent success, in the
    composed channel and at absorption; without compensation, or with a
    window wide enough to reach the second valence level, case A has not."""
    rows = _denominator_rows({**FLAT_CONFIGS, **TILTED_CONFIGS}[name])
    assert _is_flat(rows) == [name in FLAT_CONFIGS] * 2
    if name == "case_a_uncompensated":
        assert np.max(np.abs(rows - [0.5, 0.0, 0.0, 1.0 / 6.0])) < 1e-12


@pytest.mark.parametrize("share", [0.5, 2.0])
def test_flat_tolerance_edge_matches_dense_oracle(share):
    """A trace row (a, δ, 0, 0) just inside the flatness tolerance is
    summed by moments as the constant a, one just outside by the ratio:
    both give the dense per-sample figures at 1e-12."""
    r = _compose(end_to_end_stages(FLAT_CONFIGS["case_a_compensated"]))
    r[0, 1] = share * pipeline._FLAT_TOL * r[0, 0]
    assert _is_flat(r[None, 0])[0] == (share < 1.0)
    amps = haar_qubits(31, 5000)
    [stats] = _fidelity_stats(r[None], amps)
    want = _dense_stats(r, pauli_vectors(amps))
    for key, value in stats.items():
        assert abs(value - want[key]) < 1e-12, key


def _count_paths(monkeypatch):
    """Counts of the moment and ratio passes built and of calls to the
    per-sample kernel _ratios."""
    calls = {"_MomentSums": 0, "_RatioSums": 0, "_ratios": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(pipeline, name),
                    **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, counted)
    return calls


def test_flat_rows_do_no_per_sample_work(monkeypatch):
    """The benchmark's sweep config is flat at every point: neither its
    sweep nor its report runs the per-sample ratio pass, and the report
    calls _ratios once, for its reference input's entropy.  A tilted
    config runs the ratio pass, and _ratios once per block, for its
    fidelity and hole rows, and sums its success (p = 0, a quadratic form
    whatever its denominator) by moments; so does a bandwidth sweep that
    crosses into the second valence level, once."""
    cfg = cfg_case_b(hadamard_time_ns=0.17862, chain=ChainParams(1, 0, 0.0),
                     mc_samples=5000)
    calls = _count_paths(monkeypatch)
    sweep(cfg, "noise.transport_time_ns", np.linspace(0.0, 50.0, 5))
    assert calls == {"_MomentSums": 1, "_RatioSums": 0, "_ratios": 0}
    scenario_report(cfg)
    assert calls == {"_MomentSums": 2, "_RatioSums": 0, "_ratios": 1}
    monte_carlo_average_fidelity(TILTED_CONFIGS["case_a_window_800"], 5000)
    assert calls == {"_MomentSums": 3, "_RatioSums": 1, "_ratios": 4}
    sweep(replace(TILTED_CONFIGS["case_a_window_800"], mc_samples=500),
          "window.bandwidth_ueV", [50.0, 800.0])
    assert calls == {"_MomentSums": 4, "_RatioSums": 2, "_ratios": 5}


def test_fidelity_stats_ideal_map_has_no_spread():
    [stats] = _fidelity_stats(np.eye(4)[None], haar_qubits(3, 20_000))
    assert abs(stats["mean_fidelity"] - 1.0) < 1e-12
    assert abs(stats["success_probability"] - 1.0) < 1e-12
    assert stats["stderr"] <= 1e-10


def test_fidelity_stats_resolves_a_tiny_spread():
    """A dephasing of 1e-8 spreads the fidelity by ~1e-8 around ~1: the
    shifted sums keep its standard error to 1e-6 of the dense value, where
    unshifted sums of f and f² would lose it to cancellation."""
    amps = haar_qubits(3, 20_000)
    r = ptm_from_kraus(dephasing_kraus(1.0 - 1e-8))
    [stats] = _fidelity_stats(r[None], amps)
    want = _dense_stats(r, pauli_vectors(amps))["stderr"]
    assert want > 0.0
    assert abs(stats["stderr"] - want) <= 1e-6 * want


def _dense_hole_stats(kraus, wanted, c):
    """The hole figures of _mc_stats, from the per-sample formula."""
    leak, pur, _ = _sample_hole(kraus, wanted, c)
    return {"leakage": np.mean(leak), "hole_purity_mean": np.mean(pur),
            "hole_purity_std": np.std(pur, ddof=1) if len(pur) > 1 else 0.0}


def _hole_stacks():
    """(case, wanted branch count, stacked branches) per case and branch
    count: every absorb stage of HOLE_CONFIGS, grouped as a sweep would
    stack them."""
    stacks = {}
    for _, cfg in sorted(HOLE_CONFIGS.items()):
        kraus, wanted = _branches(cfg)
        stacks.setdefault((cfg.case, len(kraus)),
                          (wanted, []))[1].append(kraus)
    return [(case, wanted, np.array(kraus))
            for (case, _), (wanted, kraus) in stacks.items()]


@pytest.mark.parametrize("n", KERNEL_SIZES)
def test_hole_stats_matches_dense_oracle(n):
    """Leakage and hole-purity mean and standard deviation from the blocked
    pass equal np.mean / np.std(ddof=1) of the per-sample figures at 1e-12,
    and each absorb stage's figures do not depend on the stack it is
    evaluated in."""
    amps = haar_qubits(41, n)
    c = pauli_vectors(amps)
    r = np.eye(4)[None]
    for case, wanted, kraus in _hole_stacks():
        _, got = _mc_stats(r, _stacked_hole_rows(kraus, wanted), amps)
        assert len(got) == len(kraus)
        for h, stats in enumerate(got):
            want = _dense_hole_stats(kraus[h], wanted, c)
            assert stats.keys() == want.keys()
            for key, value in stats.items():
                assert abs(value - want[key]) < 1e-12, (case, h, key)
            assert _mc_stats(r, _stacked_hole_rows(kraus[h:h + 1], wanted),
                             amps)[1] == [stats]
        if n == 1:
            assert all(stats["hole_purity_std"] == 0.0 for stats in got)


def test_hole_stats_resolves_a_tiny_spread():
    """A second branch ε X next to the identity leaves the hole purity
    1 − 2ε²(1 − r_x²) + O(ε⁴): at ε = 1e-4 a spread of ~1e-8 around ~1,
    which the shifted sums keep to 1e-6 of the dense standard deviation."""
    eps = 1e-4
    kraus = np.array([np.eye(2), eps * np.array([[0, 1], [1, 0]])],
                     dtype=complex)
    amps = haar_qubits(3, 20_000)
    [_], [stats] = _mc_stats(np.eye(4)[None], _hole_rows(kraus, 1), amps)
    want = _dense_hole_stats(kraus, 1, pauli_vectors(amps))["hole_purity_std"]
    assert 1e-9 < want < 1e-7
    assert abs(stats["hole_purity_std"] - want) <= 1e-6 * want


def test_hole_purity_mean_is_clipped_at_one():
    """A narrow window far below case B's line at 2.757 T: the hole factors
    out, but near the dark pole of the absorb stage the per-sample purity
    ratios average to ~1 + 1.9e-7.  The reported mean is clipped at 1, as
    leakage is at 0; the spread keeps its rounding."""
    cfg = cfg_case_b(field=FieldConfig(2.757),
                     window=SpectralWindow(24.1, center_offset_uev=-26.9),
                     seed=52, mc_samples=1000)
    c = pauli_vectors(haar_qubits(cfg.seed, cfg.mc_samples))
    i, j = np.triu_indices(4)
    _, purity = pipeline._ratios(end_to_end_stages(cfg)[0].hole_rows,
                                 c[i] * c[j])
    assert 1.0 + 1e-8 < np.mean(purity) < 1.0 + 1e-6
    rep = scenario_report(cfg)
    assert rep.hole_purity_mean == 1.0
    assert 0.0 < rep.hole_purity_std < 1e-4
    assert rep.leakage == 0.0


def test_sweep_rows_independent_of_point_count():
    """At the benchmark's shape (case B with a window, a one-site chain,
    1e5 samples), each row of a 21-point sweep is exactly the Monte Carlo
    result at its value: no row depends on how many points share the
    blocked pass."""
    cfg = cfg_case_b(hadamard_time_ns=0.17862, chain=ChainParams(1, 0, 0.0),
                     mc_samples=100_000)
    values = np.linspace(0.0, 50.0, 21)
    rows = sweep(cfg, "noise.transport_time_ns", values)
    assert len(rows) == len(values)
    for row, v in zip(rows, values):
        mc = monte_carlo_average_fidelity(replace(cfg, noise=replace(
            cfg.noise, transport_time_ns=float(v))))
        assert (row["mean_fidelity"], row["stderr"], row["success_prob"]) == (
            mc.mean_fidelity, mc.stderr, mc.success_probability), v


@pytest.mark.parametrize("make", [cfg_case_a, cfg_case_b])
def test_bandwidth_sweep_rows_equal_monte_carlo(make):
    """A bandwidth sweep stacks the hole forms of all 21 absorb stages in
    one pass over 10 blocks; every row, hole figures included, is exactly
    the Monte Carlo result of its point alone."""
    cfg = make(chain=ChainParams(1, 0, 0.0), mc_samples=20_000)
    values = np.linspace(50.0, 3000.0, 21)
    rows = sweep(cfg, "window.bandwidth_ueV", values)
    assert len(rows) == len(values)
    for row, v in zip(rows, values):
        mc = monte_carlo_average_fidelity(replace(cfg, window=replace(
            cfg.window, bandwidth_uev=float(v))))
        assert (row["mean_fidelity"], row["stderr"], row["success_prob"],
                row["leakage"], row["hole_purity"]) == (
            mc.mean_fidelity, mc.stderr, mc.success_probability, mc.leakage,
            mc.hole_purity_mean), v
    assert rows[0]["leakage"] < rows[-1]["leakage"]


# Windows from none (a single absorption branch) to 5000 µeV, wide enough
# that both valence levels absorb and their branches interfere.
HOLE_CONFIGS = {
    f"case_{case.lower()}_{bw}": make(window=None if bw is None
                                      else SpectralWindow(float(bw)))
    for case, make in (("A", cfg_case_a), ("B", cfg_case_b))
    for bw in (None, 100, 1000, 2000, 3000, 5000)
}
HOLE_CONFIGS["degenerate"] = cfg_degenerate()


@pytest.mark.parametrize("name", sorted(HOLE_CONFIGS))
def test_sample_hole_matches_absorbed_state(name):
    """Leakage, hole purity and entanglement entropy of each sample equal
    those of the electron ⊗ hole state from transfer.absorb_*."""
    cfg = HOLE_CONFIGS[name]
    amps = haar_qubits(cfg.seed, 200)
    absorb = end_to_end_stages(cfg)[0]
    leak, pur, total = _sample_hole(*_branches(cfg), pauli_vectors(amps))
    one_by_one = np.array([_input_hole(absorb, pauli_vectors(q[None]))
                           for q in amps]).T
    want = _absorbed_state_oracle(cfg, amps)
    assert np.all(total > 0)
    assert np.max(np.abs(leak - want[0])) < 1e-12
    assert np.max(np.abs(pur - want[1])) < 1e-12
    assert np.max(np.abs(one_by_one[:2] - want[:2])) < 1e-12
    assert np.max(np.abs(one_by_one[2] - want[2])) < 1e-10


@pytest.mark.parametrize("name", sorted(HOLE_CONFIGS))
def test_input_hole_reads_the_monte_carlo_rows(name):
    """The reference input's leakage and hole purity are the absorb stage's
    hole rows read at that one input: the hole row of the Monte Carlo pass
    over it alone, whether the rows are summed by moments or by the
    ratio."""
    cfg = HOLE_CONFIGS[name]
    absorb = end_to_end_stages(cfg)[0]
    for q in haar_qubits(cfg.seed, 50):
        leak, purity, _ = _input_hole(absorb, pauli_vectors(q[None]))
        [_], [hole] = _mc_stats(np.eye(4)[None], absorb.hole_rows, q[None])
        assert abs(leak - hole["leakage"]) <= 1e-12
        assert abs(purity - hole["hole_purity_mean"]) <= 1e-12


def test_hole_configs_have_flat_and_tilted_rows():
    """HOLE_CONFIGS reaches both Monte Carlo paths: its absorb stages'
    hole rows are flat without a window and tilted behind a window that
    reaches the second valence level."""
    flat = {name: all(_is_flat(end_to_end_stages(cfg)[0].hole_rows[1]))
            for name, cfg in HOLE_CONFIGS.items()}
    assert flat["case_a_None"] and flat["degenerate"]
    assert not flat["case_a_5000"]


def test_branch_weights_ignore_absorption_efficiency():
    """The hole diagnostics weigh the unscaled physical branches, so they
    read the same at absorption_efficiency 1e-3 as at 1 (at 0 the photon
    does not couple, and the run is refused)."""
    cfg = KERNEL_CONFIGS["case_b_window"]
    full = monte_carlo_average_fidelity(cfg, 2000)
    low = monte_carlo_average_fidelity(replace(cfg, absorption_efficiency=1e-3),
                                       2000)
    assert low.success_probability == pytest.approx(
        1e-3 * full.success_probability, rel=1e-12)
    assert low.leakage == full.leakage > 0.0
    assert low.hole_purity_mean == full.hole_purity_mean < 1.0
    assert low.hole_purity_std == full.hole_purity_std


def test_sweep_builds_untouched_stages_once(monkeypatch):
    """A sweep calls each stage's builder once: with every point for the
    stages its parameter touches, with the first point alone for the
    others.  Absorb and the shuttles still run their physics per point,
    and the Monte Carlo pass gets the hole rows of each absorb stage
    built: one per point when the parameter touches absorb, else one."""
    builds = {}
    for name, build in pipeline._STAGE_BUILDERS.items():
        def counted_build(cfgs, schemes, _name=name, _build=build):
            builds.setdefault(_name, []).append(len(cfgs))
            return _build(cfgs, schemes)

        monkeypatch.setitem(pipeline._STAGE_BUILDERS, name, counted_build)
    targets = ((pipeline, "absorption_branches"),
               (processor, "site_channel_map"), (pipeline, "_mc_stats"))
    calls = {}
    for module, name in targets:
        def counted(*args, _name=name, _original=getattr(module, name)):
            # the Monte Carlo kernel counts the absorb stages it is given,
            # two hole rows each
            calls[_name] += len(args[1][0]) // 2 if _name == "_mc_stats" else 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    cfg = cfg_case_b(hadamard_time_ns=0.17862, chain=ChainParams(3, 2, 0.01))
    # the stages each 3-point sweep touches, and the calls (absorb stages
    # for the kernel) in the order of targets: the shuttles build two
    # chain maps per point
    cases = {"noise.transport_time_ns": ([0.0, 10.0, 20.0],
                                         {"transport", "transport_back"},
                                         [1, 2, 1]),
             "window.bandwidth_ueV": ([50.0, 300.0, 1200.0], {"absorb"},
                                      [3, 2, 3]),
             "chain.gate_error": ([0.0, 0.01, 0.02],
                                  {"shuttle_in", "shuttle_out"}, [1, 6, 1])}
    for param, (values, touched, counts) in cases.items():
        builds.clear()
        calls.update((name, 0) for _, name in targets)
        sweep(replace(cfg, mc_samples=100), param, values)
        assert builds == {name: [3 if name in touched else 1]
                          for name in pipeline._STAGE_BUILDERS}, param
        assert list(calls.values()) == counts, param


@pytest.mark.parametrize("make,window",
                         [(cfg_case_b, SpectralWindow(100.0)),
                          (cfg_case_b, None),
                          (cfg_case_a, SpectralWindow(100.0)),
                          (cfg_case_a, None),
                          (cfg_degenerate, None)])
def test_stage_builds_read_the_ls_table_once(make, window, monkeypatch):
    """absorption_branches and branch_dipole_vectors each build the LS table
    once, whatever the number of holes and amplitudes."""
    builds = []
    original = transfer.ls_table
    monkeypatch.setattr(transfer, "ls_table",
                        lambda: builds.append(1) or original())
    cfg = make(window=window)
    scheme = cfg.scheme()
    transfer.absorption_branches(scheme, cfg.window, cfg.compensate)
    assert len(builds) == 1
    transfer.branch_dipole_vectors(scheme)
    assert len(builds) == 2


@pytest.mark.parametrize("make", [cfg_case_a, cfg_case_b])
def test_dephasing_fraction_hits_forward_transport_only(make):
    """transport_dephasing_fraction = 1 removes all coherence in the energy
    eigenbasis on the way in and none on the way back."""
    cfg = make(noise=NoiseModel(transport_dephasing_fraction=1.0))
    stages = {st.name: st.ptm for st in end_to_end_stages(cfg)}
    # the Bloch axis n of the energy eigenstates is the only one that
    # survives full dephasing: R = diag(1, n nᵀ)
    u = cfg.scheme().eigenbasis if cfg.case == "B" else np.eye(2)
    n = pauli_vectors(u.T)[1:, 0]
    keep = np.zeros((4, 4))
    keep[0, 0] = 1.0
    keep[1:, 1:] = np.outer(n, n)
    assert np.max(np.abs(stages["transport"] - keep)) < 1e-12
    assert np.max(np.abs(stages["transport_back"] - np.eye(4))) < 1e-12


def _bloch_quadrature_mean(s, n_theta=48, n_phi=96):
    """Seedless Haar average of q† S(q q†) q / tr S(q q†): Gauss-Legendre in
    cos(theta), midpoint rule in phi."""
    u, wu = np.polynomial.legendre.leggauss(n_theta)
    phi = 2.0 * math.pi * (np.arange(n_phi) + 0.5) / n_phi
    theta = np.arccos(u)[:, None]
    q = np.stack(np.broadcast_arrays(np.cos(theta / 2) + 0j,
                                     np.exp(1j * phi) * np.sin(theta / 2)),
                 axis=-1).reshape(-1, 2)
    rho = np.einsum("ni,nj->nij", q, q.conj()).reshape(-1, 4)
    out = (rho @ s.T).reshape(-1, 2, 2)
    ratio = (np.real(np.einsum("ni,nij,nj->n", q.conj(), out, q))
             / np.real(np.trace(out, axis1=1, axis2=2)))
    return float(wu @ ratio.reshape(n_theta, n_phi).mean(axis=1)) / 2.0


@pytest.mark.parametrize("name", sorted(KERNEL_CONFIGS))
def test_mc_mean_matches_bloch_quadrature(name):
    cfg = KERNEL_CONFIGS[name]
    mc = monte_carlo_average_fidelity(cfg, 20_000)
    want = _bloch_quadrature_mean(_composed(cfg))
    assert abs(mc.mean_fidelity - want) <= 5 * mc.stderr + 1e-6


# No window and no transport loss: every input reaches the output with the
# same probability R₀₀ (1 in the degenerate case; the absorption success of
# the split cases otherwise), so the normalized channel is trace-preserving.
CONSTANT_TRACE_CONFIGS = {
    "case_a": cfg_case_a(window=None, storage_time_ns=2e5,
                         chain=ChainParams(3, 2, 0.03),
                         noise=NoiseModel(transport_time_ns=20.0)),
    "case_b": cfg_case_b(window=None, hadamard_time_ns=0.1, storage_time_ns=2e5,
                         chain=ChainParams(3, 2, 0.03),
                         noise=NoiseModel(transport_time_ns=20.0,
                                          transport_dephasing_fraction=0.2)),
    "degenerate": cfg_degenerate(storage_time_ns=1e5,
                                 chain=ChainParams(3, 2, 0.02),
                                 noise=NoiseModel(transport_time_ns=20.0)),
}


@pytest.mark.parametrize("name", sorted(CONSTANT_TRACE_CONFIGS))
def test_mc_mean_matches_process_fidelity(name):
    """Haar-average identity F_avg = (2 F_pro + 1) / 3 for a trace-preserving
    qubit channel (Horodecki et al. 1999; Nielsen 2002), with F_pro from
    process tomography."""
    cfg = CONSTANT_TRACE_CONFIGS[name]
    r = _compose(end_to_end_stages(cfg))
    _, traces = _sample_fidelities(r, pauli_vectors(haar_qubits(cfg.seed, 20_000)))
    assert np.max(np.abs(traces - r[0, 0])) < 1e-12
    if cfg.case == "degenerate":
        assert r[0, 0] == pytest.approx(1.0, abs=1e-12)
    mc = monte_carlo_average_fidelity(cfg, 20_000)
    f_pro = process_tomography(cfg).process_fidelity
    assert abs(mc.mean_fidelity - (2 * f_pro + 1) / 3) <= 5 * mc.stderr + 1e-6


SWEEP_CASES = {
    "absorption_efficiency": (
        cfg_case_b(window=SpectralWindow(600.0), hadamard_time_ns=0.17862),
        [0.2, 0.5, 1.0],
        lambda cfg, v: replace(cfg, absorption_efficiency=v)),
    "chain.gate_error": (
        cfg_case_a(chain=ChainParams(3, 2, 0.01)), [0.0, 0.01, 0.05],
        lambda cfg, v: replace(cfg, chain=replace(cfg.chain, gate_error=v))),
    "field.b_tesla": (
        cfg_case_b(hadamard_time_ns=TAU), [0.2, 0.55, 1.0],
        lambda cfg, v: replace(cfg, field=replace(cfg.field, b_tesla=v))),
    "hadamard_time_ns": (
        cfg_case_b(chain=ChainParams(3, 2, 0.02)), [0.0, 0.1, TAU],
        lambda cfg, v: replace(cfg, hadamard_time_ns=v)),
    "noise.transport_dephasing_fraction": (
        cfg_case_b(hadamard_time_ns=TAU, noise=NoiseModel(transport_time_ns=10.0)),
        [0.0, 0.3, 1.0],
        lambda cfg, v: replace(cfg, noise=replace(
            cfg.noise, transport_dephasing_fraction=v))),
    "noise.transport_loss": (
        cfg_case_a(chain=ChainParams(3, 2, 0.02)), [0.0, 0.2, 0.5],
        lambda cfg, v: replace(cfg, noise=replace(cfg.noise, transport_loss=v))),
    "noise.transport_time_ns": (
        cfg_case_b(hadamard_time_ns=0.17862), [0.0, 10.0, 35.0, 50.0],
        lambda cfg, v: replace(cfg, noise=replace(cfg.noise, transport_time_ns=v))),
    "storage_time_ns": (
        cfg_case_a(window=SpectralWindow(800.0)), [0.0, 1e5, 5e5],
        lambda cfg, v: replace(cfg, storage_time_ns=v)),
    "window.bandwidth_ueV": (
        cfg_case_a(), [50.0, 300.0, 1200.0],
        lambda cfg, v: replace(cfg, window=replace(cfg.window, bandwidth_uev=v))),
    "window.center_offset_ueV": (
        cfg_case_b(window=SpectralWindow(600.0)), [-200.0, 0.0, 300.0],
        lambda cfg, v: replace(cfg, window=replace(cfg.window,
                                                   center_offset_uev=v))),
}


@pytest.mark.parametrize("param", pipeline.sweep_parameters())
def test_sweep_rows_equal_monte_carlo(param, monkeypatch):
    """A sweep draws its Haar inputs once, and each row is exactly the
    Monte Carlo result of its point on those inputs.  Every parameter is
    covered, so a stage the sweep keeps from its first point but whose
    parameter does change shows as a row that differs."""
    cfg, values, point = SWEEP_CASES[param]
    draws = []

    def counting_haar(seed, n):
        draws.append((seed, n))
        return haar_qubits(seed, n)

    monkeypatch.setattr(pipeline, "haar_qubits", counting_haar)
    rows = sweep(replace(cfg, mc_samples=500), param, values)
    assert draws == [(cfg.seed, 500)]
    assert len(rows) == len(values)
    for row, v in zip(rows, values):
        mc = monte_carlo_average_fidelity(point(cfg, v), 500)
        assert row == {"param": param, "value": v,
                       "mean_fidelity": mc.mean_fidelity, "stderr": mc.stderr,
                       "success_prob": mc.success_probability,
                       "leakage": mc.leakage,
                       "hole_purity": mc.hole_purity_mean}


def _stage_rows(stage, i=None):
    """A stage's PTM, hole rows and collection row: at point i of a stage
    stacked over the points of a sweep, or of a stage built at one point
    (i None)."""
    rows = [stage.ptm, *(stage.hole_rows or ())]
    if stage.collection_row is not None:
        rows.append(stage.collection_row)
    return rows if i is None else [x[i] for x in rows]


@pytest.mark.parametrize("param", pipeline.sweep_parameters())
def test_stacked_stage_rows_equal_single_point_builds(param, monkeypatch):
    """Built as one stack over a sweep's points, every stage's row at a
    point (PTM, hole rows, collection row) is bit for bit the stage built
    at that point alone, for points sharing one band scheme as a sweep
    that keeps the field builds them and for a scheme per point; so is
    every composed row, and every row the sweep hands the Monte Carlo
    pass."""
    cfg, values, point = SWEEP_CASES[param]
    points = [point(cfg, v) for v in values]
    singles = [end_to_end_stages(p) for p in points]
    schemes = [[p.scheme() for p in points]]
    if "scheme" not in pipeline._SWEEPABLE[param]:
        schemes.append([points[0].scheme()] * len(points))
    for point_schemes in schemes:
        stacked = (pipeline.detection_stages(points, point_schemes)
                   + pipeline.return_stages(points, point_schemes))
        composed = _compose(stacked)
        for i, single in enumerate(singles):
            assert [st.name for st in stacked] == [st.name for st in single]
            for st, one in zip(stacked, single):
                got, want = _stage_rows(st, i), _stage_rows(one)
                assert len(got) == len(want), st.name
                assert all(map(np.array_equal, got, want)), (st.name, i)
            assert np.array_equal(composed[i], _compose(single)), i
    seen = []
    original = pipeline._mc_stats
    monkeypatch.setattr(pipeline, "_mc_stats",
                        lambda *args: seen.append(args) or original(*args))
    sweep(replace(cfg, mc_samples=20), param, values)
    [(rs, holes, _)] = seen
    for i, single in enumerate(singles):
        assert np.array_equal(rs[i], _compose(single)), i
    # the absorb stages built: one per point, or the first point's alone
    built = len(holes[0]) // 2
    assert built == (len(points) if "absorb" in pipeline._SWEEPABLE[param]
                     else 1)
    for i in range(built):
        assert all(np.array_equal(x[[i, built + i]], y)
                   for x, y in zip(holes, singles[i][0].hole_rows)), i


# --- tomography --------------------------------------------------------------

def test_tomography_ideal_identity():
    for cfg in (cfg_case_a(window=None), cfg_case_b(hadamard_time_ns=TAU)):
        res = process_tomography(cfg)
        assert res.cptp
        assert res.process_fidelity == pytest.approx(1.0, abs=1e-8)


def test_tomography_dephasing_analytic():
    t2 = 5.0e5
    cfg = cfg_case_a(window=None, storage_time_ns=t2)
    res = process_tomography(cfg)
    gamma = math.exp(-1.0)
    # normalized Choi of a phase-damping channel
    want = np.zeros((4, 4), dtype=complex)
    want[0, 0] = want[3, 3] = 0.5
    want[0, 3] = want[3, 0] = gamma / 2
    norm = res.choi / np.trace(res.choi).real
    assert np.max(np.abs(norm - want)) < 1e-6
    assert res.process_fidelity == pytest.approx((1 + gamma) / 2, abs=1e-8)


def test_tomography_degenerate_half():
    res = process_tomography(cfg_degenerate())
    assert res.cptp
    assert res.process_fidelity == pytest.approx(0.5, abs=1e-10)


def test_cptp_across_noisy_configs():
    configs = [
        cfg_case_a(),
        cfg_case_a(compensate=False, window=SpectralWindow(300.0)),
        cfg_case_a(noise=NoiseModel(transport_time_ns=30.0,
                                    transport_loss=0.2,
                                    transport_dephasing_fraction=0.1),
                   chain=ChainParams(gate_error=0.02),
                   storage_time_ns=1e5),
        cfg_case_b(hadamard_time_ns=0.7 * TAU),
        cfg_case_b(window=SpectralWindow(400.0),
                   chain=ChainParams(gate_error=0.05)),
        cfg_degenerate(),
        cfg_case_a(emission_direction=(1.0, 0.0, 0.0)),
        cfg_case_a(emission_direction=(0.0, 0.0, 1.0)),   # rank-deficient
    ]
    for cfg in configs:
        res = process_tomography(cfg)
        assert is_cptp(res.choi, tol=1e-8, conditional=True)


# --- sweeps ------------------------------------------------------------------

def test_sweep_b_field_oscillation():
    """With the readout timed for tau(1 T), sweeping B makes the mean
    fidelity oscillate with the accumulated precession phase."""
    cfg = cfg_case_b(hadamard_time_ns=TAU, input_qubit=(1.0, 0.0), mc_samples=64)
    rows = sweep(cfg, "field.b_tesla", np.linspace(0.1, 1.0, 10))
    fids = [r["mean_fidelity"] for r in rows]
    assert fids[-1] == pytest.approx(1.0, abs=1e-9)   # synchronized at 1 T
    assert min(fids) < 0.9                            # and off-sync in between
    # precession-phase oracle: Haar mean of |<q|diag(1, e^{-i phi})|q>|²
    # is (2 + cos(phi))/3 for a relative-phase rotation
    from polspin.constants import HBAR_UEV_NS, MU_B_UEV_PER_T
    for row in rows:
        phase = 0.4 * MU_B_UEV_PER_T * row["value"] * TAU / HBAR_UEV_NS
        want = (2.0 + math.cos(phase)) / 3.0
        assert row["mean_fidelity"] == pytest.approx(want, abs=0.12)


def test_sweep_bandwidth_leakage_monotone():
    cfg = cfg_case_a(mc_samples=32)
    rows = sweep(cfg, "window.bandwidth_ueV", np.linspace(50.0, 600.0, 8))
    leaks = [r["leakage"] for r in rows]
    assert all(a <= b + 1e-12 for a, b in zip(leaks, leaks[1:]))
    assert leaks[0] < 1e-6 and leaks[-1] > 0.01


def test_sweep_empty_values():
    assert sweep(cfg_case_a(), "field.b_tesla", []) == []


@pytest.mark.parametrize("param, values", [
    ("noise.transport_time_ns", [30.0]),
    # case A has no hadamard stage, and equal values are not refused as flat
    ("hadamard_time_ns", [0.1, 0.1, 0.1])])
def test_sweep_with_no_stacked_stage_has_a_row_per_value(param, values):
    """A sweep that stacks no stage, over one point or over a parameter no
    stage of its case reads, still gives one row per value, each the Monte
    Carlo result of its point."""
    cfg = cfg_case_a(mc_samples=200)
    rows = sweep(cfg, param, values)
    assert [row["value"] for row in rows] == values
    mc = monte_carlo_average_fidelity(pipeline._setter(cfg, param)(values[0]))
    for row in rows:
        assert (row["mean_fidelity"], row["success_prob"]) == (
            mc.mean_fidelity, mc.success_probability)


def test_sweep_unknown_parameter():
    with pytest.raises(KeyError):
        sweep(cfg_case_a(), "nonsense.path", [1.0])


# (config, parameter, values) of each sweep whose rows would be flat
FLAT_SWEEPS = {
    # parameters no stage of the case reads
    "degenerate_b_tesla": (cfg_degenerate(), "field.b_tesla", (0.5, 2.0)),
    "degenerate_bandwidth": (cfg_degenerate(), "window.bandwidth_ueV",
                             (0.5, 2.0)),
    "degenerate_center_offset": (cfg_degenerate(window=SpectralWindow(100.0)),
                                 "window.center_offset_ueV", (0.5, 2.0)),
    "degenerate_hadamard": (cfg_degenerate(), "hadamard_time_ns", (0.5, 2.0)),
    "case_a_hadamard": (cfg_case_a(), "hadamard_time_ns", (0.5, 2.0)),
    # read, but the degenerate electron is diagonal in the logical basis,
    # where no dephasing stage touches it
    "degenerate_storage": (cfg_degenerate(), "storage_time_ns", (0.0, 1e6)),
    # its PTMs differ by round-off (4e-16), which exact equality would miss
    "degenerate_transport_time": (cfg_degenerate(), "noise.transport_time_ns",
                                  (0.0, 1e6)),
    "degenerate_dephasing_fraction": (cfg_degenerate(),
                                      "noise.transport_dephasing_fraction",
                                      (0.0, 1.0)),
    # a one-site chain's shuttles have no hop
    "one_site_gate_error": (cfg_case_a(chain=ChainParams(1, 0)),
                            "chain.gate_error", (0.0, 0.5)),
}


@pytest.mark.parametrize("name", sorted(FLAT_SWEEPS))
def test_sweep_refuses_a_flat_sweep(name):
    """Every point's composed PTM and absorb hole rows equal the first's
    to 1e-12, so the rows would be flat; the sweep is refused, naming
    parameter and case."""
    cfg, param, values = FLAT_SWEEPS[name]
    low, high = (end_to_end_stages(pipeline._setter(cfg, param)(v))
                 for v in values)
    assert np.max(np.abs(_compose(low) - _compose(high))) <= 1e-12
    for x, y in zip(low[0].hole_rows, high[0].hole_rows):
        assert np.max(np.abs(x - y)) <= 1e-12
    with pytest.raises(KeyError) as exc:
        sweep(cfg, param, values)
    assert exc.value.args == (f"sweeping {param} has no effect: every point "
                              f"of case {cfg.case} has the first point's "
                              "channel and hole forms",)


FAINT = cfg_case_b(hadamard_time_ns=0.17862, seed=1, mc_samples=200)


def test_faint_channel_sweep_is_not_flat():
    """At absorption efficiency 1e-13 every PTM entry is ~1e-14, yet a
    transport-time sweep changes the channel: it is not refused as flat,
    and its rows are those of the full channel, success scaled by 1e-13."""
    values = [0.0, 25.0, 50.0]
    full = sweep(FAINT, "noise.transport_time_ns", values)
    faint = sweep(replace(FAINT, absorption_efficiency=1e-13),
                  "noise.transport_time_ns", values)
    assert full[0]["mean_fidelity"] - full[-1]["mean_fidelity"] > 0.1
    for low, high in zip(faint, full):
        for key in ("mean_fidelity", "stderr", "leakage", "hole_purity"):
            assert abs(low[key] - high[key]) <= 1e-12, key
        assert low["success_prob"] == pytest.approx(
            1e-13 * high["success_prob"], rel=1e-12)


def test_faint_efficiency_sweep_is_not_flat():
    """Doubling a faint efficiency doubles success: the sweep runs.  A
    faint sweep of a parameter the case does not read is still flat."""
    rows = sweep(FAINT, "absorption_efficiency", [1e-13, 2e-13])
    assert rows[1]["success_prob"] == pytest.approx(
        2.0 * rows[0]["success_prob"], rel=1e-12)
    assert rows[0]["mean_fidelity"] == rows[1]["mean_fidelity"]
    with pytest.raises(KeyError, match="has no effect"):
        sweep(cfg_degenerate(absorption_efficiency=1e-13),
              "hadamard_time_ns", [1.0, 2.0])


def test_sweep_checks_every_value_before_any_stage():
    """The first point is dark, but the second's refused value is reported:
    every point's config is built before any stage."""
    with pytest.raises(KeyError) as exc:
        sweep(cfg_case_a(), "absorption_efficiency", [0.0, 2.0])
    assert exc.value.args == ("sweeping absorption_efficiency to 2.0: "
                              "absorption efficiency must lie in [0, 1]",)


def _former_collection(cfg, v):
    """The collection fraction as the end-to-end run weighed it before the
    emit stage held a row: the spin populations of the electron with
    logical Pauli vector v, in the mS frame, times the two branches'
    collection fractions, over the trace."""
    frame = np.array([[0, 1], [1, 0]]) if cfg.case == "A" else np.eye(2)
    fractions = emission_map(cfg.scheme(), cfg.emission_direction)[1]
    pops = np.diag(frame @ density_from_pauli(v) @ frame.conj().T).real
    return float(pops @ fractions / pops.sum())


@pytest.mark.parametrize("direction", [None, (0.3, 0.2, 1.0)])
@pytest.mark.parametrize("make", [cfg_case_a, cfg_case_b, cfg_degenerate])
def test_collection_row_matches_population_weighting(make, direction):
    """row·v / v₀ of the emit stage equals the population-weighted
    collection fraction to 1e-15, on random Pauli vectors of any trace and
    on the two poles v₃ = ±v₀."""
    cfg = make(emission_direction=direction)
    row = end_to_end_stages(cfg)[-1].collection_row
    rng = np.random.default_rng(11)
    traces = rng.uniform(0.01, 2.0, 200)
    bloch = rng.normal(size=(200, 3))
    bloch *= rng.uniform(0.0, 1.0, (200, 1)) / np.linalg.norm(bloch, axis=1,
                                                             keepdims=True)
    vs = np.column_stack([traces, traces[:, None] * bloch])
    poles = [[t, 0.0, 0.0, sign * t] for t in (0.3, 1.0) for sign in (1, -1)]
    for v in np.vstack([vs, poles]):
        assert abs(row @ v / v[0] - _former_collection(cfg, v)) <= 1e-15, v


def test_dark_window_refused_by_monte_carlo_and_sweep():
    # a window 1e5 ueV off every transition absorbs no Haar input at all
    dark = SpectralWindow(10.0, center_offset_uev=1e5)
    with pytest.raises(ValueError, match="does not couple"):
        monte_carlo_average_fidelity(cfg_case_a(window=dark), n_samples=50)
    with pytest.raises(ValueError, match="does not couple"):
        sweep(cfg_case_a(window=SpectralWindow(10.0), mc_samples=50),
              "window.center_offset_ueV", [0.0, 1e5])


def test_run_end_to_end_refuses_a_scenario_that_passes_nothing():
    # transport loses every photon, so the stages compose to a dark map
    cfg = cfg_case_a(noise=NoiseModel(transport_loss=1.0))
    with pytest.raises(ValueError, match="does not couple"):
        run_end_to_end(PLUS, cfg)


def test_sweep_deterministic():
    cfg = cfg_case_a(seed=3, mc_samples=100)
    a = sweep(cfg, "storage_time_ns", [0.0, 1e5])
    b = sweep(cfg, "storage_time_ns", [0.0, 1e5])
    assert a == b


# --- config validation -------------------------------------------------------

def test_config_validation_collects_all_problems():
    with pytest.raises(ValueError) as info:
        ScenarioConfig(case="A", field=FieldConfig(0.0),
                       absorption_efficiency=2.0, input_qubit=(1.0, 1.0))
    assert str(info.value).split("; ") == [
        "split-band cases require B > 0",
        "absorption efficiency must lie in [0, 1]",
        "input_qubit amplitudes must be finite and normalized"]


# --- report ------------------------------------------------------------------

def test_scenario_report_fields():
    rep = scenario_report(cfg_case_a(mc_samples=50))
    assert rep.round_trip_fidelity == pytest.approx(1.0, abs=1e-9)
    assert rep.mean_fidelity == pytest.approx(1.0, abs=1e-9)
    assert rep.cptp
    assert rep.choi.shape == (4, 4)
    assert rep.stages[0].name == "absorb"
    assert rep.stages[-1].name == "emit"


REPORT_CONFIGS = {
    "case_a_chain6": lambda: cfg_case_a(
        window=None, mc_samples=300,
        chain=ChainParams(n_sites=6, storage_site=5, gate_error=0.01)),
    "case_b_window": lambda: cfg_case_b(
        hadamard_time_ns=0.17862, mc_samples=300,
        chain=ChainParams(n_sites=4, storage_site=3, gate_error=0.02)),
    "degenerate": lambda: cfg_degenerate(mc_samples=300),
}


@pytest.mark.parametrize("name", sorted(REPORT_CONFIGS))
def test_scenario_report_equals_public_functions(name):
    # building the stages once must not change a single bit
    cfg = REPORT_CONFIGS[name]()
    q = np.array(cfg.input_qubit, dtype=complex)
    rep = scenario_report(cfg)
    e2e = run_end_to_end(q, cfg)
    det = run_detection(q, cfg)
    mc = monte_carlo_average_fidelity(cfg)
    tomo = process_tomography(cfg)
    assert rep.round_trip_fidelity == e2e.round_trip_fidelity
    assert rep.collection_fraction == e2e.collection_fraction
    assert rep.stages == e2e.stages
    assert rep.entanglement_entropy_bits == det.entanglement_entropy_bits
    assert (rep.mean_fidelity, rep.stderr, rep.n_samples) == \
        (mc.mean_fidelity, mc.stderr, mc.n_samples)
    assert (rep.success_probability, rep.leakage) == \
        (mc.success_probability, mc.leakage)
    assert (rep.hole_purity_mean, rep.hole_purity_std) == \
        (mc.hole_purity_mean, mc.hole_purity_std)
    assert np.array_equal(rep.choi, tomo.choi)
    assert (rep.cptp, rep.process_fidelity) == (tomo.cptp, tomo.process_fidelity)


@pytest.mark.parametrize("name", sorted(REPORT_CONFIGS))
def test_scenario_report_builds_stages_once(name, monkeypatch):
    from polspin import pipeline
    calls = {"detection_stages": 0, "return_stages": 0}
    for fn in calls:
        original = getattr(pipeline, fn)

        def counted(*args, _fn=fn, _original=original):
            calls[_fn] += 1
            return _original(*args)

        monkeypatch.setattr(pipeline, fn, counted)
    scenario_report(REPORT_CONFIGS[name]())
    assert calls == {"detection_stages": 1, "return_stages": 1}


@pytest.mark.parametrize("name", sorted(REPORT_CONFIGS))
def test_scenario_report_maps_emission_modes_once(name, monkeypatch):
    """A report maps no emission modes along the canonical direction, whose
    map is formed at import, and maps them once along an explicit emission
    direction; either way it calls emission_map once."""
    calls, emissions = [], []
    original, original_emission = transfer._mode_map, transfer.emission_map
    monkeypatch.setattr(transfer, "_mode_map",
                        lambda *args: calls.append(args) or original(*args))
    monkeypatch.setattr(pipeline, "emission_map",
                        lambda *args: emissions.append(args)
                        or original_emission(*args))
    for direction, count in ((None, 0), ((0.3, 0.2, 1.0), 1)):
        calls.clear()
        emissions.clear()
        scenario_report(replace(REPORT_CONFIGS[name](), emission_direction=direction))
        assert len(calls) == count, direction
        assert len(emissions) == 1, direction


@pytest.mark.parametrize("name", sorted(REPORT_CONFIGS))
def test_scenario_report_builds_no_donor_chain(name, monkeypatch):
    """The only donor chains a report builds are the shuttle stages'
    probes of the chain channel."""
    cfg = REPORT_CONFIGS[name]()
    calls = []
    original = processor.fresh_chain
    monkeypatch.setattr(processor, "fresh_chain",
                        lambda *args: calls.append(args) or original(*args))
    end_to_end_stages(cfg)
    probes = len(calls)
    calls.clear()
    scenario_report(cfg)
    assert len(calls) == probes


def test_scenario_report_runs_two_chains_per_shuttle_stage(monkeypatch):
    """Each shuttle stage runs one hop once per probe: 2 stages x 2 probes,
    each a single exchange gate on a two-site chain, whatever the chain's
    length."""
    calls = {"fresh_chain": [], "shuttle": [], "exchange_gate": []}
    for name, seen in calls.items():
        original = getattr(processor, name)
        monkeypatch.setattr(processor, name, lambda *args, _seen=seen,
                            _original=original: _seen.append(args)
                            or _original(*args))
    for n_sites in (2, 6, 40):
        for seen in calls.values():
            seen.clear()
        scenario_report(cfg_case_a(chain=ChainParams(n_sites, n_sites - 1, 0.01),
                                   mc_samples=20))
        assert len(calls["shuttle"]) == len(calls["exchange_gate"]) == 4, n_sites
        assert {args[0] for args in calls["fresh_chain"]} == {2}, n_sites


def test_one_site_report_runs_no_chain(monkeypatch):
    """With one site there is nothing to shuttle: both shuttle stages are
    the identity, whatever the gate error, and no chain runs."""
    calls = []
    for name in ("site_channel_map", "fresh_chain", "shuttle", "exchange_gate"):
        monkeypatch.setattr(processor, name,
                            lambda *args, _name=name: calls.append(_name))
    cfg = cfg_case_a(chain=ChainParams(1, 0, 0.3), mc_samples=20)
    scenario_report(cfg)
    assert calls == []
    stages = {st.name: st.ptm for st in end_to_end_stages(cfg)}
    assert np.array_equal(stages["shuttle_in"], np.eye(4))
    assert np.array_equal(stages["shuttle_out"], np.eye(4))


# --- shuttle light cone ------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 8))
def test_shuttle_ptm_matches_dense_chain(n):
    """The light-cone shuttle, one hop on a two-site chain raised to
    |hops|, equals the dense n-site chain simulation and the depolarizing
    closed form, for every (from, to)."""
    for eps in (0.0, 0.01, 0.3, 0.75, 1.0):
        chain = ChainParams(n, 0, eps)
        for start in range(n):
            for stop in range(n):
                got = pipeline._shuttle_ptm(chain, start, stop)
                dense = ptm_from_choi(choi_of_map(
                    site_channel_map(n, start, stop, eps)))
                where = (n, start, stop, eps)
                assert np.max(np.abs(got - dense)) < 1e-12, where
                assert np.max(np.abs(
                    got - _depolarizing_ptm(eps, stop - start))) < 1e-12, where


def test_forty_site_chain_report():
    """chain.n_sites is free: a 40-site report runs, and its shuttle stages
    are the closed form of 39 hops."""
    cfg = cfg_case_a(chain=ChainParams(40, 39, 0.01), mc_samples=200)
    rep = scenario_report(cfg)
    stages = {st.name: st.ptm for st in end_to_end_stages(cfg)}
    for name in ("shuttle_in", "shuttle_out"):
        assert np.max(np.abs(stages[name] - _depolarizing_ptm(0.01, 39))) < 1e-12
    assert rep.cptp
    assert 0.5 < rep.mean_fidelity < 1.0


# --- dot constraints ---------------------------------------------------------

def test_dot_check_at_quoted_threshold():
    base = dict(capacitance_farad=1e-18, confinement_energy_uev=1000.0,
                temperature_k=4.0)
    assert dot_constraint_check(
        DotConstraints(tunnel_resistance_ohm=26_000.0, **base)).resistance_ok
    assert not dot_constraint_check(
        DotConstraints(tunnel_resistance_ohm=25_000.0, **base)).resistance_ok
    assert not dot_constraint_check(
        DotConstraints(tunnel_resistance_ohm=25_812.807, **base)).resistance_ok


def test_dot_charging_oracle():
    # e²/C at 1 aF is 160.2 meV, far above kT at 4 K
    rep = dot_constraint_check(DotConstraints(
        capacitance_farad=1e-18, tunnel_resistance_ohm=1e5,
        confinement_energy_uev=1000.0, temperature_k=4.0))
    assert rep.charging_energy_uev == pytest.approx(160_217.6634, rel=1e-9)
    assert rep.thermal_energy_uev == pytest.approx(4 * KB_UEV_PER_K, rel=1e-12)
    assert rep.charging_ok and rep.confinement_ok
    # a huge dot at the same temperature fails
    rep = dot_constraint_check(DotConstraints(
        capacitance_farad=1e-15, tunnel_resistance_ohm=1e5,
        confinement_energy_uev=100.0, temperature_k=4.0))
    assert not rep.charging_ok and not rep.confinement_ok


def test_dot_tiny_temperature_all_pass():
    rep = dot_constraint_check(DotConstraints(
        capacitance_farad=1e-15, tunnel_resistance_ohm=30_000.0,
        confinement_energy_uev=10.0, temperature_k=0.001))
    assert rep.all_ok


def test_dot_validation():
    with pytest.raises(ValueError):
        DotConstraints(capacitance_farad=0.0, tunnel_resistance_ohm=1.0,
                       confinement_energy_uev=1.0, temperature_k=1.0)
