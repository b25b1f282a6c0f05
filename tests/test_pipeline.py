import math

import numpy as np
import pytest

from polspin.bands import FieldConfig, INPLANE, NORMAL, SpectralWindow
from polspin.constants import KB_UEV_PER_K
from polspin.noise import NoiseModel
from polspin.pipeline import (ChainParams, DotConstraints, ScenarioConfig,
                              dot_constraint_check, haar_qubits,
                              monte_carlo_average_fidelity,
                              process_tomography, run_detection,
                              run_end_to_end, scenario_report, sweep)
from polspin.bands import precession_period
from polspin.qstate import is_cptp

SQ2 = 1.0 / math.sqrt(2.0)
TAU = precession_period(0.4, 1.0)


def cfg_case_a(**kw):
    base = dict(case="A", field=FieldConfig(1.0, NORMAL),
                window=SpectralWindow(100.0), compensate=True, seed=7)
    base.update(kw)
    return ScenarioConfig(**base)


def cfg_case_b(**kw):
    base = dict(case="B", field=FieldConfig(1.0, INPLANE),
                window=SpectralWindow(100.0), hadamard_time_ns=0.0, seed=7)
    base.update(kw)
    return ScenarioConfig(**base)


def cfg_degenerate(**kw):
    base = dict(case="degenerate", field=FieldConfig(0.0, NORMAL),
                window=None, seed=7)
    base.update(kw)
    return ScenarioConfig(**base)


PLUS = np.array([SQ2, SQ2])


# --- detection ---------------------------------------------------------------

def test_detection_ideal_case_a():
    res = run_detection(PLUS, cfg_case_a(window=None))
    assert res.stages[-1].fidelity == pytest.approx(1.0, abs=1e-10)
    assert res.hole_purity == pytest.approx(1.0, abs=1e-10)
    assert res.entanglement_entropy_bits == pytest.approx(0.0, abs=1e-10)
    # the qubit really sits in the chain at the storage site
    site_rho = res.chain.site_reduced(3)
    assert np.allclose(site_rho, np.outer(PLUS, PLUS.conj()), atol=1e-10)


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
    cfg = cfg_case_b(hadamard_time_ns=TAU, input_qubit=(1.0, 0.0))
    rows = sweep(cfg, "field.b_tesla", np.linspace(0.1, 1.0, 10), n_samples=64)
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
    cfg = cfg_case_a()
    rows = sweep(cfg, "window.bandwidth_ueV",
                 np.linspace(50.0, 600.0, 8), n_samples=32)
    leaks = [r["leakage"] for r in rows]
    assert all(a <= b + 1e-12 for a, b in zip(leaks, leaks[1:]))
    assert leaks[0] < 1e-6 and leaks[-1] > 0.01


def test_sweep_empty_values():
    assert sweep(cfg_case_a(), "field.b_tesla", []) == []


def test_sweep_unknown_parameter():
    with pytest.raises(KeyError):
        sweep(cfg_case_a(), "nonsense.path", [1.0])


def test_sweep_deterministic():
    cfg = cfg_case_a(seed=3)
    a = sweep(cfg, "storage_time_ns", [0.0, 1e5], n_samples=100)
    b = sweep(cfg, "storage_time_ns", [0.0, 1e5], n_samples=100)
    assert a == b


# --- config validation -------------------------------------------------------

def test_config_validation_collects_all_problems():
    cfg = ScenarioConfig(case="A", field=FieldConfig(0.0, INPLANE),
                         absorption_efficiency=2.0,
                         input_qubit=(1.0, 1.0))
    problems = cfg.validate()
    assert len(problems) >= 4


def test_config_case_orientation_mismatch():
    cfg = ScenarioConfig(case="B", field=FieldConfig(1.0, NORMAL))
    assert any("inplane" in p or "in the surface plane" in p
               for p in cfg.validate())
    with pytest.raises(ValueError):
        run_end_to_end(PLUS, cfg)


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
