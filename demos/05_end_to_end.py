"""Full device runs: photon in, donor-chain storage, photon out.

Builds the end-to-end conditional channel for the three configurations,
Monte Carlo-averages the round-trip fidelity over Haar-random inputs,
tomographs the channel, and checks the emitter dot constraints.
"""

import numpy as np

from polspin import (ChainParams, DotConstraints, FieldConfig, NoiseModel,
                     ScenarioConfig, SpectralWindow, dot_constraint_check,
                     monte_carlo_average_fidelity, precession_period,
                     process_tomography, run_end_to_end)

tau = precession_period(0.4, 1.0)
PLUS = np.array([2 ** -0.5, 2 ** -0.5])

scenarios = {
    "case A (ideal, compensated)": ScenarioConfig(
        case="A", field=FieldConfig(1.0),
        window=SpectralWindow(100.0), compensate=True, seed=5),
    "case A (uncompensated)": ScenarioConfig(
        case="A", field=FieldConfig(1.0),
        window=SpectralWindow(100.0), compensate=False, seed=5),
    "case B (synchronized)": ScenarioConfig(
        case="B", field=FieldConfig(1.0),
        window=SpectralWindow(100.0), hadamard_time_ns=tau, seed=5),
    "degenerate (no splitting)": ScenarioConfig(
        case="degenerate", field=FieldConfig(0.0),
        window=None, seed=5),
    "case A + realistic noise": ScenarioConfig(
        case="A", field=FieldConfig(1.0),
        window=SpectralWindow(100.0), compensate=True,
        noise=NoiseModel(transport_time_ns=10.0),
        chain=ChainParams(gate_error=0.001),
        storage_time_ns=5e4, seed=5),
}

print(f"{'scenario':32s} {'round trip':>10s} {'Haar mean':>16s} "
      f"{'success':>9s} {'proc fid':>9s}")
for name, cfg in scenarios.items():
    e2e = run_end_to_end(PLUS, cfg)
    mc = monte_carlo_average_fidelity(cfg, 5000)
    tomo = process_tomography(cfg)
    print(f"{name:32s} {e2e.round_trip_fidelity:10.6f} "
          f"{mc.mean_fidelity:9.6f}±{mc.stderr:.4f} "
          f"{mc.success_probability:9.6f} {tomo.process_fidelity:9.6f}")

print()
print("The degenerate channel is a classical measure-and-prepare map: Haar")
print("mean 2/3, process fidelity 1/2.  Both split schemes hit 1 exactly")
print("when ideal, and degrade only through the explicit noise knobs.")
print()

print("=== per-stage budget for the noisy case A run ===")
res = run_end_to_end(PLUS, scenarios["case A + realistic noise"])
for st in res.stages:
    print(f"  {st.name:15s} fidelity={st.fidelity:.6f} success={st.success:.6f}")
print()

print("=== emitter dot constraints ===")
for label, dot in [
    ("50 nm dot at 4 K", DotConstraints(1e-17, 1e5, 2000.0, 4.0)),
    ("large dot at 4 K", DotConstraints(1e-15, 1e5, 50.0, 4.0)),
    ("leaky barrier", DotConstraints(1e-17, 2e4, 2000.0, 4.0)),
]:
    rep = dot_constraint_check(dot)
    verdict = "OK" if rep.all_ok else "violates single-electron conditions"
    print(f"  {label:18s}: charging {rep.charging_ok}, confinement "
          f"{rep.confinement_ok}, resistance {rep.resistance_ok} -> {verdict}")
