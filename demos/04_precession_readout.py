"""Case B dynamics: the absorbed spin states are not eigenstates of the
in-plane field, so they precess.  A readout rotation timed at a whole
number of Larmor periods parks the qubit in the stationary eigenbasis.
"""

import numpy as np

from polspin import (FieldConfig, INAS_GAAS_QW, build_level_scheme,
                     precession_period)
from polspin.transfer import (HADAMARD, PhotonQubit, absorb_case_b,
                              precession_unitary)

scheme = build_level_scheme("B", INAS_GAAS_QW, FieldConfig(1.0))
tau = precession_period(INAS_GAAS_QW.g_cb, 1.0)
print(f"precession period at 1 T: tau = {tau:.5f} ns")
print()

# a sigma+ photon creates a spin-down electron, which precesses
out = absorb_case_b(PhotonQubit(1.0, 0.0), scheme)
st = out.amplitudes[:, 0]
print("spin-down population while precessing (sigma+ excitation):")
for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
    evolved = precession_unitary(scheme, frac * tau) @ st
    pop = abs(evolved[0]) ** 2
    print(f"  t = {frac:4.2f} tau : P(mS=-1/2) = {pop:.6f}")
print()

print("readout fidelity vs timing (input qubit (1, 0)):")
q = np.array([1.0, 0.0])
for frac in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 2.0, 5.0):
    stored = (HADAMARD @ precession_unitary(scheme, frac * tau)) @ st
    logical = HADAMARD @ stored
    fid = abs(np.vdot(q, logical)) ** 2
    tag = "  <- synchronized" if abs(frac - round(frac)) < 1e-9 else ""
    print(f"  t = {frac:4.2f} tau : fidelity = {fid:.6f}{tag}")
print()
print("Timed at n·tau the rotation maps the precessing pair exactly onto")
print("the field eigenstates; the qubit is then stationary and ready to")
print("shuttle into the storage chain.  Mistiming costs fidelity smoothly,")
print("down to 0.5 at a quarter period for a basis-state input.")
