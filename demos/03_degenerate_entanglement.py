"""The failure mode the whole scheme is built to avoid: absorption in a
DEGENERATE valence band entangles the electron with the hole it leaves
behind, and the qubit dies when the hole decoheres.

Compare: the split schemes leave the hole in one known level (purity 1),
so the electron carries the full qubit.
"""

import math

import numpy as np

from polspin import (FieldConfig, INAS_GAAS_QW, build_level_scheme,
                     entanglement_entropy, purity)
from polspin.transfer import (CIRCULAR, LINEAR_ZX, PhotonQubit,
                              absorb_case_a, absorb_case_b, absorb_degenerate)

print("=== degenerate valence band (plain GaAs) ===")
print(f"{'|alpha|^2':>10s} {'entropy/bits':>13s} {'hole purity':>12s}")
for p in (1.0, 0.9, 0.75, 0.5):
    a, b = math.sqrt(p), math.sqrt(1 - p)
    out = absorb_degenerate(PhotonQubit(CIRCULAR, a, b))
    ent = max(entanglement_entropy(out.amplitudes), 0.0)
    pur = purity(out.hole_state())
    print(f"{p:10.2f} {ent:13.6f} {pur:12.6f}")

print()
print("An equal superposition leaves a FULL bit of entanglement behind.")
print("Trace the hole out and the stored electron is maximally mixed:")
out = absorb_degenerate(PhotonQubit(CIRCULAR, 2 ** -0.5, 2 ** -0.5))
print(np.round(out.electron_state(), 6))
print()

print("=== split schemes: the hole factors out ===")
scheme_a = build_level_scheme(INAS_GAAS_QW, FieldConfig(1.0, "normal"))
scheme_b = build_level_scheme(INAS_GAAS_QW, FieldConfig(1.0, "inplane"))
rng = np.random.default_rng(1)
worst_a, worst_b = 1.0, 1.0
for _ in range(300):
    z = rng.standard_normal(4)
    v = np.array([z[0] + 1j * z[1], z[2] + 1j * z[3]])
    v /= np.linalg.norm(v)
    out_a = absorb_case_a(PhotonQubit(LINEAR_ZX, v[0], v[1]), scheme_a,
                          compensate=True)
    out_b = absorb_case_b(PhotonQubit(CIRCULAR, v[0], v[1]), scheme_b)
    worst_a = min(worst_a, purity(out_a.hole_state()))
    worst_b = min(worst_b, purity(out_b.hole_state()))
print(f"worst hole purity over 300 random qubits: case A {worst_a:.12f}, "
      f"case B {worst_b:.12f}")
print()
print("No information is carried away by the hole; sweeping it out is then")
print("harmless and the electron spin holds the photon's qubit.")
