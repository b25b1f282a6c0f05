"""Level engineering: strain plus Zeeman splitting, and the spectral window
that selects a single initial valence state.

The key inequality: photon bandwidth ABOVE the conduction splitting (both
electron spins reachable) but BELOW the valence splitting (one hole level
selected).  The g-factor contrast g_lh/g_cb = 8.87/0.4 makes a wide window
of workable bandwidths.
"""

import numpy as np

from polspin import (FieldConfig, INAS_GAAS_QW, SpectralWindow,
                     build_level_scheme, precession_period,
                     resolvability_check, zeeman_splitting)

B = 1.0
print(f"material: {INAS_GAAS_QW.name}  (g_cb={INAS_GAAS_QW.g_cb}, "
      f"g_lh={INAS_GAAS_QW.g_lh})")
print(f"field: {B} T")
print()
print(f"valence Zeeman splitting:    {zeeman_splitting(INAS_GAAS_QW.g_lh, B):10.3f} ueV")
print(f"conduction Zeeman splitting: {zeeman_splitting(INAS_GAAS_QW.g_cb, B):10.3f} ueV")
print(f"electron precession period:  {precession_period(INAS_GAAS_QW.g_cb, B):10.5f} ns")
print()

for orientation, case in (("normal", "A"), ("inplane", "B")):
    scheme = build_level_scheme(case, INAS_GAAS_QW, FieldConfig(B))
    print(f"=== case {case}: B {orientation} ===")
    for lv in scheme.valence_levels + scheme.conduction_levels:
        print(f"  {lv.band:11s} {lv.label:12s} {lv.energy_uev:+12.4f} ueV")
    print(f"  topmost valence level: {scheme.topmost_valence.label}")
    print()

print("=== scanning the photon bandwidth ===")
print(f"{'bandwidth':>10s} {'valence ok':>11s} {'conduction ok':>14s}")
for bw in (5.0, 10.0, 23.2, 100.0, 300.0, 513.0, 600.0):
    rep = resolvability_check(SpectralWindow(bw), INAS_GAAS_QW,
                              FieldConfig(B))
    print(f"{bw:10.1f} {str(rep.valence_resolved):>11s} "
          f"{str(rep.conduction_unresolved):>14s}")
print()
print("Anything between ~23 and ~513 ueV works at 1 T; 100 ueV sits")
print("comfortably inside and leaks < 1e-3 through the wrong level.")
