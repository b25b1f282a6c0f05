"""Why a split valence band lets light write a qubit onto a spin.

Reads the one selection-rule table that the absorption and emission
stages read, `transfer.ls_table`: the LS content of the J=3/2 valence
quartet, the per-polarization dipole amplitudes, and the sqrt(2) imbalance
that the compensation prefilter removes.
"""

import math

import numpy as np

from polspin.transfer import dipole_matrix_element, ls_table

TABLE = ls_table()   # C[mJ, mL, mS]: mJ -3/2..+3/2, mL -1..1, mS -1/2, +1/2


def ls_terms(m):
    """(coefficient, mL, mS) of each non-zero LS component of quartet state m."""
    return [(float(TABLE[m, i, j]), ml, ms)
            for i, ml in enumerate((-1, 0, 1)) for j, ms in enumerate((-0.5, 0.5))
            if TABLE[m, i, j] != 0.0]


print("=== the four J=3/2 valence states in the |mL, mS> basis ===")
for m, mj in enumerate((-1.5, -0.5, 0.5, 1.5)):
    pretty = " + ".join(f"{c:+.4f}|mL={ml}, mS={ms:+.1f}>" for c, ml, ms in ls_terms(m))
    print(f"  |3/2, {mj:+.1f}>  =  {pretty}")

print()
print("The topmost light-hole state |3/2, +1/2> mixes two spin components,")
print("weighted sqrt(2/3) and sqrt(1/3); that is what lets two photon")
print("polarizations reach two electron spins from ONE hole state.")
print()

lh_up = np.array([0.0, 0.0, 1.0, 0.0])   # |3/2, +1/2> as quartet amplitudes

print("=== dipole amplitudes out of |3/2, +1/2> ===")
for pol in ("z", "x"):
    for ms, label in ((+0.5, "mS=+1/2"), (-0.5, "mS=-1/2")):
        amp = dipole_matrix_element(lh_up, ms, pol)
        print(f"  {pol}-polarized -> {label}: {amp:+.6f}")

a_z = dipole_matrix_element(lh_up, +0.5, "z")
a_x = dipole_matrix_element(lh_up, -0.5, "x")
print()
print(f"z/x amplitude ratio: {a_z / a_x:.12f}  (sqrt(2) = {math.sqrt(2):.12f})")
print("Each polarization feeds exactly one spin - the selection rules are")
print("exclusive - but with unequal strength.  Case A must compensate this;")
print("an in-plane field (case B) avoids it altogether.")
print()

print("=== why heavy holes cannot do this ===")
print("  |3/2, +3/2> =", [(round(c, 4), (ml, ms)) for c, ml, ms in ls_terms(3)])
print("  A single spin component: circular light reaches one spin only,")
print("  so no superposition can be written from a heavy-hole level.")
