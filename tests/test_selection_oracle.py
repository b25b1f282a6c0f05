"""The selection rules against an oracle that shares nothing with
`transfer.ls_table`: the J=3/2 quartet written out as a literal
Luttinger-Kohn table over the Cartesian orbitals |X>, |Y>, |Z> and the
spin (S. L. Chuang, *Physics of Optoelectronic Devices*, Condon-Shortley
phases):

    |3/2, +3/2> = -(X + iY)↑ / √2
    |3/2, +1/2> = -[(X + iY)↓ - 2Z↑] / √6
    |3/2, -1/2> =  [(X - iY)↑ + 2Z↓] / √6
    |3/2, -3/2> =  (X - iY)↓ / √2

The conduction state is |S, s>, and <orbital|r|S> is the orbital's unit
vector with the spin kept, so a valence electron in |v> recombines with a
conduction spin s through the dipole <v|r|S s>, the complex conjugate of
the Cartesian vector of v's spin-s part, and a photon of polarization ε
lifts it into S s with the amplitude <S s|ε·r|v>, ε dotted into that
Cartesian vector.

Emission is checked, and absorption through the circular channels.  Case
A's linear absorption channels carry a known disagreement with these
vectors and are left out."""

import math
from dataclasses import replace

import numpy as np
import pytest

from polspin.bands import (CASE_A, CASE_B, DEGENERATE, FieldConfig,
                           INAS_GAAS_QW, MaterialParams, build_level_scheme,
                           degenerate_scheme)
from polspin.transfer import (_CANONICAL_EMISSIONS, _RECOMBINING_HOLES,
                              _canonical_schemes, _dipole_blocks,
                              _emission_key, branch_dipole_vectors,
                              emission_map, ls_table)

_S2, _S6 = 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(6.0)
X, Y, Z = np.eye(3)
_ZERO = np.zeros(3)


def _ket(down, up):
    """A quartet state's (3, 2) table: row the Cartesian orbital, column
    the spin (↓, ↑)."""
    return np.column_stack([down, up]).astype(complex)


# LUTTINGER_KOHN[mJ index] for mJ = -3/2, -1/2, +1/2, +3/2
LUTTINGER_KOHN = np.array([
    _ket(_S2 * (X - 1j * Y), _ZERO),
    _ket(2 * _S6 * Z, _S6 * (X - 1j * Y)),
    _ket(-_S6 * (X + 1j * Y), 2 * _S6 * Z),
    _ket(_ZERO, -_S2 * (X + 1j * Y)),
])

# the p orbitals |1, mL> in Cartesian form, mL = -1, 0, +1
P_ORBITALS = np.array([_S2 * (X - 1j * Y), Z, -_S2 * (X + 1j * Y)])

# a rotation by π about the growth axis G = +z
ROTATE_PI_ABOUT_G = np.diag([-1.0, -1.0, 1.0])


def _oracle_dipoles(scheme):
    """The rows (d_down, d_up) of <v|r|S s> for each spin s and the hole v
    it recombines with."""
    return np.array([
        np.conj(scheme.valence_levels[hole].state @ LUTTINGER_KOHN[:, :, s])
        for s, hole in enumerate(_RECOMBINING_HOLES[scheme.case])])


def _schemes():
    """The scheme behind every table entry, and split schemes at other
    fields, strains and g-factor signs."""
    others = [build_level_scheme(case, MaterialParams(
        g_cb=g_cb, g_lh=g_lh, strain_splitting_uev=strain), FieldConfig(b))
        for case in (CASE_A, CASE_B)
        for g_cb, g_lh, strain, b in ((0.4, 8.87, 2e4, 1.0),
                                      (-1.3, -2.5, 5e3, 7.0),
                                      (0.0, 0.0, 1e3, 0.0))]
    return _canonical_schemes() + others


def _one_constant(got, want):
    """got = c want for a single complex c, fitted by least squares;
    returns c and the largest residual."""
    c = np.vdot(want, got) / np.vdot(want, want)
    return c, float(np.max(np.abs(got - c * want)))


def test_luttinger_kohn_table_is_the_ls_content_of_the_quartet():
    """Projected on the p orbitals, the Cartesian table is the quartet's LS
    content <1 mL; 1/2 mS | 3/2 mJ>, ls_table's entries, to 1e-15; its four
    states are orthonormal."""
    content = np.einsum("lo,jos->jls", P_ORBITALS.conj(), LUTTINGER_KOHN)
    assert np.max(np.abs(content - ls_table())) < 1e-15
    flat = LUTTINGER_KOHN.reshape(4, 6)
    assert np.max(np.abs(flat.conj() @ flat.T - np.eye(4))) < 1e-15


@pytest.mark.parametrize("scheme", _schemes(),
                         ids=lambda s: f"{s.case}-{s.topmost_valence.label}")
def test_branch_dipoles_are_the_cartesian_dipoles_rotated_about_g(scheme):
    """branch_dipole_vectors is the Cartesian <v|r|S s>, both branches up
    to one constant per scheme, once rotated by π about G: `_E_ML` radiates
    each mL component along E_SPH[-mL] = (-1)^mL conj(E_SPH[mL]).  The
    rotation is a sign in the degenerate scheme and, for case B, about its
    canonical k; in case A it is a relative sign between the spin-down
    branch's in-plane dipole and the spin-up branch's z dipole."""
    d = branch_dipole_vectors(scheme)
    c, residual = _one_constant(d, _oracle_dipoles(scheme) @ ROTATE_PI_ABOUT_G)
    assert residual < 1e-15
    assert abs(abs(c) - 1.0) < 1e-15


@pytest.mark.parametrize("scheme", _canonical_schemes(),
                         ids=lambda s: f"{s.case}-{s.topmost_valence.label}")
def test_canonical_collection_fractions_from_cartesian_dipoles(scheme):
    """Each table entry's collection fractions, and emission_map's, are
    the share of each oracle dipole's power transverse to the canonical
    k, to 1e-15."""
    d = _oracle_dipoles(scheme)
    k = scheme.canonical_k / np.linalg.norm(scheme.canonical_k)
    along = np.abs(d @ k) ** 2
    want = 1.0 - along / np.sum(np.abs(d) ** 2, axis=1)
    _, fractions, _ = _CANONICAL_EMISSIONS[_emission_key(scheme)]
    assert np.max(np.abs(fractions - want)) < 1e-15
    assert np.array_equal(emission_map(scheme)[1], fractions)


def _te_tm(dipoles):
    """(TE, TM) band-edge strengths of a hole summed over the spins it
    couples: the power of the x and of the z component."""
    power = np.sum(np.abs(dipoles) ** 2, axis=0)
    return power[0], power[2]


def test_heavy_and_light_hole_te_tm_ratios():
    """Heavy hole TE : TM = 1/2 : 0, light hole 1/6 : 2/3, from the oracle
    and from branch_dipole_vectors: the degenerate scheme's branches each
    fall into one heavy hole, and a case A scheme's two branches into its
    topmost light hole, for either light hole on top."""
    for mj in range(4):
        want = (0.5, 0.0) if mj in (0, 3) else (1 / 6, 2 / 3)
        got = _te_tm(np.conj(LUTTINGER_KOHN[mj].T))
        assert np.max(np.abs(np.subtract(got, want))) < 1e-15, mj
    d = branch_dipole_vectors(degenerate_scheme())
    for branch in d:
        assert np.max(np.abs(np.subtract(_te_tm(branch[None]),
                                         (0.5, 0.0)))) < 1e-15
    for g_lh in (8.87, -8.87):
        scheme = build_level_scheme(
            CASE_A, replace(INAS_GAAS_QW, g_lh=g_lh), FieldConfig(1.0))
        got = _te_tm(branch_dipole_vectors(scheme))
        assert np.max(np.abs(np.subtract(got, (1 / 6, 2 / 3)))) < 1e-15


def _circular_vectors(k):
    """(σ+, σ−) along the unit vector of k: ε± = ∓(x̂ ± i ŷ′)/√2 with
    ŷ′ = k̂ × x̂, so that σ± carries ±1 unit of angular momentum along k.
    Both canonical k's are normal to x̂, which fixes the phase between
    the two."""
    k = np.asarray(k, dtype=float) / np.linalg.norm(k)
    y = np.cross(k, X)
    return np.array([-_S2 * (X + 1j * y), _S2 * (X - 1j * y)])


def _circular_schemes():
    """Every scheme absorbing circular light, with the levels to check:
    all four of case B, for either light hole on top, and the degenerate
    scheme's two heavy holes."""
    split = [build_level_scheme(CASE_B, replace(INAS_GAAS_QW, g_lh=g_lh),
                                FieldConfig(1.0)) for g_lh in (8.87, -8.87)]
    degenerate = degenerate_scheme()
    return ([(s, s.valence_levels) for s in split]
            + [(degenerate, [degenerate.valence_levels[i]
                             for i in _RECOMBINING_HOLES[DEGENERATE]])])


@pytest.mark.parametrize("scheme,levels", _circular_schemes(),
                         ids=["B-positive-g_lh", "B-negative-g_lh",
                              "degenerate"])
def test_circular_absorption_blocks_are_the_cartesian_amplitudes(scheme,
                                                                 levels):
    """Each level's block D[s, p] of `_dipole_blocks`, for σ± along the
    scheme's canonical k, is the oracle amplitude <S s|ε_p·r|v> of that
    level, every block of the scheme up to one constant of modulus 1, to
    1e-15."""
    eps = _circular_vectors(scheme.canonical_k)
    states = np.array([lv.state for lv in levels])
    want = np.einsum("vj,jis,pi->vsp", states, LUTTINGER_KOHN, eps)
    got = np.array(_dipole_blocks(states, ("sigma_plus", "sigma_minus"),
                                  int(np.sign(scheme.canonical_k[2]))))
    c, residual = _one_constant(got, want)
    assert residual < 1e-15
    assert abs(abs(c) - 1.0) < 1e-15
