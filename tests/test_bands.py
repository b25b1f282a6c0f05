import math
import re

import numpy as np
import pytest

from polspin.bands import (CASE_A, CASE_B, COMPRESSIVE, DEGENERATE,
                           FieldConfig, INAS_GAAS_QW, MaterialParams,
                           SpectralWindow, build_level_scheme,
                           conduction_eigenstates, degenerate_scheme,
                           precession_period, resolvability_check,
                           valence_eigenstates, zeeman_splitting)
from polspin.constants import HBAR_UEV_NS, MU_B_UEV_PER_T
from polspin.errors import HeavyHoleTopmost, NoPrecession

SQ2 = 1.0 / math.sqrt(2.0)

COMPRESSIVE_MAT = MaterialParams(
    name="compressive-test", g_cb=0.4, g_lh=8.87, g_hh_normal=1.0,
    strain_splitting_uev=20_000.0, strain_sign=COMPRESSIVE)


def test_zeeman_values():
    assert zeeman_splitting(8.87, 1.0) == pytest.approx(8.87 * MU_B_UEV_PER_T, rel=1e-15)
    assert zeeman_splitting(8.87, 1.0) == pytest.approx(513.43, abs=5e-3)
    assert zeeman_splitting(0.4, 1.0) == pytest.approx(23.154, abs=5e-4)
    assert zeeman_splitting(3.3, 0.0) == 0.0
    # a finite field whose energy overflows is refused, naming g and B
    for g, b in ((8.87, 1e307), (-8.87, 1e307), (1e300, 1e10)):
        with pytest.raises(ValueError, match=re.escape(f"g = {g!r} at B = {b!r} T")):
            zeeman_splitting(g, b)


def test_zeeman_linear():
    rng = np.random.default_rng(1)
    for _ in range(20):
        g, b, s = rng.uniform(0.1, 10, 3)
        assert zeeman_splitting(s * g, b) == pytest.approx(
            s * zeeman_splitting(g, b), rel=1e-12)
        assert zeeman_splitting(g, s * b) == pytest.approx(
            s * zeeman_splitting(g, b), rel=1e-12)


def test_precession_period_value():
    # constants-table oracle
    want = 2.0 * math.pi * HBAR_UEV_NS / (0.4 * MU_B_UEV_PER_T * 1.0)
    assert precession_period(0.4, 1.0) == pytest.approx(want, abs=1e-15)
    assert precession_period(0.4, 1.0) == pytest.approx(0.17862, abs=1e-5)
    assert precession_period(0.4, 0.1) == pytest.approx(10 * want, rel=1e-12)


def test_precession_scaling_and_errors():
    assert precession_period(0.4, 2.0) == pytest.approx(
        precession_period(0.4, 1.0) / 2, rel=1e-12)
    with pytest.raises(NoPrecession):
        precession_period(0.4, 0.0)
    with pytest.raises(NoPrecession):
        precession_period(0.0, 1.0)


def test_period_splitting_consistency():
    rng = np.random.default_rng(2)
    for _ in range(100):
        g, b = rng.uniform(0.05, 12), rng.uniform(0.01, 8)
        prod = precession_period(g, b) * zeeman_splitting(g, b)
        assert prod == pytest.approx(2 * math.pi * HBAR_UEV_NS, rel=1e-12)


def test_level_scheme_case_a():
    scheme = build_level_scheme(CASE_A, INAS_GAAS_QW, FieldConfig(1.0))
    assert scheme.case == CASE_A
    assert scheme.valence_splitting_uev == pytest.approx(
        zeeman_splitting(8.87, 1.0), rel=1e-12)
    assert scheme.conduction_splitting_uev == pytest.approx(
        zeeman_splitting(0.4, 1.0), rel=1e-12)
    assert scheme.topmost_valence.label == "lh mJ=+1/2"
    # heavy holes sit a strain splitting below
    hh = [lv for lv in scheme.valence_levels if lv.label.startswith("hh")]
    assert all(lv.energy_uev < -19_000 for lv in hh)


def test_level_scheme_gaps_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        g_lh, g_cb, b = rng.uniform(1, 12), rng.uniform(0.05, 2), rng.uniform(0.01, 5)
        mat = MaterialParams(name="m", g_cb=g_cb, g_lh=g_lh, g_hh_normal=1.0,
                             strain_splitting_uev=20_000.0)
        for case in (CASE_A, CASE_B):
            scheme = build_level_scheme(case, mat, FieldConfig(b))
            assert scheme.valence_splitting_uev == pytest.approx(
                zeeman_splitting(g_lh, b), rel=1e-12)
            assert scheme.conduction_splitting_uev == pytest.approx(
                zeeman_splitting(g_cb, b), rel=1e-12)


def test_valence_splitting_is_the_light_hole_gap():
    """A small strain splitting puts a heavy hole between the light holes;
    the valence splitting stays the gap between the light holes."""
    mat = MaterialParams(name="low-strain", g_cb=0.4, g_lh=8.87,
                         strain_splitting_uev=100.0)
    for case in (CASE_A, CASE_B):
        scheme = build_level_scheme(case, mat, FieldConfig(1.0))
        lower, upper = scheme.light_hole_levels
        assert [lv.label[:2] for lv in (lower, upper)] == ["lh", "lh"]
        assert lower.energy_uev < upper.energy_uev
        assert scheme.valence_splitting_uev == pytest.approx(
            zeeman_splitting(8.87, 1.0), rel=1e-12)
    # case A: a heavy hole lies between the two light-hole levels
    labels = [lv.label[:2] for lv in build_level_scheme(
        CASE_A, mat, FieldConfig(1.0)).valence_levels]
    assert labels == ["lh", "hh", "hh", "lh"]


def _conduction_hamiltonian(g_cb, b_tesla, case):
    """g_cb µB B S·b̂ in the (mS=-1/2, mS=+1/2) basis: b̂ = +z for case A's
    normal field, +x for case B's in-plane one."""
    sigma = (np.diag([-1.0, 1.0]) if case == CASE_A
             else np.array([[0.0, 1.0], [1.0, 0.0]]))
    return 0.5 * g_cb * MU_B_UEV_PER_T * b_tesla * sigma.astype(complex)


@pytest.mark.parametrize("g_cb", [0.4, -0.4, 1.7, -2.3])
@pytest.mark.parametrize("case", [CASE_A, CASE_B])
def test_conduction_levels_ascend_and_match_hamiltonian(g_cb, case):
    """Whatever the sign of g_cb the conduction levels ascend, and the
    eigenbasis matrix holds the (lower, upper) eigenvectors of H_c."""
    mat = MaterialParams(name="m", g_cb=g_cb, g_lh=8.87,
                         strain_splitting_uev=20_000.0)
    scheme = build_level_scheme(case, mat, FieldConfig(0.8))
    energies = [lv.energy_uev for lv in scheme.conduction_levels]
    assert energies[0] < energies[1]
    assert scheme.conduction_splitting_uev == pytest.approx(
        abs(zeeman_splitting(g_cb, 0.8)), rel=1e-12)
    values, vectors = np.linalg.eigh(_conduction_hamiltonian(g_cb, 0.8, case))
    assert np.allclose(energies, values, rtol=0, atol=1e-12)
    u = scheme.eigenbasis
    # each column is its numpy eigenvector up to a phase
    overlaps = np.abs(np.diag(vectors.conj().T @ u))
    assert np.allclose(overlaps, 1.0, rtol=0, atol=1e-12)


def test_level_scheme_case_b_zero_field_degenerate():
    scheme = build_level_scheme(CASE_B, INAS_GAAS_QW, FieldConfig(0.0))
    assert scheme.valence_splitting_uev == 0.0
    assert scheme.conduction_splitting_uev == 0.0


def test_compressive_rejected():
    with pytest.raises(HeavyHoleTopmost):
        build_level_scheme(CASE_B, COMPRESSIVE_MAT, FieldConfig(1.0))
    with pytest.raises(HeavyHoleTopmost):
        build_level_scheme(CASE_A, COMPRESSIVE_MAT, FieldConfig(1.0))


def test_split_scheme_refuses_another_case():
    with pytest.raises(ValueError, match="case A or B, not 'degenerate'"):
        build_level_scheme(DEGENERATE, INAS_GAAS_QW, FieldConfig(1.0))


def test_valence_eigenstates_inplane():
    psi_plus, psi_minus = valence_eigenstates(CASE_B)
    assert np.allclose(psi_plus, [SQ2, SQ2], atol=1e-12)
    assert np.allclose(psi_minus, [SQ2, -SQ2], atol=1e-12)
    assert abs(np.vdot(psi_plus, psi_minus)) < 1e-12


def test_valence_eigenstates_normal_are_mj_states():
    lo, hi = valence_eigenstates(CASE_A)
    assert np.allclose(lo, [1, 0]) and np.allclose(hi, [0, 1])


def test_conduction_eigenstates():
    zero, one = conduction_eigenstates(CASE_B)
    # |0> = (|mS=-1/2> - |mS=+1/2>)/sqrt2 in the (-1/2, +1/2) ordering
    assert np.allclose(zero, [SQ2, -SQ2], atol=1e-12)
    assert np.allclose(one, [SQ2, SQ2], atol=1e-12)
    assert abs(np.vdot(zero, one)) < 1e-12
    down, up = conduction_eigenstates(CASE_A)
    assert np.allclose(down, [1, 0]) and np.allclose(up, [0, 1])


def test_eigenstate_orthonormality_both_orientations():
    for case in (CASE_A, CASE_B):
        for pair in (valence_eigenstates(case), conduction_eigenstates(case)):
            a, b = pair
            assert abs(np.vdot(a, a) - 1) < 1e-12
            assert abs(np.vdot(b, b) - 1) < 1e-12
            assert abs(np.vdot(a, b)) < 1e-12


def test_heavy_hole_inplane_splitting_zero():
    for b in (0.1, 1.0, 5.0):
        scheme = build_level_scheme(CASE_B, INAS_GAAS_QW, FieldConfig(b))
        hh = [lv for lv in scheme.valence_levels if lv.label.startswith("hh")]
        assert hh[0].energy_uev == hh[1].energy_uev


def test_degenerate_scheme_levels():
    scheme = degenerate_scheme()
    assert len(scheme.valence_levels) == 4
    assert all(lv.energy_uev == 0.0 for lv in scheme.valence_levels)


def test_resolvability_pass():
    rep = resolvability_check(SpectralWindow(100.0), INAS_GAAS_QW,
                              FieldConfig(1.0))
    assert rep.valence_resolved and rep.conduction_unresolved
    assert rep.window_within_strain and rep.ok
    assert rep.valence_margin_uev == pytest.approx(
        zeeman_splitting(8.87, 1.0) - 100.0, rel=1e-12)
    assert rep.conduction_margin_uev == pytest.approx(
        100.0 - zeeman_splitting(0.4, 1.0), rel=1e-12)


def test_resolvability_wide_window_fails_valence():
    rep = resolvability_check(SpectralWindow(600.0), INAS_GAAS_QW,
                              FieldConfig(1.0))
    assert not rep.valence_resolved
    assert rep.conduction_unresolved


def test_resolvability_narrow_window_fails_conduction():
    rep = resolvability_check(SpectralWindow(10.0), INAS_GAAS_QW,
                              FieldConfig(1.0))
    assert rep.valence_resolved
    assert not rep.conduction_unresolved


def test_window_lineshapes():
    gw = SpectralWindow(100.0)
    assert gw.amplitude(0.0) == pytest.approx(1.0, abs=1e-15)
    assert gw.amplitude(50.0) == pytest.approx(0.5, abs=1e-12)   # half at FWHM/2
    lw = SpectralWindow(100.0, lineshape="lorentzian")
    assert lw.amplitude(50.0) == pytest.approx(0.5, abs=1e-12)
    assert lw.amplitude(500.0) > gw.amplitude(500.0)   # heavier tails
    # far outside the window, or for a vanishing bandwidth, the squared
    # ratio goes to inf and the amplitude to 0 rather than overflowing
    for window, offset in ((gw, 1e300), (lw, -1e300),
                           (SpectralWindow(1e-300), 1.0),
                           (SpectralWindow(1e-300, lineshape="lorentzian"), 1.0)):
        assert window.amplitude(offset) == 0.0


def test_materials_catalog_roundtrip():
    """A config's material entry, with the unit-suffixed fields of a
    catalog entry, reaches the level scheme."""
    from polspin.cli import config_from_dict
    entry = {"name": "wide-well", "g_cb": 0.25, "g_lh": 6.1,
             "strain_splitting_ueV": 15000.0, "strain_sign": "tensile"}
    cfg = config_from_dict({"material": entry, "field": {"b_tesla": 0.5}})
    assert (cfg.material.name, cfg.material.g_lh) == ("wide-well", 6.1)
    scheme = build_level_scheme(CASE_A, cfg.material, cfg.field)
    assert scheme.valence_splitting_uev == pytest.approx(
        zeeman_splitting(6.1, 0.5), rel=1e-12)


def test_material_validation():
    with pytest.raises(ValueError):
        MaterialParams(name="bad", g_cb=0.4, g_lh=8.87, g_hh_normal=1.0,
                       strain_splitting_uev=-1.0)
    with pytest.raises(ValueError):
        MaterialParams(name="bad", g_cb=0.4, g_lh=8.87, g_hh_normal=1.0,
                       strain_splitting_uev=2e4, strain_sign="sheared")
