"""Strain- and Zeeman-split level schemes and spectral-selection checks.

Geometry convention used package-wide: the growth direction G is +z, and
the case fixes the field's orientation.  Case A (B ∥ G, the "normal" field)
keeps mJ/mS eigenstates; case B (B ⊥ G, an "inplane" field taken along +x)
turns the eigenstates into the symmetric/antisymmetric combinations psi±
(valence) and |0>,|1> (conduction).

Energies are stored in µeV relative to each band's unsplit edge; only
Zeeman and strain splittings matter here, never the absolute gap.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR_UEV_NS, MU_B_UEV_PER_T
from .errors import HeavyHoleTopmost, NoPrecession

TENSILE = "tensile"
COMPRESSIVE = "compressive"

CASE_A = "A"
CASE_B = "B"
DEGENERATE = "degenerate"

GAUSSIAN = "gaussian"
LORENTZIAN = "lorentzian"


@dataclass(frozen=True, kw_only=True)
class MaterialParams:
    """Catalog entry for one heterostructure configuration.

    g-factors are inputs, not computed: g_cb=0.4 and g_lh=8.87 describe an
    InAs/GaAs quantum well.  The in-plane heavy-hole g-factor is identically
    zero (the parallel component of the heavy-hole g-tensor vanishes), so it
    is not a parameter.  strain_splitting is a free catalog parameter.
    """

    name: str = "custom"
    g_cb: float
    g_lh: float
    g_hh_normal: float = 1.0
    strain_splitting_uev: float
    strain_sign: str = TENSILE

    def __post_init__(self):
        for name in ("g_cb", "g_lh", "g_hh_normal", "strain_splitting_uev"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, "
                                 f"got {getattr(self, name)!r}")
        if self.strain_splitting_uev <= 0:
            raise ValueError("strain_splitting must be positive")
        if self.strain_sign not in (TENSILE, COMPRESSIVE):
            raise ValueError(f"unknown strain sign {self.strain_sign!r}")


# 10-nm InAs/GaAs quantum well; strain splitting is a configurable default
# with no single authoritative value, 20 meV keeps it far outside any
# realistic photon bandwidth.
INAS_GAAS_QW = MaterialParams(
    name="InAs/GaAs-QW",
    g_cb=0.4,
    g_lh=8.87,
    g_hh_normal=1.0,
    strain_splitting_uev=20_000.0,
    strain_sign=TENSILE,
)


@dataclass(frozen=True)
class FieldConfig:
    """Static magnetic field: its magnitude in tesla.  The case fixes its
    orientation: along G in case A, in the surface plane in case B."""

    b_tesla: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.b_tesla) and self.b_tesla >= 0):
            raise ValueError("b_tesla must be finite and non-negative, "
                             f"got {self.b_tesla!r}")


@dataclass(frozen=True)
class SpectralWindow:
    """Photon spectral profile: FWHM bandwidth around a centre offset.

    center_offset_uev is measured from the nominal transition (topmost
    valence level to the conduction-doublet midpoint); 0 means centred.
    """

    bandwidth_uev: float
    center_offset_uev: float = 0.0
    lineshape: str = GAUSSIAN

    def __post_init__(self):
        for name in ("bandwidth_uev", "center_offset_uev"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, "
                                 f"got {getattr(self, name)!r}")
        if self.bandwidth_uev <= 0:
            raise ValueError("bandwidth must be positive")
        if self.lineshape not in (GAUSSIAN, LORENTZIAN):
            raise ValueError(f"unknown lineshape {self.lineshape!r}")

    def amplitude(self, offset_uev: float) -> float:
        """Lineshape amplitude at a transition offset; peak value 1, half
        value at ±bandwidth/2."""
        r = (offset_uev - self.center_offset_uev) / self.bandwidth_uev
        # far outside the window r * r goes to inf and the amplitude to 0,
        # where r ** 2 would raise OverflowError
        if self.lineshape == GAUSSIAN:
            return math.exp(-4.0 * math.log(2.0) * (r * r))
        return 1.0 / (1.0 + 4.0 * r * r)


@dataclass(frozen=True)
class Level:
    """One energy level of a scheme: band, human label, basis state, energy."""

    band: str
    label: str
    # valence: amplitudes in the J=3/2 quartet (mJ=-3/2, -1/2, +1/2, +3/2);
    # conduction: in (mS=-1/2, mS=+1/2)
    state: np.ndarray
    energy_uev: float


@dataclass(frozen=True)
class BandScheme:
    """Ordered level scheme for one material + field configuration."""

    case: str
    field: FieldConfig
    valence_levels: tuple[Level, ...]      # sorted ascending in energy
    conduction_levels: tuple[Level, ...]   # sorted ascending in energy
    canonical_k: np.ndarray
    # columns: the conduction eigenstates (lower, upper), mS coordinates;
    # read-only, one matrix per case and order (`_EIGENBASES`)
    eigenbasis: np.ndarray = dataclasses.field(repr=False, compare=False)

    @property
    def topmost_valence(self) -> Level:
        return self.valence_levels[-1]

    @property
    def light_hole_levels(self) -> tuple[Level, ...]:
        """The two levels with no heavy-hole (mJ = ±3/2) weight, ascending
        in energy."""
        return tuple(lv for lv in self.valence_levels
                     if lv.state[0] == 0 and lv.state[3] == 0)

    @property
    def valence_splitting_uev(self) -> float:
        """The gap between the two light-hole levels, whatever lies between
        them."""
        lower, upper = self.light_hole_levels
        return upper.energy_uev - lower.energy_uev

    @property
    def conduction_splitting_uev(self) -> float:
        return (self.conduction_levels[-1].energy_uev
                - self.conduction_levels[0].energy_uev)


def zeeman_splitting(g: float, b_tesla: float) -> float:
    """Zeeman energy g·µB·B in µeV; linear in both arguments.  A field so
    large that the energy overflows is refused."""
    if b_tesla < 0:
        raise ValueError("B must be non-negative")
    energy = g * MU_B_UEV_PER_T * b_tesla
    if not math.isfinite(energy):
        raise ValueError(f"Zeeman energy of g = {g!r} at B = {b_tesla!r} T "
                         "overflows")
    return energy


def precession_period(g_cb: float, b_tesla: float) -> float:
    """Larmor period 2πħ/(|g|·µB·B) in ns: the sign of g orders the two
    levels, not the size of their splitting."""
    if g_cb == 0 or b_tesla == 0:
        raise NoPrecession("precession period requires g != 0 and B > 0")
    return 2.0 * math.pi * HBAR_UEV_NS / zeeman_splitting(abs(g_cb), b_tesla)


_SQ2 = 1.0 / math.sqrt(2.0)


def valence_eigenstates(case: str):
    """The two light-hole valence eigenstates of a case.

    Case B (in-plane field): the equal superpositions
    psi± = (|mJ=-1/2> ± |mJ=+1/2>)/√2.  Otherwise the mJ = ±1/2 basis
    states themselves.  Basis ordering is (mJ=-1/2, mJ=+1/2); a scheme's
    `Level.state` pads them into the J=3/2 quartet.
    """
    if case == CASE_B:
        return (np.array([_SQ2, _SQ2], dtype=complex),
                np.array([_SQ2, -_SQ2], dtype=complex))
    return (np.array([1.0, 0.0], dtype=complex),
            np.array([0.0, 1.0], dtype=complex))


def conduction_eigenstates(case: str):
    """Conduction spin eigenstates of a case, ordered (lower, upper) in
    energy for g_cb > 0; a negative g_cb swaps the order, which
    `build_level_scheme` sorts out.

    Basis ordering is (mS=-1/2, mS=+1/2).  Case B (in-plane field):
    |0> = (|mS=-1/2> - |mS=+1/2>)/√2 and |1> = (|mS=-1/2> + |mS=+1/2>)/√2.
    Otherwise the mS states.
    """
    if case == CASE_B:
        return (np.array([_SQ2, -_SQ2], dtype=complex),
                np.array([_SQ2, _SQ2], dtype=complex))
    return (np.array([1.0, 0.0], dtype=complex),
            np.array([0.0, 1.0], dtype=complex))


def _eigenbasis(case: str, swapped: bool) -> np.ndarray:
    lower, upper = conduction_eigenstates(case)[::-1 if swapped else 1]
    u = np.column_stack([lower, upper])
    u.flags.writeable = False
    return u


# The conduction eigenbasis of a scheme depends only on its case and on
# whether a negative g_cb swaps the two levels, so each is formed once.
_EIGENBASES = {(case, swapped): _eigenbasis(case, swapped)
               for case in (CASE_A, CASE_B, DEGENERATE)
               for swapped in (False, True)}


def build_level_scheme(case: str, material: MaterialParams,
                       field: FieldConfig) -> BandScheme:
    """Construct the level scheme of a split case, A (B ∥ G) or B (B ⊥ G).

    Tensile strain puts the light-hole doublet on top, split by g_lh·µB·B
    (mJ eigenstates in case A, psi± in case B), with the heavy holes a
    strain splitting below.  Conduction levels split by g_cb·µB·B.
    Compressive strain is rejected: a topmost heavy-hole band couples each
    circular polarization to a single spin only (case A) and has zero
    in-plane splitting (case B), so it cannot host the transfer.  So is a
    tensile strain too small for the field, which lifts a Zeeman-split
    heavy hole above the light-hole doublet.
    """
    if case not in (CASE_A, CASE_B):
        raise ValueError(f"a split level scheme is case A or B, not {case!r}")
    if material.strain_sign == COMPRESSIVE:
        raise HeavyHoleTopmost(
            "compressive strain puts the heavy-hole band on top; "
            "coherent transfer needs the light-hole band uppermost")
    dv = zeeman_splitting(material.g_lh, field.b_tesla)
    dc = zeeman_splitting(material.g_cb, field.b_tesla)
    dhh = zeeman_splitting(material.g_hh_normal if case == CASE_A else 0.0,
                           field.b_tesla)
    strain = material.strain_splitting_uev

    lo, hi = valence_eigenstates(case)
    c_lo, c_hi = conduction_eigenstates(case)
    if case == CASE_A:
        labels = ("lh mJ=-1/2", "lh mJ=+1/2", "cb mS=-1/2", "cb mS=+1/2")
        canonical_k = np.array([0.0, 1.0, 0.0])   # in-plane, k ⊥ G ∥ B
    else:
        lo, hi = hi, lo                            # psi- lies below psi+
        labels = ("lh psi-", "lh psi+", "cb |0>", "cb |1>")
        # k ∥ G ⊥ B; the -z orientation fixes which circular label couples
        # which spin (see transfer module)
        canonical_k = np.array([0.0, 0.0, -1.0])
    # quartet rows: the two heavy holes, then the light-hole doublet
    # padded into the J=3/2 quartet
    quartet = np.zeros((4, 4), dtype=complex)
    quartet[0, 0] = quartet[1, 3] = 1.0
    quartet[2:, 1:3] = lo, hi
    vlevels = sorted([
        Level("valence", "hh mJ=-3/2", quartet[0], -strain - dhh / 2.0),
        Level("valence", "hh mJ=+3/2", quartet[1], -strain + dhh / 2.0),
        Level("valence", labels[0], quartet[2], -dv / 2.0),
        Level("valence", labels[1], quartet[3], +dv / 2.0),
    ], key=lambda l: l.energy_uev)
    top = vlevels[-1]
    if top.state[0] or top.state[3]:
        raise HeavyHoleTopmost(
            f"{top.label} lies {top.energy_uev - abs(dv) / 2.0:.6g} ueV "
            "above the light-hole doublet at this field; coherent transfer "
            "needs the light-hole band uppermost")
    # a negative g_cb puts the second state below the first
    clevels = sorted([Level("conduction", labels[2], c_lo, -dc / 2.0),
                      Level("conduction", labels[3], c_hi, +dc / 2.0)],
                     key=lambda l: l.energy_uev)
    return BandScheme(case, field, tuple(vlevels), tuple(clevels), canonical_k,
                      _EIGENBASES[case, dc < 0])


def degenerate_scheme() -> BandScheme:
    """Unstrained, zero-field reference scheme: all four J=3/2 valence states
    degenerate at the band edge.  Models plain GaAs absorption, the
    configuration in which the photo-electron stays entangled with its hole.
    """
    basis = np.eye(4, dtype=complex)
    labels = ("mJ=-3/2", "mJ=-1/2", "mJ=+1/2", "mJ=+3/2")
    vlevels = tuple(Level("valence", f"vb {lab}", basis[i], 0.0)
                    for i, lab in enumerate(labels))
    cdown, cup = conduction_eigenstates(DEGENERATE)
    clevels = (
        Level("conduction", "cb mS=-1/2", cdown, 0.0),
        Level("conduction", "cb mS=+1/2", cup, 0.0),
    )
    return BandScheme(DEGENERATE, FieldConfig(0.0), vlevels, clevels,
                      np.array([0.0, 0.0, 1.0]),
                      _EIGENBASES[DEGENERATE, False])


@dataclass(frozen=True)
class ResolvabilityReport:
    """Outcome of the spectral-selection inequalities for one window."""

    valence_resolved: bool
    conduction_unresolved: bool
    window_within_strain: bool
    valence_margin_uev: float      # |g_lh|·µB·B - bandwidth
    conduction_margin_uev: float   # bandwidth - |g_cb|·µB·B

    @property
    def ok(self) -> bool:
        return (self.valence_resolved and self.conduction_unresolved
                and self.window_within_strain)


def resolvability_check(window: SpectralWindow, material: MaterialParams,
                        field: FieldConfig) -> ResolvabilityReport:
    """Check that the window resolves the valence doublet but not the
    conduction doublet, and stays well below the strain splitting.  Each
    doublet's splitting is |g|·µB·B, whatever the sign of g."""
    if field.b_tesla <= 0:
        raise ValueError("resolvability requires B > 0")
    dv = zeeman_splitting(abs(material.g_lh), field.b_tesla)
    dc = zeeman_splitting(abs(material.g_cb), field.b_tesla)
    bw = window.bandwidth_uev
    return ResolvabilityReport(
        valence_resolved=bw < dv,
        conduction_unresolved=bw > dc,
        window_within_strain=bw < material.strain_splitting_uev,
        valence_margin_uev=dv - bw,
        conduction_margin_uev=bw - dc,
    )
