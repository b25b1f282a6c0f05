"""Strain- and Zeeman-split level schemes and spectral-selection checks.

Geometry convention used package-wide: the growth direction G is +z.  A
"normal" field (B ∥ G) keeps mJ/mS eigenstates; an "inplane" field (B ⊥ G,
taken along +x) turns the eigenstates into the symmetric/antisymmetric
combinations psi± (valence) and |0>,|1> (conduction).

Energies are stored in µeV relative to each band's unsplit edge; only
Zeeman and strain splittings matter here, never the absolute gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import HBAR_UEV_NS, MU_B_UEV_PER_T
from .errors import HeavyHoleTopmost, NoPrecession

NORMAL = "normal"      # B parallel to G (case A)
INPLANE = "inplane"    # B perpendicular to G (case B)

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
    band_gap_uev: float
    strain_sign: str = TENSILE

    def __post_init__(self):
        for name in ("g_cb", "g_lh", "g_hh_normal", "strain_splitting_uev",
                     "band_gap_uev"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, "
                                 f"got {getattr(self, name)!r}")
        if self.strain_splitting_uev <= 0:
            raise ValueError("strain_splitting must be positive")
        if self.band_gap_uev <= self.strain_splitting_uev:
            raise ValueError("band gap must exceed the strain splitting")
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
    band_gap_uev=1_500_000.0,
    strain_sign=TENSILE,
)


@dataclass(frozen=True)
class FieldConfig:
    """Static magnetic field: magnitude in tesla and orientation vs G."""

    b_tesla: float = 1.0
    orientation: str = NORMAL

    def __post_init__(self):
        if not (math.isfinite(self.b_tesla) and self.b_tesla >= 0):
            raise ValueError("b_tesla must be finite and non-negative, "
                             f"got {self.b_tesla!r}")
        if self.orientation not in (NORMAL, INPLANE):
            raise ValueError(f"unknown orientation {self.orientation!r}")

    @property
    def direction(self) -> np.ndarray:
        return np.array([0.0, 0.0, 1.0]) if self.orientation == NORMAL \
            else np.array([1.0, 0.0, 0.0])


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
        x = offset_uev - self.center_offset_uev
        if self.lineshape == GAUSSIAN:
            return math.exp(-4.0 * math.log(2.0) * (x / self.bandwidth_uev) ** 2)
        return 1.0 / (1.0 + (2.0 * x / self.bandwidth_uev) ** 2)


@dataclass(frozen=True)
class Level:
    """One energy level of a scheme: band, human label, basis state, energy."""

    band: str
    label: str
    state: np.ndarray          # amplitudes in the band's mJ (or mS) basis
    energy_uev: float


@dataclass(frozen=True)
class BandScheme:
    """Ordered level scheme for one material + field configuration."""

    case: str
    material: MaterialParams
    field: FieldConfig
    valence_levels: tuple[Level, ...]      # sorted ascending in energy
    conduction_levels: tuple[Level, ...]   # sorted ascending in energy
    canonical_k: np.ndarray

    @property
    def topmost_valence(self) -> Level:
        return self.valence_levels[-1]

    @property
    def valence_splitting_uev(self) -> float:
        top = self.valence_levels[-1].energy_uev
        second = self.valence_levels[-2].energy_uev
        return top - second

    @property
    def conduction_splitting_uev(self) -> float:
        return (self.conduction_levels[-1].energy_uev
                - self.conduction_levels[0].energy_uev)


def zeeman_splitting(g: float, b_tesla: float) -> float:
    """Zeeman energy g·µB·B in µeV; linear in both arguments."""
    if b_tesla < 0:
        raise ValueError("B must be non-negative")
    return g * MU_B_UEV_PER_T * b_tesla


def precession_period(g_cb: float, b_tesla: float) -> float:
    """Larmor period 2πħ/(g·µB·B) in ns."""
    if g_cb <= 0 or b_tesla <= 0:
        raise NoPrecession("precession period requires g > 0 and B > 0")
    return 2.0 * math.pi * HBAR_UEV_NS / zeeman_splitting(g_cb, b_tesla)


_SQ2 = 1.0 / math.sqrt(2.0)


def valence_eigenstates(field: FieldConfig):
    """The two light-hole valence eigenstates for the field orientation.

    Normal field: the mJ = ±1/2 basis states themselves.  In-plane field:
    the equal superpositions psi± = (|mJ=-1/2> ± |mJ=+1/2>)/√2.  Basis
    ordering is (mJ=-1/2, mJ=+1/2).
    """
    if field.orientation == NORMAL:
        lo = np.array([1.0, 0.0], dtype=complex)   # mJ = -1/2
        hi = np.array([0.0, 1.0], dtype=complex)   # mJ = +1/2
        return lo, hi
    psi_plus = np.array([_SQ2, _SQ2], dtype=complex)
    psi_minus = np.array([_SQ2, -_SQ2], dtype=complex)
    return psi_plus, psi_minus


def conduction_eigenstates(field: FieldConfig):
    """Conduction spin eigenstates, ordered (lower, upper) in energy.

    Basis ordering is (mS=-1/2, mS=+1/2).  Normal field: the mS states.
    In-plane field: |0> = (|mS=-1/2> - |mS=+1/2>)/√2 and
    |1> = (|mS=-1/2> + |mS=+1/2>)/√2.
    """
    if field.orientation == NORMAL:
        down = np.array([1.0, 0.0], dtype=complex)
        up = np.array([0.0, 1.0], dtype=complex)
        return down, up
    zero = np.array([_SQ2, -_SQ2], dtype=complex)
    one = np.array([_SQ2, _SQ2], dtype=complex)
    return zero, one


def build_level_scheme(material: MaterialParams, field: FieldConfig) -> BandScheme:
    """Construct the level scheme for a coherent-transfer configuration.

    Tensile strain puts the light-hole doublet on top, split by g_lh·µB·B
    (mJ eigenstates for a normal field, psi± for an in-plane field), with
    the heavy holes a strain splitting below.  Conduction levels split by
    g_cb·µB·B.  Compressive strain is rejected: a topmost heavy-hole band
    couples each circular polarization to a single spin only (normal field)
    and has zero in-plane splitting, so it cannot host the transfer.
    """
    if material.strain_sign == COMPRESSIVE:
        raise HeavyHoleTopmost(
            "compressive strain puts the heavy-hole band on top; "
            "coherent transfer needs the light-hole band uppermost")
    dv = zeeman_splitting(material.g_lh, field.b_tesla)
    dc = zeeman_splitting(material.g_cb, field.b_tesla)
    dhh = zeeman_splitting(
        material.g_hh_normal if field.orientation == NORMAL else 0.0,
        field.b_tesla)
    strain = material.strain_splitting_uev

    if field.orientation == NORMAL:
        case = CASE_A
        lo, hi = valence_eigenstates(field)
        vlevels = [
            Level("valence", "lh mJ=-1/2", lo, -dv / 2.0),
            Level("valence", "lh mJ=+1/2", hi, +dv / 2.0),
        ]
        cdown, cup = conduction_eigenstates(field)
        clevels = [
            Level("conduction", "cb mS=-1/2", cdown, -dc / 2.0),
            Level("conduction", "cb mS=+1/2", cup, +dc / 2.0),
        ]
        canonical_k = np.array([0.0, 1.0, 0.0])   # in-plane, k ⊥ G ∥ B
    else:
        case = CASE_B
        psi_plus, psi_minus = valence_eigenstates(field)
        vlevels = [
            Level("valence", "lh psi-", psi_minus, -dv / 2.0),
            Level("valence", "lh psi+", psi_plus, +dv / 2.0),
        ]
        zero, one = conduction_eigenstates(field)
        clevels = [
            Level("conduction", "cb |0>", zero, -dc / 2.0),
            Level("conduction", "cb |1>", one, +dc / 2.0),
        ]
        # k ∥ G ⊥ B; the -z orientation fixes which circular label couples
        # which spin (see transfer module)
        canonical_k = np.array([0.0, 0.0, -1.0])

    hh_lo = np.array([1.0, 0.0], dtype=complex)   # mJ = -3/2
    hh_hi = np.array([0.0, 1.0], dtype=complex)   # mJ = +3/2
    vlevels = [
        Level("valence", "hh mJ=-3/2", hh_lo, -strain - dhh / 2.0),
        Level("valence", "hh mJ=+3/2", hh_hi, -strain + dhh / 2.0),
    ] + vlevels
    vlevels.sort(key=lambda l: l.energy_uev)
    return BandScheme(case, material, field, tuple(vlevels), tuple(clevels),
                      canonical_k)


def degenerate_scheme(material: MaterialParams = INAS_GAAS_QW) -> BandScheme:
    """Unstrained, zero-field reference scheme: all four J=3/2 valence states
    degenerate at the band edge.  Models plain GaAs absorption, the
    configuration in which the photo-electron stays entangled with its hole.
    """
    field = FieldConfig(0.0, NORMAL)
    basis = np.eye(4, dtype=complex)
    labels = ("mJ=-3/2", "mJ=-1/2", "mJ=+1/2", "mJ=+3/2")
    vlevels = tuple(Level("valence", f"vb {lab}", basis[i], 0.0)
                    for i, lab in enumerate(labels))
    cdown, cup = conduction_eigenstates(field)
    clevels = (
        Level("conduction", "cb mS=-1/2", cdown, 0.0),
        Level("conduction", "cb mS=+1/2", cup, 0.0),
    )
    return BandScheme(DEGENERATE, replace(material, strain_sign=TENSILE),
                      field, vlevels, clevels, np.array([0.0, 0.0, 1.0]))


@dataclass(frozen=True)
class ResolvabilityReport:
    """Outcome of the spectral-selection inequalities for one window."""

    valence_resolved: bool
    conduction_unresolved: bool
    window_within_strain: bool
    valence_margin_uev: float      # g_lh·µB·B - bandwidth
    conduction_margin_uev: float   # bandwidth - g_cb·µB·B
    strain_margin_uev: float       # strain splitting - bandwidth

    @property
    def ok(self) -> bool:
        return (self.valence_resolved and self.conduction_unresolved
                and self.window_within_strain)


def resolvability_check(window: SpectralWindow, material: MaterialParams,
                        field: FieldConfig) -> ResolvabilityReport:
    """Check that the window resolves the valence doublet but not the
    conduction doublet, and stays well below the strain splitting."""
    if field.b_tesla <= 0:
        raise ValueError("resolvability requires B > 0")
    dv = zeeman_splitting(material.g_lh, field.b_tesla)
    dc = zeeman_splitting(material.g_cb, field.b_tesla)
    bw = window.bandwidth_uev
    return ResolvabilityReport(
        valence_resolved=bw < dv,
        conduction_unresolved=bw > dc,
        window_within_strain=bw < material.strain_splitting_uev,
        valence_margin_uev=dv - bw,
        conduction_margin_uev=bw - dc,
        strain_margin_uev=material.strain_splitting_uev - bw,
    )
