"""Selection-rule transfer maps: absorption of a polarization qubit into an
electron spin, precession and synchronized readout, and reverse emission.

Basis conventions (fixed package-wide):

* electron spin vectors are in the (mS=-1/2, mS=+1/2) basis;
* valence doublet vectors are in the (mJ=-1/2, mJ=+1/2) basis, the
  degenerate quartet in (-3/2, -1/2, +1/2, +3/2) order;
* a photon qubit is (alpha, beta) in its declared basis: (|z>, |x>) for a
  linear qubit, (|sigma+>, |sigma->) for a circular one.

Circular labels are direction-dependent: sigma± carries photon spin ±1
along its own k-vector.  A single helper (`_polarization_deltas`) owns the
translation to orbital selection rules; each scheme fixes a canonical k
orientation, which is what reconciles the two circular-basis cases
(degenerate absorption uses k ∥ +G, the in-plane-field case k ∥ -G).

Absorption amplitudes per branch are the LS-expansion coefficients of the
initial valence state with unit weight per allowed ΔmL channel; an
x-polarized photon drives ΔmL = ±1 coherently with equal weight.  From the
topmost |3/2, +1/2> level this makes the z- versus x-coupled amplitudes
√(2/3) and √(1/3), the √2 imbalance that the optional compensation
prefilter (scale the z amplitude by 1/√2, renormalize, report the success
probability) removes exactly.

Re-emission runs the same selection rules backwards.  `emission_map` is
its one implementation: the electron -> canonical-basis photon map along a
collection direction, with the off-axis frame distortion compensated, and
the per-branch collection fractions.  The pipeline's emit stage applies
it, collected along the config's `emission_direction`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angular import (AngularMomentumState, CONDUCTION, LIGHT_HOLE,
                      HEAVY_HOLE, expand_jmj)
from .bands import (BandScheme, CASE_A, CASE_B, DEGENERATE, SpectralWindow,
                    degenerate_scheme)
from .constants import HBAR_UEV_NS
from .errors import DarkDirection, HeavyHoleTopmost

LINEAR_ZX = "linear_zx"
CIRCULAR = "circular"

Z_AXIS = np.array([0.0, 0.0, 1.0])

_SQ2 = 1.0 / math.sqrt(2.0)

# Hadamard on the electron qubit, (mS=-1/2, mS=+1/2) coordinates.  Maps the
# precessing mS states onto the in-plane-field eigenstates and back.
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) * _SQ2


# ---------------------------------------------------------------------------
# photon qubit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhotonQubit:
    """A polarization qubit with an optional spectral profile.

    basis "linear_zx" propagates in the sample plane (k ⊥ G); "circular"
    along the growth axis.  window=None means an idealized perfectly
    selective source (no leakage weight on other levels).
    """

    basis: str
    alpha: complex
    beta: complex
    window: SpectralWindow | None = None

    def __post_init__(self):
        if self.basis not in (LINEAR_ZX, CIRCULAR):
            raise ValueError(f"unknown photon basis {self.basis!r}")
        n = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if abs(n - 1.0) > 1e-9:
            raise ValueError("photon amplitudes must be normalized")
        if abs(n - 1.0) > 1e-12:
            s = math.sqrt(n)
            object.__setattr__(self, "alpha", self.alpha / s)
            object.__setattr__(self, "beta", self.beta / s)

    @property
    def amplitudes(self) -> np.ndarray:
        return np.array([self.alpha, self.beta], dtype=complex)


# ---------------------------------------------------------------------------
# dipole selection rules
# ---------------------------------------------------------------------------

def _polarization_deltas(pol: str, k_sign: int = -1) -> list[tuple[int, float]]:
    """Allowed orbital changes (ΔmL = mL_cond - mL_val, weight) for one
    polarization.  Owns the circular-label convention: a sigma± photon adds
    ±1 unit of angular momentum along its k, so ΔmL = ±k_sign where k_sign
    is the sign of k·G."""
    if pol == "z":
        return [(0, 1.0)]
    if pol == "x":
        return [(+1, 1.0), (-1, 1.0)]
    if pol == "sigma_plus":
        return [(+k_sign, 1.0)]
    if pol == "sigma_minus":
        return [(-k_sign, 1.0)]
    raise ValueError(f"unknown polarization {pol!r}")


def dipole_matrix_element(valence: AngularMomentumState,
                          conduction: AngularMomentumState,
                          pol: str, k_sign: int = -1) -> float:
    """Relative dipole amplitude for valence -> conduction absorption.

    The photon couples only the orbital part: each polarization channel
    changes mL as given by `_polarization_deltas` and never touches mS.
    The amplitude is the LS-expansion coefficient of the matching valence
    component (summed over channels), so from |3/2, +1/2> a z photon
    reaches mS=+1/2 with √(2/3) and an x photon reaches mS=-1/2 with
    √(1/3).
    """
    if valence.band not in (LIGHT_HOLE, HEAVY_HOLE):
        raise ValueError("first argument must be a valence state")
    if conduction.band != CONDUCTION:
        raise ValueError("second argument must be a conduction state")
    if conduction.coupling == "JmJ":
        ms_c = conduction.mj
    else:
        ms_c = conduction.ms
    amp = 0.0
    for coeff, term in expand_jmj(valence):
        if term.ms != ms_c:
            continue
        for dml, weight in _polarization_deltas(pol, k_sign):
            if term.ml + dml == 0:   # conduction band is mL = 0
                amp += weight * coeff
    return amp


# ---------------------------------------------------------------------------
# absorption maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbsorptionBranch:
    """One Kraus branch of an absorption map: a 2x2 operator taking photon
    amplitudes to electron (mS=-1/2, mS=+1/2) amplitudes, tagged with the
    valence level (hole index) it empties."""

    kraus: np.ndarray
    hole_index: int
    hole_label: str


@dataclass(frozen=True)
class AbsorptionOutcome:
    """Result of one absorption: the electron ⊗ hole pure state, the success
    probability of the conditional map, and the weight absorbed through the
    wrong valence level.

    The state is its normalised (2, hole_dim) coefficient matrix M: rows
    are the electron spin (mS=-1/2, mS=+1/2), columns the hole levels.
    """

    amplitudes: np.ndarray
    success_probability: float
    leakage: float

    def electron_state(self) -> np.ndarray:
        """Reduced electron density matrix M M†."""
        m = self.amplitudes
        return m @ m.conj().T

    def hole_state(self) -> np.ndarray:
        """Reduced hole density matrix Mᵀ M̄."""
        m = self.amplitudes
        return m.T @ m.conj()


def _lh_branch_kraus(level_state: np.ndarray, window: SpectralWindow | None,
                     scheme: BandScheme, valence_offset: float,
                     pols: tuple[str, str], k_sign: int) -> np.ndarray:
    """2x2 Kraus block for absorption out of one light-hole doublet level.

    Columns are the photon basis (first polarization drives alpha), rows the
    electron spin.  Each electron branch is weighted by the window amplitude
    at its own transition offset.
    """
    lh_lo = AngularMomentumState(LIGHT_HOLE, j=1.5, mj=-0.5)
    lh_hi = AngularMomentumState(LIGHT_HOLE, j=1.5, mj=+0.5)
    cond = [AngularMomentumState(CONDUCTION, j=0.5, mj=-0.5),
            AngularMomentumState(CONDUCTION, j=0.5, mj=+0.5)]
    c_mid = 0.5 * (scheme.conduction_levels[0].energy_uev
                   + scheme.conduction_levels[-1].energy_uev)
    k = np.zeros((2, 2), dtype=complex)
    for col, pol in enumerate(pols):
        for row, c_state in enumerate(cond):
            amp = (level_state[0] * dipole_matrix_element(lh_lo, c_state, pol, k_sign)
                   + level_state[1] * dipole_matrix_element(lh_hi, c_state, pol, k_sign))
            if amp == 0.0:
                continue
            # conduction level energies are stored ascending (mS=-1/2 first
            # for a normal field); the mS branch row maps onto that order
            e_c = scheme.conduction_levels[row].energy_uev
            offset = (e_c - c_mid) + valence_offset
            weight = 1.0 if window is None else window.amplitude(offset)
            k[row, col] = amp * weight
    return k


def absorption_branches(scheme: BandScheme,
                        window: SpectralWindow | None = None,
                        compensate: bool = False) -> list[AbsorptionBranch]:
    """Kraus branches of the conditional photon -> electron ⊗ hole map.

    Split (case A or B) scheme: branch 0 is the target topmost level;
    branch 1, present only with a finite window, is the unwanted partner
    level a valence Zeeman splitting below.  Degenerate scheme: the two
    stretched heavy-hole branches, hole indices 0 and 3 (k along +G: sigma+
    empties mJ=-3/2 into a spin-down electron, sigma- the mirror); the
    window and the prefilter do not apply there.
    """
    if scheme.case == DEGENERATE:
        branches = []
        for spin, (hole, pol) in enumerate(((0, "sigma_plus"), (3, "sigma_minus"))):
            k = np.zeros((2, 2), dtype=complex)
            k[spin, spin] = dipole_matrix_element(
                AngularMomentumState(HEAVY_HOLE, j=1.5, mj=3 * spin - 1.5),
                AngularMomentumState(CONDUCTION, j=0.5, mj=spin - 0.5), pol, +1)
            branches.append(AbsorptionBranch(k, hole_index=hole,
                                             hole_label=scheme.valence_levels[hole].label))
        return branches
    if scheme.case == CASE_A:
        pols = ("z", "x")
        k_sign = -1          # irrelevant for linear light, kept for symmetry
    elif scheme.case == CASE_B:
        pols = ("sigma_plus", "sigma_minus")
        k_sign = int(round(scheme.canonical_k @ Z_AXIS))
    else:
        raise HeavyHoleTopmost("absorption branches need a split scheme")

    lh_levels = [lv for lv in scheme.valence_levels if lv.label.startswith("lh")]
    top = lh_levels[-1]
    partner = lh_levels[-2]
    prefilter = np.diag([_SQ2, 1.0]).astype(complex) if compensate else np.eye(2, dtype=complex)

    branches = [AbsorptionBranch(
        _lh_branch_kraus(top.state, window, scheme, 0.0, pols, k_sign) @ prefilter,
        hole_index=0, hole_label=top.label)]
    if window is not None:
        dv = top.energy_uev - partner.energy_uev
        k_leak = _lh_branch_kraus(partner.state, window, scheme, dv, pols, k_sign)
        branches.append(AbsorptionBranch(k_leak @ prefilter,
                                         hole_index=1, hole_label=partner.label))
    return branches


def _outcome_from_branches(photon: PhotonQubit, branches: list[AbsorptionBranch],
                           hole_dim: int, n_wanted: int = 1) -> AbsorptionOutcome:
    q = photon.amplitudes
    m = np.zeros((2, hole_dim), dtype=complex)
    weights = []
    for br in branches:
        amp = br.kraus @ q
        weights.append(float(np.vdot(amp, amp).real))
        m[:, br.hole_index] += amp
    total = float(np.vdot(m, m).real)
    if total <= 0:
        raise ValueError("photon does not couple to this scheme")
    leak = sum(weights[n_wanted:]) / total
    return AbsorptionOutcome(m / np.linalg.norm(m), total, leak)


def absorb_degenerate(photon: PhotonQubit) -> AbsorptionOutcome:
    """Absorption in the degenerate (unstrained) valence band.

    A circular qubit alpha sigma+ + beta sigma- (k along +G) promotes the
    two stretched heavy-hole states, leaving

        alpha |mJ=-3/2>_h |mS=-1/2>_e + beta |mJ=+3/2>_h |mS=+1/2>_e,

    an electron-hole pair entangled whenever both amplitudes are non-zero.
    Hole basis order: (-3/2, -1/2, +1/2, +3/2).
    """
    if photon.basis != CIRCULAR:
        raise ValueError("degenerate absorption takes a circular-basis qubit")
    # both branches are intentional here; there is no "wrong" level
    return _outcome_from_branches(photon, absorption_branches(degenerate_scheme()),
                                  hole_dim=4, n_wanted=2)


# split case -> (photon basis, refusal of another scheme, refusal of
# another photon basis)
_SPLIT_CASES = {
    CASE_A: (LINEAR_ZX, "absorb_case_a needs a normal-field light-hole scheme",
             "case A absorption takes a linear z/x qubit"),
    CASE_B: (CIRCULAR, "absorb_case_b needs an in-plane-field light-hole scheme",
             "case B absorption takes a circular qubit"),
}


def _absorb_split(case: str, photon: PhotonQubit, scheme: BandScheme,
                  compensate: bool) -> AbsorptionOutcome:
    """The body of absorb_case_a / absorb_case_b."""
    basis, wrong_scheme, wrong_photon = _SPLIT_CASES[case]
    if scheme.case != case:
        raise HeavyHoleTopmost(wrong_scheme)
    if photon.basis != basis:
        raise ValueError(wrong_photon)
    branches = absorption_branches(scheme, photon.window, compensate)
    return _outcome_from_branches(photon, branches, hole_dim=2)


def absorb_case_a(photon: PhotonQubit, scheme: BandScheme,
                  compensate: bool = False) -> AbsorptionOutcome:
    """Absorption with B normal to the surface (linear z/x photon basis).

    The single topmost |3/2, +1/2> level feeds both conduction spins:
    z-polarized light excites mS=+1/2 with amplitude √(2/3), x-polarized
    light mS=-1/2 with amplitude √(1/3).  The hole factors out, so the
    electron carries the full qubit, reweighted by the √2 imbalance unless
    compensate=True pre-filters the photon.  A finite spectral window adds
    a leakage branch through the mJ=-1/2 level.
    """
    return _absorb_split(CASE_A, photon, scheme, compensate)


def absorb_case_b(photon: PhotonQubit, scheme: BandScheme) -> AbsorptionOutcome:
    """Absorption with B in the surface plane (circular photon basis, k ∥ -G).

    The spectrally selected psi+ level couples sigma+ to mS=-1/2 and sigma-
    to mS=+1/2 with equal amplitudes √(1/6) (no imbalance to compensate),
    so the electron is alpha |mS=-1/2> + beta |mS=+1/2> and the hole stays
    in psi+.  The created spin states are not eigenstates and precess; see
    `precess` and `synchronized_hadamard`.
    """
    return _absorb_split(CASE_B, photon, scheme, False)


# ---------------------------------------------------------------------------
# precession and synchronized readout
# ---------------------------------------------------------------------------

def _eigenbasis_matrix(scheme: BandScheme) -> np.ndarray:
    """Columns are the conduction eigenstates (lower, upper) in mS coordinates."""
    return np.column_stack([scheme.conduction_levels[0].state,
                            scheme.conduction_levels[-1].state])


def precession_unitary(scheme: BandScheme, t_ns: float) -> np.ndarray:
    """Larmor evolution over t in the scheme's conduction eigenbasis."""
    u = _eigenbasis_matrix(scheme)
    phases = np.exp(-1j * np.array([lv.energy_uev for lv in scheme.conduction_levels])
                    * t_ns / HBAR_UEV_NS)
    return (u * phases) @ u.conj().T


def _rotate(electron, u: np.ndarray) -> np.ndarray:
    """u|ψ> for a spin 2-vector, u ρ u† for a 2x2 density matrix."""
    electron = np.asarray(electron)
    if electron.shape == (2,):
        return u @ electron
    if electron.shape == (2, 2):
        return u @ electron @ u.conj().T
    raise ValueError("an electron spin state is a 2-vector or a 2x2 density "
                     f"matrix, got shape {electron.shape}")


def precess(electron, scheme: BandScheme, t_ns: float) -> np.ndarray:
    """Evolve an electron spin state, a (mS=-1/2, mS=+1/2) 2-vector or 2x2
    density matrix, for t under the scheme's Zeeman field; returns the same
    form."""
    return _rotate(electron, precession_unitary(scheme, t_ns))


def synchronized_hadamard(electron, scheme: BandScheme,
                          t_apply_ns: float = 0.0) -> np.ndarray:
    """Precess for t_apply, then rotate the precessing mS pair onto the field
    eigenstates with the Hadamard.  The electron state is a 2-vector or a
    2x2 density matrix, and comes back in the same form.

    Timed at a whole number of precession periods the composite stores the
    absorbed qubit in the stationary eigenbasis with fidelity 1 (readout
    frame: the upper eigenstate carries the alpha amplitude).  Off-sync
    timing degrades the fidelity.
    """
    if scheme.case != CASE_B:
        raise ValueError("synchronized readout applies to in-plane-field schemes")
    return _rotate(electron, HADAMARD @ precession_unitary(scheme, t_apply_ns))


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

# Condon-Shortley spherical unit vectors: a photon carrying orbital angular
# momentum q along +z has polarization vector E_SPH[q].
E_SPH = {
    +1: np.array([-_SQ2, -1j * _SQ2, 0.0]),
    0: np.array([0.0, 0.0, 1.0], dtype=complex),
    -1: np.array([_SQ2, -1j * _SQ2, 0.0]),
}


def transverse_frame(direction: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal transverse pair (e1, e2) for a direction.

    e1 is the projection of the growth axis when possible (so the canonical
    in-plane direction gets the (z, x) linear frame), otherwise +x.
    """
    n = np.asarray(direction, dtype=float)
    n = n / np.linalg.norm(n)
    e1 = Z_AXIS - (n @ Z_AXIS) * n
    if np.linalg.norm(e1) < 1e-9:
        e1 = np.array([1.0, 0.0, 0.0])
    e1 = e1 / np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    return e1.astype(complex), e2.astype(complex)


def circular_mode_vectors(direction: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sigma+, sigma-) polarization vectors for propagation along direction."""
    e1, e2 = transverse_frame(direction)
    plus = -(e1 + 1j * e2) * _SQ2
    minus = (e1 - 1j * e2) * _SQ2
    return plus, minus


def branch_dipole_vectors(scheme: BandScheme) -> tuple[np.ndarray, np.ndarray]:
    """Recombination dipole vectors (d_down, d_up) for the two electron spin
    branches falling into the scheme's abundant hole level.

    Each LS component (mL, mS) of the hole level radiates a photon carrying
    orbital momentum -mL along +z (the electron drops from mL=0), so the
    branch vector is the coefficient-weighted sum of spherical unit vectors.
    """
    if scheme.case == DEGENERATE:
        # stretched heavy-hole recombination: spin-down fills mJ=-3/2
        # (mL=-1) emitting +1 units along +z, and the mirror for spin-up
        return E_SPH[+1].copy(), E_SPH[-1].copy()
    lh_lo = AngularMomentumState(LIGHT_HOLE, j=1.5, mj=-0.5)
    lh_hi = AngularMomentumState(LIGHT_HOLE, j=1.5, mj=+0.5)
    level = scheme.topmost_valence
    d = {-0.5: np.zeros(3, dtype=complex), +0.5: np.zeros(3, dtype=complex)}
    for amp, mj_state in ((level.state[0], lh_lo), (level.state[1], lh_hi)):
        if amp == 0:
            continue
        for coeff, term in expand_jmj(mj_state):
            d[term.ms] = d[term.ms] + amp * coeff * E_SPH[-term.ml]
    return d[-0.5], d[+0.5]


def _mode_map(scheme: BandScheme, direction) -> tuple[np.ndarray, bool, np.ndarray]:
    """Frame map T (frame amplitudes = T @ electron amplitudes), a lossy
    flag, and the per-branch transverse power fractions."""
    n = np.asarray(direction, dtype=float)
    nn = np.linalg.norm(n)
    if nn == 0:
        raise ValueError("emission direction must be non-zero")
    n = n / nn
    d_dn, d_up = branch_dipole_vectors(scheme)
    e1, e2 = transverse_frame(n)
    t = np.zeros((2, 2), dtype=complex)
    fractions = np.zeros(2)
    lossy = False
    for col, d in enumerate((d_dn, d_up)):
        proj = d - (n @ d) * n.astype(complex)
        norm = np.linalg.norm(proj)
        fractions[col] = (norm / np.linalg.norm(d)) ** 2
        if norm < 1e-12:
            lossy = True
            continue
        mode = proj / norm
        t[0, col] = np.vdot(e1, mode)
        t[1, col] = np.vdot(e2, mode)
    if np.max(np.abs(t)) < 1e-12:
        raise DarkDirection("no recombination branch radiates into this direction")
    return t, lossy, fractions


def _frame_to_basis(scheme: BandScheme) -> np.ndarray:
    """Frame -> canonical-basis conversion matrix at the scheme's canonical
    direction: identity for the linear case, rows of sigma± modes for
    circular schemes."""
    if scheme.case == CASE_A:
        return np.eye(2, dtype=complex)   # frame is already (z, x)
    k = scheme.canonical_k
    plus, minus = circular_mode_vectors(k)
    e1, e2 = transverse_frame(k)
    return np.array([[np.vdot(plus, e1), np.vdot(plus, e2)],
                     [np.vdot(minus, e1), np.vdot(minus, e2)]], dtype=complex)


def _frame_inverse(t: np.ndarray, lossy: bool) -> np.ndarray:
    """Inverse of a frame map; the least-squares pseudo-inverse where the
    direction is lossy or the map is rank-deficient."""
    if lossy or np.linalg.matrix_rank(t, tol=1e-10) < 2:
        return np.linalg.pinv(t)
    return np.linalg.inv(t)


def emission_map(scheme: BandScheme,
                 direction=None) -> tuple[np.ndarray, np.ndarray]:
    """Recombination of the electron spin with the scheme's abundant hole,
    collected along `direction` (default: the canonical k) and compensated
    back to the canonical photon basis.

    Returns the 2x2 map from electron (down, up) amplitudes to canonical
    basis amplitudes (linear (z, x) for case A, (sigma+, sigma-) otherwise)
    and the two branches' collection fractions, the share of each branch's
    dipole power transverse to the direction.  Each spin branch maps with
    unit weight onto its transverse-projected dipole mode, so along the
    canonical direction the map inverts the corresponding absorption map
    up to a global phase and scale.  Off axis the frame map T is undone by
    its inverse, a waveplate-like correction, wherever it has full rank; a
    lossy or rank-deficient direction is compensated in the least-squares
    sense (pseudo-inverse) and stays lossy.
    """
    t_can, lossy, fractions = _mode_map(scheme, scheme.canonical_k)
    t = t_can
    if direction is not None:
        t, lossy, fractions = _mode_map(scheme, direction)
    return (_frame_to_basis(scheme) @ t_can @ _frame_inverse(t, lossy) @ t,
            fractions)
