"""Selection-rule transfer maps: absorption of a polarization qubit into an
electron spin, precession and synchronized readout, and reverse emission.

Basis conventions (fixed package-wide):

* electron spin vectors are in the (mS=-1/2, mS=+1/2) basis;
* every valence state is in the J=3/2 quartet (mJ=-3/2, -1/2, +1/2, +3/2);
* a photon qubit is (alpha, beta) in its declared basis: (|z>, |x>) for a
  linear qubit, (|sigma+>, |sigma->) for a circular one.

Circular labels are direction-dependent: sigma± carries photon spin ±1
along its own k-vector.  A single helper (`_polarization_deltas`) owns the
translation to orbital selection rules; each scheme fixes a canonical k
orientation, which is what reconciles the two circular-basis cases
(degenerate absorption uses k ∥ +G, the in-plane-field case k ∥ -G).

The selection rules are written once.  `absorption_branches` builds every
branch from one block, the level's quartet amplitudes times the LS
expansion coefficients, with unit weight per allowed ΔmL channel (an
x-polarized photon drives ΔmL = ±1 coherently).  From the topmost
|3/2, +1/2> level the z- versus x-coupled amplitudes are √(2/3) and
√(1/3), the √2 imbalance that the optional compensation prefilter (scale
the z amplitude by 1/√2, renormalize, report the success probability)
removes exactly.  `_RECOMBINING_HOLES` names the hole each electron spin
falls back into, and `emission_map`, the one emission implementation,
runs the same rules backwards: one Kraus branch per hole, collected along
a direction with the off-axis frame distortion compensated, and the
per-branch collection fractions.  The pipeline's emit stage collects
along the config's `emission_direction`.
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


def _dipole_block(valence: AngularMomentumState, pols,
                  k_sign: int) -> np.ndarray:
    """Dipole amplitudes of one valence state, from one LS expansion: row
    the conduction spin (mS=-1/2, mS=+1/2), column the polarization in
    pols.  Entry [s, p] is `dipole_matrix_element` of that spin and
    polarization."""
    block = np.zeros((2, len(pols)))
    for coeff, term in expand_jmj(valence):
        row = block[int(term.ms > 0)]
        for col, pol in enumerate(pols):
            for dml, weight in _polarization_deltas(pol, k_sign):
                if term.ml + dml == 0:   # conduction band is mL = 0
                    row[col] += weight * coeff
    return block


def dipole_matrix_element(valence: AngularMomentumState,
                          conduction: AngularMomentumState,
                          pol: str, k_sign: int = -1) -> float:
    """Relative dipole amplitude for valence -> conduction absorption.

    The photon couples only the orbital part: each polarization channel
    changes mL as given by `_polarization_deltas` and never touches mS.
    The amplitude is the LS-expansion coefficient of the matching valence
    component (summed over channels), so from |3/2, +1/2> a z photon
    reaches mS=+1/2 with √(2/3) and an x photon reaches mS=-1/2 with
    √(1/3).  One entry of `_dipole_block`.
    """
    if valence.band not in (LIGHT_HOLE, HEAVY_HOLE):
        raise ValueError("first argument must be a valence state")
    if conduction.band != CONDUCTION:
        raise ValueError("second argument must be a conduction state")
    if conduction.coupling == "JmJ":
        ms_c = conduction.mj
    else:
        ms_c = conduction.ms
    return float(_dipole_block(valence, (pol,), k_sign)[int(ms_c > 0), 0])


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


# The J=3/2 quartet, the basis of every valence `Level.state`.
_QUARTET = tuple(AngularMomentumState(HEAVY_HOLE if abs(mj) > 1 else LIGHT_HOLE,
                                      j=1.5, mj=mj)
                 for mj in (-1.5, -0.5, 0.5, 1.5))

# The hole level, an index into scheme.valence_levels, that each electron
# spin (mS=-1/2, mS=+1/2) recombines with: the abundant topmost level of a
# split scheme; in the degenerate scheme the stretched heavy hole that the
# spin's own absorption left (spin-down fills mJ=-3/2, spin-up mJ=+3/2).
_RECOMBINING_HOLES = {CASE_A: (-1, -1), CASE_B: (-1, -1), DEGENERATE: (0, 3)}


def _absorbing_holes(scheme: BandScheme, window: SpectralWindow | None):
    """(hole index, valence level, transition offset) of each hole one
    absorption may leave; an offset of None means no window weights it.

    Split scheme: the target topmost light-hole level, and with a finite
    window the unwanted partner a valence Zeeman splitting below.
    Degenerate scheme: the two stretched heavy holes the electrons fall
    back into, hole indices 0 and 3 of the quartet, which neither the
    window nor the prefilter touches.
    """
    if scheme.case == DEGENERATE:
        return [(i, scheme.valence_levels[i], None)
                for i in _RECOMBINING_HOLES[DEGENERATE]]
    partner, top = scheme.light_hole_levels
    if window is None:
        return [(0, top, None)]
    return [(0, top, 0.0), (1, partner, top.energy_uev - partner.energy_uev)]


def absorption_branches(scheme: BandScheme,
                        window: SpectralWindow | None = None,
                        compensate: bool = False) -> list[AbsorptionBranch]:
    """Kraus branches of the conditional photon -> electron ⊗ hole map, one
    per hole of `_absorbing_holes`; rows are the electron spin, columns the
    photon basis (k along +G in the degenerate scheme: sigma+ empties
    mJ=-3/2 into a spin-down electron, sigma- the mirror).

    Each branch starts from its level's selection-rule block D, the sum
    of its quartet amplitudes times their `_dipole_block`s.  A window
    weights D in the conduction energy eigenbasis |e>, where energy
    conservation fixes the photon frequency: K = Σ_e w(E_e - c_mid +
    offset) |e><e| D.  compensate applies the √2 prefilter, in case A only.
    """
    pols = ("z", "x") if scheme.case == CASE_A else ("sigma_plus", "sigma_minus")
    # the sign of k·G; 0 for case A's in-plane k, which linear light ignores
    k_sign = int(np.sign(scheme.canonical_k @ Z_AXIS))
    lo, hi = scheme.conduction_levels[0], scheme.conduction_levels[-1]
    c_mid = 0.5 * (lo.energy_uev + hi.energy_uev)
    u = _eigenbasis_matrix(scheme)
    branches = []
    for hole, level, offset in _absorbing_holes(scheme, window):
        # D[spin, pol] = Σ_m state[m] · dipole_matrix_element(quartet[m], ...)
        k = sum(amp * _dipole_block(mj, pols, k_sign)
                for amp, mj in zip(level.state, _QUARTET) if amp != 0)
        if offset is not None:
            w = [window.amplitude((lv.energy_uev - c_mid) + offset)
                 for lv in (lo, hi)]
            k = (u * w) @ u.conj().T @ k
        if compensate and scheme.case == CASE_A:
            k = k @ np.diag([_SQ2, 1.0]).astype(complex)
        branches.append(AbsorptionBranch(k, hole, level.label))
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


def transverse_frame(direction: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal transverse pair (e1, e2) for a direction,
    as the rows of a real (2, 3) array.

    e1 is the projection of the growth axis when possible (so the canonical
    in-plane direction gets the (z, x) linear frame), otherwise +x;
    e2 = n × e1.
    """
    n = np.asarray(direction, dtype=float)
    n = n / math.sqrt(n @ n)
    e1 = Z_AXIS - n[2] * n
    e1_norm = math.sqrt(e1 @ e1)
    if e1_norm < 1e-9:
        e1, e1_norm = np.array([1.0, 0.0, 0.0]), 1.0
    (a0, a1, a2), (b0, b1, b2) = n.tolist(), (e1 / e1_norm).tolist()
    return np.array([[b0, b1, b2],
                     [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]])


def branch_dipole_vectors(scheme: BandScheme) -> np.ndarray:
    """Recombination dipole vectors of the two electron spin branches, each
    falling into its hole level of `_RECOMBINING_HOLES`, as the rows
    (d_down, d_up) of a (2, 3) array.

    Each LS component (mL, mS) of the hole level radiates a photon carrying
    orbital momentum -mL along +z (the electron drops from mL=0), so the
    branch vector is the coefficient-weighted sum of spherical unit vectors
    over the components with the electron's mS.  Each quartet state of a
    hole level is expanded once, for both spins.
    """
    holes = _RECOMBINING_HOLES[scheme.case]
    d = np.zeros((2, 3), dtype=complex)
    for hole in dict.fromkeys(holes):
        for amp, mj_state in zip(scheme.valence_levels[hole].state, _QUARTET):
            if amp == 0:
                continue
            for coeff, term in expand_jmj(mj_state):
                spin = int(term.ms > 0)
                if holes[spin] == hole:
                    d[spin] += amp * coeff * E_SPH[-term.ml]
    return d


def _mode_map(scheme: BandScheme, direction) -> tuple[np.ndarray, np.ndarray]:
    """Frame map T (frame amplitudes = T @ electron amplitudes) and the
    per-branch transverse power fractions; a branch with no transverse
    power keeps a zero column.  Both spin branches at once: the columns of
    d are their dipole vectors."""
    n = np.asarray(direction, dtype=float)
    nn = math.sqrt(n @ n)
    if nn == 0:
        raise ValueError("emission direction must be non-zero")
    n = n / nn
    d = np.transpose(branch_dipole_vectors(scheme))
    proj = d - np.outer(n, n @ d)
    norms = np.linalg.norm(proj, axis=0)
    fractions = (norms / np.linalg.norm(d, axis=0)) ** 2
    modes = np.divide(proj, norms, out=np.zeros_like(proj), where=norms >= 1e-12)
    t = transverse_frame(n) @ modes
    if np.max(np.abs(t)) < 1e-12:
        raise DarkDirection("no recombination branch radiates into this direction")
    return t, fractions


def _frame_to_basis(scheme: BandScheme) -> np.ndarray:
    """Frame -> canonical-basis conversion matrix at the scheme's canonical
    direction: identity for the linear case, rows of sigma± modes for
    circular schemes."""
    if scheme.case == CASE_A:
        return np.eye(2, dtype=complex)   # frame is already (z, x)
    e1, e2 = frame = transverse_frame(scheme.canonical_k)
    modes = np.array([-(e1 + 1j * e2), e1 - 1j * e2]) * _SQ2   # sigma+, sigma-
    return modes.conj() @ frame.T


def emission_map(scheme: BandScheme,
                 direction=None) -> tuple[list[np.ndarray], np.ndarray]:
    """Recombination of the electron spin with its hole, collected along
    `direction` (default: the canonical k) and compensated back to the
    canonical photon basis.

    Returns one 2x2 Kraus branch per recombining hole, from electron (down,
    up) amplitudes to canonical basis amplitudes (linear (z, x) for case A,
    (sigma+, sigma-) otherwise), and the two spin branches' collection
    fractions, the share of each one's dipole power transverse to the
    direction.  A split scheme has one branch, as both spins fall into the
    same level and recombine coherently; the degenerate scheme has one per
    heavy hole, as the hole keeps which-path information.  Each spin maps
    with unit weight onto its transverse-projected dipole mode, so along
    the canonical direction the map inverts the corresponding absorption
    map up to a global phase and scale.  Off axis a waveplate-like
    correction T_can pinv(T) takes the collected frame amplitudes T @ e to
    the canonical ones: exactly wherever the frame map T has full rank, in
    the least-squares sense where it does not, which stays lossy.
    """
    t_can, fractions = _mode_map(scheme, scheme.canonical_k)
    geometry = _frame_to_basis(scheme) @ t_can
    if direction is not None:
        t, fractions = _mode_map(scheme, direction)
        geometry = geometry @ np.linalg.pinv(t) @ t
    holes = _RECOMBINING_HOLES[scheme.case]
    return ([geometry @ np.diag([float(h == hole) for h in holes])
             for hole in dict.fromkeys(holes)], fractions)
