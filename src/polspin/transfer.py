"""Selection-rule transfer maps: absorption of a polarization qubit into an
electron spin, precession, and reverse emission.

Basis conventions (fixed package-wide):

* electron spin vectors are in the (mS=-1/2, mS=+1/2) basis;
* every valence state is in the J=3/2 quartet (mJ=-3/2, -1/2, +1/2, +3/2);
* a photon qubit is (alpha, beta) in the basis its scheme's case fixes:
  (|z>, |x>) in case A, (|sigma+>, |sigma->) in case B and the
  degenerate scheme.

Circular labels are direction-dependent: sigma± carries photon spin ±1
along its own k-vector.  One readout matrix (`_channels`) owns the
translation to orbital selection rules; each scheme fixes a canonical k
orientation, which is what reconciles the two circular-basis cases
(degenerate absorption uses k ∥ +G, the in-plane-field case k ∥ -G).

The selection rules are written once, as one table: `ls_table`, the
Clebsch-Gordan content C[mJ, mL, mS] of the J=3/2 quartet.  Absorption
reads it through `_channels`, which couples each polarization to the
valence mL it empties with unit weight per allowed ΔmL channel (an
x-polarized photon drives ΔmL = ±1 coherently); `dipole_matrix_element`
reads single entries of the same blocks.  From the topmost
|3/2, +1/2> level the z- versus x-coupled amplitudes are √(2/3) and
√(1/3), the √2 imbalance that the optional compensation prefilter (scale
the z amplitude by 1/√2, renormalize, report the success probability)
removes exactly.  Emission reads the same table through `_E_ML`, the
polarization each mL component radiates: `_RECOMBINING_HOLES` names the
hole each electron spin falls back into, and `emission_map`, the one
emission implementation, runs the rules backwards: one Kraus branch per
hole, collected along a direction with the off-axis frame distortion
compensated, and the per-branch collection fractions.  The pipeline's
emit stage collects along the config's `emission_direction`.

Readout is one matrix too: an electron state evolves by
`precession_unitary(scheme, t)`, and the synchronized readout of case B is
`HADAMARD @ precession_unitary(scheme, t)`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angular import clebsch_gordan
from .bands import (BandScheme, CASE_A, CASE_B, DEGENERATE, SpectralWindow,
                    degenerate_scheme)
from .constants import HBAR_UEV_NS
from .errors import DarkDirection, HeavyHoleTopmost

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

    The scheme that absorbs it fixes its basis: linear (z, x) in case A,
    propagating in the sample plane (k ⊥ G); circular (sigma+, sigma-)
    otherwise, along the growth axis.  window=None means an idealized
    perfectly selective source (no leakage weight on other levels).
    """

    alpha: complex
    beta: complex
    window: SpectralWindow | None = None

    def __post_init__(self):
        n = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not (math.isfinite(n) and abs(n - 1.0) <= 1e-9):
            raise ValueError("photon amplitudes must be finite and normalized")
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

# The J=3/2 quartet (the basis of every valence `Level.state`), the valence
# orbital and the spin, in the order of the table's axes.
_MJ = (-1.5, -0.5, 0.5, 1.5)
_ML = (-1, 0, 1)
_MS = (-0.5, 0.5)


def ls_table() -> np.ndarray:
    """C[mJ, mL, mS] = <1 mL; 1/2 mS | 3/2 mJ>, the LS content of the J=3/2
    quartet, axes in the orders of `_MJ`, `_ML` and `_MS`.  Absorption and
    emission both read their selection rules off this one table."""
    return np.array([clebsch_gordan(1, ml, 0.5, ms, 1.5, mj)
                     for mj in _MJ for ml in _ML for ms in _MS]).reshape(4, 3, 2)


def _channels(pols, k_sign: int) -> np.ndarray:
    """W[mL, p]: the weight with which polarization pols[p] couples valence
    orbital mL to the mL=0 conduction band, unit weight per allowed ΔmL
    channel (ΔmL = mL_cond - mL_val).  Owns the circular-label convention:
    a sigma± photon adds ±1 unit of angular momentum along its k, so
    ΔmL = ±k_sign where k_sign is the sign of k·G."""
    deltas = {"z": (0,), "x": (+1, -1),
              "sigma_plus": (+k_sign,), "sigma_minus": (-k_sign,)}
    w = np.zeros((len(_ML), len(pols)))
    for col, pol in enumerate(pols):
        if pol not in deltas:
            raise ValueError(f"unknown polarization {pol!r}")
        for dml in deltas[pol]:
            w[_ML.index(-dml), col] = 1.0
    return w


def _dipole_blocks(states, pols, k_sign: int) -> list[np.ndarray]:
    """The selection-rule block D[spin, p] of each quartet amplitude vector:
    D[spin, p] = Σ_mJ,mL state[mJ] C[mJ, mL, spin] W[mL, p], with C the
    `ls_table` and W the `_channels` of pols."""
    per_spin, channels = ls_table().transpose(2, 0, 1), _channels(pols, k_sign)
    return [(state @ per_spin) @ channels for state in states]


def dipole_matrix_element(state, ms: float, pol: str, k_sign: int = -1):
    """Relative dipole amplitude for absorption out of a valence state
    into the conduction spin ms, the entry of the state's block that
    `absorption_branches` contracts.

    state holds J=3/2 quartet amplitudes (mJ = -3/2 .. +3/2), the
    `Level.state` form; ms is ±1/2.  The photon couples only the orbital
    part: each polarization channel changes mL as given by `_channels` and
    never touches mS, so from |3/2, +1/2> a z photon reaches mS=+1/2 with
    √(2/3) and an x photon reaches mS=-1/2 with √(1/3).  Real for a real
    state, complex otherwise.
    """
    state = np.asarray(state)
    if state.shape != (len(_MJ),):
        raise ValueError("state must be a J=3/2 quartet amplitude 4-vector, "
                         f"got shape {state.shape}")
    if ms not in _MS:
        raise ValueError(f"ms must be -1/2 or +1/2, got {ms!r}")
    block, = _dipole_blocks([state], (pol,), k_sign)
    return block[_MS.index(ms), 0].item()


# ---------------------------------------------------------------------------
# absorption maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbsorptionBranch:
    """One Kraus branch of an absorption map: a 2x2 operator taking photon
    amplitudes to electron (mS=-1/2, mS=+1/2) amplitudes, tagged with the
    valence level (hole index) it empties and whether that level is the
    unwanted one, whose weight is leakage."""

    kraus: np.ndarray
    hole_index: int
    unwanted: bool = False


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


# The hole level, an index into scheme.valence_levels, that each electron
# spin (mS=-1/2, mS=+1/2) recombines with: the abundant topmost level of a
# split scheme; in the degenerate scheme the stretched heavy hole that the
# spin's own absorption left (spin-down fills mJ=-3/2, spin-up mJ=+3/2).
_RECOMBINING_HOLES = {CASE_A: (-1, -1), CASE_B: (-1, -1), DEGENERATE: (0, 3)}


def _absorbing_holes(scheme: BandScheme, window: SpectralWindow | None):
    """(hole index, valence level, transition offset, unwanted) of each hole
    one absorption may leave, the wanted ones first; an offset of None
    means no window weights it.

    Split scheme: the target topmost light-hole level, and with a finite
    window the unwanted partner a valence Zeeman splitting below.
    Degenerate scheme: the two stretched heavy holes the electrons fall
    back into, hole indices 0 and 3 of the quartet, which neither the
    window nor the prefilter touches; both are wanted.
    """
    if scheme.case == DEGENERATE:
        return [(i, scheme.valence_levels[i], None, False)
                for i in _RECOMBINING_HOLES[DEGENERATE]]
    partner, top = scheme.light_hole_levels
    if window is None:
        return [(0, top, None, False)]
    return [(0, top, 0.0, False),
            (1, partner, top.energy_uev - partner.energy_uev, True)]


def absorption_branches(scheme: BandScheme,
                        window: SpectralWindow | None = None,
                        compensate: bool = False) -> list[AbsorptionBranch]:
    """Kraus branches of the conditional photon -> electron ⊗ hole map, one
    per hole of `_absorbing_holes`; rows are the electron spin, columns the
    photon basis (k along +G in the degenerate scheme: sigma+ empties
    mJ=-3/2 into a spin-down electron, sigma- the mirror).

    Each branch starts from its level's selection-rule block D of
    `_dipole_blocks`: its quartet amplitudes contracted with `ls_table`,
    read per spin through the photon basis' `_channels`.  A window weights
    D in the conduction energy eigenbasis |e>, where energy conservation
    fixes the photon frequency: K = Σ_e w(E_e - c_mid + offset) |e><e| D.
    compensate applies the √2 prefilter, in case A only.
    """
    pols = ("z", "x") if scheme.case == CASE_A else ("sigma_plus", "sigma_minus")
    # the sign of k·G; 0 for case A's in-plane k, which linear light ignores
    k_sign = int(np.sign(scheme.canonical_k @ Z_AXIS))
    lo, hi = scheme.conduction_levels[0], scheme.conduction_levels[-1]
    c_mid = 0.5 * (lo.energy_uev + hi.energy_uev)
    u = scheme.eigenbasis
    holes = _absorbing_holes(scheme, window)
    blocks = _dipole_blocks([level.state for _, level, _, _ in holes], pols,
                            k_sign)
    branches = []
    for (hole, _, offset, unwanted), k in zip(holes, blocks):
        if offset is not None:
            w = [window.amplitude((lv.energy_uev - c_mid) + offset)
                 for lv in (lo, hi)]
            k = (u * w) @ u.conj().T @ k
        if compensate and scheme.case == CASE_A:
            k = k @ np.diag([_SQ2, 1.0]).astype(complex)
        branches.append(AbsorptionBranch(k, hole, unwanted))
    return branches


def _outcome_from_branches(photon: PhotonQubit, branches: list[AbsorptionBranch],
                           hole_dim: int) -> AbsorptionOutcome:
    q = photon.amplitudes
    m = np.zeros((2, hole_dim), dtype=complex)
    leak = 0.0
    for br in branches:
        amp = br.kraus @ q
        if br.unwanted:
            leak += float(np.vdot(amp, amp).real)
        m[:, br.hole_index] += amp
    total = float(np.vdot(m, m).real)
    if total <= 0:
        raise ValueError("photon does not couple to this scheme")
    leak /= total
    return AbsorptionOutcome(m / np.linalg.norm(m), total, leak)


def absorb_degenerate(photon: PhotonQubit) -> AbsorptionOutcome:
    """Absorption in the degenerate (unstrained) valence band.

    A circular qubit alpha sigma+ + beta sigma- (k along +G) promotes the
    two stretched heavy-hole states, leaving

        alpha |mJ=-3/2>_h |mS=-1/2>_e + beta |mJ=+3/2>_h |mS=+1/2>_e,

    an electron-hole pair entangled whenever both amplitudes are non-zero.
    Hole basis order: (-3/2, -1/2, +1/2, +3/2).
    """
    return _outcome_from_branches(photon, absorption_branches(degenerate_scheme()),
                                  hole_dim=4)


def _absorb_split(case: str, photon: PhotonQubit, scheme: BandScheme,
                  compensate: bool) -> AbsorptionOutcome:
    """The body of absorb_case_a / absorb_case_b."""
    if scheme.case != case:
        raise HeavyHoleTopmost(f"absorb_case_{case.lower()} needs a case "
                               f"{case} light-hole scheme")
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
    in psi+.  The created spin states are not eigenstates and precess
    under `precession_unitary`; the synchronized readout
    `HADAMARD @ precession_unitary(scheme, t)`, timed at a whole number of
    precession periods, stores the qubit in the stationary eigenbasis.
    """
    return _absorb_split(CASE_B, photon, scheme, False)


# ---------------------------------------------------------------------------
# precession
# ---------------------------------------------------------------------------

def precession_unitary(scheme: BandScheme, t_ns: float) -> np.ndarray:
    """Larmor evolution over t in the scheme's conduction eigenbasis."""
    u = scheme.eigenbasis
    phases = np.exp(-1j * np.array([lv.energy_uev for lv in scheme.conduction_levels])
                    * t_ns / HBAR_UEV_NS)
    return (u * phases) @ u.conj().T


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

# Row mL: the polarization a hole's mL component radiates, E_SPH[-mL].
_E_ML = np.array([E_SPH[-ml] for ml in _ML])


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
    branch vector is the hole's quartet amplitudes contracted with the
    `ls_table` column of the electron's mS, read through `_E_ML`.
    """
    per_spin = ls_table().transpose(2, 0, 1)
    return np.array([(scheme.valence_levels[hole].state @ per_spin[spin]) @ _E_ML
                     for spin, hole in enumerate(_RECOMBINING_HOLES[scheme.case])])


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
