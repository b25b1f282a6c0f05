"""Angular-momentum algebra: Clebsch-Gordan coefficients and the LS
decomposition of band-edge states.

Conventions: Condon-Shortley phases throughout.  Valence states carry L=1,
S=1/2 (the J=3/2 quartet splits into light holes |mJ|=1/2 and heavy holes
|mJ|=3/2); the conduction band is an S-wave with J=1/2, mL=0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

CONDUCTION = "conduction"
LIGHT_HOLE = "light_hole"
HEAVY_HOLE = "heavy_hole"

_BANDS = (CONDUCTION, LIGHT_HOLE, HEAVY_HOLE)


def _twice(x: float) -> int:
    """Return 2x as an exact int, rejecting non-(half-)integer input."""
    d = 2.0 * float(x)
    r = round(d)
    if abs(d - r) > 1e-9:
        raise ValueError(f"{x} is not an integer or half-integer")
    return int(r)


@functools.lru_cache(maxsize=256)
def clebsch_gordan(j1: float, m1: float, j2: float, m2: float,
                   j: float, m: float) -> float:
    """Clebsch-Gordan coefficient <j1 m1; j2 m2 | j m> (Condon-Shortley).

    Evaluated by the closed-form Racah sum with exact rational arithmetic,
    so the double-precision result is accurate to the last bit.  Returns 0
    for m1+m2 != m or when (j1, j2, j) violate the triangle rule; raises
    ValueError on non-(half-)integer arguments or |m| > j.  Results are
    memoized (a band scheme asks for a dozen distinct coefficients over
    and over); errors are not, so a bad call raises every time.
    """
    tj1, tm1 = _twice(j1), _twice(m1)
    tj2, tm2 = _twice(j2), _twice(m2)
    tj, tm = _twice(j), _twice(m)
    for tjj, tmm in ((tj1, tm1), (tj2, tm2), (tj, tm)):
        if tjj < 0 or abs(tmm) > tjj or (tjj - tmm) % 2 != 0:
            raise ValueError("invalid (j, m) pair")
    if tm1 + tm2 != tm:
        return 0.0
    if not (abs(tj1 - tj2) <= tj <= tj1 + tj2) or (tj1 + tj2 + tj) % 2 != 0:
        return 0.0

    def f(tw: int) -> int:
        # factorial of a doubled-integer argument; caller guarantees tw even
        if tw % 2 != 0 or tw < 0:
            raise ValueError("factorial of a non-integer")
        return math.factorial(tw // 2)

    prefactor = Fraction(
        (tj + 1)
        * f(tj + tj1 - tj2) * f(tj - tj1 + tj2) * f(tj1 + tj2 - tj)
        * f(tj + tm) * f(tj - tm)
        * f(tj1 - tm1) * f(tj1 + tm1) * f(tj2 - tm2) * f(tj2 + tm2),
        f(tj1 + tj2 + tj + 2),
    )

    ksum = Fraction(0)
    k = 0
    while True:
        t1 = tj1 + tj2 - tj - 2 * k
        t2 = tj1 - tm1 - 2 * k
        t3 = tj2 + tm2 - 2 * k
        t4 = tj - tj2 + tm1 + 2 * k
        t5 = tj - tj1 - tm2 + 2 * k
        if t1 < 0 and t2 < 0 and t3 < 0:
            break
        if min(t1, t2, t3, t4, t5) >= 0:
            term = Fraction((-1) ** k,
                            f(2 * k) * f(t1) * f(t2) * f(t3) * f(t4) * f(t5))
            ksum += term
        k += 1
        if k > (tj1 + tj2) // 2 + 1:
            break

    if ksum == 0:
        return 0.0
    sign = 1.0 if ksum > 0 else -1.0
    return sign * math.sqrt(float(prefactor * ksum * ksum))


@dataclass(frozen=True)
class AngularMomentumState:
    """A band-edge angular-momentum basis label.

    Either coupled |J, mJ> (coupling="JmJ") or uncoupled |mL, mS>
    (coupling="LmLSmS").  The band tag pins which sub-band the label
    belongs to and is validated against the quantum numbers.
    """

    band: str
    coupling: str = "JmJ"
    j: float | None = None
    mj: float | None = None
    ml: int | None = None
    ms: float | None = None

    def __post_init__(self):
        if self.band not in _BANDS:
            raise ValueError(f"unknown band {self.band!r}")
        if self.coupling == "JmJ":
            if self.j is None or self.mj is None:
                raise ValueError("JmJ coupling requires j and mj")
            tj, tmj = _twice(self.j), _twice(self.mj)
            if abs(tmj) > tj or (tj - tmj) % 2 != 0:
                raise ValueError("|mJ| must not exceed J")
            if self.band == CONDUCTION and tj != 1:
                raise ValueError("conduction band has J=1/2")
            if self.band in (LIGHT_HOLE, HEAVY_HOLE) and tj not in (1, 3):
                raise ValueError("valence bands have J in {1/2, 3/2}")
            if self.band == LIGHT_HOLE and abs(tmj) == 3:
                raise ValueError("light holes have |mJ|=1/2")
            if self.band == HEAVY_HOLE and abs(tmj) != 3:
                raise ValueError("heavy holes have |mJ|=3/2")
        elif self.coupling == "LmLSmS":
            if self.ml is None or self.ms is None:
                raise ValueError("LmLSmS coupling requires ml and ms")
            if self.ml not in (-1, 0, 1):
                raise ValueError("mL must be -1, 0 or +1")
            if _twice(self.ms) not in (-1, 1):
                raise ValueError("mS must be ±1/2")
            if self.band == CONDUCTION and self.ml != 0:
                raise ValueError("the conduction band is an S-wave (mL=0)")
        else:
            raise ValueError(f"unknown coupling {self.coupling!r}")


def expand_jmj(state: AngularMomentumState) -> list[tuple[float, AngularMomentumState]]:
    """Expand a coupled |J, mJ> band state in the uncoupled |mL, mS> basis.

    Valence states use L=1, S=1/2; conduction states are trivially
    |mL=0, mS=mJ>.  Coefficients are Clebsch-Gordan values, so their squares
    sum to one.
    """
    if state.coupling != "JmJ":
        raise ValueError("expand_jmj expects a JmJ-coupled state")
    if state.band == CONDUCTION:
        return [(1.0, AngularMomentumState(CONDUCTION, "LmLSmS", ml=0, ms=state.mj))]
    terms = []
    for ml in (-1, 0, 1):
        for ms in (-0.5, 0.5):
            c = clebsch_gordan(1, ml, 0.5, ms, state.j, state.mj)
            if c != 0.0:
                terms.append(
                    (c, AngularMomentumState(state.band, "LmLSmS", ml=ml, ms=ms)))
    if not terms:
        raise ValueError(f"no LS decomposition for {state}")
    return terms
