"""Angular-momentum algebra: Clebsch-Gordan coefficients, Condon-Shortley
phases throughout.  `transfer.ls_table` reads them into the LS content of
the J=3/2 valence quartet (L=1, S=1/2), the one table of selection rules.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction


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
