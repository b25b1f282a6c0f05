import math

import pytest
from sympy import Rational, S
from sympy.physics.quantum.cg import CG

from polspin.angular import clebsch_gordan
from polspin.transfer import ls_table

SQ23 = math.sqrt(2.0 / 3.0)
SQ13 = math.sqrt(1.0 / 3.0)


def sympy_cg(j1, m1, j2, m2, j, m):
    """Independent oracle for the Racah-sum implementation."""
    r = Rational
    return float(CG(r(int(2 * j1), 2), r(int(2 * m1), 2),
                    r(int(2 * j2), 2), r(int(2 * m2), 2),
                    r(int(2 * j), 2), r(int(2 * m), 2)).doit())


def half_integers(jmax):
    return [k / 2.0 for k in range(-int(2 * jmax), int(2 * jmax) + 1)]


def test_light_hole_expansion_coefficients():
    assert clebsch_gordan(1, 0, 0.5, 0.5, 1.5, 0.5) == pytest.approx(SQ23, abs=1e-12)
    assert clebsch_gordan(1, 1, 0.5, -0.5, 1.5, 0.5) == pytest.approx(SQ13, abs=1e-12)


def test_stretched_state():
    assert clebsch_gordan(1, 1, 0.5, 0.5, 1.5, 1.5) == pytest.approx(1.0, abs=1e-12)
    assert clebsch_gordan(1, -1, 0.5, -0.5, 1.5, -1.5) == pytest.approx(1.0, abs=1e-12)


def test_m_mismatch_gives_zero():
    assert clebsch_gordan(1, 1, 0.5, 0.5, 1.5, 0.5) == 0.0


def test_triangle_violation_gives_zero():
    assert clebsch_gordan(1, 0, 0.5, 0.5, 2.5, 0.5) == 0.0


def test_non_half_integer_rejected():
    with pytest.raises(ValueError):
        clebsch_gordan(0.3, 0.3, 0.5, 0.5, 0.8, 0.8)
    with pytest.raises(ValueError):
        clebsch_gordan(1, 0.2, 0.5, 0.5, 1.5, 0.7)


def test_invalid_m_rejected():
    with pytest.raises(ValueError):
        clebsch_gordan(1, 2, 0.5, 0.5, 1.5, 2.5)


def test_cached_equals_uncached():
    """Memoized coefficients equal a fresh evaluation, on first and repeat."""
    halves = [0.5 * k for k in range(-3, 4)]
    for j1, j2, j in ((1, 0.5, 1.5), (1, 0.5, 0.5), (1.5, 1.5, 2), (0.5, 0.5, 1)):
        for m1 in halves:
            for m2 in halves:
                if abs(m1) > j1 or abs(m2) > j2 or abs(m1 + m2) > j:
                    continue
                args = (j1, m1, j2, m2, j, m1 + m2)
                try:
                    want = clebsch_gordan.__wrapped__(*args)
                except ValueError:
                    continue
                hits = clebsch_gordan.cache_info().hits
                assert clebsch_gordan(*args) == want
                assert clebsch_gordan(*args) == want
                assert clebsch_gordan.cache_info().hits > hits


def test_invalid_pair_raises_on_every_call():
    for _ in range(3):
        with pytest.raises(ValueError):
            clebsch_gordan(1, 2, 0.5, 0.5, 1.5, 2.5)
        with pytest.raises(ValueError):
            clebsch_gordan(0.3, 0.3, 0.5, 0.5, 0.8, 0.8)


@pytest.mark.parametrize("j1", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("j2", [0.5, 1.0])
def test_against_sympy(j1, j2):
    tj = int(2 * (j1 + j2))
    for tjj in range(int(2 * abs(j1 - j2)), tj + 1, 2):
        j = tjj / 2.0
        for m1 in half_integers(j1):
            if abs(m1) > j1 or (2 * m1) % 2 != (2 * j1) % 2:
                continue
            for m2 in half_integers(j2):
                if abs(m2) > j2 or (2 * m2) % 2 != (2 * j2) % 2:
                    continue
                m = m1 + m2
                if abs(m) > j:
                    continue
                ours = clebsch_gordan(j1, m1, j2, m2, j, m)
                ref = sympy_cg(j1, m1, j2, m2, j, m)
                assert ours == pytest.approx(ref, abs=1e-13)


def test_orthonormality_l1_s_half_block():
    """Exhaustive: sum over (mL, mS) of <..|J M><..|J' M'> = delta delta."""
    js = [(0.5, m / 2.0) for m in (-1, 1)] + [(1.5, m / 2.0) for m in (-3, -1, 1, 3)]
    for ja, ma in js:
        for jb, mb in js:
            acc = 0.0
            for ml in (-1, 0, 1):
                for ms in (-0.5, 0.5):
                    acc += (clebsch_gordan(1, ml, 0.5, ms, ja, ma)
                            * clebsch_gordan(1, ml, 0.5, ms, jb, mb))
            want = 1.0 if (ja, ma) == (jb, mb) else 0.0
            assert acc == pytest.approx(want, abs=1e-12)


# --- the LS table of the J=3/2 quartet ------------------------------------------

QUARTET_MJ = (-1.5, -0.5, 0.5, 1.5)


def ls_terms(mj):
    """{(mL, mS): coefficient} of the non-zero LS components of |3/2, mj>,
    read off the table."""
    row = ls_table()[QUARTET_MJ.index(mj)]
    return {(ml, ms): row[i, j] for i, ml in enumerate((-1, 0, 1))
            for j, ms in enumerate((-0.5, 0.5)) if row[i, j] != 0.0}


def test_ls_table_against_sympy():
    table = ls_table()
    assert table.shape == (4, 3, 2)
    for a, mj in enumerate(QUARTET_MJ):
        for b, ml in enumerate((-1, 0, 1)):
            for c, ms in enumerate((-0.5, 0.5)):
                assert table[a, b, c] == pytest.approx(
                    sympy_cg(1, ml, 0.5, ms, 1.5, mj), abs=1e-13)


def test_ls_table_light_hole_up():
    got = ls_terms(0.5)
    assert got[(0, 0.5)] == pytest.approx(SQ23, abs=1e-12)
    assert got[(1, -0.5)] == pytest.approx(SQ13, abs=1e-12)
    assert len(got) == 2


def test_ls_table_light_hole_down():
    got = ls_terms(-0.5)
    assert got[(0, -0.5)] == pytest.approx(SQ23, abs=1e-12)
    assert got[(-1, 0.5)] == pytest.approx(SQ13, abs=1e-12)


def test_ls_table_stretched_heavy_hole():
    got = ls_terms(-1.5)
    assert len(got) == 1
    assert got[(-1, -0.5)] == pytest.approx(1.0, abs=1e-12)


def test_ls_table_normalization():
    for mj in QUARTET_MJ:
        assert sum(c * c for c in ls_terms(mj).values()) == pytest.approx(1.0, abs=1e-12)
