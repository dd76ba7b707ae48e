"""Exact polynomial arithmetic in z."""

import pytest
from hypothesis import given, strategies as st

from partalg.zpoly import ZPoly, parse_zpoly

poly_st = st.builds(ZPoly, st.lists(st.integers(min_value=-9, max_value=9),
                                    max_size=5))


def test_basics():
    z = ZPoly((0, 1))
    assert str(z * z * 3 - 1) == "3z^2-1"
    assert str(z) == "z"
    assert str(ZPoly((1,))) == "1"
    assert str(-z) == "-z"
    assert str(ZPoly()) == "0"
    assert ZPoly((1, 0, 0)) == ZPoly((1,))
    assert (z + 1)(4) == 5
    assert (z * z - 2)(3) == 7


def test_parse():
    assert parse_zpoly("3z^2-1") == ZPoly((-1, 0, 3))
    assert parse_zpoly("z") == ZPoly((0, 1))
    assert parse_zpoly("-2z") == ZPoly((0, -2))
    assert parse_zpoly("7") == ZPoly((7,))
    assert parse_zpoly("z^3+z") == ZPoly((0, 1, 0, 1))
    # repeated exponents add up, and may cancel
    assert parse_zpoly("3z^2-1+z^2") == ZPoly((-1, 0, 4))
    assert parse_zpoly("z-z") == ZPoly() == 0
    with pytest.raises(ValueError):
        parse_zpoly("")
    with pytest.raises(ValueError):
        parse_zpoly("z**2")
    for text in ("\u0663z", "z^\u0662"):   # Arabic-Indic digits 3 and 2
        with pytest.raises(ValueError, match="malformed term"):
            parse_zpoly(text)
    for text in ("z\n+1", "3\n", "z^2\n-z"):   # a term ends at its last digit
        with pytest.raises(ValueError, match="malformed term"):
            parse_zpoly(text)


def test_only_ints_and_polynomials_mix_with_polynomials():
    p = ZPoly((1,))
    for op in (lambda: p + 1.5, lambda: 1.5 + p, lambda: p - 1.5,
               lambda: p * 1.5, lambda: 1.5 * p, lambda: p + "1",
               lambda: p * None, lambda: ZPoly([0.5, 2])):
        with pytest.raises(TypeError):
            op()
    assert p != 1.5 and not p == 1.5 and p == 1
    # equal values hash equal, so a constant finds its int's dict entry
    assert hash(p) == hash(1) and hash(ZPoly()) == hash(0)
    assert {1: "x"}[p] == "x"


@given(poly_st)
def test_format_parse_round_trip(p):
    if not p:
        return
    assert parse_zpoly(str(p)) == p


@given(poly_st, poly_st, poly_st)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(poly_st, st.integers(min_value=-5, max_value=5))
def test_evaluation_is_a_homomorphism(p, n):
    q = p * p + p - 3
    assert q(n) == p(n) * p(n) + p(n) - 3
