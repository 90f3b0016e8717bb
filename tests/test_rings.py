from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from confalg.rings import Poly, RatFunc, falling, frac, inv_factorial


def P(*coeffs):
    return Poly([Fraction(c) for c in coeffs])


def test_frac_accepts_exact_inputs_only():
    assert frac(3) == Fraction(3)
    assert frac("2/5") == Fraction(2, 5)
    assert frac(Fraction(7, 2)) == Fraction(7, 2)
    with pytest.raises(TypeError):
        frac(0.5)


def test_falling_factorial_values():
    assert falling(5, 0) == 1
    assert falling(5, 2) == 20
    assert falling(2, 3) == 0
    assert falling(-1, 2) == 2
    assert inv_factorial(4) == Fraction(1, 24)


def test_poly_normalization_and_degree():
    assert P(0, 0).is_zero()
    assert P(0, 0).degree() == -1
    assert P(1, 0, 0) == P(1)
    assert P(0, 0, 3).degree() == 2
    assert P(1, 2).coeff(5) == 0


def test_poly_arithmetic():
    a = P(1, 2)
    b = P(3, 0, 1)
    assert a + b == P(4, 2, 1)
    assert a - a == Poly.zero()
    assert a * b == P(3, 6, 1, 2)
    assert a.scale(Fraction(1, 2)) == Poly([Fraction(1, 2), Fraction(1)])
    assert 2 * a == P(2, 4)
    assert a.shift(2) == P(0, 0, 1, 2)


def test_poly_divmod_and_exact_division():
    a = P(-1, 0, 1)
    b = P(1, 1)
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.is_zero()
    assert a.exact_div(b) == P(-1, 1)
    with pytest.raises(ValueError):
        P(1, 1, 1).exact_div(b)
    with pytest.raises(ZeroDivisionError):
        divmod(a, Poly.zero())


def test_poly_gcd_is_monic():
    a = P(-2, 0, 2)
    b = P(2, 2)
    g = Poly.gcd(a, b)
    assert g == P(1, 1)
    assert Poly.gcd(Poly.zero(), b) == P(1, 1)


def test_poly_map_roundtrip():
    a = Poly([Fraction(1, 2), Fraction(0), Fraction(-3)])
    m = a.to_map()
    assert m == {"0": "1/2", "2": "-3"}
    assert Poly.from_map(m) == a


def test_poly_text():
    assert P(0).text() == "0"
    assert P(1).text() == "1"
    assert Poly([Fraction(-1), Fraction(2)]).text() == "2*D - 1"


coeffs = st.lists(st.integers(-9, 9), min_size=0, max_size=5)


@given(coeffs, coeffs, coeffs)
def test_poly_ring_laws(a, b, c):
    pa, pb, pc = P(*a), P(*b), P(*c)
    assert pa * (pb + pc) == pa * pb + pa * pc
    assert (pa * pb) * pc == pa * (pb * pc)
    assert pa * pb == pb * pa
    assert pa + (-pa) == Poly.zero()


@given(coeffs, coeffs)
def test_poly_division_invariant(a, b):
    pa, pb = P(*a), P(*b)
    if pb.is_zero():
        return
    q, r = divmod(pa, pb)
    assert q * pb + r == pa
    assert r.is_zero() or r.degree() < pb.degree()


def test_ratfunc_reduction_and_field_laws():
    r = RatFunc(P(0, 2), P(0, 0, 4))
    # gcd cancels and the denominator is monic
    assert r == RatFunc(P(1), P(0, 2))
    s = RatFunc(P(1, 1))
    assert r + s - s == r
    assert (r * s) / s == r
    assert RatFunc(P(0)).is_zero()
    with pytest.raises(ZeroDivisionError):
        r / RatFunc(P(0))
