"""No float enters a result: integral coefficients are stored as int, the
rest as Fraction, and every division is exact."""

from fractions import Fraction as F

import pytest

from confalg.constructions import make_cend
from confalg.linalg import Echelon, rref, solve_right
from confalg.oracle import Distribution, dist_nprod, to_distribution
from confalg.rings import Poly, RatFunc, div, frac
from reference_oracles import cscale


def exact(v):
    return type(v) is int or type(v) is F


def normal(v):
    """Exact, and an int whenever the value is integral."""
    return type(v) is int or (type(v) is F and v.denominator != 1)


def poly_normal(p):
    return all(normal(c) for c in p.coeffs)


def flat_normal(v):
    """A map to coefficients, such as a distribution's (d, key, s) terms."""
    return all(normal(c) for c in v.values())


def values_normal(d, lo, hi):
    """Every value of a distribution at the indices lo to hi."""
    return all(flat_normal(el.items) for n in range(lo, hi + 1) for el in d.value(n).items.values())


def test_div_is_exact():
    third = div(1, 3)
    assert third == F(1, 3) and type(third) is F
    two = div(4, 2)
    assert two == 2 and type(two) is int
    assert type(div(-6, 3)) is int
    assert type(div(F(3, 2), F(3, 4))) is int
    assert div(F(1, 2), 3) == F(1, 6)
    with pytest.raises(ZeroDivisionError):
        div(1, 0)


def test_frac_normalizes_and_refuses_inexact_values():
    assert type(frac(F(6, 3))) is int
    assert type(frac("4/2")) is int
    assert frac("2/6") == F(1, 3)
    for bad in (True, False, 0.5):
        with pytest.raises(TypeError):
            frac(bad)


def test_integer_inputs_give_exact_results():
    m = Poly([2, 4, 6]).monic()
    assert m == Poly([F(1, 3), F(2, 3), 1]) and poly_normal(m)

    q, r = divmod(Poly([1, 0, 1]), Poly([0, 2]))
    assert (q, r) == (Poly([0, F(1, 2)]), Poly([1]))
    assert poly_normal(q) and poly_normal(r)

    rf = RatFunc(Poly([2, 2]), Poly([3, 6]))
    assert rf.den == Poly([F(1, 2), 1]) and rf.num == Poly([F(1, 3), F(1, 3)])
    assert poly_normal(rf.num) and poly_normal(rf.den)

    ech = Echelon([{0: 2, 1: 3}, {0: 4, 1: 1, 2: 5}])
    assert sorted(ech.rows.items()) == [(0, {0: 1, 1: F(3, 2)}), (1, {1: 1, 2: -1})]
    assert all(normal(v) for row in ech.rows.values() for v in row.values())

    rows, pivots = rref([[2, 3, 1], [4, 1, 5]])
    assert (rows, pivots) == ([[1, 0, F(7, 5)], [0, 1, F(-3, 5)]], [0, 1])
    assert all(exact(v) for row in rows for v in row)

    x = solve_right([[2, 3], [4, 1]], [1, 1])
    assert x == [F(1, 5), F(1, 5)] and all(exact(v) for v in x)

    c = make_cend(1)
    l1 = c.named_element("L1")
    a = l1.add(cscale(l1.dapply(), 3))
    b = c.named_element("L0").add(c.named_element("L1").dapply(2))
    for n in range(4):
        assert all(poly_normal(p) for p in c.nprod(a, b, n).items.values())
    f, g = to_distribution(a), to_distribution(b)
    assert all(flat_normal(d.terms) and values_normal(d, -4, 4) for d in (f, g))
    terms = dist_nprod(f, g, 2)[2]
    assert terms and flat_normal(terms)
    assert values_normal(Distribution(f.base, f.der, terms), -4, 2)
    # halves meeting doubles: every coefficient is integral, so every one is
    # an int, on both sides of the residue sum
    f2 = to_distribution(cscale(a, F(1, 2)))
    g2 = to_distribution(cscale(b, 2))
    assert any(type(c) is F for c in f2.terms.values())
    terms2 = dist_nprod(f2, g2, 2)[2]
    assert terms2 == terms and all(type(c) is int for c in terms2.values())
