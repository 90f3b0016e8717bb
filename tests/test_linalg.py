from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from confalg.linalg import (
    Echelon,
    bareiss_rank,
    pol_constant_intersection,
    rref,
    solve_right,
)
from confalg.rings import Poly, RatFunc

Z = Fraction(0)
I = Fraction(1)


def fmat(rows):
    return [[Fraction(e) for e in r] for r in rows]


def pmat(rows):
    return [[Poly([Fraction(c) for c in e]) for e in r] for r in rows]


def sparse(row):
    return {j: e for j, e in enumerate(row) if e}


def test_rref_pivots_and_rank():
    m, pivots = rref(fmat([[1, 2, 3], [2, 4, 6], [0, 1, 1]]))
    assert pivots == [0, 1]
    assert m == fmat([[1, 0, 1], [0, 1, 1]])
    assert len(rref(fmat([[1, 2], [3, 4]]))[1]) == 2
    assert rref([]) == ([], [])


def test_echelon_add_reduce_and_basis():
    ech = Echelon()
    assert ech.add({1: Fraction(2), 2: Fraction(4)})
    assert ech.add({0: I, 1: I})
    assert not ech.add({0: I, 1: Fraction(3), 2: Fraction(4)})
    assert ech.rank == 2
    assert not ech.reduce({1: I, 2: Fraction(2)})
    assert ech.reduce({2: I}) == {2: I}
    assert ech.basis() == [(0, {0: I, 2: Fraction(-2)}), (1, {1: I, 2: Fraction(2)})]


def test_solve_right_prefers_zero_free_variables():
    a = fmat([[1, 1, 0], [0, 0, 1]])
    x = solve_right(a, [Fraction(2), Fraction(5)])
    assert x == [Fraction(2), Z, Fraction(5)]
    assert solve_right(fmat([[1], [1]]), [I, Fraction(2)]) is None


def test_solve_right_rejects_a_right_hand_side_of_the_wrong_length():
    with pytest.raises(ValueError):
        solve_right(fmat([[1, 0], [0, 1]]), [I])
    with pytest.raises(ValueError):
        solve_right(fmat([[1, 0]]), [I, I])
    with pytest.raises(ValueError):
        solve_right([], [I])


def test_bareiss_rank_on_polynomial_matrix():
    x = Poly((0, 1))
    one = Poly.one()
    rows = [[one, x], [x, x * x]]
    assert bareiss_rank(rows) == 1
    rows = [[one, x], [x, x * x + one]]
    assert bareiss_rank(rows) == 2


entry = st.integers(-6, 6)


@settings(max_examples=60)
@given(
    st.integers(1, 4).flatmap(
        lambda nc: st.lists(
            st.lists(
                st.lists(entry, min_size=0, max_size=3), min_size=nc, max_size=nc
            ),
            min_size=1,
            max_size=4,
        )
    )
)
def test_bareiss_agrees_with_field_elimination(raw):
    rows = pmat(raw)
    over_field = Echelon(sparse([RatFunc(p) for p in r]) for r in rows)
    assert bareiss_rank(rows) == over_field.rank


rational = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
)


@st.composite
def systems(draw):
    nr = draw(st.integers(1, 5))
    nc = draw(st.integers(1, 5))
    a = draw(st.lists(st.lists(rational, min_size=nc, max_size=nc), min_size=nr, max_size=nr))
    b = draw(st.lists(rational, min_size=nr, max_size=nr))
    v = draw(st.lists(rational, min_size=nc, max_size=nc))
    return a, b, v


def to_fraction(q):
    return Fraction(int(q.p), int(q.q))


@settings(max_examples=150, deadline=None)
@given(systems())
def test_kernel_agrees_with_sympy(system):
    sympy = pytest.importorskip("sympy")
    a, b, v = system
    m = sympy.Matrix([[sympy.Rational(e.numerator, e.denominator) for e in r] for r in a])
    reduced, pivots = m.rref()
    rank = len(pivots)

    ech = Echelon(sparse(r) for r in a)
    assert ech.rank == rank
    got_rows, got_pivots = rref(a)
    assert got_pivots == list(pivots)
    assert got_rows == [[to_fraction(e) for e in reduced.row(i)] for i in range(rank)]
    assert ech.basis() == [(p, sparse(r)) for p, r in zip(got_pivots, got_rows)]

    vrow = sympy.Matrix([[sympy.Rational(e.numerator, e.denominator) for e in v]])
    member = m.col_join(vrow).rank() == rank
    assert (not ech.reduce(sparse(v))) == member

    rhs = sympy.Matrix([sympy.Rational(e.numerator, e.denominator) for e in b])
    try:
        sol, params = m.gauss_jordan_solve(rhs)
    except ValueError:
        assert solve_right(a, b) is None
    else:
        sol = sol.subs({p: 0 for p in params})
        assert solve_right(a, b) == [to_fraction(e) for e in sol]


def test_pol_constant_intersection():
    x = Poly((0, 1))
    one = Poly.one()
    # module generated by (x, 1) and (x^2, x): x*(x,1) - (x^2,x) = 0, so
    # constants come only from the first row scaled, none exist
    vecs = pol_constant_intersection([[x, one], [x * x, x]])
    assert vecs == []
    # (1+x, x) and (x, x): difference is (1, 0)
    vecs = pol_constant_intersection([[one + x, x], [x, x]])
    assert vecs == [[I, Z]]
