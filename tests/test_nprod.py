"""ConformalAlgebra.nprod against the term-by-term closed form, on every
order up to three past the structural bound, on cold and warm basis tables;
the pair table fills only the orders the products reach. nprod_all against
the per-order products it gathers in one pass."""

from hypothesis import given, settings, strategies as st

from confalg.algebra import Derivation, MatrixAlgebra, MatrixPolyAlgebra
from confalg.conformal import CElement, ConformalAlgebra
from confalg.constructions import make_cend, make_current, make_differential
from confalg.rings import Poly
from reference_oracles import naive_nprod


def _dif_matrix_poly2_ad_e12():
    base = MatrixPolyAlgebra(2)
    return make_differential(base, Derivation.ad(base.parse_element({"e12": "1"})))


def _table_ddx_plus_ad_e12():
    # d/dx + ad(e12) on 2x2 matrices over Q[x] as a basis table up to
    # degree 3: basis products of several terms at one order
    base = MatrixPolyAlgebra(2)
    ddx, ad = Derivation.ddx(base), Derivation.ad(base.parse_element({"e12": "1"}))
    images = {}
    for k in base.basis_upto(3):
        b = base.basis_element(k)
        images[k] = ddx.apply(b).add(ad.apply(b))
    return ConformalAlgebra(base, Derivation.table(base, images), "table")


# each call builds a fresh structure whose basis table is empty
FACTORIES = {
    "cend1": lambda: make_cend(1),
    "cend2": lambda: make_cend(2),
    "cur_matrix2": lambda: make_current(MatrixAlgebra(2)),
    "dif_matrix_poly2_ad_e12": _dif_matrix_poly2_ad_e12,
    "table_ddx_plus_ad_e12": _table_ddx_plus_ad_e12,
}

# one structure per name kept across examples, so its table is warm
WARM = {name: make() for name, make in FACTORIES.items()}

# on Q[x] under d/dx, keys up to x^8 give delta-orbits of length 9
KEY_DEGREE = {"cend1": 8, "cend2": 8}

COEFFS = st.one_of(st.integers(-5, 5), st.fractions(-3, 3, max_denominator=4))


def draw_celement(data, c, degree):
    """Up to three basis symbols, each with a D-polynomial of degree <= 3
    (the degree a sampled element reaches after dapply); may be zero."""
    keys = c.base.basis_upto(degree)
    picked = data.draw(st.lists(st.sampled_from(keys), max_size=3, unique=True))
    items = {}
    for k in picked:
        items[k] = Poly(data.draw(st.lists(COEFFS, min_size=1, max_size=4)))
    return CElement(c, items)


def rebase(x, c):
    return CElement(c, x.items)


def filled_entries(c):
    """(symbol pair, order) of every computed basis product in the pair
    table."""
    return {(pair, m) for pair, row in c._pairs.items() for m, e in enumerate(row) if e is not None}


def top_filled_order(c):
    """Highest order at which any pair row holds a computed basis product,
    or -1 when none does."""
    return max((m for _, m in filled_entries(c)), default=-1)


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(sorted(FACTORIES)), data=st.data())
def test_nprod_matches_the_term_by_term_product(name, data):
    c = FACTORIES[name]()
    degree = KEY_DEGREE.get(name, 2)
    a, b = draw_celement(data, c, degree), draw_celement(data, c, degree)
    bound = c.structural_bound(a, b)
    top = 1 if bound is None else bound + 3
    ref = FACTORIES[name]()
    expected = [naive_nprod(ref, rebase(a, ref), rebase(b, ref), n) for n in range(top + 1)]
    assert not c._pairs
    # far past the bound every order window is empty: no row is filled
    assert c.nprod(a, b, 10**6).is_zero()
    assert not c._pairs
    # cold table up to an order n, which fills no entry above n
    n = data.draw(st.integers(0, top))
    assert [c.nprod(a, b, k) for k in range(n + 1)] == expected[: n + 1]
    assert top_filled_order(c) <= n
    # then every order, on the table the first ones filled, twice
    assert [c.nprod(a, b, k) for k in range(top + 1)] == expected
    assert [c.nprod(a, b, k) for k in range(top + 1)] == expected
    warm = WARM[name]
    wa, wb = rebase(a, warm), rebase(b, warm)
    got = [warm.nprod(wa, wb, k).to_map() for k in range(top + 1)]
    assert got == [e.to_map() for e in expected]
    if bound is not None:
        assert all(e.is_zero() for e in expected[bound + 1 :])


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(sorted(FACTORIES)), data=st.data())
def test_nprod_all_is_the_nonzero_per_order_map(name, data):
    c = FACTORIES[name]()
    degree = KEY_DEGREE.get(name, 2)
    a, b = draw_celement(data, c, degree), draw_celement(data, c, degree)
    got = c.nprod_all(a, b)
    filled = filled_entries(c)
    # the same pair one order at a time, up to three past the structural
    # bound, on a fresh table
    per = FACTORIES[name]()
    pa, pb = rebase(a, per), rebase(b, per)
    bound = per.structural_bound(pa, pb)
    orders = {n: per.nprod(pa, pb, n) for n in range((-1 if bound is None else bound) + 4)}
    expected = {n: v for n, v in orders.items() if not v.is_zero()}
    assert got == expected
    assert filled <= filled_entries(per)
    # the kernel on an order window of its own
    lo = data.draw(st.integers(0, len(orders) - 1))
    hi = data.draw(st.integers(lo, len(orders) - 1))
    window = {n: per._element(acc) for n, acc in per._products(pa, pb, lo, hi).items()}
    assert {n: v for n, v in window.items() if v.items} == {
        n: v for n, v in expected.items() if lo <= n <= hi
    }
    # and up to a highest order
    assert c.nprod_all(a, b, hi) == {n: v for n, v in expected.items() if n <= hi}
    ref = FACTORIES[name]()
    ra, rb = rebase(a, ref), rebase(b, ref)
    naive = {n: naive_nprod(ref, ra, rb, n) for n in orders}
    assert {n: v.to_map() for n, v in got.items()} == {
        n: v.to_map() for n, v in naive.items() if not v.is_zero()
    }
