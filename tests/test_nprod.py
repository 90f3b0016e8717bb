"""ConformalAlgebra.nprod against the term-by-term closed form, on every
order up to three past the structural bound, on cold and warm basis tables;
the pair table fills only the orders the products reach. nprod_all against
the per-order products it gathers in one pass, and the kernel's windows on
shifted factors against nprod. Both routes to the products are bilinear."""

from functools import partial

from hypothesis import given, settings, strategies as st

from confalg.conformal import CElement
from confalg.oracle import dist_nprod, to_distribution
from confalg.rings import Poly
from reference_oracles import naive_nprod
from stock_structures import conformal


# each call builds a fresh structure whose basis table is empty
FACTORIES = {
    name: partial(conformal, name)
    for name in ["cend1", "cend2", "cur_matrix2", "dif_matrix_poly2_ad_e12", "table_ddx_plus_ad_e12"]
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


def elements(c, accs):
    """The elements of a kernel job's map order -> D-coefficient lists."""
    return {n: c._element(acc) for n, acc in accs.items()}


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
    [window] = per._products(pa, pb, [(0, 0, lo, hi)])
    assert {n: v for n, v in elements(per, window).items() if v.items} == {
        n: v for n, v in expected.items() if lo <= n <= hi
    }
    # on windows of D^i a (n) D^j b, each order against nprod of the shifted
    # factors; two jobs in one call, which share the lists of an i or a j,
    # give what each gives alone
    jobs = []
    for _ in range(2):
        i, j = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
        top = len(orders) + i + j
        first = data.draw(st.integers(0, top))
        jobs.append((i, j, first, data.draw(st.one_of(st.none(), st.integers(first, top)))))
    alone = [per._products(pa, pb, [job])[0] for job in jobs]
    assert per._products(pa, pb, jobs) == alone
    for (i, j, first, last), accs in zip(jobs, alone):
        da, db = pa.dapply(i), pb.dapply(j)
        shifted = {n: per.nprod(da, db, n) for n in range(first, len(orders) + i + j)}
        assert all(first <= n and (last is None or n <= last) for n in accs)
        assert {n: v for n, v in elements(per, accs).items() if v.items} == {
            n: v for n, v in shifted.items() if not v.is_zero() and (last is None or n <= last)
        }
    ref = FACTORIES[name]()
    ra, rb = rebase(a, ref), rebase(b, ref)
    naive = {n: naive_nprod(ref, ra, rb, n) for n in orders}
    assert {n: v.to_map() for n, v in got.items()} == {
        n: v.to_map() for n, v in naive.items() if not v.is_zero()
    }


def draw_sharing(data, c, degree):
    """Two elements on the same two or three basis symbols, each with a
    D-polynomial of degree <= 2 on every symbol: their sum adds on every
    key, and may cancel there."""
    keys = data.draw(st.lists(st.sampled_from(c.base.basis_upto(degree)), min_size=2, max_size=3, unique=True))
    poly = st.lists(COEFFS, min_size=1, max_size=3).map(Poly)
    return [CElement(c, {k: data.draw(poly) for k in keys}) for _ in range(2)]


def added(x, y):
    """Two order -> element maps added order by order, zero orders left out."""
    out = dict(x)
    for n, v in y.items():
        out[n] = out[n].add(v) if n in out else v
    return {n: v for n, v in out.items() if not v.is_zero()}


def added_terms(x, y):
    """Two lists of (d, key, s) -> coefficient maps added entry by entry,
    zero coefficients left out."""
    out = []
    for u, v in zip(x, y):
        s = dict(u)
        for t, c in v.items():
            s[t] = s.get(t, 0) + c
        out.append({t: c for t, c in s.items() if c})
    return out


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(FACTORIES)), data=st.data())
def test_both_routes_are_bilinear(name, data):
    """nprod_all and the residue sum dist_nprod, each in a and in b, on
    multi-term elements whose symbols coincide: a walk that set a sum's
    slot in place of adding to it would break the identities."""
    c = FACTORIES[name]()
    degree = KEY_DEGREE.get(name, 2)
    a, a2 = draw_sharing(data, c, degree)
    b, b2 = draw_sharing(data, c, degree)
    assert c.nprod_all(a.add(a2), b) == added(c.nprod_all(a, b), c.nprod_all(a2, b))
    assert c.nprod_all(a, b.add(b2)) == added(c.nprod_all(a, b), c.nprod_all(a, b2))
    top = 3
    f, f2, fs = (to_distribution(x) for x in (a, a2, a.add(a2)))
    g, g2, gs = (to_distribution(y) for y in (b, b2, b.add(b2)))
    assert dist_nprod(fs, g, top) == added_terms(dist_nprod(f, g, top), dist_nprod(f2, g, top))
    assert dist_nprod(f, gs, top) == added_terms(dist_nprod(f, g, top), dist_nprod(f, g2, top))
