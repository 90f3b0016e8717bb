"""ConformalAlgebra.nprod against the term-by-term closed form, on every
order up to one past the structural bound, on cold and warm basis tables."""

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

COEFFS = st.one_of(st.integers(-5, 5), st.fractions(-3, 3, max_denominator=4))


def draw_celement(data, c):
    """Up to three basis symbols, each with a D-polynomial of degree <= 3
    (the degree a sampled element reaches after dapply); may be zero."""
    keys = c.base.basis_upto(2)
    picked = data.draw(st.lists(st.sampled_from(keys), max_size=3, unique=True))
    items = {}
    for k in picked:
        items[k] = Poly(data.draw(st.lists(COEFFS, min_size=1, max_size=4)))
    return CElement(c, items)


def rebase(x, c):
    return CElement(c, x.items)


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(sorted(FACTORIES)), data=st.data())
def test_nprod_matches_the_term_by_term_product(name, data):
    c = FACTORIES[name]()
    a, b = draw_celement(data, c), draw_celement(data, c)
    bound = c.structural_bound(a, b)
    top = 1 if bound is None else bound + 1
    ref = FACTORIES[name]()
    expected = [naive_nprod(ref, rebase(a, ref), rebase(b, ref), n) for n in range(top + 1)]
    assert not c._table
    # cold table, then the same products on the table they filled
    assert [c.nprod(a, b, n) for n in range(top + 1)] == expected
    assert [c.nprod(a, b, n) for n in range(top + 1)] == expected
    warm = WARM[name]
    wa, wb = rebase(a, warm), rebase(b, warm)
    got = [warm.nprod(wa, wb, n).to_map() for n in range(top + 1)]
    assert got == [e.to_map() for e in expected]
    if bound is not None:
        assert expected[-1].is_zero()

