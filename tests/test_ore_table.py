"""The per-derivation table of Ore monomial products against the naive
term-by-term product, on cold tables, warm tables, and distinct
derivations with equal descriptors; the naive expansion against the ring's
defining relation; and the closed form's independence from the table."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from confalg.algebra import (
    AlgebraError,
    Derivation,
    Element,
    MatrixPolyAlgebra,
    OreElement,
)
from confalg.conformal import check_axioms, sample_celement
from confalg.constructions import make_differential
from reference_oracles import naive_expansion, naive_ore_mul
from stock_structures import STOCK


# criterion 3's three structures, plus a table derivation; each call builds
# a fresh derivation whose table is empty
FACTORIES = {
    name: STOCK[name]
    for name in ["cend1", "cur_matrix2", "dif_matrix_poly2_ad_e12", "table_ddx_plus_ad_e12"]
}

# one derivation per structure kept across examples, so its table is warm
WARM = {name: make() for name, make in FACTORIES.items()}

COEFFS = st.one_of(st.integers(-5, 5), st.fractions(-3, 3, max_denominator=4))


def draw_ore(data, base, der):
    keys = base.basis_upto(3)
    items = {}
    for p in data.draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True)):
        picked = data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3, unique=True))
        items[p] = Element(base, {k: data.draw(COEFFS) for k in picked})
    return OreElement(base, der, items)


def rebase(x, base, der):
    return OreElement(base, der, {p: Element(base, e.items) for p, e in x.items.items()})


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(FACTORIES)), data=st.data())
def test_table_product_matches_the_naive_product(name, data):
    base, der = FACTORIES[name]()
    x, y = draw_ore(data, base, der), draw_ore(data, base, der)
    expected = naive_ore_mul(x, y)
    assert not der.ore_table
    # cold table, then the same product on the table it just filled
    assert x.mul(y) == expected
    assert x.mul(y) == expected
    wbase, wder = WARM[name]
    assert rebase(x, wbase, wder).mul(rebase(y, wbase, wder)) == expected
    # a second derivation with an equal descriptor has its own table
    base2, der2 = FACTORIES[name]()
    assert der2 == der and der2 is not der
    x2, y2 = rebase(x, base2, der2), rebase(y, base2, der2)
    assert x2.mul(y2) == expected
    assert x.mul(y2) == expected
    assert x2.mul(y) == expected


def test_table_entries_shift_with_the_right_power():
    base, der = FACTORIES["cend1"]()
    x = OreElement(base, der, {-1: base.parse_element({"x^2": "1"})})
    for q in range(-2, 3):
        y = OreElement(base, der, {q: base.parse_element({"x^3": "2"})})
        assert x.mul(y) == naive_ore_mul(x, y)
    # every right power reused the single entry for (x^2, -1, x^3)
    assert list(der.ore_table) == [((2, 1, 1), -1, (3, 1, 1))]


def test_each_symbol_orbit_is_walked_once_for_every_expansion(monkeypatch):
    """Every power p and left key k1 of (b_k1 t^p) b_k2 reads the one orbit
    of b_k2 memoised on the derivation (key_orbit): it is walked once per
    k2, and each table entry still equals the naive product."""
    base, der = FACTORIES["dif_matrix_poly2_ad_e12"]()
    honest = Derivation.orbit
    expanded = []

    def counted(self, x):
        expanded.append(tuple(x.items))
        return honest(self, x)

    monkeypatch.setattr(Derivation, "orbit", counted)
    keys = base.basis_upto(1)
    cases = [(k1, p, k2) for k1 in keys for p in (-2, 1, 3) for k2 in keys[:3]]
    got = {case: der.ore_monomial(*case) for case in cases}
    # one walk for each of the three symbols, whatever the power
    assert sorted(expanded) == sorted((k2,) for k2 in keys[:3])
    assert sorted(der.key_orbits) == sorted(keys[:3])
    monkeypatch.undo()
    for k1, p, k2 in cases:
        x = OreElement(base, der, {p: base.basis_element(k1)})
        y = OreElement(base, der, {0: base.basis_element(k2)})
        want = naive_ore_mul(x, y)
        assert sorted(got[(k1, p, k2)]) == sorted(
            (pw, k, c) for pw, el in want.items.items() for k, c in el.items.items()
        )


def t_times(der, e):
    """t e for e = sum c t^r, a map power -> Element, by
    t (c t^r) = c t^(r+1) - d(c) t^r, written out here rather than read from
    the reference under test."""
    out = {}
    for r, c in e.items():
        for s, v in ((r + 1, c), (r, der.apply(c).neg())):
            out[s] = out[s].add(v) if s in out else v
    return {s: v for s, v in out.items() if not v.is_zero()}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(FACTORIES)), data=st.data())
def test_the_naive_expansion_keeps_the_defining_relation(name, data):
    """For p in -3..2 and every basis key up to degree 3, t E(p, b) =
    E(p + 1, b): the naive expansion of t^p b, negative powers included,
    obeys t b = b t - d(b), on basis elements and on a drawn combination."""
    base, der = FACTORIES[name]()
    keys = base.basis_upto(3)
    picked = data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3, unique=True))
    drawn = Element(base, {k: data.draw(COEFFS) for k in picked})
    for b in [base.basis_element(k) for k in keys] + [drawn]:
        for p in range(-3, 3):
            assert t_times(der, naive_expansion(der, p, b)) == naive_expansion(der, p + 1, b)


def test_the_naive_expansion_refuses_an_iterate_past_the_bound():
    """The Euler operator x d/dx fixes x, so t^-1 x has no finite expansion:
    refused as the library refuses it, not summed forever."""
    base = MatrixPolyAlgebra(1)
    der = Derivation.table(base, {(k, 1, 1): base.basis_element((k, 1, 1)).scale(k) for k in range(4)})
    with pytest.raises(AlgebraError, match="not locally nilpotent"):
        naive_expansion(der, -1, base.basis_element((1, 1, 1)))


def test_the_closed_form_shares_no_code_with_the_ore_route(monkeypatch):
    """The mirror of the oracle route's independence: nprod, nprod_all,
    the kernel _products and check_axioms never reach the Ore commutation
    rule, and leave every Ore table empty."""

    def refuse(*args, **kwargs):
        raise AssertionError("the closed form reached the Ore commutation rule")

    monkeypatch.setattr(Derivation, "ore_monomial", refuse)
    for name in sorted(FACTORIES):
        base, der = FACTORIES[name]()
        c = make_differential(base, der)
        rng = random.Random(5)
        keys = base.basis_upto(3)
        a, b = sample_celement(c, rng, keys, 2), sample_celement(c, rng, keys, 2)
        bound = c.structural_bound(a, b)
        top = 0 if bound is None else bound + 1
        for m in range(top + 1):
            c.nprod(a, b, m)
        c.nprod_all(a, b)
        c._products(a, b, ((0, 0, 0, top), (1, 0, 0, top), (0, 1, 0, top)))
        assert check_axioms(c, samples=10, seed=1, degree=3)["ok"]
        assert not der.ore_table
