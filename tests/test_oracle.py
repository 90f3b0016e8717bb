import itertools
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from confalg import oracle as oracle_module
from confalg.algebra import (
    AlgebraError,
    Derivation,
    MatrixAlgebra,
    MatrixPolyAlgebra,
    OreElement,
    normal_map,
)
from confalg.conformal import CElement, ConformalAlgebra, sample_celement
from confalg.constructions import make_cend, make_current
from confalg.oracle import (
    Distribution,
    OracleError,
    coeff_assoc_check,
    dist_nprod,
    oracle_check,
    sample_ore,
    to_distribution,
)
from confalg.rings import Poly, falling
from confalg.specfile import load_spec
from recorded_reports import SPECS, spec
from reference_oracles import (
    cscale,
    naive_dist_nprod,
    naive_value,
    ore_product,
    randint_sample_ore,
    streams_fail_on_first_draw,
)
from stock_structures import conformal


def test_distribution_values_at_any_index():
    c = make_current(MatrixAlgebra(2))
    e12 = c.tilde(c.base.parse_element({"e12": "1"}))
    f = to_distribution(e12)
    # a plain tilde element is b t^n at every n
    assert f.value(2).to_map() == {"2": {"e12": "1"}}
    assert f.value(40).to_map() == {"40": {"e12": "1"}}
    assert f.value(-7).to_map() == {"-7": {"e12": "1"}}


def test_distribution_of_a_d_power_uses_falling_factorials():
    c = make_cend(1)
    l0 = c.named_element("L0")
    f = to_distribution(l0.dapply(2))
    # (D^2 b)~ at n is n(n-1) b t^(n-2)
    assert f.value(3).to_map() == {"1": {"1": "6"}}
    assert f.value(1).is_zero()
    assert f.value(-1).to_map() == {"-3": {"1": "2"}}


def test_first_difference_from_a_start():
    c = make_current(MatrixAlgebra(2))
    one = c.tilde(c.base.one())
    f, g = to_distribution(one), to_distribution(one)
    # one map for every n
    assert g.terms == f.terms == {(0, k, 0): 1 for k in c.base.one().items}
    assert f.first_difference(g, -4) is None
    h = to_distribution(cscale(one, Fraction(2)))
    assert f.first_difference(h, -4) == -4
    assert f.first_difference(h, 5) == 5
    # (D 1)~ is -n t^(n-1): zero at n = 0, so from 0 the first difference is
    # at 1, and from any other start it is the start
    h0 = to_distribution(one.add(one.dapply()))
    assert f.value(0) == h0.value(0)
    assert f.first_difference(h0, 0) == 1
    assert f.first_difference(h0, -3) == -3
    assert f.first_difference(h0, 1) == 1


def test_zero_distributions_over_different_rings_differ():
    c, d = make_cend(1), make_current(MatrixAlgebra(2))
    f = Distribution(c.base, c.der, {})
    g = Distribution(d.base, d.der, {})
    assert f != g
    assert f == to_distribution(c.zero())


def test_dist_nprod_order_requirements():
    c = make_current(MatrixAlgebra(2))
    one = c.tilde(c.base.one())
    f = to_distribution(one)
    with pytest.raises(OracleError):
        dist_nprod(f, f, -1)
    # every order from 0 to top, one map each
    unit = {(0, k, 0): 1 for k in c.base.one().items}
    assert dist_nprod(f, f, 1) == [unit, {}]
    assert dist_nprod(f, f, 3) == [unit, {}, {}, {}]


def test_current_distributions_collapse_above_order_zero():
    c = make_current(MatrixAlgebra(2))
    a = c.tilde(c.base.parse_element({"e11": "1", "e12": "2"}))
    b = c.tilde(c.base.parse_element({"e21": "-1"}))
    # order zero carries the base product, higher orders vanish identically
    base_prod = c.tilde(c.base.parse_element({"e11": "-2"}))
    got = dist_nprod(to_distribution(a), to_distribution(b), 3)
    assert got[0] == to_distribution(base_prod).terms
    assert got[1:] == [{}, {}, {}]


# criterion 3's three structures, plus a table derivation and d/dx on a
# direct sum
STRUCTURES = {
    name: partial(conformal, name)
    for name in [
        "cend1",
        "cur_matrix2",
        "dif_matrix_poly2_ad_e12",
        "table_ddx_plus_ad_e12",
        "sum_poly_matrix_poly2_ddx",
    ]
}


def family_value(c, terms, n):
    """sum c ff(n,s) b_key t^(n+d) over a (d, key, s) -> c map, term by term
    through Element.add."""
    out = {}
    for (d, k, s), x in terms.items():
        el = c.base.basis_element(k).scale(x * falling(n, s))
        out[n + d] = out[n + d].add(el) if n + d in out else el
    return OreElement(c.base, c.der, out)


def draw_terms(data, c):
    """A (d, key, s) -> coefficient map with integral and non-integral thirds,
    as Fractions."""
    keys = c.base.basis_upto(2)
    terms = {}
    for _ in range(data.draw(st.integers(0, 5))):
        t = (
            data.draw(st.integers(-3, 3)),
            data.draw(st.sampled_from(keys)),
            data.draw(st.integers(0, 3)),
        )
        terms[t] = Fraction(data.draw(st.integers(-6, 6).filter(bool)), 3)
    return terms


def draw_distribution(data, c, rng):
    """A distribution: a sampled conformal element's, a family with any
    (d, key, s) terms, or zero everywhere."""
    kind = data.draw(st.sampled_from(["conformal", "family", "zero"]))
    if kind == "conformal":
        return to_distribution(sample_celement(c, rng, c.base.basis_upto(3), 2))
    terms = draw_terms(data, c) if kind == "family" else {}
    return Distribution(c.base, c.der, terms)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(STRUCTURES)), data=st.data())
def test_distribution_values_have_one_canonical_form(name, data):
    """Stored zero coefficients and integral Fractions do not change a
    distribution, each value is the family's formula at n, and two families
    agree at every n exactly when their maps are equal; from any start, a
    difference shows within S + 1 indices, S the largest s."""
    c = STRUCTURES[name]()
    keys = c.base.basis_upto(2)
    lo = data.draw(st.integers(-3, 1))
    hi = lo + data.draw(st.integers(0, 4))
    drawn = draw_terms(data, c)
    clean = {t: x.numerator if x.denominator == 1 else x for t, x in drawn.items()}
    noisy = {t: x if data.draw(st.booleans()) else clean[t] for t, x in drawn.items()}
    for _ in range(data.draw(st.integers(0, 2))):
        t = (data.draw(st.integers(-3, 3)), data.draw(st.sampled_from(keys)), 0)
        noisy.setdefault(t, data.draw(st.sampled_from([0, Fraction(0)])))
    d = Distribution(c.base, c.der, noisy)
    assert d == Distribution(c.base, c.der, clean)
    assert d.terms == clean
    assert all(type(x) is int or x.denominator != 1 for x in d.terms.values())
    for n in range(lo, hi + 1):
        assert d.value(n) == family_value(c, drawn, n)

    # a second family: the same map, or one coefficient changed or dropped
    other = dict(clean)
    if other and data.draw(st.booleans()):
        t = data.draw(st.sampled_from(sorted(other, key=repr)))
        other[t] = data.draw(st.sampled_from([0, other[t] + 1]))
    e = Distribution(c.base, c.der, other)
    first = d.first_difference(e, lo)
    assert (first is None) == (d.terms == e.terms) == (d == e)
    if first is None:
        return
    top = max(s for _, _, s in set(d.terms) | set(e.terms))
    # from a start below or past the first difference from lo
    start = data.draw(st.integers(first - 4, first + 4))
    for begin, n in ((lo, first), (start, d.first_difference(e, start))):
        assert begin <= n <= begin + top
        assert family_value(c, d.terms, n) != family_value(c, e.terms, n)
        for k in range(begin, n):
            assert family_value(c, d.terms, k) == family_value(c, e.terms, k)
    if lo <= start <= first:
        assert d.first_difference(e, start) == first


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(STRUCTURES)), data=st.data())
def test_dist_nprod_matches_the_pairwise_residue_sum(name, data):
    c = STRUCTURES[name]()
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    top = data.draw(st.integers(0, 5))
    f, g = draw_distribution(data, c, rng), draw_distribution(data, c, rng)
    lo = data.draw(st.integers(-4, 2))
    hi = lo + top + data.draw(st.integers(0, 4))
    # one pass for every order up to top, as oracle_check makes it; order m
    # is compared on [lo, hi - m], at least top - m + 1 indices
    every = one_pass(f, g, top)
    assert sorted(every) == list(range(top + 1))
    for m in range(top + 1):
        assert agrees(every[m], naive_dist_nprod(f, g, m, lo, hi - m))
    # a pass up to a lower order: the same maps, whatever the pass's top
    low = data.draw(st.integers(0, top))
    assert dist_nprod(f, g, low) == [every[m].terms for m in range(low + 1)]


def agrees(d, ref):
    """The same value at every index the reference was evaluated on."""
    return all(d.value(n) == ref.value(n) for n in range(ref.lo, ref.hi + 1))


def one_pass(f, g, top):
    """Every order m of one dist_nprod pass up to top, each as a
    Distribution."""
    return {m: Distribution(f.base, f.der, terms) for m, terms in enumerate(dist_nprod(f, g, top))}


def traced_levels(monkeypatch):
    """A list that receives (symbols, levels) of every _leading_differences
    call dist_nprod makes."""
    seen = []
    honest = oracle_module._leading_differences

    def traced(dist, symbols, top):
        lead = honest(dist, symbols, top)
        seen.append((symbols, lead))
        return lead

    monkeypatch.setattr(oracle_module, "_leading_differences", traced)
    return seen


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(STRUCTURES)), data=st.data())
def test_distributions_hold_at_every_n(name, data):
    """On [-20, 20], wider than oracle_check's default window 8, a conformal
    element's distribution is its formula, and the order-m product of two is
    the residue sum evaluated at each n."""
    c = STRUCTURES[name]()
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    keys = c.base.basis_upto(3)
    a, b = sample_celement(c, rng, keys, 2), sample_celement(c, rng, keys, 2)
    f, g = to_distribution(a), to_distribution(b)
    for n in range(-20, 21):
        assert f.value(n) == naive_value(a, n)
    bound = c.structural_bound(a, b)
    m = data.draw(st.integers(0, min(0 if bound is None else bound + 1, 8)))
    assert agrees(one_pass(f, g, m)[m], naive_dist_nprod(f, g, m, -20, 20))


@pytest.mark.parametrize("lower", [None, 0, 1])
@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_a_left_factor_vanishing_on_its_first_indices(name, lower):
    """a = D^3 b~ has f(0) = f(1) = f(2) = 0 and f(3) != 0, so every level of
    a short difference table is zero and the first nonzero row comes late;
    a lower term D^lower b'~ makes the earlier rows nonzero. Every order
    comes from one pass."""
    c = STRUCTURES[name]()
    keys = c.base.basis_upto(2)
    a = c.tilde(c.base.basis_element(keys[-1])).dapply(3)
    if lower is not None:
        a = a.add(c.tilde(c.base.basis_element(keys[0])).dapply(lower))
    b = sample_celement(c, random.Random(11), keys, 2)
    f, g = to_distribution(a), to_distribution(b)
    assert all(f.value(i).is_zero() for i in range(3)) == (lower is None)
    assert not f.value(3).is_zero()
    expected = {m: naive_dist_nprod(f, g, m, -4, 10 - m) for m in range(7)}
    assert any(not expected[m].value(n).is_zero() for m in range(4, 7) for n in range(-4, 4))
    every = one_pass(f, g, 6)
    for m in range(7):
        assert agrees(every[m], expected[m])


def test_dist_nprod_on_a_deep_difference_table(monkeypatch):
    """Keys of degree 6 to 8 on cend1: the rows f(i) b_k, powers lowered by
    i, are polynomials of degree >= 6 in i, so every order m <= 8 reads a
    nonzero level of the table of the one pass."""
    c = make_cend(1)
    keys = [k for k in c.base.basis_upto(8) if k not in set(c.base.basis_upto(5))]
    rng = random.Random(23)

    def element(picked):
        # nonzero coefficients only, so f(0) != 0 too
        coeffs = [-2, -1, 1, 3]
        return CElement(c, {k: Poly([rng.choice(coeffs) for _ in range(3)]) for k in picked})

    a, b = element(keys[:2]), element(keys[-2:])
    f, g = to_distribution(a), to_distribution(b)
    seen = traced_levels(monkeypatch)
    every = one_pass(f, g, 8)
    for m in range(9):
        assert agrees(every[m], naive_dist_nprod(f, g, m, -3, 11 - m))
    # the one pass's table: every level, down to the eighth, is nonzero on
    # the slots of each symbol of g
    [(symbols, lead)] = seen
    assert sorted(symbols) == sorted({k for _, k, _ in g.terms}) and len(symbols) == 2
    assert len(lead) == 9
    for level in lead:
        assert {k for (k, _, _), _ in level} == set(symbols)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(STRUCTURES)), data=st.data())
def test_one_dist_nprod_pass_matches_the_reference(name, data):
    """Families with int and Fraction coefficients, mixed in one family;
    terms of s up to 4 vanish on the first indices, so their slots enter the
    difference table at a later row. Every order of one pass is compared
    with the reference sum."""
    c = STRUCTURES[name]()
    keys = c.base.basis_upto(2)

    def terms():
        out = {}
        for _ in range(data.draw(st.integers(1, 5))):
            t = (
                data.draw(st.integers(-3, 3)),
                data.draw(st.sampled_from(keys)),
                data.draw(st.integers(0, 4)),
            )
            x = data.draw(st.integers(-6, 6).filter(bool))
            if data.draw(st.booleans()):
                x = Fraction(x, data.draw(st.sampled_from([2, 3])))
            out[t] = x
        return out

    top = data.draw(st.integers(0, 6))
    f = Distribution(c.base, c.der, terms())
    g = Distribution(c.base, c.der, terms())
    lo = data.draw(st.integers(-4, 1))
    hi = lo + top + data.draw(st.integers(0, 3))
    every = one_pass(f, g, top)
    for m in range(top + 1):
        assert agrees(every[m], naive_dist_nprod(f, g, m, lo, hi - m))


def test_two_right_symbols_reaching_the_same_slot():
    """On 2x2 matrices, e11 e11 = e11 = e12 e21: rows f(i) b_k for the right
    symbols e11 and e21 both reach the (power, key) slot (0, e11), with
    different coefficients, so one table keyed without the symbol would
    credit each symbol's terms of g with the other's row."""
    c = make_current(MatrixAlgebra(2))
    e11, e12, e21 = (c.base.parse_key(n) for n in ("e11", "e12", "e21"))
    a = CElement(c, {e11: Poly([2, 0, 1]), e12: Poly([-3, 1])})
    b = CElement(c, {e11: Poly([1, 1]), e21: Poly([5, 0, -2])})
    f, g = to_distribution(a), to_distribution(b)
    every = one_pass(f, g, 4)
    reached = False
    for m in range(5):
        expected = naive_dist_nprod(f, g, m, -4, 6 - m)
        assert agrees(every[m], expected)
        reached = reached or any(not expected.value(n).is_zero() for n in range(-4, 7 - m))
    assert reached
    # row 0: (2 e11 - 3 e12) e11 = 2 e11 and (2 e11 - 3 e12) e21 = -3 e11
    left = f.value(0).items[0]
    assert left.mul(c.base.basis_element(e11)).items == {e11: 2}
    assert left.mul(c.base.basis_element(e21)).items == {e11: -3}


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_a_slot_that_first_appears_at_a_later_row(monkeypatch, name):
    """f(i) = u t^i + (1/2) i (i - 1) u t^(i-2), u the sum of the basis
    symbols of degree <= 1: rows 0 and 1, powers lowered by i, hold slots
    at powers 0 and -1 only, and row 2 brings slots at power -2 and below,
    so the earlier differences are zero-padded to them."""
    c = STRUCTURES[name]()
    keys = c.base.basis_upto(1)
    terms = {(0, k, 0): 1 for k in keys}
    terms.update({(-2, k, 2): Fraction(1, 2) for k in keys})
    f = Distribution(c.base, c.der, terms)
    g = to_distribution(sample_celement(c, random.Random(3), c.base.basis_upto(2), 2))
    seen = traced_levels(monkeypatch)
    every = one_pass(f, g, 5)
    for m in range(6):
        assert agrees(every[m], naive_dist_nprod(f, g, m, -3, 9 - m))
    [(symbols, lead)] = seen
    for k in symbols:
        first = {slot for slot, _ in lead[0] if slot[0] == k}
        later = {slot for level in lead[2:] for slot, _ in level if slot[0] == k}
        assert first and all(p == 0 for _, p, _ in first)
        assert any(p <= -2 for _, p, _ in later)


def test_dist_nprod_refuses_distributions_over_different_rings():
    c, d = make_cend(1), conformal("dif_matrix_poly2_ad_e12")
    f = to_distribution(c.tilde(c.base.one()))
    g = to_distribution(d.tilde(d.base.one()))
    with pytest.raises(AlgebraError, match="different rings"):
        dist_nprod(f, g, 1)


def test_oracle_route_shares_no_code_with_the_closed_form(monkeypatch):
    """to_distribution and dist_nprod reach no method of ConformalAlgebra:
    every one but the dunders is refused while they run. They read delta
    only through the derivation (its Ore table and its orbit table)."""

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle route reached the closed form")

    samples = []
    for name in sorted(STRUCTURES):
        c = STRUCTURES[name]()
        rng = random.Random(5)
        keys = c.base.basis_upto(3)
        samples.append((sample_celement(c, rng, keys, 2), sample_celement(c, rng, keys, 2)))
    refused = [
        name for name, v in vars(ConformalAlgebra).items() if callable(v) and not name.startswith("__")
    ]
    assert {"nprod", "nprod_all", "_products", "basis_nprod", "nilp_key", "structural_bound"} <= set(refused)
    for attr in refused:
        monkeypatch.setattr(ConformalAlgebra, attr, refuse)
    for a, b in samples:
        dist_nprod(to_distribution(a), to_distribution(b), 3)


def test_oracle_agreement_on_the_stock_structures():
    for name in ["cur_matrix2", "dif_matrix_poly2_ad_e12", "cend1"]:
        c = conformal(name)
        report = oracle_check(c, samples=15, seed=3, window=6, degree=3)
        assert report["ok"], report["violation"]
        assert report["orders_checked"] > 0


@pytest.mark.parametrize("window", [1, 8])
def test_oracle_check_reads_the_closed_form_once_per_sample(monkeypatch, window):
    """Every order a sample checks comes from one call of the closed-form
    kernel with the one job (0, 0, 0, top), top = min(structural bound + 1,
    window), read as its sums, and from one dist_nprod pass to the same
    top: no element is built for a product, nprod and nprod_all are never
    called, and the kernel makes no order above top."""
    honest_products = ConformalAlgebra._products
    honest_residue = oracle_module.dist_nprod
    made, residues = [], []

    def counted_products(self, a, b, jobs):
        accs = honest_products(self, a, b, jobs)
        made.append((list(jobs), [sorted(acc) for acc in accs]))
        return accs

    def counted_residue(f, g, top):
        out = honest_residue(f, g, top)
        residues.append((top, len(out)))
        return out

    def refuse(*args, **kwargs):
        raise AssertionError("oracle_check went through a product element")

    for attr in ("nprod", "nprod_all", "_element"):
        monkeypatch.setattr(ConformalAlgebra, attr, refuse)
    monkeypatch.setattr(ConformalAlgebra, "_products", counted_products)
    monkeypatch.setattr(oracle_module, "dist_nprod", counted_residue)
    checked = 0
    for name in sorted(STRUCTURES):
        report = oracle_check(STRUCTURES[name](), samples=6, seed=2, window=window, degree=3)
        assert report["ok"], report["violation"]
        checked += report["orders_checked"]
    assert len(made) == len(residues) == 6 * len(STRUCTURES)
    tops = [jobs[0][3] for jobs, _ in made]
    assert [jobs for jobs, _ in made] == [[(0, 0, 0, top)] for top in tops]
    assert checked == sum(top + 1 for top in tops)
    assert max(tops) == window
    assert all(n <= top for top, (_, [orders]) in zip(tops, made) for n in orders)
    # one residue pass per sample, to the same top, making every order
    assert residues == [(top, top + 1) for top in tops]


def cancelling_pair(data, c):
    """a = P k1~ + Q k3~ and b = R k2~ + S k4~ with k1 k2 = k3 k4 = w, where
    neither k1 k4 nor k3 k2 is w, and P(0) = Q(0) = 1, so the kernel's
    order-0 sums at w are R + S: drawn to vanish wholly or only in their
    top coefficient. Returns (a, b, w)."""
    keys = c.base.basis_upto(1)
    prod = c.base.key_product
    quads = [
        (k1, k2, k3, k4)
        for k1, k2, k3, k4 in itertools.product(keys, repeat=4)
        if k1 != k3
        and k2 != k4
        and prod(k1, k2) is not None
        and prod(k1, k2) == prod(k3, k4) not in (prod(k1, k4), prod(k3, k2))
    ]
    k1, k2, k3, k4 = data.draw(st.sampled_from(quads))
    coeff = st.integers(-3, 3)
    p, q = ([1] + data.draw(st.lists(coeff, max_size=2)) for _ in range(2))
    r = data.draw(st.lists(coeff, min_size=1, max_size=2)) + [data.draw(coeff.filter(bool))]
    s = [-x for x in r]
    if data.draw(st.booleans()):
        s[0] += data.draw(st.sampled_from([-1, 1]))
    a = CElement(c, {k1: Poly(p), k3: Poly(q)})
    b = CElement(c, {k2: Poly(r), k4: Poly(s)})
    return a, b, prod(k1, k2)


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(STRUCTURES)), data=st.data())
def test_family_terms_of_the_kernel_sums_are_the_product_distribution(name, data):
    """oracle_check reads each order of the closed form as _family_terms of
    the kernel's sums, which can cancel wholly or in their top
    coefficients: that must be the distribution of nprod_all's element at
    the order, an absent order read as {}. Half the pairs are drawn so that
    their order-0 sums cancel at one key."""
    c = STRUCTURES[name]()
    if data.draw(st.booleans()):
        a, b, w = cancelling_pair(data, c)
    else:
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        keys = c.base.basis_upto(3)
        a, b, w = sample_celement(c, rng, keys, 2), sample_celement(c, rng, keys, 2), None
    bound = c.structural_bound(a, b)
    top = (0 if bound is None else bound + 1) + data.draw(st.integers(0, 2))
    [sums] = c._products(a, b, ((0, 0, 0, top),))
    if w is not None:
        assert sums[0][w][-1] == 0
    products = c.nprod_all(a, b)
    assert all(m <= top for m in products)
    for m in range(top + 1):
        got = normal_map(oracle_module._family_terms(sums.get(m, {}).items()))
        assert got == to_distribution(products.get(m, c.zero())).terms


def test_oracle_catches_a_corrupted_structure_table():
    class FlippedC(ConformalAlgebra):
        def basis_nprod(self, k1, k2, m):
            tab = super().basis_nprod(k1, k2, m)
            if m == 1:
                return {k: -v for k, v in tab.items()}
            return tab

    base = MatrixPolyAlgebra(1)
    bad = FlippedC(base, Derivation.ddx(base))
    report = oracle_check(bad, samples=50, seed=0, window=6, degree=3)
    assert not report["ok"]
    assert report["violation"]["order"] == 1


def test_oracle_catches_a_corrupted_ore_commutation(monkeypatch):
    honest = Derivation.ore_monomial

    def flipped(self, k1, p, k2):
        # the table keeps the corrupted entry, as it keeps an honest one
        key = (k1, p, k2)
        if key not in self.ore_table:
            terms = honest(self, k1, p, k2)
            self.ore_table[key] = [(pw, k, -c if pw == p - 1 else c) for pw, k, c in terms]
        return self.ore_table[key]

    monkeypatch.setattr(Derivation, "ore_monomial", flipped)
    # a fresh structure: its Ore monomial table is empty, so every row is
    # filled through the corrupted rule
    c = make_cend(1)
    assert not c.der.ore_table
    report = oracle_check(c, samples=50, seed=0, window=6, degree=3)
    assert not report["ok"]
    assert report["violation"]["order"] == 1


def test_dist_nprod_work_counts(monkeypatch):
    c = make_cend(1)
    keys = c.base.basis_upto(4)
    rng = random.Random(7)

    def element():
        return CElement(
            c,
            {
                k: Poly([Fraction(rng.randint(-3, 3)) for _ in range(3)])
                for k in rng.sample(keys, 3)
            },
        )

    f, g = to_distribution(element()), to_distribution(element())
    evaluated, filled = [], []
    flat, fill = Distribution._flat, Derivation.ore_monomial

    def counted_flat(self, n):
        evaluated.append(n)
        return flat(self, n)

    def counted_fill(self, k1, p, k2):
        if (k1, p, k2) not in self.ore_table:
            filled.append((k1, p, k2))
        return fill(self, k1, p, k2)

    passes = []
    lead = oracle_module._leading_differences

    def counted_lead(dist, symbols, top):
        passes.append((sorted(symbols), top))
        return lead(dist, symbols, top)

    def refuse(*args, **kwargs):
        raise AssertionError("a row went through OreElement.mul")

    monkeypatch.setattr(Distribution, "_flat", counted_flat)
    monkeypatch.setattr(Derivation, "ore_monomial", counted_fill)
    monkeypatch.setattr(oracle_module, "_leading_differences", counted_lead)
    monkeypatch.setattr(OreElement, "mul", refuse)
    out = dist_nprod(f, g, 6)
    symbols = {k for _, k, _ in g.terms}
    assert len(out) == 7
    # one table for every symbol of g, though g has several terms per symbol
    assert len(g.terms) > len(symbols)
    assert passes == [(sorted(symbols), 6)]
    # the rows read f's terms with perm(i, s); no value of f or g is built
    assert evaluated == []
    assert filled and len(filled) == len(set(filled))


def test_ore_associativity_check_passes_on_the_honest_ring():
    base = MatrixPolyAlgebra(2)
    report = coeff_assoc_check(base, Derivation.ddx(base), samples=30, seed=1)
    assert report["ok"]


def test_ore_associativity_check_catches_a_flipped_commutation_sign():
    base = MatrixPolyAlgebra(1)
    der = Derivation.ddx(base)
    honest, flipped = ore_product(-1), ore_product(1)
    rng, keys = random.Random(2), base.basis_upto(3)
    for _ in range(10):
        x, y = sample_ore(base, der, rng, keys), sample_ore(base, der, rng, keys)
        assert honest(x, y) == x.mul(y)
    report = coeff_assoc_check(base, der, samples=50, seed=0, mul=flipped)
    assert not report["ok"]
    assert report["violation"] is not None
    # pinpoint one witness: with the wrong sign, t (t^-1 x) != (t t^-1) x
    t = OreElement(base, der, {1: base.one()})
    tinv = OreElement(base, der, {-1: base.one()})
    x = OreElement(base, der, {0: base.parse_element({"x": "1"})})
    assert flipped(t, flipped(tinv, x)) != flipped(flipped(t, tinv), x)


def test_sample_ore_deterministic():
    base = MatrixPolyAlgebra(2)
    der = Derivation.ddx(base)
    keys = base.basis_upto(3)
    assert sample_ore(base, der, random.Random(4), keys) == sample_ore(
        base, der, random.Random(4), keys
    )


@pytest.mark.parametrize("name", SPECS)
@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        {"degree": 0, "power": 0},
        {"degree": 1, "power": 1},
        {"degree": 4, "power": 7},
        {"degree": 20},
        {"degree": 21, "power": 1},
        {"degree": 30, "power": 3},
    ],
)
def test_sample_ore_draws_what_randint_draws(name, kwargs):
    """The library's draws are randint's stream: the same elements, and the
    rng left in the same state, over seeds 0-49; on cend1 the last three
    degrees hold 21, 22 and 31 keys, either side of the count up to which
    random.sample draws from a pool."""
    c = load_spec(spec(name + ".json")).conformal
    rest = dict(kwargs)
    keys = c.base.basis_upto(rest.pop("degree", 3))
    for seed in range(50):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(3):
            got = sample_ore(c.base, c.der, rng, keys, **rest)
            assert got == randint_sample_ore(c.base, c.der, ref, **kwargs)
        assert rng.getstate() == ref.getstate()


# each check's counted arguments and their least values, in the order the
# check refuses them
ORACLE_COUNTED = {"samples": 1, "window": 0, "degree": 0, "pdeg": 0}
ASSOC_COUNTED = {"samples": 1, "degree": 0, "power": 0}


def below_least(counted, arg):
    """arg and every argument after it set one below its least value."""
    names = list(counted)
    return {name: counted[name] - 1 for name in names[names.index(arg):]}


@pytest.mark.parametrize("arg", list(ASSOC_COUNTED))
def test_coeff_assoc_check_refuses_an_argument_below_zero(monkeypatch, arg):
    """Below 1, samples leaves nothing to check; below 0, degree makes
    every sampled element zero and power leaves no power to draw: refused
    before any sample is drawn, ahead of every later argument."""

    def refuse(*args, **kwargs):
        raise AssertionError("no sample may be drawn")

    c = make_cend(1)
    monkeypatch.setattr(oracle_module, "sample_ore", refuse)
    streams_fail_on_first_draw(monkeypatch)
    least = ASSOC_COUNTED[arg]
    message = "%s must be >= %d, got %d" % (arg, least, least - 1)
    with pytest.raises(OracleError, match=message):
        coeff_assoc_check(c.base, c.der, **{"samples": 10, arg: least - 1})
    with pytest.raises(OracleError, match=message):
        coeff_assoc_check(c.base, c.der, **below_least(ASSOC_COUNTED, arg))


def test_assoc_check_walks_no_orbit_for_the_reach_off_a_table(monkeypatch):
    """Only a table derivation can leave a key uncovered, so on d/dx the
    keys a product y z reaches are never computed."""

    def refuse(*args, **kwargs):
        raise AssertionError("the reach of y z may not be computed")

    c = conformal("cend1")
    monkeypatch.setattr(oracle_module, "_product_keys", refuse)
    assert coeff_assoc_check(c.base, c.der, samples=5)["ok"]


def test_oracle_checks_refuse_a_degree_past_a_table_before_any_draw(monkeypatch):
    """The table derivation covers degree 3. Degree 4 draws right factors
    outside it, and from degree 2 on a product y z of two Ore samples
    reaches x^4 keys, whose orbits x (y z) reads: each refused before any
    sample is drawn, naming the degree and the first uncovered symbol."""

    def refuse(*args, **kwargs):
        raise AssertionError("no sample may be drawn")

    c = load_spec(spec("table_ddx_plus_ad_e12.json")).conformal
    monkeypatch.setattr(oracle_module, "sample_celement", refuse)
    monkeypatch.setattr(oracle_module, "sample_ore", refuse)
    streams_fail_on_first_draw(monkeypatch)
    with pytest.raises(OracleError, match=r"--degree 4 draws x\^4\*e11, outside"):
        oracle_check(c, samples=1)
    for degree in (2, 3, 4):
        for power in (0, 2):
            with pytest.raises(OracleError, match=r"--degree %d .*x\^4\*e11" % degree):
                coeff_assoc_check(c.base, c.der, samples=1, degree=degree, power=power)
    with pytest.raises(OracleError, match=r"--degree 2 reaches x\^4\*e11 in a product y z"):
        coeff_assoc_check(c.base, c.der, samples=1, degree=2)


def test_product_keys_follow_the_orbits_of_the_right_factor():
    """Under ad(x e12) the orbit of e21 reaches x*e11 and x^2*e12, so at
    power >= 1 a product y z of degree-0 samples carries keys of degree up
    to 2; at power 0, with no t to commute past, only degree-0 keys."""
    base = MatrixPolyAlgebra(2)
    der = Derivation.ad(base.parse_element({"x*e12": "1"}))
    keys = base.basis_upto(0)
    for power, degrees in ((0, {0}), (1, {0, 1, 2}), (2, {0, 1, 2})):
        assert {base.key_degree(k) for k in oracle_module._product_keys(der, keys, power)} == degrees


@pytest.mark.parametrize("power", [0, 1, 2])
def test_assoc_check_below_the_refused_degree_runs_on_a_table(power):
    """Degree 1 keeps every product y z inside the table's coverage."""
    c = load_spec(spec("table_ddx_plus_ad_e12.json")).conformal
    for seed in range(5):
        assert coeff_assoc_check(c.base, c.der, samples=20, seed=seed, degree=1, power=power)["ok"]


@pytest.mark.parametrize("samples", [0, -3])
def test_oracle_checks_refuse_an_empty_sample(samples):
    c = make_cend(1)

    def mul(x, y):
        raise AssertionError("no product may run")

    with pytest.raises(OracleError, match="samples"):
        oracle_check(c, samples=samples)
    with pytest.raises(OracleError, match="samples"):
        coeff_assoc_check(c.base, c.der, samples=samples, mul=mul)


@pytest.mark.parametrize("arg", list(ORACLE_COUNTED))
def test_oracle_check_refuses_an_argument_below_zero(monkeypatch, arg):
    """Below 1, samples leaves nothing to check; below 0, degree or pdeg
    makes every sampled element zero and window leaves no index to read:
    refused before any sample is drawn, ahead of every later argument."""

    def refuse(*args, **kwargs):
        raise AssertionError("no sample may be drawn")

    monkeypatch.setattr(oracle_module, "sample_celement", refuse)
    streams_fail_on_first_draw(monkeypatch)
    least = ORACLE_COUNTED[arg]
    message = "%s must be >= %d, got %d" % (arg, least, least - 1)
    with pytest.raises(OracleError, match=message):
        oracle_check(make_cend(1), **{"samples": 3, arg: least - 1})
    with pytest.raises(OracleError, match=message):
        oracle_check(make_cend(1), **below_least(ORACLE_COUNTED, arg))
