import copy
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from confalg.algebra import (
    AlgebraError,
    BaseAlgebra,
    Derivation,
    DirectSum,
    Element,
    MatrixAlgebra,
    MatrixPolyAlgebra,
    OreElement,
    Subalgebra,
    element_nilpotency_index,
    kernel_decompose,
    kernel_reconstruct,
)
from confalg.conformal import check_axioms, sample_celement
from confalg.constructions import make_differential
from confalg.oracle import coeff_assoc_check, dist_nprod, sample_ore, to_distribution
from confalg.specfile import load_spec
from recorded_reports import spec
from reference_oracles import (
    leibniz_violation,
    nilpotent_by_iteration,
    orbit_by_iteration,
    random_element,
)
from stock_structures import STOCK, conformal

F = Fraction


def xk(a, k):
    """x^k in Q[x], the 1x1 matrices over Q[x]."""
    return a.basis_element((k, 1, 1))


def test_scalar_algebra_is_the_ground_field():
    a = MatrixAlgebra(1)
    assert a.one() == a.basis_element((1, 1))
    x = a.parse_element({"1": "2/3"})
    assert x.mul(x) == a.parse_element({"1": "4/9"})
    assert a.one().mul(x) == x
    assert a.key_name((1, 1)) == "1"
    assert a.parse_key("1") == a.parse_key("e11") == (1, 1)


def test_polynomial_algebra_products_and_names():
    a = MatrixPolyAlgebra(1)
    x = xk(a, 1)
    assert x.mul(x) == xk(a, 2)
    assert a.key_name((0, 1, 1)) == "1"
    assert a.key_name((3, 1, 1)) == "x^3"
    assert a.parse_key("x") == (1, 1, 1)
    assert a.parse_key("x^7") == (7, 1, 1)
    with pytest.raises(AlgebraError):
        a.parse_key("y^2")


def test_matrix_units_multiply_by_index_matching():
    m = MatrixAlgebra(3)
    e12 = m.parse_element({"e12": "1"})
    e23 = m.parse_element({"e23": "1"})
    assert e12.mul(e23) == m.parse_element({"e13": "1"})
    assert e23.mul(e12).is_zero()
    assert m.one() == m.parse_element({"e11": "1", "e22": "1", "e33": "1"})
    assert len(m.basis_upto(0)) == 9


def test_matrix_algebra_rejects_large_n():
    with pytest.raises(AlgebraError):
        MatrixAlgebra(10)


def test_matrix_poly_parse_name_roundtrip():
    a = MatrixPolyAlgebra(2)
    for key in a.basis_upto(3):
        assert a.parse_key(a.key_name(key)) == key
    assert a.parse_key("x^2*e12") == (2, 1, 2)
    assert a.parse_key("e21") == (0, 2, 1)
    x_e11 = a.parse_element({"x*e11": "1"})
    assert x_e11.mul(x_e11) == a.parse_element({"x^2*e11": "1"})


def test_matrix_poly_size_one_prints_like_polynomials():
    a = MatrixPolyAlgebra(1)
    assert a.key_name((2, 1, 1)) == "x^2"
    assert a.parse_key("x^2") == (2, 1, 1)
    assert a.parse_key("1") == (0, 1, 1)


def test_direct_sum_keys_and_products():
    a = DirectSum([MatrixAlgebra(2), MatrixAlgebra(1)])
    u = a.parse_element({"0:e12": "1"})
    v = a.parse_element({"0:e21": "1", "1:1": "5"})
    assert u.mul(v) == a.parse_element({"0:e11": "1"})
    # cross terms vanish
    w = a.parse_element({"1:1": "1"})
    assert u.mul(w).is_zero()
    assert a.one() == a.parse_element({"0:e11": "1", "0:e22": "1", "1:1": "1"})


def test_element_arithmetic_and_degree_slices():
    a = MatrixPolyAlgebra(1)
    p = a.parse_element({"1": "1", "x^2": "3"})
    q = a.parse_element({"x^2": "-3"})
    assert p.add(q) == a.parse_element({"1": "1"})
    assert p.degree() == 2
    assert p.degree_part(2) == a.parse_element({"x^2": "3"})
    assert p.degree_part(1).is_zero()
    assert p.shift(1) == a.parse_element({"x": "1", "x^3": "3"})
    assert p.sub(p).is_zero()
    assert p.neg().scale(F(-1)) == p


def test_elements_of_different_algebras_do_not_mix():
    p = xk(MatrixPolyAlgebra(1), 1)
    e = MatrixAlgebra(2).basis_element((1, 1))
    with pytest.raises(AlgebraError):
        p.add(e)


def test_subalgebra_membership_and_closure():
    m = MatrixAlgebra(2)
    borel = Subalgebra(
        m,
        [m.basis_element((1, 1)), m.basis_element((1, 2)), m.basis_element((2, 2))],
        unital=True,
        degree=0,
    )
    borel.check_closure()
    assert borel.member(m.parse_element({"e11": "2", "e12": "-1"}))
    assert not borel.member(m.basis_element((2, 1)))
    assert borel.member(m.zero())


def test_subalgebra_closure_failure_has_a_witness():
    m = MatrixAlgebra(2)
    bad = Subalgebra(m, [m.basis_element((1, 2)), m.basis_element((2, 1))], degree=0)
    with pytest.raises(AlgebraError, match="not closed"):
        bad.check_closure()


def test_check_closure_multiplies_exactly_the_pairs_inside_the_window(monkeypatch):
    m = MatrixPolyAlgebra(2)
    # given out of degree order, and mixed in degree: e12 + x^2 e12 has low
    # degree 0 and degree 2
    spanning = [m.basis_element(k) for k in reversed(m.basis_upto(3))]
    spanning.append(m.parse_element({"e12": "1", "x^2*e12": "1"}))
    sub = Subalgebra(m, spanning, degree=3)
    calls = []
    honest = BaseAlgebra.mul_items

    def degrees(alg, items):
        el = Element(alg, items)
        return el.low_degree(), el.degree()

    def counted(alg, u, w):
        calls.append((degrees(alg, u), degrees(alg, w)))
        return honest(alg, u, w)

    monkeypatch.setattr(BaseAlgebra, "mul_items", counted)
    sub.check_closure()
    spans = [(v.low_degree(), v.degree()) for v in sub.spanning]
    want = [(u, w) for u in spans for w in spans if u[0] + w[0] <= 3]
    assert sorted(calls) == sorted(want)
    # by its low degree, the mixed element meets partners of degree 2 and 3,
    # which its degree 2 would have left out
    assert ((0, 2), (3, 3)) in calls and ((3, 3), (0, 2)) in calls
    assert ((0, 2), (2, 2)) in calls
    assert 1 <= len(calls) < len(spans) ** 2


def test_check_closure_sees_a_product_of_mixed_degree_inside_the_window():
    """(2 e12 + e22 + 2x e21)(x e21) = 2x e11 + x e21 has degree 1, inside
    the window, and is not in the span; the factors' degrees add up to 2, so
    only their low degrees, 0 and 1, show the product can reach it."""
    m = MatrixPolyAlgebra(2)
    u, e22, x_e21 = (
        m.parse_element(v) for v in ({"e12": "2", "e22": "1", "x*e21": "2"}, {"e22": "1"}, {"x*e21": "1"})
    )
    sub = Subalgebra(m, [u, e22, x_e21], degree=1)
    prod = u.mul(x_e21)
    assert prod == m.parse_element({"x*e11": "2", "x*e21": "1"})
    assert u.degree() + x_e21.degree() > 1 and prod.degree() == 1 and not sub.member(prod, 1)
    with pytest.raises(AlgebraError, match="not closed"):
        sub.check_closure()


def test_check_closure_refuses_a_product_at_the_window_edge():
    m = MatrixPolyAlgebra(2)
    x_e12, x_e21, x2_e22 = (m.parse_element({n: "1"}) for n in ("x*e12", "x*e21", "x^2*e22"))
    # (x e21)(x e12) = x^2 e22 is kept; (x e12)(x e21) = x^2 e11, of degree
    # exactly the window, is the only product that leaves the span
    sub = Subalgebra(m, [x2_e22, x_e21, x_e12], degree=2)
    with pytest.raises(AlgebraError, match="not closed"):
        sub.check_closure()
    Subalgebra(m, [x2_e22, x_e21, x_e12, m.parse_element({"x^2*e11": "1"})], degree=2).check_closure()


def test_subalgebra_unital_flag_is_checked():
    m = MatrixAlgebra(2)
    s = Subalgebra(m, [m.basis_element((1, 2))], unital=True, degree=0)
    with pytest.raises(AlgebraError, match="unital"):
        s.check_closure()


def test_ddx_derivation_on_polynomials():
    a = MatrixPolyAlgebra(1)
    d = Derivation.ddx(a)
    x3 = xk(a, 3)
    assert d.apply(x3) == a.parse_element({"x^2": "3"})
    v = x3
    for _ in range(3):
        v = d.apply(v)
    assert v == a.parse_element({"1": "6"})
    assert d.apply(v).is_zero()
    assert len(d.key_orbit((3, 1, 1))) == 4


def test_ddx_on_a_direct_sum_acts_summand_by_summand():
    a = DirectSum([MatrixPolyAlgebra(1), MatrixPolyAlgebra(2)])
    d = Derivation.ddx(a)
    # x^3 e12, 3x^2 e12, 6x e12, 6 e12, all in summand 1
    assert d.key_orbit((1, (3, 1, 2))) == [
        {(1, (3, 1, 2)): 1},
        {(1, (2, 1, 2)): 3},
        {(1, (1, 1, 2)): 6},
        {(1, (0, 1, 2)): 6},
    ]
    assert d.key_orbit((0, (2, 1, 1))) == [
        {(0, (2, 1, 1)): 1},
        {(0, (1, 1, 1)): 2},
        {(0, (0, 1, 1)): 2},
    ]


def test_ad_derivation_and_its_nilpotency():
    m = MatrixAlgebra(2)
    d = Derivation.ad(m.basis_element((1, 2)))
    e21 = m.basis_element((2, 1))
    assert d.apply(e21) == m.parse_element({"e11": "1", "e22": "-1"})
    assert len(d.key_orbit((2, 1))) == 3
    d.validate()


def test_table_derivation_validate_rejects_leibniz_violation():
    a = MatrixPolyAlgebra(1)
    # d(x) = 1 forces d(x^2) = 2x; declaring d(x^2) = 0 breaks Leibniz
    images = {(0, 1, 1): a.zero(), (1, 1, 1): a.one(), (2, 1, 1): a.zero()}
    d = Derivation.table(a, images)
    with pytest.raises(AlgebraError, match="Leibniz"):
        d.validate()


def test_validate_rejects_non_nilpotent_derivation():
    a = MatrixPolyAlgebra(1)
    # Euler operator x d/dx: Leibniz holds but no iterate vanishes
    images = {(k, 1, 1): xk(a, k).scale(F(k)) for k in range(0, 5)}
    d = Derivation.table(a, images)
    with pytest.raises(AlgebraError, match="nilpotent"):
        d.validate()


def test_builtin_derivations_satisfy_leibniz_on_the_full_window():
    # validate() checks Leibniz only for tables; zero, ddx and ad(r) satisfy
    # it by construction, which the reference loop confirms here
    rng = random.Random(5)
    carriers = [
        MatrixAlgebra(1),
        MatrixPolyAlgebra(1),
        MatrixAlgebra(2),
        MatrixAlgebra(3),
        MatrixPolyAlgebra(2),
        DirectSum([MatrixAlgebra(2), MatrixPolyAlgebra(1)]),
    ]
    for alg in carriers:
        ders = [Derivation.zero(alg), Derivation.ad(random_element(alg, rng, degree=2))]
        if alg.supports_ddx():
            ders.append(Derivation.ddx(alg))
        for d in ders:
            assert leibniz_violation(d, 2) is None, (alg.descriptor(), d.kind)
    # the reference is not vacuous: it finds the broken table's witness
    a = MatrixPolyAlgebra(1)
    bad = Derivation.table(a, {(0, 1, 1): a.zero(), (1, 1, 1): a.one(), (2, 1, 1): a.zero()})
    assert leibniz_violation(bad, 1) == ((1, 1, 1), (1, 1, 1))


ENTRIES = st.sampled_from([-1, 0, 0, 1])


@st.composite
def derivations_to_decide(draw):
    """ad(r) on M_2, M_3 or M_2(Q[x]), or c d/dx + ad(r) on M_2(Q[x]) written
    as a table, with r half the time upper triangular with one diagonal
    value, so that both verdicts occur. Returns the derivation, the keys to
    iterate on and N, the number of keys its bound counts."""
    kind = draw(st.sampled_from(["M2", "M3", "M2[x]", "table"]))
    n = 3 if kind == "M3" else 2
    alg = MatrixAlgebra(n) if kind in ("M2", "M3") else MatrixPolyAlgebra(n)
    triangular = draw(st.booleans())
    diag = draw(ENTRIES)
    r = {}
    for k in alg.basis_upto(1 if kind == "M2[x]" else 0):
        i, j = k[-2:]
        if not triangular or i < j:
            r[k] = draw(ENTRIES)
        elif i == j and alg.key_degree(k) == 0:
            r[k] = diag
    r = Element(alg, r)
    ad = Derivation.ad(r)
    if kind != "table":
        return ad, alg.basis_upto(1), len(alg.basis_upto(0))
    c = draw(ENTRIES)
    ddx = Derivation.ddx(alg)
    keys = alg.basis_upto(draw(st.integers(0, 2)))
    images = {}
    for k in keys:
        b = alg.basis_element(k)
        images[k] = ddx.apply(b).scale(c).add(ad.apply(b))
    return Derivation.table(alg, images), keys, len(keys)


@settings(max_examples=200, deadline=None)
@given(case=derivations_to_decide())
def test_validate_agrees_with_brute_force_iteration(case):
    d, keys, n = case
    expected = nilpotent_by_iteration(d, keys, 4 * n)
    try:
        d.validate()
    except AlgebraError as exc:
        assert "nilpotent" in str(exc)
        assert not expected
    else:
        assert expected


@st.composite
def orbit_cases(draw):
    """A derivation and an element to iterate it on: zero, d/dx, ad(r) or a
    table (ad(r) plus c d/dx where there is an x, tabulated up to a degree)
    over M_2, M_3, M_2(Q[x]) or Q[x], with r any constant matrix, so that
    some ad(r) are not locally nilpotent; or the Euler table x d/dx on Q[x],
    which fixes x."""
    kind = draw(st.sampled_from(["zero", "ddx", "ad", "table", "euler"]))
    algs = [MatrixPolyAlgebra(2), MatrixPolyAlgebra(1)]
    if kind in ("zero", "ad", "table"):
        algs += [MatrixAlgebra(2), MatrixAlgebra(3)]
    alg = MatrixPolyAlgebra(1) if kind == "euler" else draw(st.sampled_from(algs))
    keys = alg.basis_upto(draw(st.integers(0, 3)))
    if kind == "euler":
        d = Derivation.table(alg, {k: alg.basis_element(k).scale(k[0]) for k in keys})
    elif kind == "zero":
        d = Derivation.zero(alg)
    elif kind == "ddx":
        d = Derivation.ddx(alg)
    else:
        d = Derivation.ad(Element(alg, {k: draw(ENTRIES) for k in alg.basis_upto(0)}))
        if kind == "table":
            c = draw(ENTRIES) if alg.supports_ddx() else 0
            images = {}
            for k in keys:
                b = alg.basis_element(k)
                images[k] = d.apply(b)
                if c:
                    images[k] = images[k].add(Derivation.ddx(alg).apply(b).scale(c))
            d = Derivation.table(alg, images)
    return d, Element(alg, {k: draw(ENTRIES) for k in keys})


@settings(max_examples=200, deadline=None)
@given(case=orbit_cases())
def test_orbit_agrees_with_plain_iteration(case):
    d, x = case
    # past iteration_bound(x) <= 16 steps an iterate never dies
    expected = orbit_by_iteration(d, x, 64)
    if expected is None:
        with pytest.raises(AlgebraError, match="not locally nilpotent"):
            list(d.orbit(x))
    else:
        assert list(d.orbit(x)) == expected


def test_element_nilpotency_index():
    m = MatrixAlgebra(3)
    r = m.parse_element({"e12": "1", "e23": "1"})
    assert element_nilpotency_index(r) == 3
    assert element_nilpotency_index(m.zero()) == 1
    with pytest.raises(AlgebraError, match="not nilpotent"):
        element_nilpotency_index(m.one())


def test_kernel_decompose_reconstructs():
    a = MatrixPolyAlgebra(2)
    d = Derivation.ddx(a)
    rng = random.Random(11)
    for _ in range(25):
        v = random_element(a, rng, degree=5, terms=4)
        comps = kernel_decompose(v, d)
        for _, c in comps:
            assert d.apply(c).is_zero()
        assert kernel_reconstruct(a, comps) == v


def test_kernel_decompose_requires_ddx():
    m = MatrixAlgebra(2)
    d = Derivation.ad(m.basis_element((1, 2)))
    with pytest.raises(AlgebraError):
        kernel_decompose(m.one(), d)


def ore_sum(*terms):
    """Sum of Ore elements over one ring, power by power."""
    out = {}
    for u in terms:
        for p, el in u.items.items():
            out[p] = out[p].add(el) if p in out else el
    return OreElement(terms[0].base, terms[0].der, out)


def test_ore_commutation_rules():
    a = MatrixPolyAlgebra(1)
    d = Derivation.ddx(a)
    x = OreElement(a, d, {0: xk(a, 1)})
    t = OreElement(a, d, {1: a.one()})
    tinv = OreElement(a, d, {-1: a.one()})
    one = OreElement(a, d, {0: a.one()})
    # t x = x t - 1
    assert t.mul(x) == ore_sum(x.mul(t), OreElement(a, d, {0: a.one().neg()}))
    assert t.mul(tinv) == one
    assert tinv.mul(t) == one
    # t^-1 x = x t^-1 + t^-2 (geometric tail truncates by nilpotency)
    expect = ore_sum(x.mul(tinv), OreElement(a, d, {-2: a.one()}))
    assert tinv.mul(x) == expect


def test_negative_power_expansion_stops_at_the_iteration_bound():
    # the Euler operator x d/dx fixes x, so t^-1 x never terminates; the
    # table is built without validation, as a description could ask for it
    a = MatrixPolyAlgebra(1)
    images = {(k, 1, 1): xk(a, k).scale(k) for k in range(4)}
    d = Derivation.table(a, images)
    steps = []
    apply = d.apply

    def counted(x):
        steps.append(x)
        if len(steps) > len(images) + 1:
            raise AssertionError("expansion ran past the iteration bound")
        return apply(x)

    d.apply = counted
    with pytest.raises(AlgebraError, match="not locally nilpotent"):
        d.ore_monomial((0, 1, 1), -1, (1, 1, 1))
    assert len(steps) <= len(images) + 1
    # a nilpotent table still expands fully: d(x^2) = x, d(x) = 1, d(1) = 0
    ddx_table = Derivation.table(
        a, {(0, 1, 1): a.zero(), (1, 1, 1): a.one(), (2, 1, 1): xk(a, 1).scale(2)}
    )
    got = ddx_table.ore_monomial((0, 1, 1), -1, (2, 1, 1))
    assert got == [(-1, (2, 1, 1), 1), (-2, (1, 1, 1), 2), (-3, (0, 1, 1), 2)]


def test_each_symbol_orbit_is_walked_once_for_every_power_and_left_key():
    """t x^10 = x^10 t - 10 x^9 reads a prefix of the orbit of x^10, which
    the derivation walks once, whole, into key_orbits: every later power
    and left key reads that orbit and applies d no further."""
    a = MatrixPolyAlgebra(1)
    d = Derivation.ddx(a)
    steps = []
    apply = d.apply

    def counted(x):
        steps.append(x)
        return apply(x)

    d.apply = counted
    got = d.ore_monomial((0, 1, 1), 1, (10, 1, 1))
    assert got == [(1, (10, 1, 1), 1), (0, (9, 1, 1), -10)]
    # x^10, 10 x^9, ..., 10!: eleven iterates, each applied once
    assert steps == [Element(a, v) for v in d.key_orbit((10, 1, 1))]
    assert len(steps) == 11
    for k1 in range(3):
        for p in (-2, 0, 1, 3):
            d.ore_monomial((k1, 1, 1), p, (10, 1, 1))
    assert len(steps) == 11
    assert list(d.key_orbits) == [(10, 1, 1)]


@pytest.mark.parametrize("name", sorted(STOCK))
def test_every_reader_leaves_the_orbit_table_as_it_was_filled(monkeypatch, name):
    """The closed form (nprod_all, check_axioms), the residue route
    (dist_nprod) and OreElement.mul all read the derivation's orbit table.
    Afterwards every entry equals the copy taken when it was filled, so no
    reader changed the maps it shares, and equals plain iteration of d from
    b_key."""
    base, der = STOCK[name]()
    filled = {}
    honest = Derivation.key_orbit

    def recorded(self, key):
        fresh = self is der and key not in self.key_orbits
        got = honest(self, key)
        if fresh:
            filled[key] = copy.deepcopy(got)
        return got

    monkeypatch.setattr(Derivation, "key_orbit", recorded)
    c = make_differential(base, der)
    rng = random.Random(3)
    # degree 3 keeps every right factor inside the table derivation's coverage
    keys = base.basis_upto(3)
    for _ in range(5):
        a, b = sample_celement(c, rng, keys, 2), sample_celement(c, rng, keys, 2)
        c.nprod_all(a, b)
        dist_nprod(to_distribution(a), to_distribution(b), 3)
        sample_ore(base, der, rng, keys).mul(sample_ore(base, der, rng, keys))
    assert check_axioms(c, samples=20, seed=1, degree=3)["ok"]
    assert filled and der.key_orbits.keys() == filled.keys()
    for key, orbit in der.key_orbits.items():
        assert orbit == filled[key]
        assert orbit == [v.items for v in orbit_by_iteration(der, base.basis_element(key), 64)]


@pytest.mark.parametrize("name", ["cend1", "dif_matrix2_ad_e12"])
def test_a_loaded_description_walks_each_symbol_once(monkeypatch, name):
    """Loading, then coeff_assoc_check and check_axioms, walk the orbit of
    each basis symbol at most once: the loader's nilpotency check, the Ore
    rule and the closed form share the derivation's orbit table."""
    walks = Counter()
    honest = Derivation.orbit

    def counted(self, x):
        if len(x.items) == 1 and next(iter(x.items.values())) == 1:
            walks[next(iter(x.items))] += 1
        return honest(self, x)

    monkeypatch.setattr(Derivation, "orbit", counted)
    c = load_spec(spec(name + ".json")).conformal
    assert coeff_assoc_check(c.base, c.der, seed=1)["ok"]
    assert check_axioms(c, seed=1)["ok"]
    assert walks and max(walks.values()) == 1


def test_a_symbol_outside_a_table_is_refused_at_every_power():
    """t^0 b reads the orbit of b like every other power, so on a table
    derivation a symbol outside the coverage is refused at p = 0 too, as
    the closed form refuses it at order 0."""
    c = conformal("table_ddx_plus_ad_e12")
    base, der = c.base, c.der
    outside = base.parse_key("x^5*e12")
    e11 = base.parse_key("e11")
    for p in (0, 1, -1):
        with pytest.raises(AlgebraError, match="outside the covered span: x\\^5\\*e12"):
            der.ore_monomial(e11, p, outside)
    with pytest.raises(AlgebraError, match="outside the covered span: x\\^5\\*e12"):
        c.nprod(c.tilde(base.basis_element(e11)), c.tilde(base.basis_element(outside)), 0)
    assert not der.ore_table and not der.key_orbits


def test_ore_associativity_spot_checks():
    a = MatrixPolyAlgebra(2)
    d = Derivation.ddx(a)
    rng = random.Random(3)
    keys = a.basis_upto(3)
    for _ in range(20):
        u = sample_ore(a, d, rng, keys)
        v = sample_ore(a, d, rng, keys)
        w = sample_ore(a, d, rng, keys)
        assert u.mul(v).mul(w) == u.mul(v.mul(w))


def test_ore_rejects_mixed_rings():
    a = MatrixPolyAlgebra(1)
    d = Derivation.ddx(a)
    m = MatrixPolyAlgebra(2)
    dm = Derivation.ddx(m)
    u = OreElement(a, d, {0: a.one()})
    v = OreElement(m, dm, {0: m.one()})
    with pytest.raises(AlgebraError):
        u.mul(v)


def test_random_element_is_deterministic_per_seed():
    a = MatrixPolyAlgebra(2)
    one = random_element(a, random.Random(7), degree=4)
    two = random_element(a, random.Random(7), degree=4)
    assert one == two
