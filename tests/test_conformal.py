import random
from fractions import Fraction

import pytest

from confalg.algebra import Derivation, MatrixAlgebra, MatrixPolyAlgebra
from confalg.conformal import (
    CElement,
    ConformalError,
    check_axioms,
    coeff_matrix,
    locality_degree,
    sample_celement,
)
from confalg.constructions import make_cend, make_current, make_differential
from reference_oracles import table_ddx_plus_ad_e12


def cur_m2():
    return make_current(MatrixAlgebra(2))


def dif_m2():
    base = MatrixPolyAlgebra(2)
    return make_differential(base, Derivation.ddx(base))


STRUCTURES = [cur_m2, dif_m2, lambda: make_cend(1)]


def _ref_term(c, k1, i, k2, j, n):
    """Single-term product computed by peeling D-powers with the two shift
    rules, one at a time. Independent of the closed-form expansion."""
    if n < 0:
        return c.zero()
    if i > 0:
        if n == 0:
            return c.zero()
        return _ref_term(c, k1, i - 1, k2, j, n - 1).scale(Fraction(-n))
    if j > 0:
        head = _ref_term(c, k1, 0, k2, j - 1, n).dapply()
        if n == 0:
            return head
        return head.add(_ref_term(c, k1, 0, k2, j - 1, n - 1).scale(Fraction(n)))
    return CElement(c, dict(c.basis_nprod(k1, k2, n)))


def reference_nprod(c, a, b, n):
    out = c.zero()
    for k1, p in a.items.items():
        for i in range(p.degree() + 1):
            ci = p.coeff(i)
            if not ci:
                continue
            for k2, q in b.items.items():
                for j in range(q.degree() + 1):
                    cj = q.coeff(j)
                    if not cj:
                        continue
                    out = out.add(_ref_term(c, k1, i, k2, j, n).scale(ci * cj))
    return out


@pytest.mark.parametrize("make", STRUCTURES)
def test_closed_form_matches_recursive_reference(make):
    c = make()
    rng = random.Random(42)
    for _ in range(40):
        a = sample_celement(c, rng, degree=3, pdeg=2)
        b = sample_celement(c, rng, degree=3, pdeg=2)
        bound = c.structural_bound(a, b)
        if bound is None:
            continue
        for n in range(bound + 2):
            assert c.nprod(a, b, n) == reference_nprod(c, a, b, n)


@pytest.mark.parametrize("make", STRUCTURES)
def test_axioms_hold(make):
    report = check_axioms(make(), samples=120, seed=5)
    assert report["ok"]
    assert report["violation"] is None


def test_axiom_check_catches_a_flipped_order():
    c = cur_m2()

    def flip1(a, b, n):
        v = c.nprod(a, b, n)
        return v.neg() if n == 1 else v

    report = check_axioms(c, samples=200, seed=0, product=flip1)
    assert not report["ok"]
    assert report["violation"]["axiom"] in ("leibniz", "shift")


def test_products_vanish_above_the_structural_bound():
    c = dif_m2()
    rng = random.Random(9)
    for _ in range(20):
        a = sample_celement(c, rng, degree=3, pdeg=2)
        b = sample_celement(c, rng, degree=3, pdeg=2)
        bound = c.structural_bound(a, b)
        if bound is None:
            continue
        assert c.nprod(a, b, bound + 1).is_zero()
        assert c.nprod(a, b, bound + 3).is_zero()


def test_structural_bound_none_on_zero():
    c = cur_m2()
    assert c.structural_bound(c.zero(), c.zero()) is None
    assert locality_degree(c, c.zero(), c.zero()) == "none"


def test_current_structure_has_locality_zero_or_none():
    c = cur_m2()
    e12 = c.tilde(c.base.parse_element({"e12": "1"}))
    e21 = c.tilde(c.base.parse_element({"e21": "1"}))
    assert locality_degree(c, e12, e21) == 0
    # e12 * e12 = 0 in the base, and all higher orders vanish too
    assert locality_degree(c, e12, e12) == "none"


def test_locality_grows_with_d_powers():
    c = cur_m2()
    e12 = c.tilde(c.base.parse_element({"e12": "1"}))
    e21 = c.tilde(c.base.parse_element({"e21": "1"}))
    assert locality_degree(c, e12.dapply(2), e21.dapply(1)) == 3


def test_negative_order_is_rejected():
    c = cur_m2()
    one = c.tilde(c.base.one())
    with pytest.raises(ConformalError):
        c.nprod(one, one, -1)


def test_elements_of_different_structures_do_not_mix():
    a = cur_m2()
    b = dif_m2()
    with pytest.raises(ConformalError):
        a.tilde(a.base.one()).add(b.tilde(b.base.one()))


def test_celement_coerces_plain_numbers_to_constants():
    from confalg.rings import Poly

    v = CElement(cur_m2(), {(1, 2): 3})
    assert v.items == {(1, 2): Poly.const(Fraction(3))}


def test_nprod_all_collects_exactly_the_nonzero_orders():
    c = make_cend(1)
    l1 = c.named_element("L1")
    got = c.nprod_all(l1, l1)
    assert sorted(got) == [0, 1]
    assert got[1] == c.named_element("L1").neg()


def test_coeff_matrix_shape():
    c = cur_m2()
    e12 = c.tilde(c.base.parse_element({"e12": "1"}))
    keys, rows = coeff_matrix([e12, e12.dapply()])
    assert keys == [(1, 2)]
    assert len(rows) == 2 and len(rows[0]) == 1


def test_sample_celement_deterministic():
    c = dif_m2()
    assert sample_celement(c, random.Random(1), 3) == sample_celement(
        c, random.Random(1), 3
    )


@pytest.mark.parametrize("samples", [0, -3])
def test_check_axioms_refuses_an_empty_sample(samples):
    def product(a, b, n):
        raise AssertionError("no product may run")

    with pytest.raises(ConformalError, match="samples"):
        check_axioms(make_cend(1), samples=samples, product=product)


@pytest.mark.parametrize("make", STRUCTURES)
def test_check_axioms_computes_each_product_once(make):
    c = make()
    orders = []

    def counted(a, b, n):
        orders.append(n)
        return c.nprod(a, b, n)

    report = check_axioms(c, samples=60, seed=3, product=counted)
    assert report == check_axioms(c, samples=60, seed=3)
    # replay the orders check_axioms draws from its seed
    rng = random.Random(3)
    drawn = []
    for _ in range(60):
        a = sample_celement(c, rng, 4, 2)
        b = sample_celement(c, rng, 4, 2)
        bound = c.structural_bound(a, b)
        drawn.append(rng.randint(0, 1 if bound is None else bound + 1))
    assert 0 in drawn and max(drawn) > 0
    # per sample: a (n) b, (Da) (n) b, a (n) (Db), and a (n-1) b unless n == 0
    pos = 0
    for n in drawn:
        count = 3 if n == 0 else 4
        assert sorted(orders[pos : pos + count]) == sorted([n] * 3 + [n - 1] * (count - 3))
        pos += count
    assert pos == len(orders)


def dif_m2_ad_e12():
    base = MatrixPolyAlgebra(2)
    return make_differential(base, Derivation.ad(base.parse_element({"e12": "1"})))


@pytest.mark.parametrize(
    "make", STRUCTURES + [dif_m2_ad_e12, lambda: make_differential(*table_ddx_plus_ad_e12())]
)
def test_delta_is_applied_once_per_orbit_entry(make):
    c = make()
    steps = []
    apply = c.der.apply

    def counted(x):
        steps.append(x)
        return apply(x)

    c.der.apply = counted
    keys = c.base.basis_upto(3)
    # every key twice, in a seeded order, each read past the end of its orbit
    order = keys * 2
    random.Random(1).shuffle(order)
    for k in order:
        nil = c.nilp_key(k)
        b = c.base.basis_element(k)
        for m in range(nil + 2):
            expected = b
            for _ in range(m):
                expected = apply(expected)
            assert c._delta_pow(k, m) == expected
        assert apply(c._delta_pow(k, nil - 1)).is_zero()
    # nprod on keys already seen applies delta no further
    rng = random.Random(2)
    for _ in range(10):
        a, b = sample_celement(c, rng, 3, 2), sample_celement(c, rng, 3, 2)
        c.nprod_all(a, b)
    assert len(steps) == sum(c.nilp_key(k) for k in keys)
