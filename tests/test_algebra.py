import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from confalg.algebra import (
    AlgebraError,
    Derivation,
    DirectSum,
    Element,
    MatrixAlgebra,
    MatrixPolyAlgebra,
    OreElement,
    PolynomialAlgebra,
    ScalarAlgebra,
    Subalgebra,
    element_nilpotency_index,
    kernel_decompose,
    kernel_reconstruct,
    nilpotency_index,
)
from reference_oracles import (
    leibniz_violation,
    nilpotent_by_iteration,
    orbit_by_iteration,
    random_element,
)

F = Fraction


def test_scalar_algebra_is_the_ground_field():
    a = ScalarAlgebra()
    assert a.is_unital()
    x = a.parse_element({"1": "2/3"})
    assert x.mul(x) == a.parse_element({"1": "4/9"})
    assert a.one().mul(x) == x


def test_polynomial_algebra_products_and_names():
    a = PolynomialAlgebra()
    x = a.basis_element(1)
    assert x.mul(x) == a.basis_element(2)
    assert a.key_name(0) == "1"
    assert a.key_name(3) == "x^3"
    assert a.parse_key("x") == 1
    assert a.parse_key("x^7") == 7
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
    a = DirectSum([MatrixAlgebra(2), ScalarAlgebra()])
    u = a.parse_element({"0:e12": "1"})
    v = a.parse_element({"0:e21": "1", "1:1": "5"})
    assert u.mul(v) == a.parse_element({"0:e11": "1"})
    # cross terms vanish
    w = a.parse_element({"1:1": "1"})
    assert u.mul(w).is_zero()
    assert a.one() == a.parse_element({"0:e11": "1", "0:e22": "1", "1:1": "1"})


def test_element_arithmetic_and_degree_slices():
    a = PolynomialAlgebra()
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
    p = PolynomialAlgebra().basis_element(1)
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


def test_subalgebra_unital_flag_is_checked():
    m = MatrixAlgebra(2)
    s = Subalgebra(m, [m.basis_element((1, 2))], unital=True, degree=0)
    with pytest.raises(AlgebraError, match="unital"):
        s.check_closure()


def test_ddx_derivation_on_polynomials():
    a = PolynomialAlgebra()
    d = Derivation.ddx(a)
    x3 = a.basis_element(3)
    assert d.apply(x3) == a.parse_element({"x^2": "3"})
    v = x3
    for _ in range(3):
        v = d.apply(v)
    assert v == a.parse_element({"1": "6"})
    assert d.apply(v).is_zero()
    assert nilpotency_index(d, x3) == 4


def test_ad_derivation_and_its_nilpotency():
    m = MatrixAlgebra(2)
    d = Derivation.ad(m.basis_element((1, 2)))
    e21 = m.basis_element((2, 1))
    assert d.apply(e21) == m.parse_element({"e11": "1", "e22": "-1"})
    assert nilpotency_index(d, e21) == 3
    d.validate()


def test_table_derivation_validate_rejects_leibniz_violation():
    a = PolynomialAlgebra()
    # d(x) = 1 forces d(x^2) = 2x; declaring d(x^2) = 0 breaks Leibniz
    images = {0: a.zero(), 1: a.one(), 2: a.zero()}
    d = Derivation.table(a, images)
    with pytest.raises(AlgebraError, match="Leibniz"):
        d.validate()


def test_validate_rejects_non_nilpotent_derivation():
    a = PolynomialAlgebra()
    # Euler operator x d/dx: Leibniz holds but no iterate vanishes
    images = {k: a.basis_element(k).scale(F(k)) for k in range(0, 5)}
    d = Derivation.table(a, images)
    with pytest.raises(AlgebraError, match="nilpotent"):
        d.validate()


def test_builtin_derivations_satisfy_leibniz_on_the_full_window():
    # validate() checks Leibniz only for tables; zero, ddx and ad(r) satisfy
    # it by construction, which the reference loop confirms here
    rng = random.Random(5)
    carriers = [
        ScalarAlgebra(),
        PolynomialAlgebra(),
        MatrixAlgebra(2),
        MatrixAlgebra(3),
        MatrixPolyAlgebra(2),
        DirectSum([MatrixAlgebra(2), PolynomialAlgebra()]),
    ]
    for alg in carriers:
        ders = [Derivation.zero(alg), Derivation.ad(random_element(alg, rng, degree=2))]
        if alg.supports_ddx():
            ders.append(Derivation.ddx(alg))
        for d in ders:
            assert leibniz_violation(d, 2) is None, (alg.descriptor(), d.kind)
    # the reference is not vacuous: it finds the broken table's witness
    a = PolynomialAlgebra()
    bad = Derivation.table(a, {0: a.zero(), 1: a.one(), 2: a.zero()})
    assert leibniz_violation(bad, 1) == (1, 1)


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
    algs = [MatrixPolyAlgebra(2), PolynomialAlgebra()]
    if kind in ("zero", "ad", "table"):
        algs += [MatrixAlgebra(2), MatrixAlgebra(3)]
    alg = PolynomialAlgebra() if kind == "euler" else draw(st.sampled_from(algs))
    keys = alg.basis_upto(draw(st.integers(0, 3)))
    if kind == "euler":
        d = Derivation.table(alg, {k: alg.basis_element(k).scale(k) for k in keys})
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
        with pytest.raises(AlgebraError, match="not locally nilpotent"):
            nilpotency_index(d, x)
    else:
        assert list(d.orbit(x)) == expected
        assert nilpotency_index(d, x) == max(len(expected), 1)


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
    a = PolynomialAlgebra()
    d = Derivation.ddx(a)
    x = OreElement(a, d, {0: a.basis_element(1)})
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
    a = PolynomialAlgebra()
    images = {k: a.basis_element(k).scale(k) for k in range(4)}
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
        OreElement(a, d, {}).commute_t(-1, a.basis_element(1))
    assert len(steps) <= len(images) + 1
    # a nilpotent table still expands fully: d(x^2) = x, d(x) = 1, d(1) = 0
    ddx_table = Derivation.table(
        a, {0: a.zero(), 1: a.one(), 2: a.basis_element(1).scale(2)}
    )
    got = OreElement(a, ddx_table, {}).commute_t(-1, a.basis_element(2))
    assert got == {-1: a.basis_element(2), -2: a.basis_element(1).scale(2), -3: a.one().scale(2)}


def test_positive_power_expansion_applies_only_the_steps_it_keeps():
    # t x^10 = x^10 t - 10 x^9 needs one derivative, not the next one too
    a = PolynomialAlgebra()
    d = Derivation.ddx(a)
    steps = []
    apply = d.apply

    def counted(x):
        steps.append(x)
        return apply(x)

    d.apply = counted
    x10 = a.basis_element(10)
    got = OreElement(a, d, {}).commute_t(1, x10)
    assert got == {1: x10, 0: a.basis_element(9).scale(-10)}
    assert steps == [x10]


def test_ore_associativity_spot_checks():
    a = MatrixPolyAlgebra(2)
    d = Derivation.ddx(a)
    rng = random.Random(3)
    from confalg.oracle import sample_ore

    for _ in range(20):
        u = sample_ore(a, d, rng)
        v = sample_ore(a, d, rng)
        w = sample_ore(a, d, rng)
        assert u.mul(v).mul(w) == u.mul(v.mul(w))


def test_ore_rejects_mixed_rings():
    a = PolynomialAlgebra()
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
