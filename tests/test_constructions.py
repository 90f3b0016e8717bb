import pytest
from hypothesis import given, settings, strategies as st

from confalg.algebra import AlgebraError, Derivation, MatrixAlgebra, MatrixPolyAlgebra
from confalg.conformal import CElement, locality_degree
from confalg.constructions import (
    SpanReducer,
    generate_closure,
    make_cend,
    make_current,
    make_differential,
    product_table,
)
from confalg.rings import Poly
from reference_oracles import RatFuncReducer, cscale, enumerate_towers


def test_current_products_concentrate_at_order_zero():
    c = make_current(MatrixAlgebra(2))
    for k1 in c.base.basis_upto(0):
        for k2 in c.base.basis_upto(0):
            a = c.tilde(c.base.basis_element(k1))
            b = c.tilde(c.base.basis_element(k2))
            prod = c.base.basis_element(k1).mul(c.base.basis_element(k2))
            assert c.nprod(a, b, 0) == c.tilde(prod)
            for m in range(1, 7):
                assert c.nprod(a, b, m).is_zero()


def test_differential_construction_checks_the_carrier():
    p = MatrixPolyAlgebra(2)
    with pytest.raises(AlgebraError, match="derivation is not over the carrier algebra"):
        make_differential(MatrixAlgebra(2), Derivation.ddx(p))


@pytest.mark.parametrize("n", [1, 2])
def test_a_structure_is_its_carrier_and_derivation(n):
    # no constructor leaves a mark: equal carriers and derivations give
    # equal structures, with equal hashes
    mp, m = MatrixPolyAlgebra(n), MatrixAlgebra(n)
    assert make_cend(n) == make_differential(mp, Derivation.ddx(mp))
    assert make_current(m) == make_differential(m, Derivation.zero(m))
    assert hash(make_cend(n)) == hash(make_differential(mp, Derivation.ddx(mp)))
    assert make_cend(n) != make_current(mp)


def test_differential_order_one_sees_the_derivation():
    base = MatrixPolyAlgebra(2)
    c = make_differential(base, Derivation.ddx(base))
    a = c.tilde(base.parse_element({"e11": "1"}))
    b = c.tilde(base.parse_element({"x*e11": "1"}))
    # e11 (1) x*e11 = -e11 * d(x*e11) = -e11
    assert c.nprod(a, b, 1) == c.tilde(base.parse_element({"e11": "-1"}))
    assert c.nprod(a, b, 2).is_zero()


# The rank-one conformal endomorphism structure, generators L_k = x^k with
# delta = d/dx. Fixed low-order products, checked entry by entry.
CEND1_PINNED = [
    ("L0", 0, "L0", {"1": {"0": "1"}}),
    ("L0", 0, "L1", {"x": {"0": "1"}}),
    ("L0", 1, "L1", {"1": {"0": "-1"}}),
    ("L1", 0, "L0", {"x": {"0": "1"}}),
    ("L1", 1, "L0", None),
    ("L1", 0, "L1", {"x^2": {"0": "1"}}),
    ("L1", 1, "L1", {"x": {"0": "-1"}}),
    ("L1", 2, "L2", {"x": {"0": "2"}}),
]


@pytest.mark.parametrize("left,order,right,expect", CEND1_PINNED)
def test_cend1_pinned_products(left, order, right, expect):
    c = make_cend(1)
    v = c.nprod(c.named_element(left), c.named_element(right), order)
    if expect is None:
        assert v.is_zero()
    else:
        assert v.to_map() == expect


def test_cend1_locality_of_l1_with_itself():
    c = make_cend(1)
    l1 = c.named_element("L1")
    assert locality_degree(c, l1, l1) == 1


def test_cend_rank_two_names_carry_matrix_positions():
    c = make_cend(2)
    v = c.named_element("L1_e12")
    assert v == c.tilde(c.base.parse_element({"x*e12": "1"}))


def test_product_table_lists_nonzero_orders_only():
    c = make_cend(1)
    gens = [("L0", c.named_element("L0")), ("L1", c.named_element("L1"))]
    table = product_table(c, gens)
    assert len(table) == 4
    entry = {(e["left"], e["right"]): e["orders"] for e in table}
    assert sorted(entry[("L1", "L1")]) == ["0", "1"]
    assert entry[("L1", "L1")]["1"] == {"x": {"0": "-1"}}
    # L1 (1) L0 = 0, so order 1 is absent
    assert sorted(entry[("L1", "L0")]) == ["0"]


def test_span_reducer_rank_over_the_fraction_field():
    c = make_current(MatrixAlgebra(2))
    e12 = c.tilde(c.base.parse_element({"e12": "1"}))
    e21 = c.tilde(c.base.parse_element({"e21": "1"}))
    red = SpanReducer()
    assert red.add(e12)
    # D-multiples are dependent over Q(D)
    assert not red.add(e12.dapply())
    assert not red.add(cscale(e12.dapply(3), -2))
    assert red.rank == 1
    # (D + 1) e12 is in the span too
    assert not red.add(e12.dapply().add(e12))
    assert red.rank == 1
    assert red.add(e12.dapply().add(e21))
    assert not red.add(e12.add(e21.dapply(2)).dapply())
    assert red.rank == 2


def test_span_reducer_reads_past_a_rank_deficient_point():
    c = make_current(MatrixAlgebra(2))
    e12 = c.tilde(c.base.parse_element({"e12": "1"}))
    e21 = c.tilde(c.base.parse_element({"e21": "1"}))
    # S = {D e12} vanishes at D = 0, where e12 does not, yet e12 is in its
    # span over Q(D): the test must read the point D = 1
    red = SpanReducer()
    assert red.add(e12.dapply())
    assert not red.add(e12)
    assert not red.add(e12.dapply().add(e12))
    assert red.rank == 1
    # two rows that are dependent at D = 0 and D = 1 but not over Q(D)
    red = SpanReducer()
    assert red.add(e12.dapply(2).add(e21))
    assert red.add(e12.dapply().add(e21))
    assert red.rank == 2
    assert not red.add(e21)


# D-polynomials of degree <= 2: small coefficients, and products of
# (D - k) with roots at the first evaluation points
SMALL_POLYS = st.one_of(
    st.lists(st.integers(-2, 2), min_size=1, max_size=3).map(Poly),
    st.sampled_from([(0, 1), (-1, 1), (0, -1, 1), (2, -3, 1), (-2, 1), (1, 1)]).map(Poly),
)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_span_reducer_agrees_with_elimination_over_rational_functions(data):
    c = make_current(MatrixAlgebra(2))
    all_keys = c.base.basis_upto(0)
    keys = data.draw(st.lists(st.sampled_from(all_keys), min_size=1, max_size=4, unique=True))
    elems = data.draw(
        st.lists(st.dictionaries(st.sampled_from(keys), SMALL_POLYS, max_size=3), max_size=7)
    )
    elems = [CElement(c, items) for items in elems]
    red, ref = SpanReducer(), RatFuncReducer()
    assert [red.add(e) for e in elems] == [ref.add(e) for e in elems]
    assert red.rank == ref.rank


def test_closure_of_the_full_matrix_current_is_flat():
    c = make_current(MatrixAlgebra(2))
    gens = [c.tilde(c.base.basis_element(k)) for k in c.base.basis_upto(0)]
    prof = generate_closure(c, gens, rounds=4)
    assert prof.ranks == [4, 4, 4, 4]
    assert prof.stabilized == 2


def test_closure_of_cend1_generators_grows():
    c = make_cend(1)
    gens = [c.named_element("L0"), c.named_element("L1")]
    prof = generate_closure(c, gens, rounds=5)
    # round r spans L_0 .. L_r, one new basis direction per round
    assert prof.ranks == [2, 3, 4, 5, 6]
    assert prof.stabilized is None


def test_left_normed_closure_rank_matches_all_bracketings():
    c = make_cend(1)
    gens = [c.named_element("L0"), c.named_element("L1")]
    for rounds in (2, 3, 4):
        prof = generate_closure(c, gens, rounds=rounds)
        towers = enumerate_towers(c, gens, rounds)
        red = SpanReducer()
        for w in towers:
            red.add(w)
        assert red.rank == prof.ranks[rounds - 1]


def test_generate_closure_rejects_zero_rounds():
    c = make_cend(1)
    with pytest.raises(AlgebraError):
        generate_closure(c, [c.named_element("L0")], rounds=0)
