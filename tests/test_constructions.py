import pytest

from confalg.algebra import AlgebraError, Derivation, MatrixAlgebra, MatrixPolyAlgebra
from confalg.conformal import locality_degree
from confalg.constructions import (
    SpanReducer,
    generate_closure,
    make_cend,
    make_current,
    make_differential,
    product_table,
)
from confalg.rings import RatFunc
from reference_oracles import enumerate_towers


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
    with pytest.raises(AlgebraError):
        make_differential(MatrixAlgebra(2), Derivation.ddx(p))


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
    red = SpanReducer()
    assert red.add(e12)
    # D-multiples are dependent over Q(D)
    assert not red.add(e12.dapply())
    multiple = e12.dapply().add(e12)
    assert not red.reduce({k: RatFunc(p) for k, p in multiple.items.items()})
    assert red.rank == 1


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
    assert all(s >= 1 for s in prof.frontier_sizes)


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
