import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from confalg.algebra import (
    AlgebraError,
    Derivation,
    DirectSum,
    Element,
    MatrixAlgebra,
    MatrixPolyAlgebra,
    PolynomialAlgebra,
    Subalgebra,
    element_nilpotency_index,
    rank_0,
)
from confalg.conformal import sample_celement
from confalg.constructions import make_cend, make_current, make_differential
from confalg.structure import (
    StructureError,
    component_slices,
    dual_identity_consistency,
    ideal_lift,
    ideal_restrict,
    is_conformal_identity,
    is_current,
    nilpotency_check,
    unital_split,
    untwist,
)
from reference_oracles import (
    carrier_index_by_iteration,
    element_index_by_iteration,
    extract_current_components,
    module_index_by_iteration,
    slices_rebuild,
)


def twisted_m2():
    base = MatrixAlgebra(2)
    return make_differential(base, Derivation.ad(base.parse_element({"e12": "1"})))


def test_component_slices_roundtrip():
    c = make_cend(2)
    rng = random.Random(8)
    for _ in range(20):
        a = sample_celement(c, rng, degree=3, pdeg=3)
        comps = component_slices(a)
        assert slices_rebuild(c, comps) == a


def test_extraction_by_identity_products_matches_direct_slicing():
    for c in (twisted_m2(), make_cend(1)):
        rng = random.Random(2)
        for _ in range(15):
            a = sample_celement(c, rng, degree=3, pdeg=3)
            assert extract_current_components(c, a) == component_slices(a)


def test_extraction_needs_a_unital_carrier():
    from confalg.algebra import PolynomialAlgebra

    sub = PolynomialAlgebra()
    c = make_current(sub)
    # Q[x] is unital, so build a genuinely identity-free carrier instead
    class NoUnit(PolynomialAlgebra):
        def is_unital(self):
            return False

    c = make_current(NoUnit())
    with pytest.raises(StructureError):
        extract_current_components(c, c.tilde(c.base.basis_element(1)))


def test_identity_certificate_accepts_the_canonical_identity():
    c = make_current(MatrixAlgebra(2))
    report = is_conformal_identity(c, c.tilde(c.base.one()))
    assert report["ok"]
    assert report["failures"] == []


def test_identity_certificate_rejects_a_proper_idempotent():
    c = make_current(MatrixAlgebra(2))
    report = is_conformal_identity(c, c.tilde(c.base.parse_element({"e11": "1"})))
    assert not report["ok"]
    assert any(f["check"] == "left_identity" for f in report["failures"])


def test_untwist_square_zero_twist():
    c = twisted_m2()
    res = untwist(c, degree=0)
    assert res.nilpotency == 2
    assert res.pure
    assert res.roundtrip_exact
    assert res.certified
    # e' = 1~ + D e12~
    assert res.e_prime == c.tilde(c.base.one()).add(
        c.tilde(c.base.parse_element({"e12": "1"})).dapply()
    )
    assert len(res.table) == 16
    assert set(res.images) == {"e11", "e12", "e21", "e22"}


def test_untwist_index_three_twist_reports_inexact_roundtrip():
    m3 = MatrixAlgebra(3)
    r = m3.parse_element({"e12": "1", "e23": "1"})
    c = make_differential(m3, Derivation.ad(r))
    res = untwist(c, degree=0)
    assert res.nilpotency == 3
    assert res.pure
    assert res.certified
    # square-zero is the exactness frontier; here the defect is only flagged
    assert not res.roundtrip_exact


def test_untwist_requires_an_inner_derivation():
    with pytest.raises(StructureError):
        untwist(make_cend(1))


def test_dual_identity_consistency_on_the_untwisted_identity():
    c = twisted_m2()
    e = c.from_map({"e11": {"0": "1"}, "e22": {"0": "1"}, "e12": {"1": "1"}})
    report = dual_identity_consistency(c, e)
    assert report["certified"]
    assert report["constant_slice_is_one"]
    assert report["dual_order1_zero"]
    assert report["recursion_failures"] == []
    assert report["consistent"]


def test_dual_identity_companion_action_is_a_commutator():
    c = twisted_m2()
    e = c.from_map({"e11": {"0": "1"}, "e22": {"0": "1"}, "e12": {"1": "1"}})
    b = c.from_map({"e21": {"0": "1"}, "e22": {"1": "1"}})
    report = dual_identity_consistency(c, e, b)
    assert report["companion"]
    # -[e_1, b_0] = -[e12, e21] = e22 - e11
    assert report["expected_d0"] == {"e11": "-1", "e22": "1"}
    assert report["action_consistent"]
    assert report["consistent"]


def test_dual_identity_catches_a_corrupted_slice():
    c = twisted_m2()
    e = c.from_map({"e11": {"0": "1"}, "e22": {"0": "1"}, "e12": {"1": "1"}})
    bad = e.add(c.tilde(c.base.parse_element({"e11": "1"})).dapply(2))
    report = dual_identity_consistency(c, bad)
    assert not report["certified"]
    # the dual side objects on its own, apart from the certificate
    assert not report["dual_order1_zero"]
    assert report["recursion_failures"] == [1]
    assert not report["consistent"]


def noncurrent_sub():
    parent = MatrixPolyAlgebra(2)
    spanning = [parent.one()]
    for k in range(1, 7):
        for i in (1, 2):
            for j in (1, 2):
                spanning.append(parent.parse_element({"x^%d*e%d%d" % (k, i, j): "1"}))
    return parent, Subalgebra(parent, spanning, unital=True, degree=6)


def test_constant_matrix_unit_is_not_current_in_the_x_shifted_carrier():
    parent, sub = noncurrent_sub()
    a = parent.parse_element({"e12": "1"})
    for degree in (2, 4, 6):
        verdict = is_current(sub, a, degree)
        assert not verdict.current
        assert verdict.witness is None


def test_currentness_control_recovers_the_element_itself():
    parent = MatrixAlgebra(2)
    sub = Subalgebra(
        parent, [parent.basis_element(k) for k in parent.basis_upto(0)], unital=True, degree=0
    )
    a = parent.parse_element({"e12": "1"})
    verdict = is_current(sub, a, 0)
    assert verdict.current
    assert verdict.witness == a


def borel_setup():
    m2 = MatrixAlgebra(2)
    borel = Subalgebra(
        m2,
        [m2.basis_element((1, 1)), m2.basis_element((1, 2)), m2.basis_element((2, 2))],
        unital=True,
        degree=0,
    )
    return m2, borel, make_current(m2)


def test_ideal_lift_inside_the_triangular_subalgebra():
    m2, borel, c = borel_setup()
    pair = ideal_lift(c, [m2.parse_element({"e12": "1"})], degree=0, within=borel)
    assert len(pair.base_span) == 1
    assert pair.base_span[0] == m2.parse_element({"e12": "1"})
    assert pair.delta_stable
    assert pair.two_sided
    # restriction undoes the lift
    assert ideal_restrict(c, pair.conf_span) == pair.base_span


def test_ideal_lift_sees_a_derivative_leaving_the_slice():
    # d/dx (x e11) = e11, and e11 is not in the ideal slice generated by x e11
    c = make_cend(2)
    pair = ideal_lift(c, [c.base.parse_element({"x*e11": "1"})], degree=2)
    assert pair.delta_stable is False
    assert pair.two_sided is True


def test_ideal_lift_of_the_scalar_x_ideal_is_stable_and_two_sided():
    mp = MatrixPolyAlgebra(2)
    c = make_current(mp)
    g = mp.parse_element({"x*e11": "1", "x*e22": "1"})
    for degree in range(3, 7):
        pair = ideal_lift(c, [g], degree=degree)
        assert len(pair.base_span) == 4 * degree
        assert pair.delta_stable is True
        assert pair.two_sided is True


def test_ideal_generators_are_membership_checked():
    m2, borel, c = borel_setup()
    with pytest.raises(StructureError):
        ideal_lift(c, [m2.parse_element({"e21": "1"})], degree=0, within=borel)


def test_ideal_restrict_keeps_only_constant_directions():
    m2, borel, c = borel_setup()
    e12 = c.tilde(m2.parse_element({"e12": "1"}))
    e11_shifted = c.tilde(m2.parse_element({"e11": "1"})).dapply()
    # D e11~ spans no constants over Q[D], so only e12 survives
    got = ideal_restrict(c, [e12, e11_shifted])
    assert got == [m2.parse_element({"e12": "1"})]


def test_nilpotency_indices_agree_across_the_transfer():
    m2, borel, c = borel_setup()
    report = nilpotency_check(c, [m2.parse_element({"e12": "1"})], degree=0, within=borel)
    assert report["base_index"] == 2
    assert report["conformal_index"] == 2
    assert report["agree"]
    assert report["delta_stable"]


def test_nilpotency_check_refuses_a_non_nilpotent_slice():
    m2, _, c = borel_setup()
    # inside the full matrix carrier the slice of (e12) is everything
    with pytest.raises(StructureError, match="not nilpotent"):
        nilpotency_check(c, [m2.parse_element({"e12": "1"})], degree=0)


def test_nilpotency_check_refuses_a_repeated_module_level_at_once():
    # the Borel ideal of e19 in M_9 under ad of the lower Jordan block: the
    # carrier side is nilpotent, the module side repeats its level from T_2
    # to T_3, long before the rank bound N_0 + 1 = 82
    n = 9
    m = MatrixAlgebra(n)
    upper = [m.basis_element((i, j)) for i in range(1, n + 1) for j in range(i, n + 1)]
    borel = Subalgebra(m, upper, unital=True, degree=0)
    jordan = m.parse_element({"e%d%d" % (i + 1, i): "1" for i in range(1, n)})
    c = make_differential(m, Derivation.ad(jordan))
    with pytest.raises(StructureError, match="module ideal slice is not nilpotent: T_3 is not 0"):
        nilpotency_check(c, [m.parse_element({"e19": "1"})], degree=0, within=borel)


CARRIERS = {
    "M2": lambda: MatrixAlgebra(2),
    "M3": lambda: MatrixAlgebra(3),
    "M2[x]": lambda: MatrixPolyAlgebra(2),
    "M2+Q[x]": lambda: DirectSum([MatrixAlgebra(2), PolynomialAlgebra()]),
}
ENTRIES = st.sampled_from([-1, 0, 0, 1, 2])
ALL_SHAPES = {"upper", "diagonal", "lower", "poly"}


def _shape(alg, key):
    """Where a basis key sits: "upper", "diagonal" or "lower" for a matrix
    unit (times a power of x), "poly" in the Q[x] summand."""
    if alg.kind == "direct_sum":
        if key[0] == 1:
            return "poly"
        key = key[1]
    i, j = key[-2:]
    return "upper" if i < j else "diagonal" if i == j else "lower"


@st.composite
def carrier_elements(draw, alg, shapes, degree):
    """A nonzero element on the basis keys of degree <= degree whose shape
    is in shapes; strictly upper ones are nilpotent."""
    keys = [k for k in alg.basis_upto(degree) if _shape(alg, k) in shapes]
    items = {k: draw(ENTRIES) for k in keys}
    assume(any(items.values()))
    return Element(alg, items)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_element_nilpotency_index_agrees_with_plain_iteration(data):
    alg = CARRIERS[data.draw(st.sampled_from(sorted(CARRIERS)))]()
    shapes = data.draw(st.sampled_from([{"upper"}, {"upper", "lower"}, ALL_SHAPES]))
    a = data.draw(carrier_elements(alg, shapes, 1))
    expected = element_index_by_iteration(a, 4 * rank_0(alg))
    if expected is None:
        with pytest.raises(AlgebraError, match="not nilpotent"):
            element_nilpotency_index(a)
    else:
        assert element_nilpotency_index(a) == expected


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_nilpotency_check_agrees_with_plain_iteration(data):
    # ideal slices in the carrier or in its upper triangular part, under no
    # twist or ad of a strictly upper or strictly lower element: the lower
    # twist carries module products out of the triangular part, so the two
    # sides can disagree
    alg = CARRIERS[data.draw(st.sampled_from(sorted(CARRIERS)))]()
    degree = data.draw(st.integers(0, 1))
    within = None
    shapes = ALL_SHAPES
    if data.draw(st.sampled_from([False, True, True])):
        shapes = ALL_SHAPES - {"lower"}
        keys = [k for k in alg.basis_upto(degree) if _shape(alg, k) in shapes]
        within = Subalgebra(alg, [alg.basis_element(k) for k in keys], degree=degree)
    twist = data.draw(st.sampled_from(["none", "upper", "lower"]))
    if twist == "none":
        c = make_current(alg)
    else:
        r = data.draw(carrier_elements(alg, {twist}, 1))
        c = make_differential(alg, Derivation.ad(r))
    gen_shapes = data.draw(st.sampled_from([{"upper"}, {"upper"}, shapes]))
    count = data.draw(st.integers(1, 2))
    gens = [data.draw(carrier_elements(alg, gen_shapes, degree)) for _ in range(count)]
    pair = ideal_lift(c, gens, degree, within=within)
    cap = 4 * rank_0(alg)
    base = carrier_index_by_iteration(pair, cap)
    if base is None:
        with pytest.raises(StructureError, match="carrier ideal slice is not nilpotent"):
            nilpotency_check(c, gens, degree, within=within)
        return
    conf = module_index_by_iteration(c, pair, cap)
    if conf is None:
        with pytest.raises(StructureError, match="module ideal slice is not nilpotent"):
            nilpotency_check(c, gens, degree, within=within)
    else:
        report = nilpotency_check(c, gens, degree, within=within)
        assert (report["base_index"], report["conformal_index"]) == (base, conf)


def test_unital_split_of_the_true_identity_has_no_kernel():
    c = make_cend(1)
    report = unital_split(c, c.tilde(c.base.one()), degree=2)
    assert report["identity_certified"]
    assert report["module_rank"] == 3
    assert report["image_rank"] == 3
    assert report["kernel_rank"] == 0


def test_unital_split_of_a_proper_idempotent():
    c = make_current(MatrixAlgebra(2))
    report = unital_split(c, c.tilde(c.base.parse_element({"e11": "1"})), degree=0)
    assert not report["identity_certified"]
    assert report["module_rank"] == 4
    assert report["image_rank"] == 2
    assert report["kernel_rank"] == 2
