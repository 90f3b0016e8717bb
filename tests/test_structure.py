import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from confalg import structure as structure_module
from confalg.algebra import (
    AlgebraError,
    BaseAlgebra,
    Derivation,
    DirectSum,
    Element,
    MatrixAlgebra,
    MatrixPolyAlgebra,
    Subalgebra,
    element_nilpotency_index,
    rank_0,
)
from confalg.conformal import CElement, ConformalAlgebra, sample_celement
from confalg.constructions import (
    SpanReducer,
    generate_closure,
    make_cend,
    make_current,
    make_differential,
)
from confalg.linalg import Echelon
from confalg.rings import Poly, frac
from confalg.specfile import load_spec
from confalg.structure import (
    StructureError,
    component_slices,
    dual_identity_consistency,
    ideal_lift,
    ideal_restrict,
    is_conformal_identity,
    is_current,
    _nilpotency_report,
    nilpotency_check,
    unital_split,
    untwist,
)
from reference_oracles import (
    carrier_index_by_iteration,
    cscale,
    element_index_by_iteration,
    extract_current_components,
    module_index_by_iteration,
    naive_generate_closure,
    naive_ideal_lift,
    naive_ideal_restrict,
    naive_is_current,
    naive_mul_items,
    naive_unital_split,
    slices_rebuild,
)
from recorded_reports import spec
from stock_structures import conformal


def twisted_m2():
    return conformal("dif_matrix2_ad_e12")


def test_component_slices_roundtrip():
    c = make_cend(2)
    rng = random.Random(8)
    for _ in range(20):
        a = sample_celement(c, rng, c.base.basis_upto(3), pdeg=3)
        comps = component_slices(a)
        assert slices_rebuild(c, comps) == a


def test_extraction_by_identity_products_matches_direct_slicing():
    for c in (twisted_m2(), make_cend(1)):
        rng = random.Random(2)
        for _ in range(15):
            a = sample_celement(c, rng, c.base.basis_upto(3), pdeg=3)
            assert extract_current_components(c, a) == component_slices(a)


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


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda out, a: out.update({1: a}),
        lambda out, a: out.update({0: out.get(0, a.conf.zero()).add(a)}),
    ],
    ids=["order_1_nonzero", "order_0_off_the_base_product"],
)
def test_untwist_flags_image_products_that_are_not_current(monkeypatch, corrupt):
    honest = ConformalAlgebra.nprod_all

    def corrupted(self, a, b):
        out = honest(self, a, b)
        corrupt(out, a)
        return out

    monkeypatch.setattr(ConformalAlgebra, "nprod_all", corrupted)
    res = untwist(twisted_m2(), degree=0)
    assert not res.pure
    assert len(res.table) == 16


@pytest.mark.parametrize(
    "name, degree", [("dif_matrix2_ad_e12", 2), ("dif_matrix_poly2_ad_e12", 1)]
)
def test_untwist_makes_each_image_once(monkeypatch, name, degree):
    # one order-0 product per window key for its image, and one per product
    # key past the window (x e_ij x e_jk on matrix_poly), none per basis
    # pair; the identity certificate makes one per window key and the
    # double action two
    c = conformal(name)
    keys = c.base.basis_upto(degree)
    past = {c.base.key_product(k1, k2) for k1 in keys for k2 in keys} - set(keys) - {None}
    nprods = counted(monkeypatch, ConformalAlgebra, "nprod")
    res = untwist(c, degree=degree)
    assert res.pure
    assert len(nprods) == len(keys) + len(past) + len(keys) + 2


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


CURRENT_M2 = make_current(MatrixAlgebra(2))
d_poly = st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(any).map(Poly)


@st.composite
def module_rows(draw):
    """Conformal elements over the 2x2 matrices: D-polynomial cells of
    degree at most 2 on some of the four keys (the others are zero cells of
    the dense matrix), rows that are sums of D-multiples of earlier rows,
    and pairs whose difference is a constant; drawn in a random order, the
    first few dropped."""
    keys = CURRENT_M2.base.basis_upto(0)
    cell_maps = st.dictionaries(st.sampled_from(keys), d_poly, min_size=1, max_size=4)
    rows = [CElement(CURRENT_M2, m) for m in draw(st.lists(cell_maps, min_size=1, max_size=3))]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows) - 1))
        other = cscale(rows[j].dapply(draw(st.integers(0, 2))), draw(st.integers(-2, 2)))
        if draw(st.booleans()):
            rows.append(rows[i].dapply(draw(st.integers(0, 1))).add(other))
        else:
            # a constant that only the difference of two rows shows
            hidden = CElement(CURRENT_M2, draw(st.dictionaries(st.sampled_from(keys), st.integers(-2, 2))))
            rows += [hidden.add(other.dapply()), other.dapply()]
    rows = draw(st.permutations(rows))
    return rows[draw(st.integers(0, len(rows) // 2)) :]


@settings(max_examples=50, deadline=None)
@given(module_rows())
def test_ideal_restrict_agrees_with_the_dense_intersection(rows):
    # rows of positive D-degree, whose combination bound exceeds 1; the
    # workloads feed ideal_restrict constant tildes only, where it is 1
    assert ideal_restrict(CURRENT_M2, rows) == naive_ideal_restrict(CURRENT_M2, rows)


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


def test_nilpotency_check_refuses_a_zero_slice_before_any_level(monkeypatch):
    # x e12 lies past the degree-0 window, and so does every product with
    # it: the slice is 0, and S_1 = 0 would read as index 1, not 2
    mp = MatrixPolyAlgebra(2)
    c = make_current(mp)
    gens = [mp.parse_element({"x*e12": "1"})]
    with pytest.raises(StructureError, match="ideal slice of degree 0 is 0"):
        nilpotency_check(c, gens, degree=0)
    pair = ideal_lift(c, gens, 0)
    assert pair.base_span == []
    products = counted(monkeypatch, BaseAlgebra, "mul_items")
    nprods = counted(monkeypatch, ConformalAlgebra, "nprod_all")
    with pytest.raises(StructureError, match="ideal slice of degree 0 is 0"):
        _nilpotency_report(c, pair)
    assert products == [] and nprods == []


@pytest.mark.parametrize(
    "entry",
    ["ideal_lift", "is_conformal_identity", "unital_split", "is_current", "untwist"],
)
def test_a_degree_below_zero_is_refused_before_any_product(monkeypatch, entry):
    c = make_cend(2)
    mp = c.base
    twisted = make_differential(mp, Derivation.ad(mp.parse_element({"e12": "1"})))
    full = Subalgebra(mp, [mp.basis_element(k) for k in mp.basis_upto(2)], degree=2)
    calls = {
        "ideal_lift": lambda: ideal_lift(c, [mp.parse_element({"e12": "1"})], degree=-1),
        "is_conformal_identity": lambda: is_conformal_identity(c, c.named_element("L0"), degree=-1),
        "unital_split": lambda: unital_split(c, c.named_element("L0"), degree=-1),
        "is_current": lambda: is_current(full, mp.parse_element({"e12": "1"}), -1),
        "untwist": lambda: untwist(twisted, degree=-1),
    }
    products = counted(monkeypatch, BaseAlgebra, "mul_items")
    nprods = counted(monkeypatch, ConformalAlgebra, "nprod")
    with pytest.raises(StructureError, match="degree must be >= 0, got -1"):
        calls[entry]()
    assert products == [] and nprods == []


def borel(m, n):
    """The upper triangular n x n matrices of the carrier m at degree 0."""
    upper = [m.basis_element((i, j)) for i in range(1, n + 1) for j in range(i, n + 1)]
    return Subalgebra(m, upper, unital=True, degree=0)


def jordan_twisted_borel():
    """The Borel ideal of e19 in M_9 under ad of the lower Jordan block, as
    (structure, generators, view)."""
    n = 9
    m = MatrixAlgebra(n)
    jordan = m.parse_element({"e%d%d" % (i + 1, i): "1" for i in range(1, n)})
    c = make_differential(m, Derivation.ad(jordan))
    return c, [m.parse_element({"e19": "1"})], borel(m, n)


def test_nilpotency_check_refuses_a_repeated_module_level_at_once():
    # the carrier side is nilpotent, the module side repeats its level from
    # T_2 to T_3, long before the rank bound N_0 + 1 = 82
    c, gens, view = jordan_twisted_borel()
    with pytest.raises(StructureError, match="module ideal slice is not nilpotent: T_3 is not 0"):
        nilpotency_check(c, gens, degree=0, within=view)


def test_nilpotency_check_takes_no_conformal_product(monkeypatch):
    # both sides run on carrier products: under ad(e12) on the upper
    # triangular 3 x 3 view, delta(e23) = e13; under d/dx, delta(x e23) = e23
    # leaves the slice of K. Each module step holds delta-images past S_1.
    m3 = MatrixAlgebra(3)
    twisted = make_differential(m3, Derivation.ad(m3.parse_element({"e12": "1"})))
    ddx = load_spec(spec("ideal_triangular3_ddx.json"))
    jordan = jordan_twisted_borel()

    def refuse(*args, **kwargs):
        raise AssertionError("nilpotency_check took a conformal product or a Q(D)-rank")

    monkeypatch.setattr(ConformalAlgebra, "_products", refuse)
    monkeypatch.setattr(SpanReducer, "add", refuse)
    report = nilpotency_check(twisted, [m3.parse_element({"e23": "1"})], 0, within=borel(m3, 3))
    assert (report["base_index"], report["conformal_index"]) == (2, 2)
    for name in ["J", "K"]:
        report = nilpotency_check(ddx.conformal, ddx.ideals[name], 3, within=ddx.sub)
        assert (report["base_index"], report["conformal_index"]) == (3, 3)
        assert report["delta_stable"] == (name == "J")
    c, gens, view = jordan
    with pytest.raises(StructureError, match="module ideal slice is not nilpotent: T_3 is not 0"):
        nilpotency_check(c, gens, degree=0, within=view)


def test_the_module_step_is_linearly_independent(monkeypatch):
    """The module levels multiply by a basis of the delta-orbits of S_1, not
    by the orbits themselves, which overlap: under d/dx the 29 orbit maps
    of K's slice at degree 3 span 12 dimensions. J's slice is delta-stable,
    so that basis is S_1 itself and the module levels are the carrier's."""
    honest = structure_module._level_index
    steps = []

    def recorded(c, first, step, last, side, name):
        steps.append((side, step))
        return honest(c, first, step, last, side, name)

    monkeypatch.setattr(structure_module, "_level_index", recorded)
    ddx = load_spec(spec("ideal_triangular3_ddx.json"))
    for name in ["J", "K"]:
        report = nilpotency_check(ddx.conformal, ddx.ideals[name], 3, within=ddx.sub)
        assert (report["base_index"], report["conformal_index"]) == (3, 3)
    modules = [step for side, step in steps if side == "module"]
    assert len(steps) == 3 and len(modules) == 1
    assert len(modules[0]) == Echelon(modules[0]).rank == 12


def test_nilpotency_check_builds_no_module_element(monkeypatch):
    """Both indices are read off carrier item maps, so the lift that
    nilpotency_check shares with ideal_lift leaves conf_span, the slice's
    tilde, unbuilt; ideal_lift builds it."""
    ddx = load_spec(spec("ideal_triangular3_ddx.json"))
    c, gens = ddx.conformal, ddx.ideals["J"]

    def refuse(*args, **kwargs):
        raise AssertionError("nilpotency_check built a module element")

    with monkeypatch.context() as patch:
        patch.setattr(ConformalAlgebra, "tilde", refuse)
        for name in ["J", "K"]:
            nilpotency_check(c, ddx.ideals[name], 3, within=ddx.sub)
        m3 = MatrixAlgebra(3)
        twisted = make_differential(m3, Derivation.ad(m3.parse_element({"e12": "1"})))
        nilpotency_check(twisted, [m3.parse_element({"e23": "1"})], 0, within=borel(m3, 3))
    pair = ideal_lift(c, gens, 3, within=ddx.sub)
    assert pair.conf_span == [c.tilde(u) for u in pair.base_span]


def test_nilpotency_check_refuses_a_generator_that_is_not_nilpotent_before_any_level(
    monkeypatch,
):
    # J = (x e11) under d/dx on 5x5 matrices over Q[x] at degree 2: x e11 is
    # in the slice and x^k e11 is never 0, so no S_k is; the levels would
    # shift in degree and never repeat, all N_0 + 1 = 26 of them
    base = MatrixPolyAlgebra(5)
    c = make_differential(base, Derivation.ddx(base))
    gens = [base.parse_element({"x*e11": "1"})]
    products = counted(monkeypatch, BaseAlgebra, "mul_items")
    with pytest.raises(
        StructureError,
        match="carrier ideal slice is not nilpotent: its spanning element x\\*e11 is not",
    ):
        nilpotency_check(c, gens, degree=2)
    # the lift's own 3,800 products and the 26 powers of x e11 up to the
    # rank bound, not 26 levels of up to 50 x 50 products each
    assert 1 <= len(products) <= 3826


CARRIERS = {
    "M2": lambda: MatrixAlgebra(2),
    "M3": lambda: MatrixAlgebra(3),
    "M2[x]": lambda: MatrixPolyAlgebra(2),
    "M2+Q[x]": lambda: DirectSum([MatrixAlgebra(2), MatrixPolyAlgebra(1)]),
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


@st.composite
def sparse_carrier_elements(draw, alg, degree):
    """An element, zero allowed, on a few basis keys of degree <= degree,
    so its low degree varies."""
    keys = alg.basis_upto(degree)
    return Element(alg, draw(st.dictionaries(st.sampled_from(keys), ENTRIES, max_size=4)))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_carrier_is_graded_by_key_degree(data):
    alg = CARRIERS[data.draw(st.sampled_from(sorted(CARRIERS)))]()
    keys = alg.basis_upto(3)
    k1, k2 = data.draw(st.sampled_from(keys)), data.draw(st.sampled_from(keys))
    floor = alg.key_degree(k1) + alg.key_degree(k2)
    k = alg.key_product(k1, k2)
    assert k is None or alg.key_degree(k) >= floor
    x, y = data.draw(sparse_carrier_elements(alg, 3)), data.draw(sparse_carrier_elements(alg, 3))
    p = x.mul(y)
    if not p.is_zero():
        assert p.low_degree() >= x.low_degree() + y.low_degree()


@pytest.mark.parametrize("name", sorted(CARRIERS) + ["Q", "Q[x]"])
def test_every_carrier_is_monomial(name):
    # the contract ideal_lift's two-sided proof reads
    # (BaseAlgebra.key_product), on every key of the degree-2 window; the
    # grading is checked above
    alg = {"Q": lambda: MatrixAlgebra(1), "Q[x]": lambda: MatrixPolyAlgebra(1), **CARRIERS}[name]()
    top = 2
    keys = alg.basis_upto(top)
    assert len(set(keys)) == len(keys)
    for d in range(-2, top + 1):
        assert set(alg.basis_upto(d)) == {k for k in keys if alg.key_degree(k) <= d}
    products = {}
    for k1 in keys:
        for k2 in keys:
            k = alg.key_product(k1, k2)
            # one key with coefficient 1, or 0
            p = {} if k is None else {k: 1}
            assert alg.mul_items({k1: 1}, {k2: 1}) == p
            # a product key inside the window is a window key
            assert k is None or k in keys or alg.key_degree(k) > top
            products[k1, k2] = p
    for k1, k2, k3 in itertools.product(keys, repeat=3):
        left = alg.mul_items(products[k1, k2], {k3: 1})
        assert left == alg.mul_items({k1: 1}, products[k2, k3])


# integral and proper fractions, so sums can cancel or turn integral
MIXED = st.sampled_from(
    [1, -1, 2, -3, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-2, 3)]
)


@st.composite
def item_maps(draw, alg):
    """An element's items, in drawn key order: up to five distinct basis
    keys of degree <= 2 with nonzero int or Fraction values."""
    terms = st.tuples(st.sampled_from(alg.basis_upto(2)), MIXED)
    return dict(draw(st.lists(terms, max_size=5, unique_by=lambda t: t[0])))


@st.composite
def factor_pairs(draw, alg):
    """Two item maps; in half the draws left holds a e_ij + b e_ij' and
    right c e_jl - (ac/b) e_j'l, whose products build e_il with values
    that cancel unless a drawn term adds to them."""
    left, right = draw(item_maps(alg)), draw(item_maps(alg))
    if draw(st.booleans()):
        prefix = "0:" if alg.kind == "direct_sum" else ""
        n = 2 if alg.kind == "direct_sum" else alg.n
        i, j, j2, l = (draw(st.integers(1, n)) for _ in range(4))
        assume(j != j2)
        a, b, c = draw(MIXED), draw(MIXED), draw(MIXED)

        def key(u, v):
            return alg.parse_key("%se%d%d" % (prefix, u, v))

        left.update({key(i, j): a, key(i, j2): b})
        right.update({key(j, l): c, key(j2, l): frac(-Fraction(a) * c / b)})
    return left, right


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mul_items_agrees_with_the_term_by_term_product(data):
    alg = CARRIERS[data.draw(st.sampled_from(sorted(CARRIERS)))]()
    left, right = data.draw(factor_pairs(alg))
    got = alg.mul_items(left, right)
    want = naive_mul_items(alg, left, right)
    assert got == want and list(got) == list(want)
    assert all(type(c) is int or c.denominator != 1 for c in got.values())
    via = Element(alg, left).mul(Element(alg, right)).items
    assert via == got and list(via) == list(got)


@pytest.mark.parametrize("name", sorted(CARRIERS))
def test_mul_items_drops_a_sum_that_cancels(name):
    alg = CARRIERS[name]()
    prefix = "0:" if alg.kind == "direct_sum" else ""
    key = {n: alg.parse_key(prefix + n) for n in ("e11", "e12", "e21")}
    # e11 e11 and e12 e21 both build e11, and cancel; e11 e21, e12 e11 and
    # e12 e12 are 0; e11 e12 = e12 stays, with the integral value 3/2 * 2
    left = {key["e11"]: Fraction(3, 2), key["e12"]: Fraction(-1, 2)}
    right = {key["e11"]: 1, key["e21"]: 3, key["e12"]: 2}
    got = alg.mul_items(left, right)
    assert got == naive_mul_items(alg, left, right) == {key["e12"]: 3}
    assert type(got[key["e12"]]) is int
    assert alg.mul_items({key["e12"]: 1}, {key["e11"]: 1}) == {}


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
    # twist, ad of a strictly upper or strictly lower element, or d/dx where
    # the carrier has it: the lower twist carries module products out of
    # the triangular part, so the two sides can disagree
    alg = CARRIERS[data.draw(st.sampled_from(sorted(CARRIERS)))]()
    degree = data.draw(st.integers(0, 1))
    within = None
    shapes = ALL_SHAPES
    if data.draw(st.sampled_from([False, True, True])):
        shapes = ALL_SHAPES - {"lower"}
        keys = [k for k in alg.basis_upto(degree) if _shape(alg, k) in shapes]
        within = Subalgebra(alg, [alg.basis_element(k) for k in keys], degree=degree)
    twists = ["none", "upper", "lower"] + (["ddx"] if alg.supports_ddx() else [])
    twist = data.draw(st.sampled_from(twists))
    if twist == "none":
        c = make_current(alg)
    elif twist == "ddx":
        c = make_differential(alg, Derivation.ddx(alg))
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


# The structure routines make each product and reduction once; the naive
# references in reference_oracles make every one, as first written.


def triangular(alg, degree):
    """The subalgebra of the carrier's basis keys of degree <= degree that
    are not strictly lower triangular."""
    keys = [k for k in alg.basis_upto(degree) if _shape(alg, k) != "lower"]
    return Subalgebra(alg, [alg.basis_element(k) for k in keys], degree=degree)


@st.composite
def structures(draw, alg):
    """A current structure on the carrier, or one twisted by ad of a
    strictly upper or lower element, or by d/dx where the carrier has it."""
    twists = ["none", "upper", "lower"] + (["ddx"] if alg.supports_ddx() else [])
    twist = draw(st.sampled_from(twists))
    if twist == "none":
        return make_current(alg)
    if twist == "ddx":
        return make_differential(alg, Derivation.ddx(alg))
    r = draw(carrier_elements(alg, {twist}, 1))
    return make_differential(alg, Derivation.ad(r))


@st.composite
def module_elements(draw, c, degree):
    """b~, or b~ + D c~, for carrier elements b, c of degree <= degree."""
    e = c.tilde(draw(carrier_elements(c.base, ALL_SHAPES, degree)))
    if draw(st.booleans()):
        e = e.add(c.tilde(draw(carrier_elements(c.base, ALL_SHAPES, degree))).dapply())
    return e


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_is_current_matches_the_naive_reference(data):
    alg = CARRIERS[data.draw(st.sampled_from(sorted(CARRIERS)))]()
    degree = data.draw(st.integers(0, 2))
    if data.draw(st.booleans()):
        sub = triangular(alg, degree)
    else:
        sub = Subalgebra(alg, [alg.basis_element(k) for k in alg.basis_upto(degree)], degree=degree)
    if data.draw(st.booleans()):
        # a combination of spanning elements: a witness exists
        vs = sub.span_upto(degree)
        a = alg.zero()
        for v in vs:
            a = a.add(v.scale(data.draw(ENTRIES)))
        assume(not a.is_zero())
    else:
        a = data.draw(carrier_elements(alg, ALL_SHAPES, degree))
    verdict = is_current(sub, a, degree)
    assert (verdict.current, verdict.witness) == naive_is_current(sub, a, degree)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_ideal_lift_matches_the_naive_reference(data):
    alg = CARRIERS[data.draw(st.sampled_from(sorted(CARRIERS)))]()
    degree = data.draw(st.integers(0, 2))
    c = data.draw(structures(alg))
    within = None
    shapes = ALL_SHAPES
    if data.draw(st.booleans()):
        within = triangular(alg, degree)
        shapes = ALL_SHAPES - {"lower"}
    # a generator may reach past the window: its left factors do too
    gen_degree = degree if within is not None else data.draw(st.integers(degree, degree + 2))
    count = data.draw(st.integers(1, 2))
    gens = [data.draw(carrier_elements(alg, shapes, gen_degree)) for _ in range(count)]
    pair = ideal_lift(c, gens, degree, within=within)
    assert (pair.base_span, pair.delta_stable, pair.two_sided) == naive_ideal_lift(
        c, gens, degree, within=within
    )
    assert pair.conf_span == [c.tilde(u) for u in pair.base_span]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_unital_split_matches_the_naive_reference(data):
    alg = CARRIERS[data.draw(st.sampled_from(sorted(CARRIERS)))]()
    degree = data.draw(st.integers(0, 2))
    c = data.draw(structures(alg))
    if data.draw(st.sampled_from([False, True, True])):
        e = data.draw(module_elements(c, degree))
    else:
        e = c.tilde(alg.one())
    assert unital_split(c, e, degree) == naive_unital_split(c, e, degree)


@st.composite
def sparse_module_elements(draw, c, degree):
    """c b~ + D^j b'~ or c b~ for basis symbols b, b' of degree <= degree
    and j <= 1. Dense generators are avoided: the closure's rank over Q(D)
    then stays small."""
    keys = c.base.basis_upto(degree)
    b = c.base.basis_element(draw(st.sampled_from(keys)))
    e = c.tilde(b.scale(draw(st.sampled_from([1, -1, 2]))))
    if draw(st.booleans()):
        b = c.base.basis_element(draw(st.sampled_from(keys)))
        e = e.add(c.tilde(b).dapply(draw(st.integers(0, 1))))
    return e


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_generate_closure_matches_the_naive_reference(data):
    alg = CARRIERS[data.draw(st.sampled_from(sorted(CARRIERS)))]()
    degree = data.draw(st.integers(0, 2))
    c = data.draw(structures(alg))
    count = data.draw(st.integers(1, 3))
    gens = [data.draw(sparse_module_elements(c, degree)) for _ in range(count)]
    if data.draw(st.booleans()):
        # a repeated generator is a repeated candidate
        gens.append(gens[0])
    rounds = data.draw(st.integers(1, 4))
    prof = generate_closure(c, gens, rounds)
    expected = naive_generate_closure(c, gens, rounds)
    assert (prof.spanning, prof.ranks, prof.stabilized) == expected


def test_ideal_lift_multiplies_left_factors_that_leave_the_window():
    # e21 = (e21 g) e11 with e21 g = e21 + x^3 e22 of degree 3: dropping the
    # left factors outside the degree-0 window loses e21 and spans only 2
    mp = MatrixPolyAlgebra(2)
    c = make_current(mp)
    g = mp.parse_element({"e11": "1", "x^3*e12": "1"})
    pair = ideal_lift(c, [g], degree=0)
    units = [mp.basis_element(k) for k in mp.basis_upto(0)]
    assert pair.base_span == units
    assert pair.base_span == naive_ideal_lift(c, [g], 0)[0]


def test_ideal_lift_flags_a_truncated_slice_that_is_not_two_sided():
    # a generator reaching past the degree-2 window: the products b1 g b2
    # inside the window do not span their own two-sided multiples
    mp = MatrixPolyAlgebra(2)
    c = make_current(mp)
    terms = ["-e21", "-e22", "x^2*e11", "-x^2*e21", "-x^3*e12", "-x^3*e22", "x^4*e12", "x^4*e22"]
    g = mp.parse_element({t.lstrip("-"): "-1" if t[0] == "-" else "1" for t in terms})
    pair = ideal_lift(c, [g], degree=2)
    assert pair.two_sided is False
    assert (pair.base_span, pair.delta_stable, pair.two_sided) == naive_ideal_lift(c, [g], 2)


@pytest.mark.parametrize(
    "spanning, gen",
    [
        # u b leaves the span for u = e21 and b either spanning element;
        # every b u stays in it
        (({"e21": 1, "x*e11": -1}, {"e22": 1, "x*e12": 1}), {"e21": 1, "x*e11": -1}),
        # b u leaves the span for u = e12; every u b stays in it
        (({"e12": 1, "x*e11": -1}, {"x*e21": 1}), {"e12": 1, "x*e11": -1}),
        # both sides leave it, and no product of the lift straddles the
        # window: on the full basis that would prove the slice two-sided
        (({"e12": 2, "e22": 1, "x*e21": 2}, {"e22": 1}, {"x*e21": 1}), {"e22": 1}),
    ],
)
def test_ideal_lift_checks_both_sides_inside_a_view(spanning, gen):
    # views of M_2 over Q[x] whose spanning elements are not basis keys;
    # ideal_lift does not check a view's closure, and none of these is
    # closed inside the degree-1 window. The slice is not two-sided, and
    # a check of one side only, or none inside a view, would say it is
    mp = MatrixPolyAlgebra(2)
    c = make_current(mp)
    view = Subalgebra(mp, [mp.parse_element(m) for m in spanning], degree=1)
    g = mp.parse_element(gen)
    pair = ideal_lift(c, [g], degree=1, within=view)
    assert pair.two_sided is False
    assert (pair.base_span, pair.delta_stable, pair.two_sided) == naive_ideal_lift(
        c, [g], 1, within=view
    )


def counted(monkeypatch, cls, name):
    """Arguments of every call of cls.name from now on, in call order."""
    calls = []
    honest = getattr(cls, name)

    def wrapper(self, *args):
        calls.append(args)
        return honest(self, *args)

    monkeypatch.setattr(cls, name, wrapper)
    return calls


@pytest.mark.parametrize("degree", [0, 2, 4])
def test_is_current_makes_each_commutator_once(monkeypatch, degree):
    cases = [noncurrent_sub()]
    mp = MatrixPolyAlgebra(2)
    cases.append((mp, Subalgebra(mp, [mp.basis_element(k) for k in mp.basis_upto(4)], degree=4)))
    for parent, sub in cases:
        a = parent.parse_element({"e12": "1", "x*e21": "2"})
        s = len(sub.span_upto(degree))
        # the first call fills the view's table; a second one makes only
        # the targets [a, u], [u, a]
        for most in (s * (s - 1) + 2 * s, 2 * s):
            calls = counted(monkeypatch, BaseAlgebra, "mul_items")
            verdict = is_current(sub, a, degree)
            assert 1 <= len(calls) <= most
            monkeypatch.undo()
            assert (verdict.current, verdict.witness) == naive_is_current(sub, a, degree)


def test_is_current_caches_the_commutators_per_degree():
    # x^3 e12 is current on the full view at degrees 4 and 6, not at 2: a
    # table read at the wrong degree would change a verdict
    mp = MatrixPolyAlgebra(2)
    full = Subalgebra(mp, [mp.basis_element(k) for k in mp.basis_upto(6)], unital=True, degree=6)
    a = mp.parse_element({"x^3*e12": "1"})
    verdicts = []
    for degree in (6, 2, 4, 6):
        verdict = is_current(full, a, degree)
        assert (verdict.current, verdict.witness) == naive_is_current(full, a, degree)
        verdicts.append(verdict.current)
    assert verdicts == [True, False, True, True]


def test_ideal_lift_skips_products_past_the_window(monkeypatch):
    mp = MatrixPolyAlgebra(2)
    c = make_current(mp)
    central = mp.parse_element({"x*e11": "1", "x*e22": "1"})
    row = mp.parse_element({"x*e11": "1", "x*e12": "1"})
    # every product b1 g, g b1, b1 g b2 and of the two-sided check is made
    # only when its factors' low degrees leave room in the window. On the
    # full basis no product the lift makes for x(e11 + e22) or x(e11 + e12)
    # straddles the window, so the slice is two-sided by proof and the
    # check makes none: these are the lift's own products. Checking every
    # product took 1,080, 1,584 and 2,184 for x(e11 + e22), the window
    # alone 512, 760 and 1,056, and skipping what the lift made and kept
    # 352, 520 and 720 (136 and 432 for x(e11 + e12)).
    # The generator of test_ideal_lift_flags_a_truncated_slice_that_is_not_two_sided
    # straddles the window: its lift makes 80 products and the check 9
    # more, up to the first outside the span. Inside the triangular view
    # the spanning elements need not be keys: the lift of x(e11 + e22)
    # makes 39 and the check 27. Only these counts tell the check on both
    # sides from a check on one: the outputs agree either way
    truncated = mp.parse_element(
        {
            "e21": -1,
            "e22": -1,
            "x^2*e11": 1,
            "x^2*e21": -1,
            "x^3*e12": -1,
            "x^3*e22": -1,
            "x^4*e12": 1,
            "x^4*e22": 1,
        }
    )
    for g, degree, within, exact in (
        (central, 4, None, 192),
        (central, 5, None, 280),
        (central, 6, None, 384),
        (row, 2, None, 40),
        (row, 4, None, 112),
        (truncated, 2, None, 89),
        (central, 2, triangular(mp, 2), 66),
    ):
        calls = counted(monkeypatch, BaseAlgebra, "mul_items")
        pair = ideal_lift(c, [g], degree, within=within)
        assert len(calls) == exact
        monkeypatch.undo()
        assert (pair.base_span, pair.delta_stable, pair.two_sided) == naive_ideal_lift(
            c, [g], degree, within=within
        )


def test_unital_split_makes_one_order_zero_product_per_basis_symbol(monkeypatch):
    c = make_cend(2)
    idempotent = c.tilde(c.base.parse_element({"e11": "1", "e12": "-2"}))
    for e, degree in [(c.named_element("L0"), 8), (idempotent, 5)]:
        calls = counted(monkeypatch, ConformalAlgebra, "nprod")
        report = unital_split(c, e, degree)
        orders = [n for _, _, n in calls]
        assert orders.count(0) == len(c.base.basis_upto(degree))
        monkeypatch.undo()
        assert report == naive_unital_split(c, e, degree)


def test_generate_closure_never_reduces_a_repeated_candidate(monkeypatch):
    c = make_cend(2)
    gens = [c.named_element(n) for n in ["L0_e11", "L0_e22", "L1_e12", "L1_e21"]]
    calls = counted(monkeypatch, SpanReducer, "add")
    prof = generate_closure(c, gens, rounds=12)
    passed = [frozenset(v.items.items()) for (v,) in calls]
    assert len(set(passed)) == len(passed)
    monkeypatch.undo()
    assert (prof.spanning, prof.ranks) == naive_generate_closure(c, gens, 12)[:2]
