"""End-to-end acceptance gate: ten pinned criteria, each with an explicit
wall-clock budget and one printed PASS line. Expected values are either
fixed small computations checked by hand or two independent computation
routes required to agree exactly."""

import random
import time

from confalg.algebra import (
    Derivation,
    MatrixAlgebra,
    MatrixPolyAlgebra,
    Subalgebra,
    kernel_decompose,
    kernel_reconstruct,
)
from confalg.conformal import check_axioms, locality_degree
from confalg.constructions import make_cend, make_current, make_differential, product_table
from confalg.growth import gk_profile
from confalg.oracle import oracle_check
from confalg.structure import (
    dual_identity_consistency,
    ideal_lift,
    ideal_restrict,
    is_current,
    nilpotency_check,
    unital_split,
    untwist,
)
from reference_oracles import cscale, random_element
from stock_structures import conformal


def _done(n, t0, budget, detail):
    elapsed = time.monotonic() - t0
    assert elapsed < budget, "criterion %d budget %ds exceeded: %.2fs" % (
        n,
        budget,
        elapsed,
    )
    print("PASS criterion %d (%.2fs < %ds): %s" % (n, elapsed, budget, detail))


def test_criterion_01_rank_one_endomorphism_table():
    t0 = time.monotonic()
    c = make_cend(1)
    gens = [("L0", c.named_element("L0")), ("L1", c.named_element("L1"))]
    table = {(e["left"], e["right"]): e["orders"] for e in product_table(c, gens)}
    assert table[("L0", "L0")] == {"0": {"1": {"0": "1"}}}
    assert table[("L0", "L1")] == {"0": {"x": {"0": "1"}}, "1": {"1": {"0": "-1"}}}
    # the order-1 product with L0 on the right vanishes, so only order 0 shows
    assert table[("L1", "L0")] == {"0": {"x": {"0": "1"}}}
    assert table[("L1", "L1")] == {"0": {"x^2": {"0": "1"}}, "1": {"x": {"0": "-1"}}}
    l1, l2 = c.named_element("L1"), c.named_element("L2")
    assert c.nprod(l1, l1, 0) == l2
    assert c.nprod(l1, l2, 2) == cscale(l1, 2)
    assert locality_degree(c, l1, l1) == 1
    _done(1, t0, 1, "generator table of the rank-one endomorphism structure")


def test_criterion_02_current_product_law():
    t0 = time.monotonic()
    for n in (2, 3):
        c = make_current(MatrixAlgebra(n))
        keys = c.base.basis_upto(0)
        for k1 in keys:
            for k2 in keys:
                a = c.tilde(c.base.basis_element(k1))
                b = c.tilde(c.base.basis_element(k2))
                prod = c.base.basis_element(k1).mul(c.base.basis_element(k2))
                assert c.nprod(a, b, 0) == c.tilde(prod)
                for m in range(1, 7):
                    assert c.nprod(a, b, m).is_zero()
    _done(2, t0, 1, "order-0 concentration over matrix currents of size 2 and 3")


def _oracle_structures():
    return [(name, conformal(name)) for name in ["cend1", "cur_matrix2", "dif_matrix_poly2_ad_e12"]]


def test_criterion_03_two_route_oracle_agreement():
    t0 = time.monotonic()
    total = 0
    for name, c in _oracle_structures():
        report = oracle_check(c, samples=100, seed=0, window=8, degree=3, pdeg=2)
        assert report["ok"], (name, report["violation"])
        total += report["orders_checked"]
    _done(3, t0, 30, "closed form vs ring-side residue on %d orders" % total)


def test_criterion_04_axiom_suite_and_sabotage():
    t0 = time.monotonic()
    for name, c in _oracle_structures():
        report = check_axioms(c, samples=200, seed=0, degree=4, pdeg=2)
        assert report["ok"], (name, report["violation"])

    # control: the same checker must flag a single flipped sign
    c = make_cend(1)

    def flipped(a, b, n):
        v = c.nprod(a, b, n)
        return v.neg() if n == 1 else v

    bad = check_axioms(c, samples=200, seed=0, product=flipped)
    assert not bad["ok"]
    assert bad["violation"]["axiom"] in ("leibniz", "shift")
    _done(4, t0, 30, "shift rules on 200 pairs per construction, sabotage caught")


def test_criterion_05_untwist_inner_derivation():
    t0 = time.monotonic()
    base = MatrixAlgebra(2)
    c = make_differential(base, Derivation.ad(base.parse_element({"e12": "1"})))
    res = untwist(c, degree=0)
    expected = c.tilde(base.one()).add(
        c.tilde(base.parse_element({"e12": "1"})).dapply()
    )
    assert res.e_prime == expected
    assert res.certified
    assert res.nilpotency == 2
    assert res.pure
    assert len(res.images) == 4
    assert len(res.table) == 16
    assert res.roundtrip_exact
    dual = dual_identity_consistency(c, res.e_prime)
    assert dual["consistent"]
    assert dual["recursion_failures"] == []
    assert dual["dual_order1_zero"]
    _done(5, t0, 5, "square-zero twist rewritten as a certified pure current")


def test_criterion_06_currentness_verdicts():
    t0 = time.monotonic()
    parent = MatrixPolyAlgebra(2)
    spanning = [parent.one()]
    for k in range(1, 7):
        for i in (1, 2):
            for j in (1, 2):
                spanning.append(parent.parse_element({"x^%d*e%d%d" % (k, i, j): "1"}))
    shifted = Subalgebra(parent, spanning, unital=True, degree=6)
    a = parent.parse_element({"e12": "1"})
    for degree in (2, 4, 6):
        assert not is_current(shifted, a, degree).current

    full = Subalgebra(
        parent, [parent.basis_element(k) for k in parent.basis_upto(6)], unital=True, degree=6
    )
    for degree in (2, 4, 6):
        verdict = is_current(full, a, degree)
        assert verdict.current
        assert verdict.witness == a
    _done(6, t0, 10, "constant unit non-current in the x-shifted carrier, control witness recovered")


def test_criterion_07_growth_profiles():
    t0 = time.monotonic()
    c = make_cend(1)
    prof = gk_profile(c, [c.named_element("L0"), c.named_element("L1")], rmax=12)
    assert prof.ranks == [r + 1 for r in range(1, 13)]
    assert prof.classification == "linear_growth"
    assert abs(prof.exponent - 1.0) <= 0.15

    cm = make_current(MatrixAlgebra(2))
    gens = [cm.tilde(cm.base.basis_element(k)) for k in cm.base.basis_upto(0)]
    flat = gk_profile(cm, gens, rmax=8)
    assert flat.ranks == [4] * 8
    assert flat.classification == "zero_growth"
    _done(7, t0, 60, "linear growth for the endomorphism structure, bounded for the matrix current")


def test_criterion_08_ideal_transfer_roundtrips():
    t0 = time.monotonic()
    m2 = MatrixAlgebra(2)
    borel = Subalgebra(
        m2,
        [m2.basis_element((1, 1)), m2.basis_element((1, 2)), m2.basis_element((2, 2))],
        unital=True,
        degree=0,
    )
    c = make_current(m2)
    e12 = m2.parse_element({"e12": "1"})

    nil = nilpotency_check(c, [e12], degree=0, within=borel)
    assert nil["base_index"] == 2
    assert nil["conformal_index"] == 2
    assert nil["agree"]

    roundtrips = [
        (c, [e12], 0, borel),
        (c, [e12], 0, None),
    ]
    mp = MatrixPolyAlgebra(2)
    cp = make_current(mp)
    roundtrips.append((cp, [mp.parse_element({"x*e11": "1", "x*e22": "1"})], 3, None))
    for conf, gens, degree, within in roundtrips:
        pair = ideal_lift(conf, gens, degree=degree, within=within)
        assert ideal_restrict(conf, pair.conf_span) == pair.base_span
    _done(8, t0, 5, "matching nilpotency indices and three restrict-after-lift identities")


def test_criterion_09_unital_split():
    t0 = time.monotonic()
    c = make_cend(1)
    e = c.named_element("L0")
    report = unital_split(c, e, degree=4)
    assert report["identity_certified"]
    assert report["kernel_rank"] == 0
    assert report["image_rank"] == report["module_rank"] == 5
    # idempotence of the order-0 action on the window it stabilizes
    assert c.nprod(e, e, 0) == e
    for key in c.base.basis_upto(4):
        v = c.tilde(c.base.basis_element(key))
        once = c.nprod(e, v, 0)
        assert c.nprod(e, once, 0) == once
    _done(9, t0, 5, "identity action splits the window with trivial kernel")


def test_criterion_10_kernel_decomposition():
    t0 = time.monotonic()
    alg = MatrixPolyAlgebra(2)
    d = Derivation.ddx(alg)
    rng = random.Random(0)
    for _ in range(50):
        v = random_element(alg, rng, degree=5, terms=4)
        comps = kernel_decompose(v, d)
        for _, part in comps:
            assert d.apply(part).is_zero()
        assert kernel_reconstruct(alg, comps) == v
    _done(10, t0, 5, "50 seeded elements split along the derivation kernel and rebuild")
