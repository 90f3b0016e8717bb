import os
import random
from contextlib import nullcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from confalg import conformal as conformal_module
from confalg.conformal import (
    CElement,
    ConformalAlgebra,
    ConformalError,
    _randbelow,
    _sample,
    check_axioms,
    locality_degree,
    sample_celement,
)
from confalg.constructions import make_cend
from confalg.specfile import load_spec
from recorded_reports import SPECS, doubled, kernel_order_changed, spec
from reference_oracles import (
    CappedRandom,
    cscale,
    randint_sample_celement,
)
from stock_structures import conformal


def cur_m2():
    return conformal("cur_matrix2")


def dif_m2():
    return conformal("cend2")


STRUCTURES = [cur_m2, dif_m2, lambda: conformal("cend1")]


def _ref_term(c, k1, i, k2, j, n):
    """Single-term product computed by peeling D-powers with the two shift
    rules, one at a time. Independent of the closed-form expansion."""
    if n < 0:
        return c.zero()
    if i > 0:
        if n == 0:
            return c.zero()
        return cscale(_ref_term(c, k1, i - 1, k2, j, n - 1), Fraction(-n))
    if j > 0:
        head = _ref_term(c, k1, 0, k2, j - 1, n).dapply()
        if n == 0:
            return head
        return head.add(cscale(_ref_term(c, k1, 0, k2, j - 1, n - 1), Fraction(n)))
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
                    out = out.add(cscale(_ref_term(c, k1, i, k2, j, n), ci * cj))
    return out


@pytest.mark.parametrize("make", STRUCTURES)
def test_closed_form_matches_recursive_reference(make):
    c = make()
    keys = c.base.basis_upto(3)
    rng = random.Random(42)
    for _ in range(40):
        a = sample_celement(c, rng, keys, pdeg=2)
        b = sample_celement(c, rng, keys, pdeg=2)
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
    keys = c.base.basis_upto(3)
    rng = random.Random(9)
    for _ in range(20):
        a = sample_celement(c, rng, keys, pdeg=2)
        b = sample_celement(c, rng, keys, pdeg=2)
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


def test_sample_celement_deterministic():
    c = dif_m2()
    keys = c.base.basis_upto(3)
    assert sample_celement(c, random.Random(1), keys) == sample_celement(c, random.Random(1), keys)


# keyword arguments of the randint reference past c, rng (the library takes
# degree's key list): the default pdeg at two degrees, constants, long draws,
# and on cend1 21 keys (the last key count random.sample draws from a pool
# for), 22 and 31 keys (drawn by index, redrawn while already picked)
SAMPLER_ARGS = [
    {"degree": 4},
    {"degree": 2},
    {"degree": 0, "pdeg": 0},
    {"degree": 3, "pdeg": 1},
    {"degree": 5, "pdeg": 6},
    {"degree": 20},
    {"degree": 21, "pdeg": 1},
    {"degree": 30},
]


@pytest.mark.parametrize("name", SPECS)
@pytest.mark.parametrize("kwargs", SAMPLER_ARGS)
def test_sample_celement_draws_what_randint_draws(name, kwargs):
    """The library's draws are randint's stream: the same elements, and the
    rng left in the same state, over seeds 0-49."""
    c = load_spec(spec(name + ".json")).conformal
    rest = dict(kwargs)
    keys = c.base.basis_upto(rest.pop("degree"))
    for seed in range(50):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert sample_celement(c, rng, keys, **rest) == randint_sample_celement(c, ref, **kwargs)
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("width", [1, 2, 11, 2 * 10**12 + 1])
def test_randbelow_draws_what_randint_draws(width):
    """A draw below width is randint's over [0, width - 1], also on a range
    wider than the samplers use: the same ints, and the rng left in the same
    state, over seeds 0-49."""
    for seed in range(50):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert _randbelow(rng, width) == ref.randint(0, width - 1)
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("n", range(1, 65))
def test_sample_draws_what_random_sample_draws(n):
    """_sample is Random.sample: the same picks in the same order, and the
    rng left in the same state, for k = 0-3 on populations of 1-64 keys,
    drawn from a pool up to 21 keys and by index past them, over seeds
    0-19."""
    population = [(n, i) for i in range(n)]
    for seed in range(20):
        rng, ref = random.Random(seed), random.Random(seed)
        for k in range(min(n, 3) + 1):
            assert _sample(rng, population, k) == ref.sample(population, k)
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("n, k", [(22, 6), (22, 7), (64, 6), (85, 6), (86, 7)])
def test_sample_of_more_than_five_draws_what_random_sample_draws(n, k):
    """Past k = 5 the pool serves up to 85 keys at k = 6 and 7."""
    population = list(range(n))
    for seed in range(20):
        rng, ref = random.Random(seed), random.Random(seed)
        assert _sample(rng, population, k) == ref.sample(population, k)
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("k", [-1, 3])
def test_a_sample_larger_than_the_population_is_refused_before_any_draw(k):
    with pytest.raises(ValueError, match="Sample larger than population"):
        _sample(CappedRandom(0, 0), ["a", "b"], k)


@pytest.mark.parametrize("width", [0, -1])
def test_an_empty_draw_is_refused_before_any_bits_are_read(width):
    with pytest.raises(ValueError, match="empty range"):
        _randbelow(CappedRandom(0, 0), width)


@pytest.mark.parametrize("samples", [0, -3])
def test_check_axioms_refuses_an_empty_sample(samples):
    def product(a, b, n):
        raise AssertionError("no product may run")

    with pytest.raises(ConformalError, match="samples"):
        check_axioms(make_cend(1), samples=samples, product=product)


@pytest.mark.parametrize("arg", ["degree", "pdeg"])
def test_check_axioms_refuses_samples_that_are_all_zero(monkeypatch, arg):
    """Below 0, degree or pdeg makes every sampled element zero, so both
    rules would hold on nothing: refused before any sample is drawn."""

    def refuse(*args, **kwargs):
        raise AssertionError("no sample may be drawn")

    monkeypatch.setattr(conformal_module, "sample_celement", refuse)
    with pytest.raises(ConformalError, match="%s must be >= 0, got -1" % arg):
        check_axioms(make_cend(1), samples=3, **{arg: -1})


@pytest.mark.parametrize("seed", range(10))
def test_check_axioms_refuses_a_degree_past_a_table_before_any_draw(monkeypatch, seed):
    """The table derivation covers degree 3, so degree 4 draws right
    factors whose orbits cannot be read: refused at every seed before any
    sample is drawn, naming the degree and the first uncovered symbol."""

    def refuse(*args, **kwargs):
        raise AssertionError("no sample may be drawn")

    c = load_spec(spec("table_ddx_plus_ad_e12.json")).conformal
    monkeypatch.setattr(conformal_module, "sample_celement", refuse)
    with pytest.raises(ConformalError, match=r"--degree 4 draws x\^4\*e11, outside"):
        check_axioms(c, samples=1, seed=seed)


def drawn_samples(c, samples, seed):
    """The (a, b, n) check_axioms draws from its seed at the default degree
    and pdeg, replayed with the randint-based reference sampler."""
    rng = random.Random(seed)
    drawn = []
    for _ in range(samples):
        a = randint_sample_celement(c, rng, 4, 2)
        b = randint_sample_celement(c, rng, 4, 2)
        bound = c.structural_bound(a, b)
        drawn.append((a, b, rng.randint(0, 1 if bound is None else bound + 1)))
    return drawn


def drawn_orders(c, samples, seed):
    return [n for _, _, n in drawn_samples(c, samples, seed)]


@pytest.mark.parametrize("make", STRUCTURES)
def test_check_axioms_computes_each_product_once(make):
    c = make()
    orders = []

    def counted(a, b, n):
        orders.append(n)
        return c.nprod(a, b, n)

    report = check_axioms(c, samples=60, seed=3, product=counted)
    assert report == check_axioms(c, samples=60, seed=3)
    drawn = drawn_orders(c, 60, 3)
    assert 0 in drawn and max(drawn) > 0
    # per sample: a (n) b, (Da) (n) b, a (n) (Db), and a (n-1) b unless n == 0
    pos = 0
    for n in drawn:
        count = 3 if n == 0 else 4
        assert sorted(orders[pos : pos + count]) == sorted([n] * 3 + [n - 1] * (count - 3))
        pos += count
    assert pos == len(orders)


@pytest.mark.parametrize("name", SPECS)
def test_check_axioms_default_route_reads_the_kernel(name):
    """Without product=, doubling the kernel's order-1 sums must be seen."""
    c = load_spec(spec(name + ".json")).conformal
    assert check_axioms(c, samples=200, seed=0)["ok"]
    with kernel_order_changed(1, doubled):
        report = check_axioms(c, samples=200, seed=0)
    assert not report["ok"]
    assert report["violation"]["axiom"] == "shift"


@pytest.mark.parametrize("name", SPECS)
def test_check_axioms_makes_one_kernel_call_per_sample(monkeypatch, name):
    """Per sample: one _products call on the sampled (a, b) itself, with
    exactly the jobs a (n) b on [max(n-1, 0), n], (Da) (n) b and a (n) (Db);
    no nprod call, no product element and no Da or Db."""
    c = load_spec(spec(name + ".json")).conformal
    honest = ConformalAlgebra._products
    calls = []

    def counted(self, a, b, jobs):
        calls.append((a, b, list(jobs)))
        return honest(self, a, b, jobs)

    def refuse(*args, **kwargs):
        raise AssertionError("check_axioms built a product or a derivative element")

    monkeypatch.setattr(ConformalAlgebra, "_products", counted)
    monkeypatch.setattr(ConformalAlgebra, "nprod", refuse)
    monkeypatch.setattr(ConformalAlgebra, "_element", refuse)
    monkeypatch.setattr(CElement, "dapply", refuse)
    assert check_axioms(c, samples=60, seed=3)["ok"]
    drawn = drawn_samples(c, 60, 3)
    orders = [n for _, _, n in drawn]
    assert 0 in orders and max(orders) > 0
    assert calls == [(a, b, [(0, 0, max(n - 1, 0), n), (1, 0, n, n), (0, 1, n, n)]) for a, b, n in drawn]


@pytest.mark.parametrize(
    "name, order", [("cend1", 4), ("cur_matrix2", 4), ("dif_matrix2_ad_e12", 2)]
)
def test_check_axioms_sees_each_job_separately(monkeypatch, name, order):
    """Leibniz holds whatever ff(n, k) is in the closed form, while the
    shift rule is the recursion ff(n, k+1) = n ff(n-1, k), which n^k breaks
    from k = 2: with perm replaced by n^k, a shift violation, here first at
    the order given. A walk that read one job's sums off another's by that
    rule would miss it: a (n-1) b read off (Da) (n) b passes every sample,
    and (Da) (n) b read off a (n-1) b blames Leibniz."""
    c = load_spec(spec(name + ".json")).conformal
    assert check_axioms(c, samples=200, seed=0)["ok"]
    monkeypatch.setattr(conformal_module, "perm", lambda n, k: n**k)
    report = check_axioms(c, samples=200, seed=0)
    assert not report["ok"]
    assert (report["violation"]["axiom"], report["violation"]["order"]) == ("shift", order)


SPEC_FILES = sorted(os.listdir(spec("")))
# the sampled degree per description: 4, the default, except where products
# of degree 4 leave a table derivation's coverage and are refused
SPEC_DEGREES = {"table_ddx_plus_ad_e12.json": 3}


def negated(cs):
    return [-v for v in cs]


def constant_doubled(cs):
    """Breaks Leibniz at the order it changes, not only shift."""
    return [2 * cs[0], *cs[1:]]


def zeroed(cs):
    """Leaves zero lists in the kernel's sums, where nprod's elements have
    no key at all."""
    return [0] * len(cs)


KERNEL_SABOTAGES = [None] + [
    (r, f) for r in (0, 1, 2) for f in (negated, doubled, constant_doubled, zeroed)
]


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(SPEC_FILES),
    st.integers(0, 2**16),
    st.integers(1, 30),
    st.sampled_from(KERNEL_SABOTAGES),
)
def test_check_axioms_routes_agree(filename, seed, samples, sabotage):
    """The kernel's sums compared in place and the same kernel read through
    nprod's elements give the same report, the first violation included."""
    c = load_spec(spec(filename)).conformal
    degree = SPEC_DEGREES.get(filename, 4)
    with kernel_order_changed(*sabotage) if sabotage else nullcontext():
        assert check_axioms(c, samples=samples, seed=seed, degree=degree) == check_axioms(
            c, samples=samples, seed=seed, degree=degree, product=c.nprod
        )


def dif_m2_ad_e12():
    return conformal("dif_matrix_poly2_ad_e12")


@pytest.mark.parametrize(
    "make", STRUCTURES + [dif_m2_ad_e12, lambda: conformal("table_ddx_plus_ad_e12")]
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
        orbit = c.der.key_orbit(k)
        assert len(orbit) == nil
        expected = c.base.basis_element(k)
        for m in range(nil + 2):
            if m < nil:
                assert orbit[m] == expected.items
            # b_k1 (m) b_k = (-1)^m b_k1 delta^m(b_k), zero past the orbit
            for k1 in (keys[0], k):
                got = c.base.basis_element(k1).mul(expected).scale(-1 if m % 2 else 1)
                assert c.basis_nprod(k1, k, m) == got.items
            expected = apply(expected)
    # nprod on keys already seen applies delta no further
    rng = random.Random(2)
    for _ in range(10):
        a, b = sample_celement(c, rng, keys, 2), sample_celement(c, rng, keys, 2)
        c.nprod_all(a, b)
    assert len(steps) == sum(c.nilp_key(k) for k in keys)
