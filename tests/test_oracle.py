import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from confalg.algebra import AlgebraError, Derivation, MatrixAlgebra, MatrixPolyAlgebra, OreElement
from confalg.conformal import ConformalAlgebra, sample_celement
from confalg.constructions import make_cend, make_current, make_differential
from confalg.oracle import (
    Distribution,
    OracleError,
    coeff_assoc_check,
    dist_nprod,
    oracle_check,
    sample_ore,
    to_distribution,
)
from reference_oracles import naive_dist_nprod, table_ddx_plus_ad_e12


def test_distribution_window_and_sparsity():
    c = make_current(MatrixAlgebra(2))
    e12 = c.tilde(c.base.parse_element({"e12": "1"}))
    f = to_distribution(e12, -3, 3)
    assert (f.lo, f.hi) == (-3, 3)
    # a plain tilde element is b t^n at every n
    v = f.value(2)
    assert v.to_map() == {"2": {"e12": "1"}}
    with pytest.raises(OracleError):
        f.value(4)


def test_distribution_of_a_d_power_uses_falling_factorials():
    c = make_cend(1)
    l0 = c.named_element("L0")
    f = to_distribution(l0.dapply(2), -4, 4)
    # (D^2 b)~ at n is n(n-1) b t^(n-2)
    assert f.value(3).to_map() == {"1": {"1": "6"}}
    assert f.value(1).is_zero()
    assert f.value(-1).to_map() == {"-3": {"1": "2"}}


def test_window_and_first_difference():
    c = make_current(MatrixAlgebra(2))
    one = c.tilde(c.base.one())
    f = to_distribution(one, -4, 4)
    g = to_distribution(one, -2, 3)
    assert (g.lo, g.hi) == (-2, 3)
    assert sorted(g.vals) == list(range(-2, 4))
    assert f.first_difference(g) is None
    h = to_distribution(one.scale(Fraction(2)), -4, 4)
    assert f.first_difference(h) == -4
    with pytest.raises(OracleError, match="empty window"):
        to_distribution(one, 1, 0)


def test_zero_distributions_over_different_rings_differ():
    c, d = make_cend(1), make_current(MatrixAlgebra(2))
    f = Distribution(c.base, c.der, -2, 2, {})
    g = Distribution(d.base, d.der, -2, 2, {})
    assert f != g
    assert f == to_distribution(c.zero(), -2, 2)


def test_dist_nprod_window_requirements():
    c = make_current(MatrixAlgebra(2))
    one = c.tilde(c.base.one())
    f = to_distribution(one, -2, 2)
    with pytest.raises(OracleError):
        dist_nprod(f, f, 3)
    out = dist_nprod(f, f, 1)
    assert (out.lo, out.hi) == (-2, 1)


def test_current_distributions_collapse_above_order_zero():
    c = make_current(MatrixAlgebra(2))
    a = c.tilde(c.base.parse_element({"e11": "1", "e12": "2"}))
    b = c.tilde(c.base.parse_element({"e21": "-1"}))
    f = to_distribution(a, -5, 5)
    g = to_distribution(b, -5, 5)
    # order zero carries the base product, higher orders vanish identically
    base_prod = c.tilde(c.base.parse_element({"e11": "-2"}))
    got = dist_nprod(f, g, 0)
    assert got.first_difference(to_distribution(base_prod, -5, 5)) is None
    for m in (1, 2, 3):
        out = dist_nprod(f, g, m)
        assert all(v.is_zero() for v in out.vals.values())


def _dif_matrix_poly2_ad_e12():
    base = MatrixPolyAlgebra(2)
    return make_differential(base, Derivation.ad(base.parse_element({"e12": "1"})))


# criterion 3's three structures, plus a table derivation
STRUCTURES = {
    "cend1": lambda: make_cend(1),
    "cur_matrix2": lambda: make_current(MatrixAlgebra(2)),
    "dif_matrix_poly2_ad_e12": _dif_matrix_poly2_ad_e12,
    "table_ddx_plus_ad_e12": lambda: make_differential(*table_ddx_plus_ad_e12()),
}


def draw_distribution(data, c, rng, lo, hi):
    """A distribution on [lo, hi]: a window of a sampled conformal element's
    distribution, sampled Ore values with gaps, or zero everywhere."""
    kind = data.draw(st.sampled_from(["conformal", "ore", "zero"]))
    if kind == "conformal":
        a = sample_celement(c, rng, 3, 2)
        return to_distribution(a, lo, hi)
    vals = {}
    if kind == "ore":
        for n in range(lo, hi + 1):
            gap = data.draw(st.sampled_from(["value", "value", "absent", "stored zero"]))
            if gap == "value":
                vals[n] = sample_ore(c.base, c.der, rng)
            elif gap == "stored zero":
                vals[n] = OreElement(c.base, c.der, {})
    return Distribution(c.base, c.der, lo, hi, vals)


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(STRUCTURES)), data=st.data())
def test_dist_nprod_matches_the_pairwise_residue_sum(name, data):
    c = STRUCTURES[name]()
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    top = data.draw(st.integers(0, 3))
    f = draw_distribution(
        data, c, rng, data.draw(st.integers(-2, 0)), top + data.draw(st.integers(0, 2))
    )
    glo = data.draw(st.integers(-4, 2))
    g = draw_distribution(data, c, rng, glo, glo + top + data.draw(st.integers(0, 4)))
    expected = {m: naive_dist_nprod(f, g, m) for m in range(top + 1)}
    # a cold cache on every call
    for m in range(top + 1):
        assert dist_nprod(f, g, m) == expected[m]
    # one cache shared across orders, in any order and with repeats, as
    # oracle_check shares it
    cache = {}
    orders = data.draw(st.permutations(range(top + 1)))
    for m in orders + orders[:1]:
        assert dist_nprod(f, g, m, cache) == expected[m]


def test_dist_nprod_refuses_distributions_over_different_rings():
    c, d = make_cend(1), _dif_matrix_poly2_ad_e12()
    f = to_distribution(c.tilde(c.base.one()), -2, 2)
    g = to_distribution(d.tilde(d.base.one()), -2, 2)
    with pytest.raises(AlgebraError, match="different rings"):
        dist_nprod(f, g, 1)


def test_oracle_route_shares_no_code_with_the_closed_form(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle route reached the closed form")

    samples = []
    for name in sorted(STRUCTURES):
        c = STRUCTURES[name]()
        rng = random.Random(5)
        samples.append((sample_celement(c, rng, 3, 2), sample_celement(c, rng, 3, 2)))
    for attr in ("nprod", "basis_nprod", "_delta_pow"):
        monkeypatch.setattr(ConformalAlgebra, attr, refuse)
    for a, b in samples:
        f, g = to_distribution(a, -4, 4), to_distribution(b, -4, 4)
        cache = {}
        for m in range(4):
            dist_nprod(f, g, m, cache)


def test_oracle_agreement_on_the_stock_structures():
    base = MatrixPolyAlgebra(2)
    structures = [
        make_current(MatrixAlgebra(2)),
        make_differential(base, Derivation.ad(base.parse_element({"e12": "1"}))),
        make_cend(1),
    ]
    for c in structures:
        report = oracle_check(c, samples=15, seed=3, window=6, degree=3)
        assert report["ok"], report["violation"]
        assert report["orders_checked"] > 0


def test_oracle_catches_a_corrupted_structure_table():
    class FlippedC(ConformalAlgebra):
        def basis_nprod(self, k1, k2, m):
            tab = super().basis_nprod(k1, k2, m)
            if m == 1:
                return {k: -v for k, v in tab.items()}
            return tab

    base = MatrixPolyAlgebra(1)
    bad = FlippedC(base, Derivation.ddx(base), "cend")
    report = oracle_check(bad, samples=50, seed=0, window=6, degree=3)
    assert not report["ok"]
    assert report["violation"]["order"] == 1


def test_ore_associativity_check_passes_on_the_honest_ring():
    base = MatrixPolyAlgebra(2)
    report = coeff_assoc_check(base, Derivation.ddx(base), samples=30, seed=1)
    assert report["ok"]


def ore_product(sign):
    """Product of B[t, t^-1; d] built from t b = b t + sign d(b); sign -1 is
    the honest ring. Negative powers use the library's expansion."""

    def mul(x, y):
        out = {}
        for p, a in x.items.items():
            for q, b in y.items.items():
                if p > 0:
                    terms = {}
                    dkb = b
                    for k in range(p + 1):
                        terms[p - k] = dkb.scale(sign**k * comb(p, k))
                        dkb = x.der.apply(dkb)
                else:
                    terms = x.commute_t(p, b)
                for pw, coef in terms.items():
                    term = a.mul(coef)
                    out[pw + q] = out[pw + q].add(term) if pw + q in out else term
        return OreElement(x.base, x.der, out)

    return mul


def test_ore_associativity_check_catches_a_flipped_commutation_sign():
    base = MatrixPolyAlgebra(1)
    der = Derivation.ddx(base)
    honest, flipped = ore_product(-1), ore_product(1)
    rng = random.Random(2)
    for _ in range(10):
        x, y = sample_ore(base, der, rng), sample_ore(base, der, rng)
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
    assert sample_ore(base, der, random.Random(4)) == sample_ore(
        base, der, random.Random(4)
    )


@pytest.mark.parametrize("samples", [0, -3])
def test_oracle_checks_refuse_an_empty_sample(samples):
    c = make_cend(1)

    def mul(x, y):
        raise AssertionError("no product may run")

    with pytest.raises(OracleError, match="samples"):
        oracle_check(c, samples=samples)
    with pytest.raises(OracleError, match="samples"):
        coeff_assoc_check(c.base, c.der, samples=samples, mul=mul)
