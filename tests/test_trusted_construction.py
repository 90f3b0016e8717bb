"""The private constructors Poly._trusted, Element._trusted,
CElement._trusted and OreElement._trusted keep the maps the library has just
built, unchecked. Every result on that path must be in normal form and equal
to the one the public, checking constructors give: checked_constructors()
routes the private ones through them, and each test runs the same work both
ways. The public constructors keep their checks."""

import importlib
import importlib.util
import json
import os
import random
import types
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confalg.algebra import (
    Derivation,
    DirectSum,
    Element,
    MatrixAlgebra,
    MatrixPolyAlgebra,
    OreElement,
)
from confalg.cli import main
from confalg.conformal import CElement, sample_celement
from confalg.constructions import make_current, make_differential
from confalg.rings import Poly
from confalg.structure import untwist
from reference_oracles import (
    TRUSTED,
    assert_canonical,
    checked_constructors,
    cscale,
    csub,
)
from stock_structures import STOCK, conformal
import recorded_reports

HERE = os.path.dirname(__file__)

# zeros, so sums and products cancel; Fractions whose sums and multiples
# can be integral; the 1/k! of untwist's series
COEFFS = st.sampled_from(
    [0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-1, 6), Fraction(1, 24)]
)
SCALARS = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(6, 1)])


def agree(run):
    """run() on the private path and through the checked constructors: each
    result of the first is canonical and equals the second's."""
    got = run()
    with checked_constructors():
        want = run()
    for x in got:
        assert_canonical(x)
    assert got == want
    return got


@settings(max_examples=150, deadline=None)
@given(
    p=st.lists(COEFFS, max_size=5),
    q=st.lists(COEFFS, max_size=5),
    c=SCALARS,
    k=st.integers(0, 3),
)
def test_poly_operations(p, q, c, k):
    def run():
        a, b = Poly(p), Poly(q)
        return [a + b, a - b, a - a, a + (-a), -a, a.scale(c), a.scale(0), a.shift(k)]

    agree(run)


CARRIERS = {
    "M2": lambda: MatrixAlgebra(2),
    "M2[x]": lambda: MatrixPolyAlgebra(2),
    "M2+Q[x]": lambda: DirectSum([MatrixAlgebra(2), MatrixPolyAlgebra(1)]),
}


def terms(size):
    """(key index, value) pairs; a repeated index overwrites."""
    return st.lists(st.tuples(st.integers(0, 11), COEFFS), max_size=size)


def element(alg, data):
    keys = alg.basis_upto(1)
    return Element(alg, {keys[i % len(keys)]: c for i, c in data})


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(CARRIERS)), x=terms(4), y=terms(4), c=SCALARS)
def test_element_operations(name, x, y, c):
    def run():
        alg = CARRIERS[name]()
        a, b = element(alg, x), element(alg, y)
        return [a.add(b), a.sub(b), a.sub(a), a.neg(), a.mul(b), b.mul(a), a.scale(c)]

    agree(run)


STRUCTURES = {
    name: partial(conformal, name)
    for name in ["cend1", "cur_matrix2", "dif_matrix_poly2_ad_e12", "table_ddx_plus_ad_e12"]
}


def celement(c, data):
    keys = c.base.basis_upto(1)
    return CElement(c, {keys[i % len(keys)]: Poly(cs) for i, cs in data})


def polys(size):
    return st.lists(st.tuples(st.integers(0, 11), st.lists(COEFFS, max_size=3)), max_size=size)


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(STRUCTURES)), x=polys(3), y=polys(3), c=SCALARS, k=st.integers(0, 2))
def test_conformal_operations_and_products(name, x, y, c, k):
    def run():
        # a fresh structure on each side: nprod's basis table starts empty
        conf = STRUCTURES[name]()
        a, b = celement(conf, x), celement(conf, y)
        out = [a.add(b), csub(a, b), csub(a, a), a.neg(), cscale(a, c), cscale(a, 0), a.dapply(k)]
        bound = conf.structural_bound(a, b)
        for n in range(0 if bound is None else bound + 2):
            out.append(conf.nprod(a, b, n))
        return out

    agree(run)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(STRUCTURES)), seed=st.integers(0, 2**32 - 1))
def test_sampled_elements(name, seed):
    def run():
        conf = STRUCTURES[name]()
        rng = random.Random(seed)
        # pdeg 0 draws a zero polynomial one time in eleven
        keys = conf.base.basis_upto(2)
        return [sample_celement(conf, rng, keys, pdeg) for pdeg in (0, 2)]

    agree(run)


def ore(base, der, data):
    return OreElement(base, der, {p: element(base, x) for p, x in data})


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(["cend2", "dif_matrix_poly2_ad_e12", "table_ddx_plus_ad_e12"]),
    x=st.lists(st.tuples(st.integers(-2, 2), terms(3)), max_size=3),
    y=st.lists(st.tuples(st.integers(-2, 2), terms(3)), max_size=3),
)
def test_ore_products(name, x, y):
    def run():
        base, der = STOCK[name]()
        a, b = ore(base, der, x), ore(base, der, y)
        return [a.mul(b), b.mul(a)]

    agree(run)


def test_an_ore_product_whose_power_cancels_drops_it():
    # (1 + t)(x e11 + (e11 - x e11) t^-1): at t^0, x e11 - d(x e11) + (e11 - x e11) = 0
    def run():
        base = MatrixPolyAlgebra(2)
        der = Derivation.ddx(base)
        one = base.one()
        a = OreElement(base, der, {0: one, 1: one})
        b = OreElement(
            base,
            der,
            {0: base.parse_element({"x*e11": "1"}), -1: base.parse_element({"e11": "1", "x*e11": "-1"})},
        )
        return [a.mul(b)]

    (prod,) = agree(run)
    assert sorted(prod.items) == [-1, 1]


def test_untwist_with_its_factorial_coefficients():
    # r = e12 + e23 has r^2 = e13, so the series carries 1/2!
    def run():
        base = MatrixAlgebra(3)
        c = make_differential(base, Derivation.ad(base.parse_element({"e12": "1", "e23": "1"})))
        res = untwist(c, degree=0)
        return [res.e_prime, *res.images.values()]

    got = agree(run)
    assert any(type(c) is Fraction for p in got[0].items.values() for c in p.coeffs)


# the public constructors check their input


@pytest.mark.parametrize("bad", [1.0, 0.5, True, False, None])
def test_public_constructors_refuse_floats_and_bools(bad):
    alg = MatrixAlgebra(2)
    c = make_current(alg)
    with pytest.raises(TypeError):
        Poly([1, bad])
    with pytest.raises(TypeError):
        Element(alg, {(1, 1): bad})
    with pytest.raises(TypeError):
        CElement(c, {(1, 1): bad})


def test_public_constructors_bring_their_input_to_normal_form():
    alg = MatrixAlgebra(2)
    c = make_current(alg)
    assert Poly(["1/2", Fraction(4, 2), 0, Fraction(0)]).coeffs == (Fraction(1, 2), 2)
    assert type(Poly([Fraction(4, 2)]).coeffs[0]) is int
    e = Element(alg, {(1, 1): Fraction(6, 3), (1, 2): 0, (2, 1): "3/2"})
    assert e.items == {(1, 1): 2, (2, 1): Fraction(3, 2)} and type(e.items[(1, 1)]) is int
    # a plain number is a constant polynomial; a zero one is dropped
    x = CElement(c, {(1, 1): 3, (1, 2): Fraction(1, 2), (2, 2): 0, (2, 1): Poly([0, 0])})
    assert x.items == {(1, 1): Poly((3,)), (1, 2): Poly((Fraction(1, 2),))}
    y = OreElement(alg, Derivation.zero(alg), {0: alg.zero(), 1: alg.one()})
    assert list(y.items) == [1]
    for v in (e, x, y):
        assert_canonical(v)


def test_checked_constructors_restores_the_private_ones():
    before = [vars(cls)["_trusted"] for cls in TRUSTED]
    with pytest.raises(RuntimeError):
        with checked_constructors():
            assert Poly._trusted([1, 0]).coeffs == (1,)
            raise RuntimeError
    assert [vars(cls)["_trusted"] for cls in TRUSTED] == before
    assert Poly._trusted((1,)).coeffs == (1,)


# whole runs: the benchmark workloads, the recorded reports


def load_workloads():
    path = os.path.join(HERE, "..", "bench", "workloads.py")
    loader = importlib.util.spec_from_file_location("bench_workloads_trusted", path)
    mod = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(mod)
    return mod


workloads = load_workloads()
MODULES = ["rings", "linalg", "algebra", "conformal", "constructions", "oracle", "structure", "growth", "specfile", "cli"]


def snapshot(x):
    """A comparable copy of an op's result: ring elements (checked for
    normal form) as their maps, result objects as their fields."""
    if isinstance(x, (Poly, Element, CElement, OreElement)):
        assert_canonical(x)
        return (type(x).__name__, x.to_map())
    if isinstance(x, dict):
        return {k: snapshot(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [snapshot(v) for v in x]
    slots = getattr(type(x), "__slots__", None)
    if slots and type(x).__module__.startswith("confalg"):
        return (type(x).__name__, {s: snapshot(getattr(x, s)) for s in slots})
    return x


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_the_first_cycle_of_each_workload_is_the_same_through_the_checked_constructors(workload):
    mods = types.SimpleNamespace(**{m: importlib.import_module("confalg." + m) for m in MODULES})

    def first_cycle():
        wl = workloads.WORKLOADS[workload]()
        wl.setup(mods)
        out = []
        for op in next(wl.cycles(1)):
            result = op.call()
            assert op.check(result), op.name
            out.append((op.name, snapshot(result)))
        return out

    got = first_cycle()
    with checked_constructors():
        want = first_cycle()
    assert got == want


@pytest.mark.parametrize("stem", recorded_reports.REPORTS)
def test_the_recorded_reports_are_the_same_through_the_checked_constructors(capsys, stem):
    argv = recorded_reports.command(recorded_reports.REPORTS[stem])
    with checked_constructors():
        for suffix, extra in recorded_reports.FORMS:
            code = main(argv + extra)
            out, err = capsys.readouterr()
            assert (code, out, err) == (0, recorded_reports.recorded(stem + suffix), "")


@pytest.mark.parametrize("check", sorted(recorded_reports.CHECKS))
def test_violation_reports_match_the_recorded_ones(check):
    recorded = recorded_reports.recorded(check + ".json")
    assert recorded_reports.violations(check) == recorded
    with checked_constructors():
        assert recorded_reports.violations(check) == recorded
    assert any(r["violation"] for r in json.loads(recorded).values())
