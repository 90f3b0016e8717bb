import pytest

from confalg.algebra import MatrixAlgebra
from confalg.constructions import SpanReducer, make_cend, make_current
from confalg.growth import gk_profile


def span_rank(elems):
    reducer = SpanReducer()
    for e in elems:
        reducer.add(e)
    return reducer.rank


def test_span_rank_counts_free_directions():
    c = make_current(MatrixAlgebra(2))
    e12 = c.tilde(c.base.parse_element({"e12": "1"}))
    e21 = c.tilde(c.base.parse_element({"e21": "1"}))
    assert span_rank([]) == 0
    assert span_rank([c.zero()]) == 0
    assert span_rank([e12, e12.dapply()]) == 1
    assert span_rank([e12, e21, e12.add(e21)]) == 2
    assert span_rank([e12, e12.dapply().add(e12)]) == 1


def test_rank_one_endomorphism_structure_grows_linearly():
    c = make_cend(1)
    prof = gk_profile(c, [c.named_element("L0"), c.named_element("L1")])
    assert prof.ranks == [r + 1 for r in range(1, 13)]
    assert prof.classification == "linear_growth"
    assert 0.85 <= prof.exponent <= 1.15
    assert prof.stabilized is None


def test_matrix_current_structure_has_bounded_growth():
    c = make_current(MatrixAlgebra(2))
    gens = [c.tilde(c.base.basis_element(k)) for k in c.base.basis_upto(0)]
    prof = gk_profile(c, gens, rmax=6)
    assert prof.ranks == [4] * 6
    assert prof.exponent == 0.0
    assert prof.classification == "zero_growth"
    assert prof.stabilized == 2


def test_single_round_is_indeterminate():
    c = make_current(MatrixAlgebra(2))
    gens = [c.tilde(c.base.basis_element((1, 1)))]
    prof = gk_profile(c, gens, rmax=1)
    assert prof.exponent is None
    assert prof.classification == "indeterminate"


def test_report_serialization_is_stringly_keyed():
    c = make_current(MatrixAlgebra(2))
    gens = [c.tilde(c.base.basis_element(k)) for k in c.base.basis_upto(0)]
    rep = gk_profile(c, gens, rmax=4).to_report()
    assert rep["ranks"] == {"1": 4, "2": 4, "3": 4, "4": 4}
    assert rep["window"] == [2, 3, 4]
    assert rep["classification"] == "zero_growth"
    assert rep["stabilized_at"] == 2


def test_rmax_must_be_positive():
    c = make_cend(1)
    with pytest.raises(ValueError):
        gk_profile(c, [c.named_element("L0")], rmax=0)
