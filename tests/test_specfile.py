import glob
import json
import os

import pytest

from confalg.algebra import Derivation, MatrixAlgebra, MatrixPolyAlgebra
from confalg.cli import main
from confalg.constructions import make_cend, make_current, make_differential
from confalg.specfile import MAX_DEGREE, MAX_TABLE_KEYS, SpecError, load_spec, load_spec_text

SPEC_DIR = os.path.join(os.path.dirname(__file__), "..", "specs")


def spec_paths():
    return sorted(glob.glob(os.path.join(SPEC_DIR, "*.json")))


def test_spec_directory_is_populated():
    assert len(spec_paths()) >= 4


@pytest.mark.parametrize("path", spec_paths(), ids=lambda p: os.path.basename(p))
def test_shipped_descriptions_load(path):
    data = load_spec(path)
    assert data.conformal is not None
    assert data.name


def test_rank_one_endomorphism_description_contents():
    data = load_spec(os.path.join(SPEC_DIR, "cend1.json"))
    assert data.conformal == make_cend(1)
    assert data.conformal.der.kind == "ddx"
    assert [name for name, _ in data.generators] == ["L0", "L1"]
    assert "one" in data.elements


def test_missing_file_is_a_spec_error():
    with pytest.raises(SpecError, match="cannot read"):
        load_spec(os.path.join(SPEC_DIR, "does_not_exist.json"))


def test_syntax_errors_carry_line_and_column():
    with pytest.raises(SpecError) as exc:
        load_spec_text('{\n  "name": "x",,\n}')
    assert exc.value.line == 2
    assert exc.value.col is not None


def test_unknown_top_level_key_is_refused():
    text = json.dumps({"name": "x", "base": {"kind": "poly"}, "bogus": 1})
    with pytest.raises(SpecError, match="unknown top-level key"):
        load_spec_text(text)


def test_missing_base_is_refused():
    with pytest.raises(SpecError, match="missing base"):
        load_spec_text(json.dumps({"name": "x"}))


def test_non_nilpotent_table_derivation_is_refused():
    doc = {
        "name": "euler",
        "base": {"kind": "poly"},
        "derivation": {
            "kind": "table",
            "degree": 8,
            "images": {
                ("1" if k == 0 else "x" if k == 1 else "x^%d" % k): (
                    {} if k == 0 else {"x^%d" % k if k > 1 else "x": str(k)}
                )
                for k in range(0, 9)
            },
        },
    }
    with pytest.raises(SpecError) as exc:
        load_spec_text(json.dumps(doc))
    assert exc.value.invariant == "derivation"


def test_incomplete_table_derivation_is_refused():
    doc = {
        "name": "partial",
        "base": {"kind": "poly"},
        "derivation": {"kind": "table", "degree": 4, "images": {"x": {"1": "1"}}},
    }
    with pytest.raises(SpecError, match="misses basis symbol"):
        load_spec_text(json.dumps(doc))


def test_unclosed_spanning_set_is_refused_with_closure_invariant():
    doc = {
        "name": "offdiag",
        "base": {
            "kind": "subalgebra",
            "parent": {"kind": "matrix", "n": 2},
            "spanning": [{"e12": "1"}, {"e21": "1"}],
            "degree": 0,
        },
    }
    with pytest.raises(SpecError) as exc:
        load_spec_text(json.dumps(doc))
    assert exc.value.invariant == "closure"


def test_current_construction_rejects_a_nonzero_derivation():
    doc = {
        "name": "bad",
        "base": {"kind": "poly"},
        "derivation": {"kind": "ddx"},
        "construction": "current",
    }
    with pytest.raises(SpecError, match="cannot carry a nonzero derivation"):
        load_spec_text(json.dumps(doc))


def test_scalar_and_poly_load_as_the_1x1_carriers():
    def carrier(base):
        return load_spec_text(json.dumps({"name": "q", "base": base})).carrier

    assert carrier({"kind": "poly"}) == MatrixPolyAlgebra(1)
    assert carrier({"kind": "scalar"}) == MatrixAlgebra(1)
    m1 = carrier({"kind": "matrix", "n": 1})
    assert m1.parse_key("1") == m1.parse_key("e11") == (1, 1)
    assert m1.key_name((1, 1)) == "1"
    data = load_spec_text(json.dumps({"name": "c", "base": {"kind": "poly"}, "construction": "cend"}))
    assert data.conformal == make_cend(1)


def test_cend_requires_a_matrix_poly_carrier():
    doc = {"name": "bad", "base": {"kind": "matrix", "n": 2}, "construction": "cend"}
    with pytest.raises(SpecError, match="matrix_poly"):
        load_spec_text(json.dumps(doc))


def test_construction_is_inferred_from_the_derivation():
    current = load_spec_text(json.dumps({"name": "c", "base": {"kind": "matrix", "n": 2}}))
    assert current.conformal == make_current(MatrixAlgebra(2))
    assert current.conformal.der.kind == "zero"
    differential = load_spec_text(
        json.dumps(
            {
                "name": "d",
                "base": {"kind": "matrix", "n": 2},
                "derivation": {"kind": "ad", "r": {"e12": "1"}},
            }
        )
    )
    m2 = MatrixAlgebra(2)
    assert differential.conformal == make_differential(
        m2, Derivation.ad(m2.parse_element({"e12": "1"}))
    )
    assert differential.conformal.der.kind == "ad"


def test_generators_prefer_declared_elements_over_builtin_names():
    doc = {
        "name": "shadow",
        "base": {"kind": "matrix_poly", "n": 1},
        "construction": "cend",
        "elements": {"L1": {"1": {"0": "1"}}},
        "generators": ["L1"],
    }
    data = load_spec_text(json.dumps(doc))
    ((name, v),) = data.generators
    assert name == "L1"
    assert v == data.elements["L1"]


def test_unresolvable_generator_is_refused():
    doc = {"name": "g", "base": {"kind": "matrix", "n": 2}, "generators": ["nope"]}
    with pytest.raises(SpecError, match="unresolvable generator"):
        load_spec_text(json.dumps(doc))


def test_ideal_entries_resolve_named_base_elements():
    doc = {
        "name": "i",
        "base": {"kind": "matrix", "n": 2},
        "base_elements": {"n12": {"e12": "1"}},
        "ideals": {"J": ["n12", {"e11": "1"}]},
    }
    data = load_spec_text(json.dumps(doc))
    assert len(data.ideals["J"]) == 2
    with pytest.raises(SpecError, match="unknown base element"):
        load_spec_text(
            json.dumps(
                {"name": "i", "base": {"kind": "matrix", "n": 2}, "ideals": {"J": ["x"]}}
            )
        )


def test_subalgebra_description_exposes_both_views():
    doc = {
        "name": "borel",
        "base": {
            "kind": "subalgebra",
            "parent": {"kind": "matrix", "n": 2},
            "spanning": [{"e11": "1"}, {"e12": "1"}, {"e22": "1"}],
            "unital": True,
            "degree": 0,
        },
    }
    data = load_spec_text(json.dumps(doc))
    assert data.sub is not None
    assert data.carrier.kind == "matrix"
    assert data.conformal.base is data.carrier


def scalar_poly_spec(**extra):
    doc = {"name": "p", "base": {"kind": "poly"}, "derivation": {"kind": "ddx"}}
    doc.update(extra)
    return json.dumps(doc)


def test_a_zero_denominator_is_refused():
    text = scalar_poly_spec(base_elements={"b": {"x": "1/0"}})
    with pytest.raises(SpecError) as exc:
        load_spec_text(text)
    assert exc.value.path == "$.base_elements.b"


@pytest.mark.parametrize("powers", [{"-1": "1"}, {"-1": "1", "2": "1"}], ids=["alone", "mixed"])
def test_a_negative_d_power_is_refused(powers):
    text = scalar_poly_spec(elements={"a": {"x": powers}})
    with pytest.raises(SpecError) as exc:
        load_spec_text(text)
    assert exc.value.path == "$.elements.a"


@pytest.mark.parametrize(
    "base,images",
    [
        ({"kind": "matrix", "n": 2}, {"e11": {}, "e12": {}, "e21": {}, "e22": {}}),
        ({"kind": "poly"}, {}),
    ],
    ids=["matrix", "poly"],
)
def test_a_table_derivation_degree_below_zero_is_refused(base, images, tmp_path, capsys):
    """A degree below 0 covers no basis symbol: on matrix the table of four
    zero images loaded as the zero derivation, and on Q[x] an empty table
    loaded and every product failed. Refused as the subalgebra degree is,
    and basis_upto reads no key below degree 0."""
    doc = {"name": "t", "base": base, "derivation": {"kind": "table", "degree": -3, "images": images}}
    text = json.dumps(doc)
    with pytest.raises(SpecError, match="nonnegative") as exc:
        load_spec_text(text)
    assert exc.value.path == "$.derivation.degree"
    spec = tmp_path / "negative.json"
    spec.write_text(text)
    assert main(["check-axioms", str(spec)]) == 2
    assert "$.derivation.degree" in capsys.readouterr().err
    assert MatrixAlgebra(2).basis_upto(-3) == MatrixPolyAlgebra(1).basis_upto(-3) == []


@pytest.mark.parametrize(
    "extra,path",
    [
        (
            {"derivation": {"kind": "table", "degree": MAX_DEGREE + 1, "images": {}}},
            "$.derivation.degree",
        ),
        ({"elements": {"a": {"x": {str(MAX_DEGREE + 1): "1"}}}}, "$.elements.a"),
        ({"base_elements": {"b": {"x^%d" % (MAX_DEGREE + 1): "1"}}}, "$.base_elements.b"),
        ({"generators": ["L%d" % (MAX_DEGREE + 1)]}, "$.generators[0]"),
    ],
    ids=["table_degree", "d_power", "basis_exponent", "generator_exponent"],
)
def test_a_degree_just_above_the_cap_is_refused(extra, path):
    with pytest.raises(SpecError, match="at most %d" % MAX_DEGREE) as exc:
        load_spec_text(scalar_poly_spec(**extra))
    assert exc.value.path == path


def test_a_d_power_at_the_cap_loads():
    data = load_spec_text(scalar_poly_spec(elements={"a": {"x": {str(MAX_DEGREE): "1"}}}))
    assert data.elements["a"].pdeg() == MAX_DEGREE


def test_a_malformed_derivation_image_key_is_refused():
    text = scalar_poly_spec(
        derivation={"kind": "table", "degree": 1, "images": {"1": {}, "x": {"1": "1"}, "x^a": {}}}
    )
    with pytest.raises(SpecError) as exc:
        load_spec_text(text)
    assert exc.value.path == "$.derivation.images.x^a"
    assert exc.value.line == 1


@pytest.mark.parametrize(
    "text,path",
    [
        ('{"name": "m", "base": {"kind": "matrix", "n": true}}', "$.base.n"),
        (
            '{"name": "s", "base": {"kind": "subalgebra", "parent": {"kind": "poly"},'
            ' "spanning": [{"1": "1"}], "degree": 0, "unital": "no"}}',
            "$.base.unital",
        ),
    ],
    ids=["matrix_n", "unital_flag"],
)
def test_booleans_and_integers_are_not_interchangeable(text, path):
    with pytest.raises(SpecError) as exc:
        load_spec_text(text)
    assert exc.value.path == path


@pytest.mark.parametrize(
    "extra,path",
    [
        ({"base_elements": {"b": {"x": True}}}, "$.base_elements.b"),
        ({"elements": {"a": {"x": {"0": True}}}}, "$.elements.a"),
    ],
    ids=["base_coefficient", "d_polynomial_coefficient"],
)
def test_a_json_boolean_is_not_a_coefficient(extra, path, tmp_path, capsys):
    text = scalar_poly_spec(**extra)
    with pytest.raises(SpecError) as exc:
        load_spec_text(text)
    assert exc.value.path == path
    spec = tmp_path / "bool.json"
    spec.write_text(text)
    assert main(["table", str(spec)]) == 2
    assert path in capsys.readouterr().err


def poly_name(k):
    return "1" if k == 0 else "x" if k == 1 else "x^%d" % k


def poly_table(degree, image):
    """A table derivation on Q[x] up to the degree, image(k) giving the
    image of x^k as a basis name -> coefficient map."""
    return {
        "kind": "table",
        "degree": degree,
        "images": {poly_name(k): image(k) for k in range(degree + 1)},
    }


def test_d_dx_written_as_a_degree_8_table_loads():
    # Leibniz is checked only on pairs whose product stays in the table
    ddx = poly_table(8, lambda k: {poly_name(k - 1): str(k)} if k else {})
    data = load_spec_text(json.dumps({"name": "t", "base": {"kind": "poly"}, "derivation": ddx}))
    assert data.conformal.der.kind == "table"
    assert data.conformal.nilp_key((8, 1, 1)) == 9


def test_ad_of_the_7x7_jordan_block_loads():
    r = {"e%d%d" % (i, i + 1): "1" for i in range(1, 7)}
    doc = {"name": "j", "base": {"kind": "matrix", "n": 7}, "derivation": {"kind": "ad", "r": r}}
    data = load_spec_text(json.dumps(doc))
    assert data.conformal.nilp_key((7, 1)) == 13


@pytest.mark.parametrize(
    "base,derivation,message",
    [
        # d(x) = 1 forces d(x^2) = 2x
        ({"kind": "poly"}, poly_table(2, lambda k: {"1": "1"} if k == 1 else {}), "Leibniz"),
        ({"kind": "matrix", "n": 2}, {"kind": "ad", "r": {"e11": "1"}}, "not locally nilpotent"),
        # x^2 d/dx satisfies Leibniz inside the window but maps x^2 out of it
        (
            {"kind": "poly"},
            poly_table(2, lambda k: {poly_name(k + 1): str(k)} if k else {}),
            "outside the covered span: x\\^3",
        ),
    ],
    ids=["leibniz", "ad_e11", "leaves_window"],
)
def test_derivations_that_fail_a_check_are_refused(base, derivation, message):
    doc = {"name": "bad", "base": base, "derivation": derivation}
    with pytest.raises(SpecError, match=message) as exc:
        load_spec_text(json.dumps(doc))
    assert exc.value.invariant == "derivation"


def test_a_table_covering_more_keys_than_the_limit_is_refused():
    # x^k e_ij for k <= 63 covers MAX_TABLE_KEYS keys; one more key is refused
    names = ["x^%d*e%d%d" % (k, i, j) for k in range(64) for i in (1, 2) for j in (1, 2)]
    assert len(names) == MAX_TABLE_KEYS
    names.append("x^64*e11")
    derivation = {"kind": "table", "degree": 63, "images": {name: {} for name in names}}
    doc = {"name": "big", "base": {"kind": "matrix_poly", "n": 2}, "derivation": derivation}
    with pytest.raises(SpecError, match="at most %d" % MAX_TABLE_KEYS) as exc:
        load_spec_text(json.dumps(doc))
    assert exc.value.path == "$.derivation.images"


def test_cend_refuses_a_foreign_derivation_before_validating_it():
    # the Euler operator x d/dx is not nilpotent; cend would discard it anyway
    euler = poly_table(4, lambda k: {poly_name(k): str(k)} if k else {})
    doc = {
        "name": "c",
        "base": {"kind": "matrix_poly", "n": 1},
        "derivation": euler,
        "construction": "cend",
    }
    with pytest.raises(SpecError, match="cend fixes its own derivation"):
        load_spec_text(json.dumps(doc))


def test_the_validate_key_is_an_unknown_top_level_key(tmp_path, capsys):
    text = scalar_poly_spec(validate={"degree": 2, "cap": 6})
    with pytest.raises(SpecError, match="unknown top-level key 'validate'") as exc:
        load_spec_text(text)
    assert exc.value.path == "$.validate"
    assert exc.value.line == 1
    spec = tmp_path / "validate.json"
    spec.write_text(text)
    assert main(["table", str(spec)]) == 2
    assert "$.validate" in capsys.readouterr().err
