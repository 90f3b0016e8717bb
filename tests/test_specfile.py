import glob
import json
import os

import pytest

from confalg.cli import main
from confalg.specfile import MAX_DEGREE, SpecError, load_spec, load_spec_text

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
    assert data.conformal.tag == "cend"
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
        "validate": {"degree": 2, "cap": 6},
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


def test_cend_requires_a_matrix_poly_carrier():
    doc = {"name": "bad", "base": {"kind": "matrix", "n": 2}, "construction": "cend"}
    with pytest.raises(SpecError, match="matrix_poly"):
        load_spec_text(json.dumps(doc))


def test_construction_is_inferred_from_the_derivation():
    current = load_spec_text(json.dumps({"name": "c", "base": {"kind": "matrix", "n": 2}}))
    assert current.conformal.tag == "current"
    differential = load_spec_text(
        json.dumps(
            {
                "name": "d",
                "base": {"kind": "matrix", "n": 2},
                "derivation": {"kind": "ad", "r": {"e12": "1"}},
            }
        )
    )
    assert differential.conformal.tag == "differential"


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
    "extra,path",
    [
        ({"validate": {"degree": MAX_DEGREE + 1}}, "$.validate.degree"),
        (
            {"derivation": {"kind": "table", "degree": MAX_DEGREE + 1, "images": {}}},
            "$.derivation.degree",
        ),
        ({"elements": {"a": {"x": {str(MAX_DEGREE + 1): "1"}}}}, "$.elements.a"),
    ],
    ids=["validate_degree", "table_degree", "d_power"],
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
        ('{"name": "p", "base": {"kind": "poly"}, "validate": {"degree": true}}', "$.validate.degree"),
        (
            '{"name": "s", "base": {"kind": "subalgebra", "parent": {"kind": "poly"},'
            ' "spanning": [{"1": "1"}], "degree": 0, "unital": "no"}}',
            "$.base.unital",
        ),
    ],
    ids=["matrix_n", "validate_degree", "unital_flag"],
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
