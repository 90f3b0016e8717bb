"""Malformed input ends in a SpecError or an exit code, never a traceback:
mutated shipped descriptions and random JSON through load_spec_text, and
random argument lists through cli.main."""

import contextlib
import copy
import glob
import io
import json
import os

from hypothesis import example, given, settings, strategies as st

from confalg.cli import main
from confalg.specfile import SpecError, load_spec_text

SPEC_DIR = os.path.join(os.path.dirname(__file__), "..", "specs")


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


SPECS = {os.path.basename(p): _read(p) for p in sorted(glob.glob(os.path.join(SPEC_DIR, "*.json")))}

# words a description uses, so mutations often stay close to valid input
WORDS = [
    "kind", "n", "degree", "cap", "images", "r", "spanning", "parent", "summands",
    "unital", "scalar", "poly", "matrix", "matrix_poly", "direct_sum", "subalgebra",
    "zero", "ddx", "ad", "table", "current", "differential", "cend",
    "1", "0", "2", "-1", "1/2", "1/0", "x", "x^2", "x^a", "e11", "e12", "e21", "x*e12",
    "x^2*e22", "0:x", "1:e12", "L0", "L1", "L1_e12", "one", "a", "J", "n12", "",
]
# integers stay small here: a matrix_poly size near its limit of 9 makes loading
# take seconds, not fail; the integers the loader bounds are drawn large below
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 4),
    st.floats(-4, 4, allow_nan=False),
    st.sampled_from(WORDS),
    st.text(max_size=5),
)
KEYS = st.one_of(st.sampled_from(WORDS), st.text(max_size=4))
JSON = st.recursive(
    SCALARS,
    lambda kids: st.one_of(
        st.lists(kids, max_size=3), st.dictionaries(KEYS, kids, max_size=3)
    ),
    max_leaves=8,
)


def _containers(node, path=()):
    """Every dict or list in a document, with its path from the root."""
    if isinstance(node, (dict, list)):
        yield path
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for k, v in items:
            yield from _containers(v, path + (k,))


def _load(text):
    try:
        load_spec_text(text)
    except SpecError:
        pass


@st.composite
def mutated_specs(draw):
    doc = copy.deepcopy(SPECS[draw(st.sampled_from(sorted(SPECS)))])
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_containers(doc))))
        node = doc
        for k in path:
            node = node[k]
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        op = draw(st.sampled_from(["replace", "delete", "insert"]))
        if op == "insert" or not keys:
            if isinstance(node, dict):
                node[draw(KEYS)] = draw(JSON)
            else:
                node.append(draw(JSON))
        elif op == "delete":
            del node[draw(st.sampled_from(keys))]
        else:
            node[draw(st.sampled_from(keys))] = draw(JSON)
    return json.dumps(doc)


@settings(max_examples=300, deadline=None)
@given(text=mutated_specs())
def test_a_mutated_description_fails_only_with_a_spec_error(text):
    _load(text)


@st.composite
def large_degree_specs(draw):
    """A shipped description with a D-power, generator exponent or table
    derivation degree drawn up to 10**12."""
    doc = copy.deepcopy(SPECS[draw(st.sampled_from(sorted(SPECS)))])
    n = draw(st.integers(0, 10**12))
    field = draw(st.sampled_from(["d_power", "generator", "table"]))
    if field == "d_power":
        doc.setdefault("elements", {})["big"] = {"e11": {str(n): "1"}}
    elif field == "generator":
        doc["generators"] = ["L%d" % n]
    else:
        doc["derivation"] = {"kind": "table", "degree": n, "images": {}}
    return json.dumps(doc)


@settings(max_examples=100, deadline=None)
@given(text=large_degree_specs())
def test_a_large_degree_fails_only_with_a_spec_error(text):
    _load(text)


@settings(max_examples=150, deadline=None)
@given(text=st.one_of(JSON.map(json.dumps), st.text(max_size=40)))
@example("[" * 100000 + "]" * 100000)
@example('{"name": ' + "9" * 5000 + "}")
def test_random_text_fails_only_with_a_spec_error(text):
    _load(text)


# command -> (positional shapes, options): "n" is a name, "v" a number;
# the options draw small values, and the sampled checks always run few
# samples, so an example stays fast
COMMANDS = {
    "check-axioms": ([""], ["--samples", "--seed", "--degree"]),
    "product": (["nvn"], []),
    "table": ([""], []),
    "locality": (["nn"], []),
    "oracle-check": ([""], ["--samples", "--seed", "--window", "--degree"]),
    "assoc-check": ([""], ["--samples", "--seed", "--degree", "--power"]),
    "untwist": ([""], ["--degree"]),
    "is-current": (["n"], ["--degree"]),
    "dual-identity": (["n", "nn"], []),
    "ideal-check": (["n"], ["--degree"]),
    "unital-split": (["n"], ["--degree"]),
    "kernel-decompose": (["n"], []),
    "gk": ([""], ["--rmax"]),
    "frobnicate": (["", "n"], []),
}
NAMES = WORDS + ["L2", "ePrime", "companion", "nope"]
VALUES = ["0", "1", "2", "3", "-1", "x"]


@st.composite
def argvs(draw, spec_files):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    shapes, options = COMMANDS[command]
    argv = [command, draw(st.sampled_from(spec_files))]
    for kind in draw(st.sampled_from(shapes)):
        argv.append(draw(st.sampled_from(NAMES if kind == "n" else VALUES)))
    for opt in options:
        if opt == "--samples":
            argv += [opt, draw(st.sampled_from(["1", "2", "-1"]))]
        elif draw(st.booleans()):
            argv += [opt, draw(st.sampled_from(VALUES))]
    argv += draw(st.lists(st.sampled_from(["--text", "--json"]), max_size=1))
    # now and then a stray token that argparse must refuse
    if draw(st.integers(0, 3)) == 3:
        argv.append(draw(st.sampled_from(NAMES + ["--bogus"])))
    return argv


def test_argument_lists_end_in_an_exit_code(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text('{"base": ')
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"name": "caf\xe9"}')
    spec_files = [os.path.join(SPEC_DIR, n) for n in sorted(SPECS)]
    spec_files += [str(bad_json), str(not_utf8), str(tmp_path / "absent.json")]

    @settings(max_examples=150, deadline=None)
    @given(argv=argvs(spec_files))
    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                # argparse refuses the argument list
                assert exc.code == 2, argv
                return
        assert code in (0, 1, 2), argv

    run()
