"""oracle-check reports, byte for byte: the recorded reports under data/ on
the shipped descriptions, and the violation report of a closed form with one
corrupted order, checked against the reference residue sum."""

import json
import os

import pytest

from confalg.cli import main
from confalg.conformal import ConformalAlgebra
from confalg.oracle import to_distribution
from confalg.specfile import load_spec
from reference_oracles import naive_dist_nprod

HERE = os.path.dirname(__file__)
SPECS = ["cend1", "cur_matrix2", "dif_matrix2_ad_e12"]


def spec(name):
    return os.path.join(HERE, "..", "specs", name + ".json")


def recorded(name):
    with open(os.path.join(HERE, "data", name), encoding="utf-8", newline="") as fh:
        return fh.read()


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert err == ""
    return code, out


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", SPECS)
def test_reports_match_the_recorded_ones(capsys, name, seed):
    argv = ["oracle-check", spec(name), "--seed", str(seed)]
    stem = "oracle_check_%s_seed%d" % (name, seed)
    assert run(capsys, argv) == (0, recorded(stem + ".json"))
    assert run(capsys, argv + ["--text"]) == (0, recorded(stem + ".txt"))


@pytest.mark.parametrize("name", SPECS)
def test_a_corrupted_order_is_reported_as_the_reference_route_sees_it(
    capsys, monkeypatch, name
):
    honest = ConformalAlgebra.nprod

    def doubled(self, a, b, n):
        v = honest(self, a, b, n)
        return v.scale(2) if n == 1 else v

    monkeypatch.setattr(ConformalAlgebra, "nprod", doubled)
    argv = ["oracle-check", spec(name), "--seed", "0"]
    stem = "oracle_check_%s_seed0_order1_doubled" % name
    code, out = run(capsys, argv)
    assert (code, out) == (1, recorded(stem + ".json"))
    assert run(capsys, argv + ["--text"]) == (1, recorded(stem + ".txt"))

    report = json.loads(out)
    v = report["violation"]
    assert v["order"] == 1
    c = load_spec(spec(name)).conformal
    a, b = c.from_map(v["a"]), c.from_map(v["b"])
    m, n, w = v["order"], v["index"], report["window"]
    f, g = to_distribution(a, 0, m), to_distribution(b, -w, w)
    residue = naive_dist_nprod(f, g, m).value(n).to_map()
    assert v["residue"] == residue
    assert v["closed_form"] == to_distribution(doubled(c, a, b, m), -w, w - m).value(n).to_map()
    # the honest closed form agrees with the reference route at that index
    assert to_distribution(honest(c, a, b, m), -w, w - m).value(n).to_map() == residue
