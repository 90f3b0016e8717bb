"""oracle-check reports, byte for byte: the recorded reports under data/ on
the shipped descriptions, at the default window, at the small windows 1
and 2 and at the limits --window 64 --degree 64, and the violation reports
of a closed form with one corrupted order, 1 or 6, checked against the
reference residue sum."""

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


@pytest.mark.parametrize("window", [1, 2])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", SPECS)
def test_small_window_reports_match_the_recorded_ones(capsys, name, seed, window):
    argv = ["oracle-check", spec(name), "--seed", str(seed), "--window", str(window)]
    stem = "oracle_check_%s_window%d_seed%d" % (name, window, seed)
    assert run(capsys, argv) == (0, recorded(stem + ".json"))
    assert run(capsys, argv + ["--text"]) == (0, recorded(stem + ".txt"))


def test_the_report_at_the_window_and_degree_limits_matches_the_recorded_one(capsys):
    argv = ["oracle-check", spec("cend1"), "--window", "64", "--degree", "64"]
    argv += ["--samples", "1", "--seed", "17"]
    stem = "oracle_check_cend1_window64_degree64_seed17"
    assert run(capsys, argv) == (0, recorded(stem + ".json"))
    assert run(capsys, argv + ["--text"]) == (0, recorded(stem + ".txt"))


# order 6 at degree 8 reads the sixth level of the residue side's
# difference tables
CORRUPTED = [pytest.param(name, 1, [], "seed0", id=name) for name in SPECS] + [
    pytest.param("cend1", 6, ["--degree", "8"], "degree8_seed0", id="cend1-degree8-order6")
]


@pytest.mark.parametrize("name, order, extra, tag", CORRUPTED)
def test_a_corrupted_order_is_reported_as_the_reference_route_sees_it(
    capsys, monkeypatch, name, order, extra, tag
):
    honest = ConformalAlgebra.nprod

    def doubled(self, a, b, n):
        v = honest(self, a, b, n)
        return v.scale(2) if n == order else v

    monkeypatch.setattr(ConformalAlgebra, "nprod", doubled)
    argv = ["oracle-check", spec(name), "--seed", "0"] + extra
    stem = "oracle_check_%s_%s_order%d_doubled" % (name, tag, order)
    code, out = run(capsys, argv)
    assert (code, out) == (1, recorded(stem + ".json"))
    assert run(capsys, argv + ["--text"]) == (1, recorded(stem + ".txt"))

    report = json.loads(out)
    v = report["violation"]
    assert v["order"] == order
    c = load_spec(spec(name)).conformal
    a, b = c.from_map(v["a"]), c.from_map(v["b"])
    m, n, w = v["order"], v["index"], report["window"]
    f, g = to_distribution(a, 0, m), to_distribution(b, -w, w)
    residue = naive_dist_nprod(f, g, m).value(n).to_map()
    assert v["residue"] == residue
    assert v["closed_form"] == to_distribution(doubled(c, a, b, m), -w, w - m).value(n).to_map()
    # the honest closed form agrees with the reference route at that index
    assert to_distribution(honest(c, a, b, m), -w, w - m).value(n).to_map() == residue


@pytest.mark.parametrize("name", SPECS)
def test_a_mismatch_that_vanishes_on_the_window_is_reported(capsys, monkeypatch, name):
    """A D-multiple added at order 0 has the distribution -n b t^(n-1) + ...,
    zero at n = 0, so the window 0 cannot see it: the maps differ, and the
    violation's index is the first n past the window where the values do."""
    honest = ConformalAlgebra.nprod

    def shifted(self, a, b, n):
        v = honest(self, a, b, n)
        return v.add(b.dapply()) if n == 0 else v

    monkeypatch.setattr(ConformalAlgebra, "nprod", shifted)
    code, out = run(capsys, ["oracle-check", spec(name), "--window", "0", "--samples", "5"])
    report = json.loads(out)
    assert (code, report["ok"], report["orders_checked"]) == (1, False, 1)
    v = report["violation"]
    assert v["order"] == 0 and v["index"] >= 1
    c = load_spec(spec(name)).conformal
    a, b = c.from_map(v["a"]), c.from_map(v["b"])
    n = v["index"]
    f, g = to_distribution(a, 0, 0), to_distribution(b, 0, n)
    residue = naive_dist_nprod(f, g, 0)
    closed = to_distribution(shifted(c, a, b, 0), 0, n)
    assert v["residue"] == residue.value(n).to_map()
    assert v["closed_form"] == closed.value(n).to_map() != v["residue"]
    for k in range(n):
        assert closed.value(k) == residue.value(k)

