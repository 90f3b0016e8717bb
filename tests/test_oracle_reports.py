"""oracle-check violation reports checked against the reference residue
sum: those of a closed form with one corrupted order, recorded under data/
and listed in recorded_reports.CORRUPTED, and one that vanishes on the
window. The honest reports are diffed in test_cli."""

import json
from itertools import zip_longest

import pytest

from confalg.cli import main
from confalg.conformal import ConformalAlgebra
from confalg.oracle import to_distribution
from confalg.specfile import load_spec
from recorded_reports import CORRUPTED, FORMS, SPECS, command, doubled, kernel_order_changed, recorded, spec
from reference_oracles import cscale, naive_dist_nprod


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert err == ""
    return code, out


@pytest.mark.parametrize("stem", CORRUPTED)
def test_a_corrupted_order_is_reported_as_the_reference_route_sees_it(capsys, stem):
    order, argv = CORRUPTED[stem]
    argv = command(argv)
    with kernel_order_changed(order, doubled):
        for suffix, extra in FORMS:
            assert run(capsys, argv + extra) == (1, recorded(stem + suffix))

    report = json.loads(recorded(stem + ".json"))
    v = report["violation"]
    assert v["order"] == order
    c = load_spec(argv[1]).conformal
    a, b = c.from_map(v["a"]), c.from_map(v["b"])
    m, n = v["order"], v["index"]
    residue = naive_dist_nprod(to_distribution(a), to_distribution(b), m, n, n).value(n).to_map()
    assert v["residue"] == residue
    honest = c.nprod(a, b, m)
    assert v["closed_form"] == to_distribution(cscale(honest, 2)).value(n).to_map()
    # the honest closed form agrees with the reference route at that index
    assert to_distribution(honest).value(n).to_map() == residue


@pytest.mark.parametrize("name", SPECS)
def test_a_mismatch_that_vanishes_on_the_window_is_reported(capsys, monkeypatch, name):
    """A D-multiple added at order 0 of the closed-form kernel's sums has
    the distribution -n b t^(n-1) + ..., zero at n = 0, so the window 0
    cannot see it: the maps differ, and the violation's index is the first
    n past the window where the values do."""
    honest = ConformalAlgebra._products

    def shifted(self, a, b, jobs):
        accs = honest(self, a, b, jobs)
        for (_, _, lo, _), acc in zip(jobs, accs):
            if lo == 0:
                at0 = acc.setdefault(0, {})
                for k, p in b.dapply().items.items():
                    at0[k] = [x + y for x, y in zip_longest(at0.get(k, ()), p.coeffs, fillvalue=0)]
        return accs

    monkeypatch.setattr(ConformalAlgebra, "_products", shifted)
    code, out = run(capsys, ["oracle-check", spec(name + ".json"), "--window", "0", "--samples", "5"])
    monkeypatch.undo()
    report = json.loads(out)
    assert (code, report["ok"], report["orders_checked"]) == (1, False, 1)
    v = report["violation"]
    assert v["order"] == 0 and v["index"] >= 1
    c = load_spec(spec(name + ".json")).conformal
    a, b = c.from_map(v["a"]), c.from_map(v["b"])
    n = v["index"]
    residue = naive_dist_nprod(to_distribution(a), to_distribution(b), 0, 0, n)
    closed = to_distribution(c.nprod(a, b, 0).add(b.dapply()))
    assert v["residue"] == residue.value(n).to_map()
    assert v["closed_form"] == closed.value(n).to_map() != v["residue"]
    for k in range(n):
        assert closed.value(k) == residue.value(k)
