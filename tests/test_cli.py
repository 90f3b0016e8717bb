import json
import os
import subprocess
import sys

import pytest

import confalg.cli
import confalg.structure
from confalg.algebra import MAX_UNTWIST_KEYS
from confalg.cli import main

import recorded_reports
from recorded_reports import spec

SRC = os.path.dirname(os.path.dirname(os.path.abspath(confalg.cli.__file__)))


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_check_axioms_passes_on_a_shipped_description(capsys):
    code, out, err = run(
        capsys, "check-axioms", spec("cur_matrix2.json"), "--samples", "40"
    )
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert err == ""


def test_product_output_is_exact(capsys):
    code, out, _ = run(capsys, "product", spec("cend1.json"), "L1", "1", "L1")
    assert code == 0
    report = json.loads(out)
    assert report["result"] == {"x": {"0": "-1"}}
    assert report["text"] == "(-1)*x~"


def test_product_rejects_unknown_elements(capsys):
    code, out, err = run(capsys, "product", spec("cend1.json"), "L1", "0", "nope")
    assert code == 2
    assert out == ""
    assert "unknown element" in err


def test_output_bytes_are_deterministic(capsys):
    argv = ("table", spec("cend1.json"))
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    # keys arrive sorted, so the serialization is canonical
    assert json.dumps(json.loads(out1), sort_keys=True, indent=2) + "\n" == out1


def test_text_mode_renders_lines_not_json(capsys):
    code, out, _ = run(capsys, "locality", spec("cend1.json"), "L1", "L1", "--text")
    assert code == 0
    assert "locality: 1" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


@pytest.mark.parametrize("stem", recorded_reports.REPORTS)
def test_recorded_reports_match_in_process(capsys, stem):
    argv = recorded_reports.command(recorded_reports.REPORTS[stem])
    for suffix, extra in recorded_reports.FORMS:
        assert run(capsys, *argv, *extra) == (0, recorded_reports.recorded(stem + suffix), "")


def test_the_runner_renders_every_recorded_file_and_no_other():
    names = [name for name, _, _ in recorded_reports.files()]
    assert sorted(names) == sorted(os.listdir(recorded_reports.DATA))


def test_ideal_check_lifts_the_ideal_once(capsys, monkeypatch):
    calls = []
    honest = confalg.structure.ideal_lift

    def counted(*args, **kwargs):
        calls.append(args)
        return honest(*args, **kwargs)

    monkeypatch.setattr(confalg.cli, "ideal_lift", counted)
    monkeypatch.setattr(confalg.structure, "ideal_lift", counted)
    code, out, _ = run(capsys, "ideal-check", spec("ideal_triangular.json"), "J", "--degree", "3")
    assert code == 0
    assert json.loads(out)["indices_agree"] is True
    assert len(calls) == 1


def test_oracle_check_small_run(capsys):
    code, out, _ = run(
        capsys,
        "oracle-check",
        spec("cend1.json"),
        "--samples",
        "5",
        "--window",
        "5",
        "--degree",
        "3",
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_assoc_check_small_run(capsys):
    code, out, _ = run(
        capsys, "assoc-check", spec("cend1.json"), "--samples", "20"
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_untwist_reports_the_certified_identity(capsys):
    code, out, _ = run(capsys, "untwist", spec("dif_matrix2_ad_e12.json"))
    assert code == 0
    report = json.loads(out)
    assert report["certified"] is True
    assert report["pure_current_images"] is True
    assert report["roundtrip_exact"] is True
    assert report["nilpotency"] == 2
    assert report["e_prime"] == {"e11": {"0": "1"}, "e22": {"0": "1"}, "e12": {"1": "1"}}


def test_is_current_negative_and_control(capsys):
    code, out, _ = run(
        capsys, "is-current", spec("noncur.json"), "a", "--degree", "4"
    )
    assert code == 0
    report = json.loads(out)
    assert report["current"] is False
    assert report["witness"] is None


def test_is_current_needs_a_subalgebra(capsys):
    code, _, err = run(capsys, "is-current", spec("cur_matrix2.json"), "e12")
    assert code == 2
    assert "no subalgebra" in err


@pytest.mark.parametrize(
    "path,element",
    [("dif_matrix2_ad_e12.json", "e11"), ("sum_matrix2_scalar_ad.json", "0:e11")],
    ids=["matrix", "direct_sum"],
)
def test_kernel_decompose_needs_ddx_on_matrix_poly(path, element, capsys):
    code, out, err = run(capsys, "kernel-decompose", spec(path), element)
    assert code == 2
    assert out == ""
    assert "needs ddx on matrix_poly" in err


@pytest.mark.parametrize("command", ["table", "gk"])
def test_table_and_gk_need_generators(command, capsys):
    code, out, err = run(capsys, command, spec("ideal_triangular.json"))
    assert code == 2
    assert out == ""
    assert "the description declares no generators" in err


def test_dual_identity_consistent_pair(capsys):
    code, out, _ = run(
        capsys, "dual-identity", spec("dif_matrix2_ad_e12.json"), "ePrime", "companion"
    )
    assert code == 0
    report = json.loads(out)
    assert report["consistent"] is True
    assert report["action_consistent"] is True


def test_dual_identity_flags_a_corrupted_candidate(tmp_path, capsys):
    with open(spec("dif_matrix2_ad_e12.json")) as fh:
        doc = json.load(fh)
    bad = dict(doc["elements"]["ePrime"])
    bad["e11"] = {"0": "1", "2": "1"}
    doc["elements"]["badE"] = bad
    p = tmp_path / "corrupted.json"
    p.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "dual-identity", str(p), "badE")
    assert code == 1
    report = json.loads(out)
    assert report["consistent"] is False
    assert report["recursion_failures"]


def test_ideal_check_on_the_triangular_description(capsys):
    code, out, _ = run(
        capsys, "ideal-check", spec("ideal_triangular.json"), "J", "--degree", "0"
    )
    assert code == 0
    report = json.loads(out)
    assert report["slice_dimension"] == 1
    assert report["base_index"] == 2
    assert report["conformal_index"] == 2
    assert report["indices_agree"] is True
    assert report["roundtrip_ok"] is True


def test_ideal_check_refuses_a_zero_slice(tmp_path, capsys):
    # x e12 lies past the degree-0 window of 2x2 matrices over Q[x]: the
    # slice is 0 and has no nilpotency index to report
    p = tmp_path / "zero_slice.json"
    p.write_text(
        json.dumps(
            {
                "construction": "current",
                "base": {"kind": "matrix_poly", "n": 2},
                "base_elements": {"g": {"x*e12": "1"}},
                "ideals": {"J": ["g"]},
            }
        )
    )
    code, out, err = run(capsys, "ideal-check", str(p), "J", "--degree", "0")
    assert code == 2
    assert out == ""
    assert "ideal slice of degree 0 is 0" in err


def test_unital_split_report(capsys):
    code, out, _ = run(
        capsys, "unital-split", spec("cend1.json"), "one", "--degree", "2"
    )
    assert code == 0
    report = json.loads(out)
    assert report["identity_certified"] is True
    assert report["kernel_rank"] == 0


def test_kernel_decompose_roundtrip(capsys):
    code, out, _ = run(capsys, "kernel-decompose", spec("cend1.json"), "x^2")
    assert code == 0
    report = json.loads(out)
    assert report["components"] == {"2": {"1": "2"}}
    assert report["roundtrip_ok"] is True


def test_gk_classification(capsys):
    code, out, _ = run(capsys, "gk", spec("cur_matrix2.json"), "--rmax", "4")
    assert code == 0
    report = json.loads(out)
    assert report["classification"] == "zero_growth"
    assert report["ranks"]["4"] == 4


def test_gk_text_lists_ranks_in_numeric_order(capsys):
    code, out, _ = run(capsys, "gk", spec("cend1.json"), "--rmax", "12", "--text")
    assert code == 0
    lines = out.splitlines()
    start = lines.index("ranks:") + 1
    rounds = [line.split(":")[0].strip() for line in lines[start : start + 12]]
    assert rounds == [str(r) for r in range(1, 13)]
    # JSON keeps its sorted string keys
    code, out, _ = run(capsys, "gk", spec("cend1.json"), "--rmax", "12")
    assert list(json.loads(out)["ranks"])[:3] == ["1", "10", "11"]


@pytest.mark.parametrize(
    "argv",
    [
        ("locality", "cend1.json", "L2", "L2", "--cap", "1"),
        ("ideal-check", "ideal_triangular.json", "J", "--cap", "8"),
    ],
    ids=lambda argv: argv[0],
)
def test_the_cap_options_are_gone(capsys, argv):
    # both answers are exact, so there is no cap to set
    command, name, *rest = argv
    with pytest.raises(SystemExit) as exc:
        main([command, spec(name), *rest])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --cap" in err


def _untwist_spec(tmp_path, base, r):
    p = tmp_path / "twist.json"
    p.write_text(json.dumps({"base": base, "derivation": {"kind": "ad", "r": r}}))
    return str(p)


def test_an_untwist_window_above_the_limit_is_refused(tmp_path, capsys):
    assert MAX_UNTWIST_KEYS == 36
    # 6x6 matrices and Q: 37 basis symbols at every degree
    base = {"kind": "direct_sum", "summands": [{"kind": "matrix", "n": 6}, {"kind": "scalar"}]}
    code, out, err = run(capsys, "untwist", _untwist_spec(tmp_path, base, {"0:e12": "1"}))
    assert code == 2
    assert out == ""
    assert "37 basis symbols, at most 36" in err
    # 2x2 matrices over Q[x] up to degree 8: 36 symbols, accepted
    base = {"kind": "matrix_poly", "n": 2}
    path = _untwist_spec(tmp_path, base, {"e12": "1"})
    code, out, _ = run(capsys, "untwist", path, "--degree", "8")
    assert code == 0
    assert len(json.loads(out)["images"]) == 36


def test_oracle_check_at_the_largest_window_and_degree_runs(capsys):
    cend1 = spec("cend1.json")
    code, out, _ = run(capsys, "oracle-check", cend1, "--samples", "100", "--window", "8")
    assert code == 0
    assert json.loads(out)["ok"]
    # one comparison for every n: the largest --window and --degree are
    # admitted together (seed 9: 48 orders in about 0.6 s)
    argv = ["--window", "64", "--degree", "64", "--samples", "1", "--seed", "9"]
    code, out, _ = run(capsys, "oracle-check", cend1, *argv)
    report = json.loads(out)
    assert code == 0
    assert report["ok"] and report["orders_checked"] == 48


def test_missing_description_file_is_a_usage_error(capsys):
    code, out, err = run(capsys, "table", spec("absent.json"))
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "x.json"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle-check", "cend1.json", "--samples", "-3"),
        ("check-axioms", "cur_matrix2.json", "--degree", "-1"),
        ("is-current", "noncur.json", "a", "--degree", "-1"),
        ("gk", "cend1.json", "--rmax", "0"),
        ("assoc-check", "cend1.json", "--power", "-1"),
    ],
    ids=lambda argv: argv[0],
)
def test_out_of_range_arguments_are_usage_errors(capsys, argv):
    command, name, *rest = argv
    with pytest.raises(SystemExit) as exc:
        main([command, spec(name), *rest])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "must be an integer >=" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("check-axioms", "cur_matrix2.json", "--degree", "65"),
        ("check-axioms", "cur_matrix2.json", "--samples", "10001"),
        ("oracle-check", "cend1.json", "--window", "65"),
        ("assoc-check", "cend1.json", "--power", "65"),
        ("gk", "cend1.json", "--rmax", "65"),
    ],
    ids=lambda argv: argv[-2],
)
def test_size_options_just_above_their_limits_are_usage_errors(capsys, argv):
    command, name, *rest = argv
    # argparse exits before the description is loaded
    with pytest.raises(SystemExit) as exc:
        main([command, spec(name), *rest])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "must be an integer <= %d" % (int(rest[-1]) - 1) in err


def test_the_degree_limit_is_reachable(capsys):
    code, out, _ = run(capsys, "unital-split", spec("cend1.json"), "one", "--degree", "64")
    assert code == 0
    report = json.loads(out)
    assert report["identity_certified"]
    assert (report["module_rank"], report["image_rank"], report["kernel_rank"]) == (65, 65, 0)
    code, out, _ = run(capsys, "product", spec("cend1.json"), "L0", "0", "x^64")
    assert code == 0
    assert json.loads(out)["result"] == {"x^64": {"0": "1"}}


@pytest.mark.parametrize(
    "argv",
    [
        ("kernel-decompose", "x^{k}"),
        ("product", "L0", "0", "x^{k}"),
        ("product", "L{k}", "0", "L0"),
    ],
    ids=["kernel_decompose", "product_basis_name", "product_generator_name"],
)
def test_exponents_in_names_stop_at_the_degree_limit(capsys, argv):
    command, *names = argv
    code, out, _ = run(capsys, command, spec("cend1.json"), *[n.format(k=64) for n in names])
    assert code == 0
    assert out
    code, out, err = run(capsys, command, spec("cend1.json"), *[n.format(k=65) for n in names])
    assert code == 2
    assert out == ""
    assert "must be at most 64" in err


def test_the_shared_parser_keeps_no_state_between_calls(capsys):
    cend1, cur = spec("cend1.json"), spec("cur_matrix2.json")
    code, out, _ = run(capsys, "table", cend1, "--text")
    assert code == 0
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)
    code, out, _ = run(capsys, "table", cend1)
    assert code == 0
    assert json.loads(out)["generators"] == ["L0", "L1"]

    code, out, _ = run(capsys, "check-axioms", cur, "--samples", "5")
    assert json.loads(out)["samples"] == 5
    code, out, _ = run(capsys, "check-axioms", cur)
    assert code == 0
    assert json.loads(out)["samples"] == 200

    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", cend1])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "product", cend1, "L1", "1", "L1")
    assert code == 0
    assert recorded_reports.fresh(["product", cend1, "L1", "1", "L1"]) == (0, out, "")


@pytest.mark.parametrize("seed", ["0", "1", "7"])
def test_checks_past_a_table_exit_2_at_every_seed(capsys, seed):
    """Past the table derivation's degree 3 each sampled check exits 2
    whatever the seed, with the degree and the uncovered symbol named."""
    table = spec("table_ddx_plus_ad_e12.json")
    for argv, message in (
        (("check-axioms", table, "--samples", "1"), "--degree 4 draws x^4*e11"),
        (("oracle-check", table, "--samples", "1"), "--degree 4 draws x^4*e11"),
        (("assoc-check", table, "--samples", "1"), "--degree 3 reaches x^4*e11"),
    ):
        code, out, err = run(capsys, *argv, "--seed", seed)
        assert (code, out) == (2, "")
        assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "cend1.json"),
        ("table", "cend1.json", "--text"),
        ("check-axioms", "table_ddx_plus_ad_e12.json", "--degree", "3", "--samples", "5"),
    ],
)
def test_a_closed_stdout_ends_without_a_traceback(argv):
    """A reader that closes the pipe before the report is written, as
    `| head -1` may, leaves the command's own exit code and no traceback.
    The read end is closed before the command starts, so the first write
    fails on every run."""
    argv = (argv[0], spec(argv[1]), *argv[2:])
    code, _, _ = recorded_reports.fresh(list(argv))
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "confalg.cli", *argv],
            stdout=w,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
    finally:
        os.close(w)
    assert "Traceback" not in proc.stderr.decode("utf-8")
    assert proc.returncode == code == 0
