"""Every report recorded under data/, listed once and diffed byte for byte.
Standard library only.

    PYTHONPATH=src python3 tests/recorded_reports.py           # diff
    PYTHONPATH=src python3 tests/recorded_reports.py --record  # re-record

Three kinds of file:
  - REPORTS: a confalg command on a shipped description, recorded as
    <stem>.json and, with --text, as <stem>.txt; each runs in a fresh
    interpreter and must exit 0 with nothing on stderr;
  - CORRUPTED: oracle-check with one order of the closed form doubled,
    recorded the same way; each runs in this process and must exit 1;
  - CHECKS: the violation reports of four sabotaged checks, recorded as
    <stem>.json. Each check runs on the three check-axioms
    descriptions at seeds 0 and 7:
      - check_axioms with a product whose order 1 is negated (flip1);
      - check_axioms on its own default route, with the closed-form
        kernel's order-1 sums doubled;
      - coeff_assoc_check with the Ore product of the wrong commutation
        sign, t b = b t + d(b);
      - oracle_check with a closed form whose order 1 is doubled.
    A violation prints the sampled elements and the products that disagree,
    so these files pin how the library builds and prints them.
A new recorded report is one entry here, then --record. Exit 1 naming every
file that differs.
"""

import io
import json
import os
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from functools import partial

import confalg
from confalg.cli import main as cli_main
from confalg.conformal import ConformalAlgebra, check_axioms
from confalg.oracle import coeff_assoc_check, oracle_check
from confalg.specfile import load_spec
from reference_oracles import ore_product

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
SPECS = ["cend1", "cur_matrix2", "dif_matrix2_ad_e12"]
SEEDS = [0, 7]
# each report's two forms: file suffix, extra arguments
FORMS = [(".json", []), (".txt", ["--text"])]

# file stem -> argv, the description named by its file under specs/
REPORTS = {
    "table_cend1": ["table", "cend1.json"],
    "table_cur_matrix2": ["table", "cur_matrix2.json"],
    "table_dif_matrix2_ad_e12": ["table", "dif_matrix2_ad_e12.json"],
    "product_cend1_L1_1_L1": ["product", "cend1.json", "L1", "1", "L1"],
    "locality_cend1_L1_L1": ["locality", "cend1.json", "L1", "L1"],
    "untwist_dif_matrix2_ad_e12": ["untwist", "dif_matrix2_ad_e12.json"],
    "is_current_noncur_a_degree4": ["is-current", "noncur.json", "a", "--degree", "4"],
    "ideal_check_ideal_triangular_J_degree0": ["ideal-check", "ideal_triangular.json", "J", "--degree", "0"],
    "ideal_check_ideal_triangular_J_degree3": ["ideal-check", "ideal_triangular.json", "J", "--degree", "3"],
    # a graded carrier, where ideal_lift skips products past the window
    "ideal_check_ideal_triangular_x_J_degree1": ["ideal-check", "ideal_triangular_x.json", "J", "--degree", "1"],
    "ideal_check_ideal_triangular_x_J_degree3": ["ideal-check", "ideal_triangular_x.json", "J", "--degree", "3"],
    # under d/dx: J is stable and K is not, and on both the module levels
    # take products with the delta-orbit of S_1, which holds more than S_1
    "ideal_check_ideal_triangular3_ddx_J_degree3": ["ideal-check", "ideal_triangular3_ddx.json", "J", "--degree", "3"],
    "ideal_check_ideal_triangular3_ddx_K_degree3": ["ideal-check", "ideal_triangular3_ddx.json", "K", "--degree", "3"],
    "unital_split_cend1_one_degree4": ["unital-split", "cend1.json", "one", "--degree", "4"],
    "unital_split_cend1_one_degree9": ["unital-split", "cend1.json", "one", "--degree", "9"],
    "gk_cend1_rmax12": ["gk", "cend1.json", "--rmax", "12"],
    "gk_cur_matrix2_rmax12": ["gk", "cur_matrix2.json", "--rmax", "12"],
    "gk_dif_matrix2_ad_e12_rmax12": ["gk", "dif_matrix2_ad_e12.json", "--rmax", "12"],
    # a closure whose rows have positive D-degree, so its rank is read at
    # several points D = alpha
    "gk_cend2_ddeg1_rmax3": ["gk", "cend2_ddeg1.json", "--rmax", "3"],
    "dual_identity_dif_matrix2_ad_e12_ePrime_companion": [
        "dual-identity", "dif_matrix2_ad_e12.json", "ePrime", "companion"
    ],
    "kernel_decompose_cend1_x2": ["kernel-decompose", "cend1.json", "x^2"],
    # the scalar and poly kinds, which load as the 1x1 matrix and matrix_poly
    "table_poly_ddx": ["table", "poly_ddx.json"],
    "check_axioms_poly_ddx_samples50": ["check-axioms", "poly_ddx.json", "--samples", "50"],
    "oracle_check_poly_ddx_samples10": ["oracle-check", "poly_ddx.json", "--samples", "10"],
    "gk_poly_ddx_rmax6": ["gk", "poly_ddx.json", "--rmax", "6"],
    "kernel_decompose_poly_ddx_x3": ["kernel-decompose", "poly_ddx.json", "x^3"],
    "table_sum_matrix2_scalar_ad": ["table", "sum_matrix2_scalar_ad.json"],
    "check_axioms_sum_matrix2_scalar_ad_samples50": ["check-axioms", "sum_matrix2_scalar_ad.json", "--samples", "50"],
    "oracle_check_sum_matrix2_scalar_ad_samples10": ["oracle-check", "sum_matrix2_scalar_ad.json", "--samples", "10"],
    "gk_sum_matrix2_scalar_ad_rmax6": ["gk", "sum_matrix2_scalar_ad.json", "--rmax", "6"],
    "untwist_sum_matrix2_scalar_ad_degree0": ["untwist", "sum_matrix2_scalar_ad.json", "--degree", "0"],
    "unital_split_sum_matrix2_scalar_ad_one_degree0": [
        "unital-split", "sum_matrix2_scalar_ad.json", "one", "--degree", "0"
    ],
    # dense evaluation rows through larger echelons than rmax 3 reaches
    "gk_cend2_ddeg1_rmax5": ["gk", "cend2_ddeg1.json", "--rmax", "5"],
    # the largest solve_right over the full slice
    "is_current_noncur_a_degree6": ["is-current", "noncur.json", "a", "--degree", "6"],
    # a table derivation, at degrees whose products stay inside its coverage
    "table_table_ddx_plus_ad_e12": ["table", "table_ddx_plus_ad_e12.json"],
    "check_axioms_table_ddx_plus_ad_e12_degree3_samples50": [
        "check-axioms", "table_ddx_plus_ad_e12.json", "--degree", "3", "--samples", "50"
    ],
    "assoc_check_table_ddx_plus_ad_e12_degree1": ["assoc-check", "table_ddx_plus_ad_e12.json", "--degree", "1"],
}
REPORTS.update(
    ("oracle_check_table_ddx_plus_ad_e12_degree3_samples10_seed%d" % seed, [
        "oracle-check", "table_ddx_plus_ad_e12.json", "--degree", "3", "--samples", "10", "--seed", str(seed)
    ])
    for seed in SEEDS
)
# oracle-check at the default window and at the small windows 1 and 2, where
# a check on the window and one for every n could part
REPORTS.update(
    ("oracle_check_%s%s_seed%d" % (name, tag, seed), ["oracle-check", name + ".json", "--seed", str(seed)] + extra)
    for name in SPECS
    for seed in SEEDS
    for tag, extra in [("", []), ("_window1", ["--window", "1"]), ("_window2", ["--window", "2"])]
)
# the --window and --degree limits, where the residue sum runs 64 orders deep
REPORTS["oracle_check_cend1_window64_degree64_seed17"] = [
    "oracle-check", "cend1.json", "--window", "64", "--degree", "64", "--samples", "1", "--seed", "17"
]

# file stem -> (doubled order, argv); order 6 at degree 8 reads the sixth
# level of the residue side's difference tables
CORRUPTED = {
    "oracle_check_%s_seed0_order1_doubled" % name: (1, ["oracle-check", name + ".json", "--seed", "0"])
    for name in SPECS
}
CORRUPTED["oracle_check_cend1_degree8_seed0_order6_doubled"] = (
    6, ["oracle-check", "cend1.json", "--seed", "0", "--degree", "8"]
)


def spec(name):
    return os.path.join(HERE, "..", "specs", name)


def command(argv):
    """argv with its description file resolved under specs/."""
    return [argv[0], spec(argv[1]), *argv[2:]]


def recorded(name):
    with open(os.path.join(DATA, name), encoding="utf-8", newline="") as fh:
        return fh.read()


@contextmanager
def kernel_order_changed(order, change):
    """Inside the block, every algebra's closed-form kernel _products passes
    each D-coefficient list of its given order through change, in every
    job's map, so every route that reads the kernel (nprod, nprod_all and
    check_axioms's own) sees it."""
    honest = ConformalAlgebra._products

    def changed(self, a, b, jobs):
        accs = honest(self, a, b, jobs)
        for acc in accs:
            if order in acc:
                acc[order] = {k: change(cs) for k, cs in acc[order].items()}
        return accs

    ConformalAlgebra._products = changed
    try:
        yield
    finally:
        ConformalAlgebra._products = honest


def doubled(cs):
    return [2 * v for v in cs]


def flip1(c, seed):
    def product(a, b, n):
        v = c.nprod(a, b, n)
        return v.neg() if n == 1 else v

    return check_axioms(c, samples=200, seed=seed, product=product)


def axioms_kernel_order1_doubled(c, seed):
    with kernel_order_changed(1, doubled):
        return check_axioms(c, samples=200, seed=seed)


def wrong_sign(c, seed):
    return coeff_assoc_check(c.base, c.der, samples=100, seed=seed, mul=ore_product(1))


def oracle_order1_doubled(c, seed):
    with kernel_order_changed(1, doubled):
        return oracle_check(c, samples=100, seed=seed)


# file stem -> check
CHECKS = {
    "violations_check_axioms_flip1": flip1,
    "violations_check_axioms_kernel_order1_doubled": axioms_kernel_order1_doubled,
    "violations_coeff_assoc_check_wrong_sign": wrong_sign,
    "violations_oracle_check_order1_doubled": oracle_order1_doubled,
}


def violations(check):
    """The check's reports keyed <spec>_seed<seed>, as the recorded text."""
    reports = {
        "%s_seed%d" % (name, seed): CHECKS[check](load_spec(spec(name + ".json")).conformal, seed)
        for name in SPECS
        for seed in SEEDS
    }
    return json.dumps(reports, indent=2, sort_keys=True) + "\n"


def fresh(argv):
    """(exit code, stdout, stderr) of the command in a new interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(confalg.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "confalg.cli", *argv],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    return proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")


def corrupted(order, argv):
    """(exit code, stdout, stderr) of the command, in this process, with the
    given order doubled."""
    out, err = io.StringIO(), io.StringIO()
    with kernel_order_changed(order, doubled), redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def files():
    """(file name, exit code it must give, run) for every recorded file;
    run() returns (exit code, stdout, stderr)."""
    out = []
    for stem, argv in REPORTS.items():
        for suffix, extra in FORMS:
            out.append((stem + suffix, 0, partial(fresh, command(argv) + extra)))
    for stem, (order, argv) in CORRUPTED.items():
        for suffix, extra in FORMS:
            out.append((stem + suffix, 1, partial(corrupted, order, command(argv) + extra)))
    for stem in CHECKS:
        out.append((stem + ".json", 0, lambda stem=stem: (0, violations(stem), "")))
    return out


def main(argv):
    record = argv == ["--record"]
    if argv and not record:
        print("usage: recorded_reports.py [--record]", file=sys.stderr)
        return 2
    failed = []
    todo = files()
    for name, want, run in todo:
        code, out, err = run()
        if (code, err) != (want, ""):
            failed.append(name)
            print("FAIL %s: exit %d, want %d; stderr %r" % (name, code, want, err[-300:]))
        elif record:
            with open(os.path.join(DATA, name), "w", encoding="utf-8", newline="") as fh:
                fh.write(out)
        elif out != recorded(name):
            failed.append(name)
            print("DIFF %s" % name)
    verb = "recorded" if record else "matched"
    print("FAIL" if failed else "PASS", "%s %d of %d files" % (verb, len(todo) - len(failed), len(todo)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
