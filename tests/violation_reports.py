"""Violation reports of three sabotaged checks, diffed against the ones
recorded under data/. Standard library only.

    PYTHONPATH=src python3 tests/violation_reports.py           # diff
    PYTHONPATH=src python3 tests/violation_reports.py --record  # re-record

Each check runs on the three check-axioms descriptions at seeds 0 and 7:
  - check_axioms with a product whose order 1 is negated (flip1);
  - coeff_assoc_check with the Ore product of the wrong commutation sign,
    t b = b t + d(b);
  - oracle_check with a closed form whose order 1 is doubled.
A violation prints the sampled elements and the products that disagree, so
these files pin how the library builds and prints them. Exit 1 on any
difference.
"""

import json
import os
import sys

from confalg.conformal import check_axioms
from confalg.oracle import coeff_assoc_check, oracle_check
from confalg.specfile import load_spec
from reference_oracles import ore_product

HERE = os.path.dirname(os.path.abspath(__file__))
SPECS = ["cend1", "cur_matrix2", "dif_matrix2_ad_e12"]
SEEDS = [0, 7]


def load(name):
    return load_spec(os.path.join(HERE, "..", "specs", name + ".json")).conformal


def flip1(c, seed):
    def product(a, b, n):
        v = c.nprod(a, b, n)
        return v.neg() if n == 1 else v

    return check_axioms(c, samples=200, seed=seed, product=product)


def wrong_sign(c, seed):
    return coeff_assoc_check(c.base, c.der, samples=100, seed=seed, mul=ore_product(1))


def order1_doubled(c, seed):
    honest = c.nprod

    def doubled(a, b, n):
        v = honest(a, b, n)
        return v.scale(2) if n == 1 else v

    # an instance attribute shadows the method for this algebra only
    c.nprod = doubled
    try:
        return oracle_check(c, samples=100, seed=seed)
    finally:
        del c.nprod


CHECKS = {
    "check_axioms_flip1": flip1,
    "coeff_assoc_check_wrong_sign": wrong_sign,
    "oracle_check_order1_doubled": order1_doubled,
}


def path(check):
    return os.path.join(HERE, "data", "violations_%s.json" % check)


def render(check):
    """The check's reports keyed <spec>_seed<seed>, as the recorded text."""
    reports = {
        "%s_seed%d" % (name, seed): CHECKS[check](load(name), seed)
        for name in SPECS
        for seed in SEEDS
    }
    return json.dumps(reports, indent=2, sort_keys=True) + "\n"


def recorded(check):
    with open(path(check), encoding="utf-8", newline="") as fh:
        return fh.read()


def main(argv):
    record = argv == ["--record"]
    if argv and not record:
        print("usage: violation_reports.py [--record]", file=sys.stderr)
        return 2
    failed = 0
    for check in CHECKS:
        text = render(check)
        if record:
            with open(path(check), "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            print("recorded", path(check))
            continue
        want = recorded(check)
        if text == want:
            continue
        failed += 1
        got, exp = json.loads(text), json.loads(want)
        keys = [k for k in sorted(set(got) | set(exp)) if got.get(k) != exp.get(k)]
        print("DIFF %s: %s" % (check, ", ".join(keys) or "same reports, other bytes"))
    if not record:
        print("FAIL" if failed else "PASS", "%d violation report files" % len(CHECKS))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
