"""Record the expected values the benchmark checks ops against.

    python3 bench/make_pins.py

Writes bench/pins.json: a SHA-256 digest of the JSON report of every
deterministic CLI command, and the values of the fixed structural
instances. Run it only on a commit whose results are known to be right;
the benchmark then counts every later difference as a failed op.
"""

import json

import run
import workloads


def main():
    m = run.fresh_import()
    cli = {}
    for name, argv, seeded in workloads.CLI_COMMANDS:
        if seeded:
            continue
        code, text = workloads.run_cli(m, argv)
        if code != 0:
            raise SystemExit("%s exited %d" % (name, code))
        cli[name] = workloads.digest(text)

    mp = m.algebra.MatrixPolyAlgebra(2)
    cp = m.constructions.make_current(mp)
    gen = mp.parse_element({"x*e11": "1", "x*e22": "1"})
    dims = {}
    for degree in (3,) + workloads.IDEAL_DEGREES:
        pair = m.structure.ideal_lift(cp, [gen], degree=degree)
        if m.structure.ideal_restrict(cp, pair.conf_span) != pair.base_span:
            raise SystemExit("ideal round trip fails at degree %d" % degree)
        dims[str(degree)] = len(pair.base_span)
    c2 = m.constructions.make_cend(2)
    split = m.structure.unital_split(c2, c2.named_element("L0"), degree=8)
    gens = [c2.named_element(n) for n in workloads.GK_GENERATORS]
    gk = m.growth.gk_profile(c2, gens, rmax=workloads.GK_RMAX)
    pins = {
        "cli": cli,
        "structure": {
            "ideal_dims": dims,
            "unital_split_cend2_L0_deg8": split,
            "gk_cend2": {"ranks": gk.ranks, "classification": gk.classification},
        },
    }
    with open(workloads.PINS_FILE, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
