"""Fast self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Checks three things and exits non-zero if any fails:
  1. every metric BENCHMARK.json names is printed with its unit, by untraced
     and traced runs of every workload;
  2. a sabotaged product is counted as a failed op, injected through
     check_axioms(product=...) and coeff_assoc_check(mul=...);
  3. two traced runs at one seed, in separate interpreters, give identical
     counts.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import run
import workloads

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

TINY_TRACE_OPS = {"oracle": 6, "cli": 14, "structure": 10}
COUNT_SUFFIXES = (".calls", ".monomial_products", ".monomial_distinct", ".distinct", ".useful_ratio")


def _check_units(result, declared, label):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        raise AssertionError("%s: metrics %r, expected %r" % (label, got, want))
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError("%s: result keys %r" % (label, sorted(result)))


def untraced_metrics():
    """Run each workload untraced in-process, with one set-up and a few ops."""
    run.SETUPS, run.MIN_OPS = 1, 3
    for name in workloads.WORKLOADS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", name, "--seed", "3", "--seconds", "0.01"])
        lines = out.getvalue().strip().splitlines()
        result = json.loads(lines[-1])
        _check_units(result, SPEC["end_to_end"], name)
        record = json.loads(lines[-2])["run"]
        for key in ("ops_per_s", "op_p50_ms", "op_p90_ms", "error_rate", "setup_s", "peak_rss_mb"):
            entry = record["metrics"][key]
            if "unit" not in entry or "samples" not in entry:
                raise AssertionError("%s: run record lacks unit or samples for %s" % (name, key))
        if code != 0 or not result["correct"] or result["failed"]:
            raise AssertionError("%s: failed ops on an unchanged library" % name)
    print("PASS every end-to-end metric printed with its unit")


def sabotage():
    """Broken products must be counted as failed ops by the same loop that
    runs the workloads; honest ones must not."""
    m = run.fresh_import()
    data = m.specfile.load_spec(os.path.join(workloads.SPECS, "cend1.json"))
    c = data.conformal

    def flipped(a, b, n):
        v = c.nprod(a, b, n)
        return v.neg() if n == 1 else v

    def lopsided(x, y):
        return x.mul(y).add(x)

    def expect_ok(r):
        return r["ok"] is True

    def ops(product, mul):
        return [
            workloads.Op(
                "check_axioms",
                lambda: m.conformal.check_axioms(c, samples=50, seed=0, product=product),
                expect_ok,
            ),
            workloads.Op(
                "coeff_assoc_check",
                lambda: m.oracle.coeff_assoc_check(c.base, c.der, samples=20, seed=0, mul=mul),
                expect_ok,
            ),
        ]

    honest = run.run_ops(ops(None, None))
    if honest.failed:
        raise AssertionError("honest products counted as failed: %r" % honest.failures)
    broken = run.run_ops(ops(flipped, lopsided))
    if broken.failed != len(broken.lat):
        raise AssertionError(
            "sabotage not counted: %d of %d failed" % (broken.failed, len(broken.lat))
        )
    print("PASS sabotaged products counted in error_rate (%d of %d ops)" % (broken.failed, len(broken.lat)))


def traced(name, seed):
    cmd = [
        sys.executable,
        os.path.join(run.HERE, "run.py"),
        "--workload", name,
        "--seed", str(seed),
        "--seconds", "1",
        "--trace", "1",
        "--trace-ops", str(TINY_TRACE_OPS[name]),
    ]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if p.returncode != 0:
        raise AssertionError("%s traced run exited %d: %s" % (name, p.returncode, p.stderr))
    return json.loads(p.stdout.strip().splitlines()[-1])


def traced_counts():
    for name in workloads.WORKLOADS:
        first, second = traced(name, 5), traced(name, 5)
        _check_units(first, SPEC["per_layer"], name + " traced")
        counts = [
            {k: v["value"] for k, v in r["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
            for r in (first, second)
        ]
        if counts[0] != counts[1]:
            diff = {k: (counts[0][k], counts[1][k]) for k in counts[0] if counts[0][k] != counts[1][k]}
            raise AssertionError("%s: counts differ between runs: %r" % (name, diff))
        if not any(counts[0].values()):
            raise AssertionError("%s: traced run recorded nothing" % name)
    print("PASS per-layer metrics printed with units; counts repeat exactly at one seed")


def main():
    untraced_metrics()
    sabotage()
    traced_counts()
    return 0


if __name__ == "__main__":
    sys.exit(main())
