"""Benchmark for confalg: one workload per run, in its own interpreter.

    python3 bench/run.py --workload oracle --seed 1 --seconds 40 --trace 0

Each workload is a closed loop with one client: the next op starts when the
previous one has returned and been checked. With --trace 0 the run times
ops for --seconds seconds (finishing the current cycle, and at least
MIN_OPS ops so that the 90th percentile has ten samples beyond it) and
prints the end-to-end metrics, scaled to a host on which a HostMeter
reading takes REF_NOMINAL_MS. With --trace 1 it runs a fixed list of ops
twice, untraced and then traced from a fresh set-up, and prints the
per-layer metrics. The last line of stdout is the result object; the line
before it is the run record. Exit code 1 means some op failed its check.
"""

import time

_T_START = time.perf_counter()

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import threading
import types
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402
from quantile import hd_quantile  # noqa: E402

SETUPS = 5
MIN_OPS = 100
# host speed: a reading between ops at most every REF_EVERY_S seconds; an op
# is scaled by the median reading within SMOOTH_S seconds of its start
REF_DICTS = 2500
REF_FRACTIONS = 2200
REF_EVERY_S = 0.25
REF_NOMINAL_MS = 18.0
SMOOTH_S = 1.0
TRACE_OPS = {"oracle": 30, "cli": 28, "structure": 30}
MODULES = [
    "rings",
    "linalg",
    "algebra",
    "conformal",
    "constructions",
    "oracle",
    "structure",
    "growth",
    "specfile",
    "cli",
]
END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def fresh_import():
    """Import confalg from the checkout's src/, dropping any earlier copy so
    that every set-up pays for the import and starts with empty caches."""
    for name in [n for n in sys.modules if n == "confalg" or n.startswith("confalg.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    mods = types.SimpleNamespace()
    for name in MODULES:
        setattr(mods, name, importlib.import_module("confalg." + name))
    origin = os.path.dirname(os.path.abspath(mods.algebra.__file__))
    if origin != os.path.join(SRC, "confalg"):
        raise RuntimeError("confalg imported from %s, not from this checkout" % origin)
    return mods


def set_up(name, t0, trace=None):
    """One set-up: import, structure builds, spec loads and the checked
    warm-up ops, traced when a tracer is given. Returns the workload, the
    warm-up pass and the seconds from t0 to its end."""
    mods = fresh_import()
    if trace is not None:
        trace.install(mods)
    wl = workloads.WORKLOADS[name]()
    wl.setup(mods)
    warm = run_ops(wl.warmup(), trace=trace)
    return wl, warm, time.perf_counter() - t0


def run_ops(ops, deadline=None, min_ops=0, trace=None, host=None):
    """Run ops in order and check each one. With a deadline, ops is an
    iterator of cycles, and the pass stops at the first cycle end past the
    deadline once min_ops ops have run, so that every op kind of a cycle
    runs equally often. With a HostMeter, a reading is taken between ops
    every REF_EVERY_S seconds. Returns the latencies (s), the busy time of
    each op (call and check), op start clocks, op names, failures and wall
    time."""
    out = types.SimpleNamespace(lat=[], busy=[], start=[], names=[], failed=0, failures=[])
    cycles = [ops] if deadline is None else ops
    begin = time.perf_counter()
    last_ref = None
    run = trace.span("op", lambda op: op.call()) if trace is not None else None
    for cycle in cycles:
        for op in cycle:
            if host is not None and (last_ref is None or time.perf_counter() - last_ref >= REF_EVERY_S):
                host.read()
                last_ref = time.perf_counter()
            t = time.perf_counter()
            try:
                if trace is not None:
                    trace.op_id += 1
                    result = run(op)
                else:
                    result = op.call()
                error = None
            except Exception as exc:  # a raising op is a failed op
                result, error = None, exc
            out.lat.append(time.perf_counter() - t)
            out.start.append(t)
            out.names.append(op.name)
            ok = False
            if error is None:
                if trace is not None:
                    trace.off = True
                try:
                    ok = bool(op.check(result))
                except Exception as exc:
                    error = exc
                if trace is not None:
                    trace.off = False
            out.busy.append(time.perf_counter() - t)
            if not ok:
                out.failed += 1
                if len(out.failures) < 10:
                    out.failures.append(
                        {"op": op.name, "index": len(out.lat) - 1, "error": repr(error)}
                    )
        if deadline is not None and time.perf_counter() >= deadline and len(out.lat) >= min_ops:
            break
    if host is not None:
        host.read()
    out.wall = time.perf_counter() - begin
    return out


class HostMeter:
    """Readings of how fast the host runs Python, taken between ops.

    A reading times two halves of about equal length: one pass over
    REF_DICTS small dicts of Fractions (about 3.4 MB, in a fixed shuffled
    order, so that it waits on memory the way the library's dict traffic
    does) and REF_FRACTIONS exact additions (the library's arithmetic). A
    busy host slows the two by different amounts, and ops lean on them to
    different degrees. A reading calls nothing in confalg, and the garbage
    collector is off meanwhile (the data itself is frozen out of it), so
    that no change to the library can move a reading."""

    def __init__(self):
        self.data = [{(i, j): Fraction(i, j + 1) for j in range(8)} for i in range(REF_DICTS)]
        random.Random(0).shuffle(self.data)
        gc.freeze()
        self.readings = []  # (clock, ms)

    def read(self):
        gc.disable()
        t = time.perf_counter()
        total = 0
        for d in self.data:
            for k, v in d.items():
                total += k[0] + v.numerator
        acc = Fraction(0)
        for i in range(1, REF_FRACTIONS):
            acc += Fraction(1, i % 97 + 1)
        ms = (time.perf_counter() - t) * 1e3
        gc.enable()
        self.readings.append((t, ms))

    def scales(self, starts):
        """For each clock in starts (ascending), REF_NOMINAL_MS over the
        median reading within SMOOTH_S seconds of it, or over the nearest
        reading if none is that close."""
        clocks = [c for c, _ in self.readings]
        out = []
        lo = hi = 0
        for t in starts:
            while lo < len(clocks) and clocks[lo] < t - SMOOTH_S:
                lo += 1
            while hi < len(clocks) and clocks[hi] <= t + SMOOTH_S:
                hi += 1
            near = [ms for _, ms in self.readings[lo:hi]]
            if not near:
                near = [min(self.readings, key=lambda r: abs(r[0] - t))[1]]
            out.append(REF_NOMINAL_MS / statistics.median(near))
        return out


def by_op(lat, names):
    """Count and median latency of each op name, for the run record."""
    groups = {}
    for x, name in zip(lat, names):
        groups.setdefault(name, []).append(x)
    return {
        name: {"count": len(xs), "median_ms": statistics.median(xs) * 1e3}
        for name, xs in sorted(groups.items())
    }


def fixed_ops(wl, seed, count):
    out = []
    for cycle in wl.cycles(seed):
        out.extend(cycle)
        if len(out) >= count:
            return out[:count]


def commit_id():
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced_run(name, seed, seconds):
    host = HostMeter()
    setups = []
    setup_starts = []
    for i in range(SETUPS):
        # the first set-up counts from interpreter start, before confalg
        # is imported; the others import it afresh
        t0 = _T_START if i == 0 else time.perf_counter()
        wl, warm, took = set_up(name, t0)
        setups.append(took)
        setup_starts.append(t0)
        for _ in range(3):
            host.read()
    tracer.assert_clean()
    p = run_ops(wl.cycles(seed), time.perf_counter() + seconds, MIN_OPS, host=host)
    if threading.active_count() != 1:
        raise RuntimeError("threads besides the main one: the host readings assume none")
    n = len(p.lat)
    scales = host.scales(p.start)
    lat = [x * k for x, k in zip(p.lat, scales)]
    busy = [x * k for x, k in zip(p.busy, scales)]
    setup_scaled = [x * k for x, k in zip(setups, host.scales(setup_starts))]
    p90 = hd_quantile(lat, 0.9)
    values = {
        "ops_per_s": n / sum(busy),
        "op_p50_ms": hd_quantile(lat, 0.5) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": peak_rss_mb(),
    }
    samples = {
        "ops_per_s": n,
        "op_p50_ms": n,
        "op_p90_ms": n,
        "setup_s": len(setups),
        "peak_rss_mb": 1,
    }
    raw = {
        "ops_per_s": n / sum(p.busy),
        "op_p50_ms": hd_quantile(p.lat, 0.5) * 1e3,
        "op_p90_ms": hd_quantile(p.lat, 0.9) * 1e3,
        "setup_s": statistics.median(setups),
    }
    record = {
        "ops_beyond_p90": sum(1 for x in lat if x > p90),
        "unscaled": raw,
        "host_ms": [round(ms, 4) for _, ms in host.readings],
        "host_clock_s": [round(c - _T_START, 4) for c, _ in host.readings],
        "op_start_s": [round(c - _T_START, 4) for c in p.start],
        "setup_runs_s": setups,
        "wall_s": p.wall,
        "by_op": by_op(p.lat, p.names),
        "latencies_ms": [round(x * 1e3, 3) for x in p.lat],
        "op_names": p.names,
        "scales": [round(k, 4) for k in scales],
    }
    # the last set-up's warm-up ops are checked and counted too
    return types.SimpleNamespace(
        passes=(warm, p),
        metrics={k: {"value": values[k], "unit": u} for k, u in END_TO_END},
        samples=samples,
        record=record,
        tracer=None,
    )


def traced_run(name, seed, count):
    wl, warm0, _ = set_up(name, time.perf_counter())
    tracer.assert_clean()
    plain = run_ops(fixed_ops(wl, seed, count))
    # a fresh set-up, traced too, so the traced pass starts from the same state
    tr = tracer.Tracer()
    wl, warm1, _ = set_up(name, time.perf_counter(), trace=tr)
    traced = run_ops(fixed_ops(wl, seed, count), trace=tr)
    values = tr.layer_values()
    values["trace.untraced_ops_per_s"] = count / plain.wall
    values["trace.traced_ops_per_s"] = count / traced.wall
    values["trace.overhead_ratio"] = traced.wall / plain.wall
    metrics = {
        k: {"value": values.get(k, 0), "unit": u} for k, u, _ in tracer.LAYER_METRICS
    }
    record = {
        "trace_ops": count,
        "spans": len(tr.sp_id),
        "by_op": by_op(traced.lat, traced.names),
        "layers": {k: values[k] for k in sorted(values)},
    }
    return types.SimpleNamespace(
        passes=(warm0, plain, warm1, traced),
        metrics=metrics,
        samples={k: count for k in metrics},
        record=record,
        tracer=tr,
    )


def main(argv=None):
    ap = argparse.ArgumentParser(description="confalg benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--trace-ops",
        type=int,
        default=None,
        help="length of the fixed op list of a traced run (default per workload)",
    )
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "confalg")) or not os.path.isdir(workloads.SPECS):
        print("error: %s holds no src/confalg or no specs/" % ROOT, file=sys.stderr)
        return 2
    if args.trace:
        count = args.trace_ops or TRACE_OPS[args.workload]
        out = traced_run(args.workload, args.seed, count)
    else:
        out = untraced_run(args.workload, args.seed, args.seconds)
    attempted = sum(len(p.lat) for p in out.passes)
    failed = sum(p.failed for p in out.passes)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        why = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}[args.workload]
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        predictions = json.load(fh)["predictions"][args.workload]
    record = {
        "workload": args.workload,
        "why": why,
        "predictions": predictions,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "commit": commit_id(),
        "nproc": os.cpu_count(),
        "ops": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": [f for p in out.passes for f in p.failures],
        "metrics": {k: dict(v, samples=out.samples[k]) for k, v in out.metrics.items()},
    }
    if not args.trace:
        record["metrics"]["error_rate"] = {
            "value": failed / attempted,
            "unit": "ratio",
            "samples": attempted,
        }
    record.update(out.record)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if out.tracer is not None:
        out.tracer.write_spans(stem + ".spans.tsv")
    print(json.dumps({"run": record}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out.metrics,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
