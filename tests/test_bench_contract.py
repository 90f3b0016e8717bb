"""The benchmark drives the library from outside the package: its tracer
wraps functions by name, and its workloads call the public API. Every name
the tracer lists must still resolve the way it looks them up, and every
workload must set up and pass its warm-up ops and first cycle."""

import importlib
import importlib.util
import os
import types

import pytest

BENCH = os.path.join(os.path.dirname(__file__), "..", "bench")


def load_bench(name):
    spec = importlib.util.spec_from_file_location("bench_" + name, os.path.join(BENCH, name + ".py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracer = load_bench("tracer")
run = load_bench("run")


@pytest.mark.parametrize(
    "module,path",
    [(module, path) for _, module, path in tracer.SPANS + tracer.COUNTED],
    ids=lambda v: v,
)
def test_traced_name_resolves(module, path):
    owner = importlib.import_module("confalg." + module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = vars(owner)[name]
    assert callable(vars(owner)[attr])


@pytest.mark.parametrize("workload", sorted(run.workloads.WORKLOADS))
def test_workload_ops_pass_their_checks(workload):
    # the namespace run.py builds, from the modules already imported: a
    # fresh import would split the classes the other tests hold
    mods = types.SimpleNamespace(
        **{name: importlib.import_module("confalg." + name) for name in run.MODULES}
    )
    wl = run.workloads.WORKLOADS[workload]()
    wl.setup(mods)
    for ops in (wl.warmup(), next(wl.cycles(1))):
        out = run.run_ops(ops)
        assert out.failed == 0, out.failures
