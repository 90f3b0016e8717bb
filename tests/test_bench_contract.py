"""The benchmark's tracer wraps library functions by name from outside the
package; every name it lists must still resolve the way it looks them up."""

import importlib
import importlib.util
import os

import pytest

TRACER = os.path.join(os.path.dirname(__file__), "..", "bench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracer = load_tracer()


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
