"""Spans and counters recorded from outside the library.

The tracer replaces public functions and methods of the confalg modules
with wrappers that time each call. A module-level function is replaced in
every confalg module that bound it by name (structure.py imports rref,
growth.py imports bareiss_rank, cli.py imports most entry points), so a
call is caught however it is looked up. Spans carry their op id and their
parent span; they are kept in flat arrays and written out when the run
ends. Self time is a span's duration minus the time its child spans cover.
"""

import sys
import time
from array import array

# (metric name, module, attribute path): a span around every call
SPANS = [
    ("rings.Poly.mul", "rings", "Poly.__mul__"),
    ("rings.Poly.divmod", "rings", "Poly.__divmod__"),
    ("rings.RatFunc.init", "rings", "RatFunc.__init__"),
    ("algebra.Element.mul", "algebra", "Element.mul"),
    ("algebra.Derivation.apply", "algebra", "Derivation.apply"),
    ("algebra.Derivation.validate", "algebra", "Derivation.validate"),
    ("algebra.Subalgebra.check_closure", "algebra", "Subalgebra.check_closure"),
    ("algebra.OreElement.mul", "algebra", "OreElement.mul"),
    ("conformal.ConformalAlgebra.nprod", "conformal", "ConformalAlgebra.nprod"),
    ("conformal.check_axioms", "conformal", "check_axioms"),
    ("oracle.to_distribution", "oracle", "to_distribution"),
    ("oracle.dist_nprod", "oracle", "dist_nprod"),
    ("oracle.oracle_check", "oracle", "oracle_check"),
    ("oracle.coeff_assoc_check", "oracle", "coeff_assoc_check"),
    ("constructions.SpanReducer.add", "constructions", "SpanReducer.add"),
    ("constructions.generate_closure", "constructions", "generate_closure"),
    ("constructions.product_table", "constructions", "product_table"),
    ("linalg.rref", "linalg", "rref"),
    ("linalg.solve_right", "linalg", "solve_right"),
    ("linalg.bareiss_rank", "linalg", "bareiss_rank"),
    ("linalg.pol_constant_intersection", "linalg", "pol_constant_intersection"),
    ("growth.gk_profile", "growth", "gk_profile"),
    ("structure.ideal_lift", "structure", "ideal_lift"),
    ("structure.ideal_restrict", "structure", "ideal_restrict"),
    ("structure.is_current", "structure", "is_current"),
    ("structure.nilpotency_check", "structure", "nilpotency_check"),
    ("structure.unital_split", "structure", "unital_split"),
    ("structure.untwist", "structure", "untwist"),
    ("specfile.load_spec", "specfile", "load_spec"),
    ("cli.main", "cli", "main"),
]

# (metric name, module, attribute path): calls counted, no span, because
# these run too often for a span to stay cheap
COUNTED = [
    ("algebra.Element.init", "algebra", "Element.__init__"),
    ("conformal.ConformalAlgebra.basis_nprod", "conformal", "ConformalAlgebra.basis_nprod"),
]

# the per-layer metrics a traced run prints, with unit and direction
LAYER_METRICS = [
    ("rings.Poly.mul.calls", "count", "lower"),
    ("rings.Poly.mul.self_s", "s", "lower"),
    ("rings.Poly.divmod.calls", "count", "lower"),
    ("rings.Poly.divmod.self_s", "s", "lower"),
    ("rings.RatFunc.init.calls", "count", "lower"),
    ("rings.RatFunc.init.self_s", "s", "lower"),
    ("algebra.Element.init.calls", "count", "lower"),
    ("algebra.Element.mul.calls", "count", "lower"),
    ("algebra.Element.mul.self_s", "s", "lower"),
    ("algebra.Derivation.apply.calls", "count", "lower"),
    ("algebra.Derivation.apply.self_s", "s", "lower"),
    ("algebra.OreElement.mul.calls", "count", "lower"),
    ("algebra.OreElement.mul.self_s", "s", "lower"),
    ("algebra.OreElement.mul.monomial_products", "count", "lower"),
    ("algebra.OreElement.mul.monomial_distinct", "count", "lower"),
    ("algebra.Derivation.validate.self_s", "s", "lower"),
    ("algebra.Subalgebra.check_closure.self_s", "s", "lower"),
    ("conformal.ConformalAlgebra.nprod.calls", "count", "lower"),
    ("conformal.ConformalAlgebra.nprod.self_s", "s", "lower"),
    ("conformal.ConformalAlgebra.basis_nprod.calls", "count", "lower"),
    ("conformal.ConformalAlgebra.basis_nprod.distinct", "count", "lower"),
    ("conformal.check_axioms.self_s", "s", "lower"),
    ("oracle.to_distribution.calls", "count", "lower"),
    ("oracle.to_distribution.self_s", "s", "lower"),
    ("oracle.dist_nprod.calls", "count", "lower"),
    ("oracle.dist_nprod.self_s", "s", "lower"),
    ("oracle.oracle_check.self_s", "s", "lower"),
    ("oracle.coeff_assoc_check.self_s", "s", "lower"),
    ("constructions.SpanReducer.add.calls", "count", "lower"),
    ("constructions.SpanReducer.add.self_s", "s", "lower"),
    ("constructions.SpanReducer.add.useful_ratio", "ratio", "higher"),
    ("constructions.generate_closure.self_s", "s", "lower"),
    ("constructions.product_table.self_s", "s", "lower"),
    ("linalg.rref.calls", "count", "lower"),
    ("linalg.rref.self_s", "s", "lower"),
    ("linalg.solve_right.calls", "count", "lower"),
    ("linalg.solve_right.self_s", "s", "lower"),
    ("linalg.bareiss_rank.calls", "count", "lower"),
    ("linalg.bareiss_rank.self_s", "s", "lower"),
    ("linalg.pol_constant_intersection.calls", "count", "lower"),
    ("linalg.pol_constant_intersection.self_s", "s", "lower"),
    ("growth.gk_profile.self_s", "s", "lower"),
    ("structure.ideal_lift.self_s", "s", "lower"),
    ("structure.ideal_restrict.self_s", "s", "lower"),
    ("structure.is_current.self_s", "s", "lower"),
    ("structure.nilpotency_check.self_s", "s", "lower"),
    ("structure.unital_split.self_s", "s", "lower"),
    ("structure.untwist.self_s", "s", "lower"),
    ("specfile.load_spec.calls", "count", "lower"),
    ("specfile.load_spec.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.traced_ops_per_s", "1/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

MARK = "_bench_traced"


def _resolve(mods, module, path):
    owner = getattr(mods, module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


def loaded_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "confalg" or n.startswith("confalg.")]


def assert_clean():
    """Raise unless no confalg function or method carries a tracer wrapper."""
    for mod in loaded_modules():
        for name, val in vars(mod).items():
            if getattr(val, MARK, False):
                raise RuntimeError("tracer wrapper left on %s.%s" % (mod.__name__, name))
            if isinstance(val, type):
                for attr, fn in vars(val).items():
                    if getattr(fn, MARK, False):
                        raise RuntimeError(
                            "tracer wrapper left on %s.%s.%s" % (mod.__name__, name, attr)
                        )


class Tracer:
    def __init__(self):
        self.names = []
        self.calls = []
        self.self_s = []
        self.counts = {}
        # -1 while setting up; run_ops numbers the ops from 0
        self.op_id = -1
        self.off = False
        self._stack = []
        self._next_id = 0
        self._t0 = time.perf_counter()
        # one row per span: id, parent id (-1 for none), op id, name index,
        # start (s since tracer creation), duration, self time
        self.sp_id = array("q")
        self.sp_parent = array("q")
        self.sp_op = array("q")
        self.sp_name = array("q")
        self.sp_start = array("d")
        self.sp_dur = array("d")
        self.sp_self = array("d")
        self._scope = {}
        self.monomial_products = 0
        self.monomial_keys = set()
        self.basis_keys = set()
        self.span_add_true = 0

    def _index(self, name):
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def _scope_of(self, obj):
        """Descriptor of the structure obj belongs to, memoised by identity;
        obj is kept alive so that its id is never reused during the run."""
        got = self._scope.get(id(obj))
        if got is None:
            got = (obj, obj.descriptor())
            self._scope[id(obj)] = got
        return got[1]

    def span(self, name, fn, probe=None, post=None):
        """Wrap fn so that each call records a span. probe(args) runs before
        the span starts and post(result) after it ends; neither is charged
        to any span."""
        idx = self._index(name)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.off:
                return fn(*args, **kwargs)
            if probe is not None:
                p0 = clock()
                probe(args)
                if stack:
                    stack[-1][1] += clock() - p0
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][2] if stack else -1
            frame = [clock(), 0.0, sid]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                own = dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                tracer.calls[idx] += 1
                tracer.self_s[idx] += own
                tracer.sp_id.append(sid)
                tracer.sp_parent.append(parent)
                tracer.sp_op.append(tracer.op_id)
                tracer.sp_name.append(idx)
                tracer.sp_start.append(frame[0] - tracer._t0)
                tracer.sp_dur.append(dur)
                tracer.sp_self.append(own)
            if post is not None:
                post(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        setattr(wrapper, MARK, True)
        return wrapper

    def counter(self, name, fn, key=None):
        counts = self.counts
        counts[name] = 0
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.off:
                counts[name] += 1
                if key is not None:
                    key(args)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        setattr(wrapper, MARK, True)
        return wrapper

    # exact reuse counts, computed from call arguments

    def _ore_probe(self, args):
        x, y = args[0], args[1]
        scope = self._scope_of(x.der)
        keys = self.monomial_keys
        for p, a in x.items.items():
            for b in y.items.values():
                self.monomial_products += len(a.items) * len(b.items)
                for k1 in a.items:
                    for k2 in b.items:
                        keys.add((scope, k1, p, k2))

    def _basis_key(self, args):
        conf, k1, k2, m = args[0], args[1], args[2], args[3]
        self.basis_keys.add((self._scope_of(conf), k1, k2, m))

    def _span_add_post(self, result):
        if result is True:
            self.span_add_true += 1

    def install(self, mods):
        """Wrap every target in the given module namespace. A function is
        replaced wherever a confalg module bound it by name."""
        extra = {
            "algebra.OreElement.mul": {"probe": self._ore_probe},
            "constructions.SpanReducer.add": {"post": self._span_add_post},
        }
        keys = {"conformal.ConformalAlgebra.basis_nprod": self._basis_key}
        loaded = loaded_modules()
        for table, make in ((SPANS, "span"), (COUNTED, "counter")):
            for name, module, path in table:
                owner, attr = _resolve(mods, module, path)
                orig = vars(owner)[attr]
                if make == "span":
                    wrapped = self.span(name, orig, **extra.get(name, {}))
                else:
                    wrapped = self.counter(name, orig, key=keys.get(name))
                if isinstance(owner, type):
                    setattr(owner, attr, wrapped)
                    continue
                for mod in loaded:
                    for bound, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, bound, wrapped)

    def layer_values(self):
        """Every recorded stat, keyed <module>.<function>.<stat>."""
        out = {}
        for i, name in enumerate(self.names):
            out[name + ".calls"] = self.calls[i]
            out[name + ".self_s"] = self.self_s[i]
        for name, n in self.counts.items():
            out[name + ".calls"] = n
        out["algebra.OreElement.mul.monomial_products"] = self.monomial_products
        out["algebra.OreElement.mul.monomial_distinct"] = len(self.monomial_keys)
        out["conformal.ConformalAlgebra.basis_nprod.distinct"] = len(self.basis_keys)
        adds = out.get("constructions.SpanReducer.add.calls", 0)
        out["constructions.SpanReducer.add.useful_ratio"] = (
            self.span_add_true / adds if adds else 0.0
        )
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\top\tname\tstart_s\tdur_s\tself_s\n")
            for row in zip(
                self.sp_id,
                self.sp_parent,
                self.sp_op,
                self.sp_name,
                self.sp_start,
                self.sp_dur,
                self.sp_self,
            ):
                fh.write(
                    "%d\t%d\t%d\t%s\t%.9f\t%.9f\t%.9f\n"
                    % (row[0], row[1], row[2], self.names[row[3]], row[4], row[5], row[6])
                )
