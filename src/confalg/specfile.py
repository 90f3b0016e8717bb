"""Load structure descriptions from JSON and validate them on the way in.

A description names a carrier, a derivation, a construction, and optional
named elements, generators, and ideal generators. Loading refuses anything
it cannot verify: an `ad` derivation must be locally nilpotent, a `table`
derivation must also satisfy Leibniz where it is defined, subalgebra spans
must be closed, and every name must resolve. Errors carry the best position
available: exact line and column for syntax errors, the key's first
occurrence for semantic ones.
"""

import json

from .algebra import (
    MAX_DEGREE,
    AlgebraError,
    Derivation,
    DirectSum,
    MatrixAlgebra,
    MatrixPolyAlgebra,
    Subalgebra,
)
from .conformal import ConformalAlgebra

# Most basis keys a table derivation may cover. Its Leibniz check multiplies
# every pair of covered keys, so the work grows with the square of this count;
# the count is refused before that check starts.
MAX_TABLE_KEYS = 256

_TOP_KEYS = {
    "name",
    "description",
    "base",
    "derivation",
    "construction",
    "elements",
    "base_elements",
    "generators",
    "ideals",
}


class SpecError(Exception):
    def __init__(self, message, path=None, line=None, col=None, invariant=None):
        self.path = path
        self.line = line
        self.col = col
        self.invariant = invariant
        where = []
        if path:
            where.append("at %s" % path)
        if line is not None:
            where.append("line %d" % line)
        if col is not None:
            where.append("column %d" % col)
        if where:
            message = "%s (%s)" % (message, ", ".join(where))
        super().__init__(message)


def _position(text, pos):
    """Line and column of an offset into the text, or None, None for -1."""
    if pos < 0:
        return None, None
    line = text.count("\n", 0, pos) + 1
    col = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return line, col


def _locate(text, token):
    """Line and column of the first occurrence of a quoted key."""
    if text is None or token is None:
        return None, None
    return _position(text, text.find('"%s"' % token))


class _Ctx:
    def __init__(self, text):
        self.text = text

    def fail(self, message, path=None, token=None, invariant=None):
        line, col = _locate(self.text, token)
        raise SpecError(message, path=path, line=line, col=col, invariant=invariant)


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _want(node, path, ctx, kind=dict):
    if not isinstance(node, kind):
        ctx.fail("expected %s" % kind.__name__, path=path)
    return node


def _build_base(node, path, ctx, allow_sub=True):
    _want(node, path, ctx)
    kind = node.get("kind")
    # Q and Q[x] are the 1x1 matrices over Q and over Q[x]
    if kind == "scalar":
        return MatrixAlgebra(1)
    if kind == "poly":
        return MatrixPolyAlgebra(1)
    if kind in ("matrix", "matrix_poly"):
        n = node.get("n")
        if not _is_int(n):
            ctx.fail("%s needs an integer n" % kind, path=path + ".n", token="n")
        try:
            return MatrixAlgebra(n) if kind == "matrix" else MatrixPolyAlgebra(n)
        except AlgebraError as exc:
            ctx.fail(str(exc), path=path + ".n", token="n")
    if kind == "direct_sum":
        summands = node.get("summands")
        if not isinstance(summands, list) or not summands:
            ctx.fail("direct_sum needs a summand list", path=path + ".summands", token="summands")
        return DirectSum(
            [
                _build_base(s, "%s.summands[%d]" % (path, i), ctx, allow_sub=False)
                for i, s in enumerate(summands)
            ]
        )
    if kind == "subalgebra":
        if not allow_sub:
            ctx.fail("subalgebra cannot nest here", path=path)
        parent = _build_base(
            node.get("parent", {}), path + ".parent", ctx, allow_sub=False
        )
        spanning_node = node.get("spanning")
        if not isinstance(spanning_node, list) or not spanning_node:
            ctx.fail("subalgebra needs a spanning list", path=path + ".spanning", token="spanning")
        spanning = []
        for i, m in enumerate(spanning_node):
            spanning.append(
                _parse_base_element(parent, m, "%s.spanning[%d]" % (path, i), ctx)
            )
        degree = node.get("degree", 4)
        if not _is_int(degree) or degree < 0:
            ctx.fail("degree must be a nonnegative integer", path=path + ".degree", token="degree")
        unital = node.get("unital", False)
        if not isinstance(unital, bool):
            ctx.fail("unital must be true or false", path=path + ".unital", token="unital")
        try:
            sub = Subalgebra(parent, spanning, unital=unital, degree=degree)
            sub.check_closure()
        except AlgebraError as exc:
            ctx.fail(str(exc), path=path + ".spanning", token="spanning", invariant="closure")
        return sub
    ctx.fail("unknown base kind %r" % kind, path=path + ".kind", token="kind")


def _parse_base_element(alg, mapping, path, ctx):
    _want(mapping, path, ctx)
    try:
        return alg.parse_element(mapping)
    except (AlgebraError, ValueError, TypeError, ZeroDivisionError) as exc:
        ctx.fail(str(exc), path=path)


def _parse_celement(conf, mapping, path, ctx):
    _want(mapping, path, ctx)
    for polymap in mapping.values():
        for k in polymap if isinstance(polymap, dict) else ():
            try:
                power = int(k)
            except ValueError:
                continue  # from_map reports the malformed key
            if power > MAX_DEGREE:
                ctx.fail("D-powers must be at most %d" % MAX_DEGREE, path=path, token=k)
    try:
        return conf.from_map(mapping)
    except (AlgebraError, ValueError, TypeError, ZeroDivisionError) as exc:
        ctx.fail(str(exc), path=path)


def _build_derivation(node, alg, path, ctx):
    if node is None:
        return Derivation.zero(alg)
    _want(node, path, ctx)
    kind = node.get("kind")
    try:
        if kind == "zero":
            return Derivation.zero(alg)
        if kind == "ddx":
            return Derivation.ddx(alg)
        if kind == "ad":
            r = _parse_base_element(alg, node.get("r", {}), path + ".r", ctx)
            return Derivation.ad(r)
        if kind == "table":
            degree = node.get("degree")
            if not _is_int(degree):
                ctx.fail("table derivation needs a degree", path=path + ".degree", token="degree")
            if not 0 <= degree <= MAX_DEGREE:
                ctx.fail(
                    "table derivation degree must be nonnegative and at most %d" % MAX_DEGREE,
                    path=path + ".degree",
                    token="degree",
                )
            images_node = _want(node.get("images", {}), path + ".images", ctx)
            images = {}
            for name, m in images_node.items():
                try:
                    key = alg.parse_key(name)
                except AlgebraError as exc:
                    ctx.fail(str(exc), path="%s.images.%s" % (path, name), token=name)
                images[key] = _parse_base_element(alg, m, "%s.images.%s" % (path, name), ctx)
            if len(images) > MAX_TABLE_KEYS:
                ctx.fail(
                    "table derivation covers %d keys, at most %d"
                    % (len(images), MAX_TABLE_KEYS),
                    path=path + ".images",
                    token="images",
                )
            for key in alg.basis_upto(degree):
                if key not in images:
                    ctx.fail(
                        "table derivation misses basis symbol %s" % alg.key_name(key),
                        path=path + ".images",
                        token="images",
                    )
            return Derivation.table(alg, images)
    except AlgebraError as exc:
        ctx.fail(str(exc), path=path)
    ctx.fail("unknown derivation kind %r" % kind, path=path + ".kind", token="kind")


class SpecData:
    """Everything a description defines, built and validated."""

    __slots__ = (
        "name",
        "conformal",
        "carrier",
        "sub",
        "elements",
        "base_elements",
        "generators",
        "ideals",
    )

    def __init__(self, **kw):
        for slot in self.__slots__:
            setattr(self, slot, kw[slot])


def load_spec(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError("cannot read %s: %s" % (path, exc))
    return load_spec_text(text)


def load_spec_text(text):
    ctx = _Ctx(text)

    def parse_int(literal):
        # int() refuses a literal longer than the interpreter's digit limit
        try:
            return int(literal)
        except ValueError as exc:
            line, col = _position(text, text.find(literal))
            raise SpecError("invalid JSON: %s" % exc, line=line, col=col)

    try:
        doc = json.loads(text, parse_int=parse_int)
    except json.JSONDecodeError as exc:
        raise SpecError("invalid JSON: %s" % exc.msg, line=exc.lineno, col=exc.colno)
    except RecursionError:
        raise SpecError("invalid JSON: nested deeper than the parser allows", path="$")
    _want(doc, "$", ctx)
    for key in doc:
        if key not in _TOP_KEYS:
            ctx.fail("unknown top-level key %r" % key, path="$.%s" % key, token=key)

    if "base" not in doc:
        ctx.fail("missing base", path="$.base")
    base = _build_base(doc["base"], "$.base", ctx)
    sub = base if isinstance(base, Subalgebra) else None
    carrier = base.parent if sub is not None else base

    der = _build_derivation(doc.get("derivation"), carrier, "$.derivation", ctx)
    construction = doc.get("construction")
    if construction is None:
        construction = "current" if der.kind == "zero" else "differential"
    if construction == "cend" and der.kind not in ("zero", "ddx"):
        ctx.fail("cend fixes its own derivation", path="$.derivation", token="derivation")
    try:
        der.validate()
    except AlgebraError as exc:
        ctx.fail(str(exc), path="$.derivation", token="derivation", invariant="derivation")

    if construction == "current":
        if der.kind != "zero":
            ctx.fail(
                "current construction cannot carry a nonzero derivation",
                path="$.construction",
                token="construction",
            )
    elif construction == "cend":
        if carrier.kind != "matrix_poly":
            ctx.fail(
                "cend needs a matrix_poly carrier", path="$.base.kind", token="kind"
            )
        if der.kind == "zero":
            der = Derivation.ddx(carrier)
    elif construction != "differential":
        ctx.fail(
            "unknown construction %r" % construction,
            path="$.construction",
            token="construction",
        )
    conf = ConformalAlgebra(carrier, der)

    base_elements = {}
    for name, m in _want(doc.get("base_elements", {}), "$.base_elements", ctx).items():
        base_elements[name] = _parse_base_element(
            carrier, m, "$.base_elements.%s" % name, ctx
        )

    elements = {}
    for name, m in _want(doc.get("elements", {}), "$.elements", ctx).items():
        elements[name] = _parse_celement(conf, m, "$.elements.%s" % name, ctx)

    generators = []
    gen_node = doc.get("generators", [])
    if not isinstance(gen_node, list):
        ctx.fail("generators must be a list", path="$.generators", token="generators")
    for i, name in enumerate(gen_node):
        if not isinstance(name, str):
            ctx.fail("generator names must be strings", path="$.generators[%d]" % i)
        if name in elements:
            generators.append((name, elements[name]))
            continue
        try:
            generators.append((name, conf.named_element(name)))
        except AlgebraError as exc:
            ctx.fail(
                "unresolvable generator %r: %s" % (name, exc),
                path="$.generators[%d]" % i,
                token=name,
            )

    ideals = {}
    for iname, gen_list in _want(doc.get("ideals", {}), "$.ideals", ctx).items():
        if not isinstance(gen_list, list) or not gen_list:
            ctx.fail("ideal %r needs a generator list" % iname, path="$.ideals.%s" % iname, token=iname)
        gens = []
        for i, entry in enumerate(gen_list):
            if isinstance(entry, str):
                if entry not in base_elements:
                    ctx.fail(
                        "unknown base element %r" % entry,
                        path="$.ideals.%s[%d]" % (iname, i),
                        token=entry,
                    )
                gens.append(base_elements[entry])
            else:
                gens.append(
                    _parse_base_element(carrier, entry, "$.ideals.%s[%d]" % (iname, i), ctx)
                )
        ideals[iname] = gens

    return SpecData(
        name=doc.get("name"),
        conformal=conf,
        carrier=carrier,
        sub=sub,
        elements=elements,
        base_elements=base_elements,
        generators=generators,
        ideals=ideals,
    )


__all__ = ["MAX_DEGREE", "MAX_TABLE_KEYS", "SpecError", "SpecData", "load_spec", "load_spec_text"]
