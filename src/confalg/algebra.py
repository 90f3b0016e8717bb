"""Base associative algebras with exact rational structure constants,
locally nilpotent derivations, and the twisted Laurent ring built on them.

Basis keys are plain hashable tuples, homogeneous per algebra kind, so they
sort deterministically. Subalgebras are views on a parent: their elements
are parent elements and membership is a linear solve.
"""

from math import comb

from .linalg import Echelon
from .rings import frac, inv_factorial

# Largest x-exponent a basis or generator name may carry, and the largest
# D-power, table-derivation degree and CLI --degree accepted. Work grows
# with these (a D-power allocates a coefficient list, a degree window walks
# every basis symbol below it, d/dx takes degree + 1 steps to vanish), so a
# larger value is refused before that work starts. The shipped descriptions
# use at most 8.
MAX_DEGREE = 64

# Largest number of basis symbols in an untwist window (basis_upto of its
# degree). untwist takes the products of every pair of window images, so its
# work grows with the square of this count, and faster still with the
# nilpotency index of the twist. At 36 symbols the slowest untwist measured,
# 6x6 matrices twisted by the sum of all e_ij with i < j at degree 0, takes
# about 0.8 s as a CLI run (0.77-0.84 s over five fresh processes, Python
# 3.11.7, one core of a Xeon host); a larger window is refused before any
# product.
MAX_UNTWIST_KEYS = 36


class AlgebraError(Exception):
    pass


def normal_map(acc):
    """A map of int and Fraction sums in normal form: zero values dropped,
    integral Fractions made ints, order kept."""
    return {k: c if type(c) is int else frac(c) for k, c in acc.items() if c}


def parse_exponent(digits, name):
    """The exponent a decimal digit string in a basis or generator name
    stands for; above MAX_DEGREE it is refused before int() reads a long
    string."""
    if len(digits) > len(str(MAX_DEGREE)) or int(digits) > MAX_DEGREE:
        raise AlgebraError("exponent in %r must be at most %d" % (name, MAX_DEGREE))
    return int(digits)


def power_name(k):
    """The Q[x] name of x^k: 1, x or x^k."""
    if k == 0:
        return "1"
    if k == 1:
        return "x"
    return "x^%d" % k


def parse_power(name):
    """The exponent k of a Q[x] name 1, x or x^k, or None."""
    if name == "1":
        return 0
    if name == "x":
        return 1
    if name.startswith("x^") and name[2:].isdecimal():
        return parse_exponent(name[2:], name)
    return None


def parse_unit(name, n):
    """The 1-based (i, j) of a matrix unit name eij of an n x n matrix, or
    None."""
    if len(name) == 3 and name[0] == "e" and name[1:].isdecimal():
        i, j = int(name[1]), int(name[2])
        if 1 <= i <= n and 1 <= j <= n:
            return (i, j)
    return None


class BaseAlgebra:
    """A unital carrier: the n x n matrices over Q or over Q[x], or a direct
    sum of these. The ground field Q and Q[x] are the 1 x 1 cases."""

    kind = None

    def descriptor(self):
        raise NotImplementedError

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, BaseAlgebra) and self.descriptor() == other.descriptor()

    def __hash__(self):
        return hash(self.descriptor())

    def key_degree(self, key):
        """The x-degree of a basis key. Every carrier is graded by it: a
        product key key_product(k1, k2) has degree at least key_degree(k1) +
        key_degree(k2). This is exact on matrix_poly, every key of matrix
        has degree 0, and a direct sum inherits it from its summands. So a
        product's low_degree is at least the sum of its factors', and a
        product whose factors' low degrees sum past a window cannot land in
        it."""
        raise NotImplementedError

    def basis_upto(self, degree):
        """Every basis key of key_degree at most degree, each once."""
        raise NotImplementedError

    def key_product(self, k1, k2):
        """The product of two basis keys: one key, with coefficient 1, or
        None for 0. Every carrier is monomial with unit coefficients: matrix
        units multiply to a unit or 0, powers of x to a power, and a direct
        sum's summands to 0 across. Together with associativity, the
        grading (key_degree) and basis_upto holding every key of its window,
        this lets ideal_lift prove a slice two-sided without checking its
        products."""
        raise NotImplementedError

    def mul_items(self, left, right):
        """The product of two key -> coefficient maps in normal form: no
        zero value, integral values as ints, keys in the order their first
        term is built (left's keys outer, right's inner). Every carrier
        product goes through it; a caller that reads a product only as a
        map calls it on Element.items and builds no Element."""
        key_product = self.key_product
        out = {}
        for k1, c1 in left.items():
            for k2, c2 in right.items():
                k = key_product(k1, k2)
                if k is not None:
                    out[k] = out.get(k, 0) + c1 * c2
        return normal_map(out) if out else out

    def commutator_items(self, left, right):
        """[left, right] = left right - right left on item maps, in normal
        form, keys in the order Element.sub gives."""
        out = self.mul_items(left, right)
        for k, c in self.mul_items(right, left).items():
            out[k] = out.get(k, 0) - c
        return normal_map(out)

    def key_name(self, key):
        raise NotImplementedError

    def parse_key(self, name):
        raise NotImplementedError

    def supports_ddx(self):
        return False

    def ddx_key(self, key):
        raise AlgebraError("ddx is not defined on kind %r" % self.kind)

    def shift_key(self, key, k):
        raise AlgebraError("no polynomial variable on kind %r" % self.kind)

    def zero(self):
        return Element(self, {})

    def basis_element(self, key):
        return Element(self, {key: 1})

    def parse_element(self, mapping):
        return Element(self, {self.parse_key(k): frac(v) for k, v in mapping.items()})


class MatrixAlgebra(BaseAlgebra):
    """n x n matrices; basis key (i, j) is the matrix unit e_ij, 1-based.
    For n = 1 this is Q: its one key (1, 1) is named 1, and e11 parses too."""

    kind = "matrix"

    def __init__(self, n):
        if not 1 <= n <= 9:
            raise AlgebraError("matrix size must be between 1 and 9")
        self.n = n

    def descriptor(self):
        return ("matrix", self.n)

    def key_degree(self, key):
        return 0

    def basis_upto(self, degree):
        if degree < 0:
            return []
        return [(i, j) for i in range(1, self.n + 1) for j in range(1, self.n + 1)]

    def key_product(self, k1, k2):
        return (k1[0], k2[1]) if k1[1] == k2[0] else None

    def key_name(self, key):
        return "1" if self.n == 1 else "e%d%d" % key

    def parse_key(self, name):
        unit = (1, 1) if self.n == 1 and name == "1" else parse_unit(name, self.n)
        if unit is None:
            raise AlgebraError("unknown matrix basis name %r" % name)
        return unit

    def one(self):
        return Element(self, {(i, i): 1 for i in range(1, self.n + 1)})


class MatrixPolyAlgebra(BaseAlgebra):
    """n x n matrices over Q[x]; basis key (k, i, j) is x^k e_ij. For n = 1
    this is Q[x]: key (k, 1, 1) is named 1, x or x^k, and x^k*e11 parses
    too."""

    kind = "matrix_poly"

    def __init__(self, n):
        if not 1 <= n <= 9:
            raise AlgebraError("matrix size must be between 1 and 9")
        self.n = n

    def descriptor(self):
        return ("matrix_poly", self.n)

    def key_degree(self, key):
        return key[0]

    def basis_upto(self, degree):
        return [
            (k, i, j)
            for k in range(degree + 1)
            for i in range(1, self.n + 1)
            for j in range(1, self.n + 1)
        ]

    def key_product(self, k1, k2):
        return (k1[0] + k2[0], k1[1], k2[2]) if k1[2] == k2[1] else None

    def key_name(self, key):
        k, i, j = key
        if self.n == 1:
            return power_name(k)
        unit = "e%d%d" % (i, j)
        return unit if k == 0 else "%s*%s" % (power_name(k), unit)

    def parse_key(self, name):
        if self.n == 1 and "e" not in name:
            k, unit = parse_power(name), (1, 1)
        elif "*" in name:
            power, rest = name.split("*", 1)
            k, unit = parse_power(power), parse_unit(rest, self.n)
        else:
            k, unit = 0, parse_unit(name, self.n)
        if k is None or unit is None:
            raise AlgebraError("unknown matrix_poly basis name %r" % name)
        return (k,) + unit

    def one(self):
        return Element(self, {(0, i, i): 1 for i in range(1, self.n + 1)})

    def supports_ddx(self):
        return True

    def ddx_key(self, key):
        k, i, j = key
        if k == 0:
            return {}
        return {(k - 1, i, j): k}

    def shift_key(self, key, k):
        return (key[0] + k, key[1], key[2])


class DirectSum(BaseAlgebra):
    """Direct sum of base algebras; keys are (summand index, inner key)."""

    kind = "direct_sum"

    def __init__(self, summands):
        if not summands:
            raise AlgebraError("direct sum needs at least one summand")
        self.summands = list(summands)

    def descriptor(self):
        return ("direct_sum", tuple(s.descriptor() for s in self.summands))

    def key_degree(self, key):
        return self.summands[key[0]].key_degree(key[1])

    def basis_upto(self, degree):
        out = []
        for s, sub in enumerate(self.summands):
            out.extend((s, k) for k in sub.basis_upto(degree))
        return out

    def key_product(self, k1, k2):
        if k1[0] != k2[0]:
            return None
        k = self.summands[k1[0]].key_product(k1[1], k2[1])
        return None if k is None else (k1[0], k)

    def key_name(self, key):
        return "%d:%s" % (key[0], self.summands[key[0]].key_name(key[1]))

    def parse_key(self, name):
        if ":" not in name:
            raise AlgebraError("direct sum names look like '0:e11', got %r" % name)
        s, rest = name.split(":", 1)
        if not s.isdecimal() or int(s) >= len(self.summands):
            raise AlgebraError("no summand %s" % s)
        return (int(s), self.summands[int(s)].parse_key(rest))

    def one(self):
        out = {}
        for s, sub in enumerate(self.summands):
            for k, c in sub.one().items.items():
                out[(s, k)] = c
        return Element(self, out)

    def supports_ddx(self):
        return all(s.supports_ddx() for s in self.summands)

    def ddx_key(self, key):
        s = key[0]
        return {(s, k): c for k, c in self.summands[s].ddx_key(key[1]).items()}


def rank_0(alg):
    """Rank of the carrier as a free module over Q[x], or over Q when it has
    no x: the number of its degree-0 basis keys."""
    return len(alg.basis_upto(0))


class Subalgebra:
    """A subalgebra view: spanning elements per degree inside a parent algebra.

    Elements of a subalgebra are parent elements; the view only answers
    membership, degree slices, and the product-closure check.

    A view is read-only once built, so what depends only on it and a degree
    is cached per degree: the echelon of the slice, and the slice with the
    commutators of its spanning elements.
    """

    def __init__(self, parent, spanning, unital=False, degree=4):
        if isinstance(parent, Subalgebra):
            raise AlgebraError("nested subalgebras are not supported")
        self.parent = parent
        self.spanning = sorted(spanning, key=lambda v: v.degree())
        if any(v.is_zero() for v in self.spanning):
            raise AlgebraError("zero vector in subalgebra spanning set")
        if any(v.alg != parent for v in self.spanning):
            raise AlgebraError("spanning element outside the parent algebra")
        self.unital = bool(unital)
        self.degree = degree
        self._ech = {}
        self._comms = {}

    def span_upto(self, degree):
        return [v for v in self.spanning if v.degree() <= degree]

    def commutators(self, degree):
        """Cached (vs, rows): the slice vs = span_upto(degree) and, for each
        v_i, the table row rows[i] mapping every basis key of some [v_j, v_i]
        to the tuple of its nonzero (j, coefficient) pairs, j ascending.
        Each commutator is made once, for one ordering of the pair, and
        [v_i, v_j] = -[v_j, v_i] gives the other; [v, v] = 0 is not made. So
        s spanning elements cost s(s-1) products, on the first call for a
        degree only. The table lives as long as the view, so it is kept
        small: grouped by key, not per pair, with one object per distinct
        key and pair tuple."""
        got = self._comms.get(degree)
        if got is None:
            vs = self.span_upto(degree)
            # entries reach each row with j ascending: row j gets i < j
            # from the earlier passes and j' > j from its own
            rows = [{} for _ in vs]
            commutator = self.parent.commutator_items
            for i, u in enumerate(vs):
                for j in range(i + 1, len(vs)):
                    for key, c in commutator(vs[j].items, u.items).items():
                        rows[i].setdefault(key, []).append((j, c))
                        rows[j].setdefault(key, []).append((i, -c))
            # equal keys and equal pair tuples recur across the rows (all
            # 28 symbols of 2x2 matrices over Q[x] up to degree 6: 490
            # entries, 52 distinct keys, 42 distinct tuples), so the table
            # keeps one object of each
            shared = {}

            def one(x):
                return shared.setdefault(x, x)

            rows = [{one(key): one(tuple(pairs)) for key, pairs in row.items()} for row in rows]
            got = self._comms[degree] = (vs, rows)
        return got

    def _echelon(self, degree):
        """Cached echelon of the degree slice."""
        got = self._ech.get(degree)
        if got is None:
            got = Echelon(w.items for w in self.span_upto(degree))
            self._ech[degree] = got
        return got

    def member(self, v, degree=None):
        """Whether v lies in the span of spanning elements of degree <= bound."""
        if degree is None:
            degree = v.degree()
        return not self._echelon(degree).reduce(v.items)

    def check_closure(self):
        """Products of spanning elements must stay in the declared-degree
        span. A product's keys have degree at least the sum of its factors'
        low degrees (BaseAlgebra.key_degree), so only the pairs whose low
        degrees add up to at most the window can reach it; every such
        product of degree inside the window must lie in the span."""
        if self.unital and not self.member(self.parent.one(), self.degree):
            raise AlgebraError("subalgebra marked unital but 1 is not in the span")
        # partners sorted by low degree, so each u's partners that can reach
        # the window are a prefix of them
        by_low = sorted(((w.low_degree(), w) for w in self.spanning), key=lambda lw: lw[0])
        mul = self.parent.mul_items
        key_degree = self.parent.key_degree
        ech = self._echelon(self.degree)
        for lu, u in by_low:
            for lw, w in by_low:
                if lu + lw > self.degree:
                    break
                prod = mul(u.items, w.items)
                if not prod or max(map(key_degree, prod)) > self.degree:
                    continue
                if ech.reduce(prod):
                    raise AlgebraError(
                        "subalgebra not closed: (%s)*(%s) leaves the span"
                        % (u, w)
                    )


class Element:
    """Sparse rational combination of basis keys of one concrete algebra.
    Coefficients are stored as int when integral and Fraction otherwise.
    Items keep the order they were built in; to_map and repr sort them."""

    __slots__ = ("alg", "items")

    def __init__(self, alg, items):
        clean = {}
        for k, c in items.items():
            if type(c) is not int:
                c = frac(c)
            if c:
                clean[k] = c
        self.alg = alg
        self.items = clean

    @classmethod
    def _trusted(cls, alg, items):
        """An element from a map already in normal form (no zero value,
        integral values as ints), which it keeps: no coercion, no scan, no
        copy. For results the library has just built; the constructor
        checks everything else."""
        el = object.__new__(cls)
        el.alg = alg
        el.items = items
        return el

    def is_zero(self):
        return not self.items

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.alg == other.alg and self.items == other.items

    def __hash__(self):
        return hash((self.alg.descriptor(), frozenset(self.items.items())))

    def _compat(self, other):
        if self.alg != other.alg:
            raise AlgebraError("elements of different algebras")

    def add(self, other):
        self._compat(other)
        out = dict(self.items)
        cancelled = False
        for k, c in other.items.items():
            v = out.get(k, 0) + c
            if type(v) is not int:
                v = frac(v)
            out[k] = v
            if not v:
                cancelled = True
        if cancelled:
            out = {k: c for k, c in out.items() if c}
        return Element._trusted(self.alg, out)

    def sub(self, other):
        return self.add(other.neg())

    def neg(self):
        return Element._trusted(self.alg, {k: -c for k, c in self.items.items()})

    def scale(self, c):
        c = frac(c)
        return Element(self.alg, {k: v * c for k, v in self.items.items()})

    def mul(self, other):
        """The carrier product, read from BaseAlgebra.mul_items."""
        self._compat(other)
        return Element._trusted(self.alg, self.alg.mul_items(self.items, other.items))

    def degree(self):
        if not self.items:
            return 0
        return max(self.alg.key_degree(k) for k in self.items)

    def low_degree(self):
        """The least key degree, 0 for zero; a product's is at least the sum
        of its factors' (BaseAlgebra.key_degree)."""
        if not self.items:
            return 0
        return min(self.alg.key_degree(k) for k in self.items)

    def degree_part(self, d):
        return Element(
            self.alg, {k: c for k, c in self.items.items() if self.alg.key_degree(k) == d}
        )

    def shift(self, k):
        return Element(self.alg, {self.alg.shift_key(key, k): c for key, c in self.items.items()})

    def to_map(self):
        return {self.alg.key_name(k): str(c) for k, c in sorted(self.items.items())}

    def __repr__(self):
        if not self.items:
            return "0"
        parts = []
        for k, c in sorted(self.items.items()):
            name = self.alg.key_name(k)
            if c == 1:
                parts.append(name)
            elif c == -1:
                parts.append("-" + name)
            else:
                parts.append("%s*%s" % (c, name))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


class Derivation:
    """A derivation descriptor: zero, ddx, ad(r), or an explicit basis table.

    orbit(x) yields the nonzero iterates x, d(x), d^2(x), ... The derivation
    owns two tables. key_orbits memoises the orbit of each basis symbol as
    item maps (key_orbit), and every reader of d on a basis symbol reads it:
    the closed form's basis products, the Ore commutation rule and the
    loader's nilpotency check. ore_table memoises the monomial products of
    the twisted Laurent ring over this derivation; ore_monomial, the ring's
    one commutation rule, fills it."""

    def __init__(self, alg, kind, r=None, images=None):
        self.alg = alg
        self.kind = kind
        self.r = r
        self.images = images
        self.key_orbits = {}
        self.ore_table = {}

    @classmethod
    def zero(cls, alg):
        return cls(alg, "zero")

    @classmethod
    def ddx(cls, alg):
        if not alg.supports_ddx():
            raise AlgebraError("ddx is not defined on kind %r" % alg.kind)
        return cls(alg, "ddx")

    @classmethod
    def ad(cls, r):
        return cls(r.alg, "ad", r=r)

    @classmethod
    def table(cls, alg, images):
        for k, im in images.items():
            if im.alg != alg:
                raise AlgebraError("table image outside the algebra")
        return cls(alg, "table", images=dict(images))

    def descriptor(self):
        if self.kind == "ad":
            extra = tuple(sorted((k, str(c)) for k, c in self.r.items.items()))
        elif self.kind == "table":
            extra = tuple(
                sorted(
                    (k, tuple(sorted((kk, str(c)) for kk, c in im.items.items())))
                    for k, im in self.images.items()
                )
            )
        else:
            extra = ()
        return (self.kind, self.alg.descriptor(), extra)

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, Derivation) and self.descriptor() == other.descriptor()

    def __hash__(self):
        return hash(self.descriptor())

    def apply(self, x):
        if x.alg != self.alg:
            raise AlgebraError("derivation and element algebras differ")
        if self.kind == "zero":
            return x.alg.zero()
        if self.kind == "ddx":
            out = {}
            for k, c in x.items.items():
                for kk, cc in x.alg.ddx_key(k).items():
                    out[kk] = out.get(kk, 0) + c * cc
            return Element(x.alg, out)
        if self.kind == "ad":
            return Element._trusted(x.alg, x.alg.commutator_items(self.r.items, x.items))
        if self.kind == "table":
            out = x.alg.zero()
            for k, c in x.items.items():
                if k not in self.images:
                    raise AlgebraError(
                        "table derivation applied outside the covered span: %s"
                        % x.alg.key_name(k)
                    )
                out = out.add(self.images[k].scale(c))
            return out
        raise AlgebraError("unknown derivation kind %r" % self.kind)

    def uncovered(self, keys):
        """The first of keys outside a table's covered span, which d cannot
        be applied to; None when a table covers them all, and for every
        other kind, which covers every key."""
        if self.kind != "table":
            return None
        return next((k for k in keys if k not in self.images), None)

    def iteration_bound(self, x):
        """Steps within which a locally nilpotent derivation kills x. ddx
        lowers the x-degree each step. x is central, so ad(r) is Q[x]-linear
        on a free module of rank rank_0. A table acts on the span of the
        keys it covers."""
        if self.kind == "ddx":
            return x.degree() + 1
        if self.kind == "ad":
            return rank_0(self.alg)
        return 1 if self.kind == "zero" else len(self.images)

    def orbit(self, x):
        """Lazily yield the nonzero iterates x, d(x), d^2(x), ... A locally
        nilpotent derivation kills x within iteration_bound(x) steps; an
        iterate that survives them is refused."""
        bound = self.iteration_bound(x)
        cur = x
        for _ in range(bound):
            if cur.is_zero():
                return
            yield cur
            cur = self.apply(cur)
        if not cur.is_zero():
            raise AlgebraError(
                "derivation is not locally nilpotent: %r survives %d steps" % (x, bound)
            )

    def key_orbit(self, key):
        """The orbit of b_key as a list of item maps, memoised in key_orbits:
        entry m is d^m(b_key), and the length is the nilpotency index of d
        on b_key. It is walked by orbit, once, and refused as orbit refuses
        it. Readers share the maps and must not change them."""
        got = self.key_orbits.get(key)
        if got is None:
            got = self.key_orbits[key] = [v.items for v in self.orbit(self.alg.basis_element(key))]
        return got

    def ore_monomial(self, k1, p, k2):
        """(b_k1 t^p) b_k2 in B[t, t^-1; d] as a list of (power, key,
        coefficient) in normal form, memoised in ore_table under
        (k1, p, k2). t^p b is read from the orbit of b = b_k2 (key_orbit),
        by t b = b t - d(b): its first p + 1 iterates for p >= 0,
        t^p b = sum_k (-1)^k C(p, k) d^k(b) t^(p-k), and the whole orbit for
        p < 0, t^p b = sum_k C(-p-1+k, k) d^k(b) t^(p-k), finite by local
        nilpotency. A right factor t^q only shifts every power by q."""
        got = self.ore_table.get((k1, p, k2))
        if got is None:
            orbit = self.key_orbit(k2)
            key_product = self.alg.key_product
            got = []
            for k, v in enumerate(orbit[: p + 1] if p >= 0 else orbit):
                if p >= 0:
                    coef = -comb(p, k) if k % 2 else comb(p, k)
                else:
                    coef = comb(k - p - 1, k)
                acc = {}
                for kk, cc in v.items():
                    kp = key_product(k1, kk)
                    if kp is not None:
                        acc[kp] = acc.get(kp, 0) + coef * cc
                got.extend((p - k, kp, c) for kp, c in normal_map(acc).items())
            self.ore_table[(k1, p, k2)] = got
        return got

    def validate(self):
        """Check what the kind does not guarantee: Leibniz for a table, on
        covered pairs whose product stays covered, and local nilpotency for
        ad(r) on its degree-0 keys and for a table on its covered keys,
        whose orbits it leaves in key_orbits for the products that follow.
        Raises AlgebraError naming the failed invariant and a witness."""
        if self.kind not in ("ad", "table"):
            return
        keys = self.alg.basis_upto(0) if self.kind == "ad" else sorted(self.images)
        for k1 in keys if self.kind == "table" else ():
            b1 = self.alg.basis_element(k1)
            for k2 in keys:
                b2 = self.alg.basis_element(k2)
                prod = b1.mul(b2)
                if any(k not in self.images for k in prod.items):
                    continue
                if self.apply(prod) != self.images[k1].mul(b2).add(b1.mul(self.images[k2])):
                    raise AlgebraError(
                        "Leibniz fails on basis pair (%s, %s)"
                        % (self.alg.key_name(k1), self.alg.key_name(k2))
                    )
        for k in keys:
            self.key_orbit(k)


def element_nilpotency_index(a):
    """Least m >= 1 with a^m = 0. The variable x is central, so right
    multiplication by a is Q[x]-linear on a free module of rank
    N = rank_0; when a is nilpotent that map is too, and a^(N+1) = 0. An
    element whose (N+1)-th power survives is refused."""
    bound = rank_0(a.alg) + 1
    cur = a
    for m in range(1, bound + 1):
        if cur.is_zero():
            return m
        cur = cur.mul(a)
    raise AlgebraError("element is not nilpotent: (%r)^%d is not 0" % (a, bound))


def kernel_decompose(a, d):
    """Write a = sum_k (x^k / k!) a_k with every a_k killed by ddx.

    The components are the degree-0 parts of the orbit of a, the
    iterated-derivative values at x = 0; the decomposition is unique and
    reconstructs exactly."""
    if d.kind != "ddx" or a.alg.kind != "matrix_poly":
        raise AlgebraError("kernel decomposition needs ddx on matrix_poly")
    comps = []
    for k, v in enumerate(d.orbit(a)):
        c = v.degree_part(0)
        if not c.is_zero():
            comps.append((k, c))
    return comps


def kernel_reconstruct(alg, comps):
    out = alg.zero()
    for k, a_k in comps:
        out = out.add(a_k.shift(k).scale(inv_factorial(k)))
    return out


class OreElement:
    """Element of B[t, t^-1; d]: finite sum a_p t^p with coefficients on the
    left. Multiplication reads every monomial product (b_k1 t^p) b_k2 from
    the derivation's ore_monomial. Items keep the order they were built in;
    to_map and repr sort them."""

    __slots__ = ("base", "der", "items")

    def __init__(self, base, der, items):
        self.base = base
        self.der = der
        self.items = {p: el for p, el in items.items() if not el.is_zero()}

    @classmethod
    def _trusted(cls, base, der, items):
        """An Ore element from a map power -> nonzero Element, which it
        keeps: no scan, no copy. For results the library has just built."""
        x = object.__new__(cls)
        x.base = base
        x.der = der
        x.items = items
        return x

    def is_zero(self):
        return not self.items

    def __eq__(self, other):
        if not isinstance(other, OreElement):
            return NotImplemented
        return (
            self.base == other.base
            and self.der == other.der
            and self.items == other.items
        )

    def __hash__(self):
        return hash((self.base.descriptor(), frozenset(self.items.items())))

    def mul(self, other):
        if self.base != other.base or self.der != other.der:
            raise AlgebraError("Ore elements over different rings")
        # raw accumulation, power -> key -> coefficient; building Elements
        # per partial product would dominate the runtime
        out = {}
        table = self.der.ore_table
        for p, a in self.items.items():
            for q, b in other.items.items():
                for k1, c1 in a.items.items():
                    for k2, c2 in b.items.items():
                        terms = table.get((k1, p, k2))
                        if terms is None:
                            terms = self.der.ore_monomial(k1, p, k2)
                        c12 = c1 * c2
                        for pw, k, c in terms:
                            slot = out.setdefault(pw + q, {})
                            c *= c12
                            cur = slot.get(k)
                            slot[k] = c if cur is None else cur + c
        # a power whose coefficients all cancel is dropped
        base, trusted = self.base, Element._trusted
        items = {}
        for p, s in out.items():
            s = normal_map(s)
            if s:
                items[p] = trusted(base, s)
        return type(self)._trusted(base, self.der, items)

    def to_map(self):
        return {str(p): e.to_map() for p, e in sorted(self.items.items())}

    def __repr__(self):
        if not self.items:
            return "0"
        parts = []
        for p, e in sorted(self.items.items()):
            if p == 0:
                parts.append("(%r)" % e)
            else:
                parts.append("(%r)*t^%d" % (e, p))
        return " + ".join(parts)


__all__ = [
    "MAX_DEGREE",
    "MAX_UNTWIST_KEYS",
    "AlgebraError",
    "BaseAlgebra",
    "MatrixAlgebra",
    "MatrixPolyAlgebra",
    "DirectSum",
    "Subalgebra",
    "Element",
    "Derivation",
    "OreElement",
    "rank_0",
    "element_nilpotency_index",
    "kernel_decompose",
    "kernel_reconstruct",
]
