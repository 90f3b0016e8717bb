"""Base associative algebras with exact rational structure constants,
locally nilpotent derivations, and the twisted Laurent ring built on them.

Basis keys are plain hashable tuples or integers, homogeneous per algebra
kind, so they sort deterministically. Subalgebras are views on a parent:
their elements are parent elements and membership is a linear solve.
"""

from itertools import islice
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
# 6x6 matrices twisted by the sum of all e_ij with i < j, takes about 7 s
# (Python 3.11, one core of a Xeon host); a larger window is refused before
# any product.
MAX_UNTWIST_KEYS = 36


class AlgebraError(Exception):
    pass


def parse_exponent(digits, name):
    """The exponent a decimal digit string in a basis or generator name
    stands for; above MAX_DEGREE it is refused before int() reads a long
    string."""
    if len(digits) > len(str(MAX_DEGREE)) or int(digits) > MAX_DEGREE:
        raise AlgebraError("exponent in %r must be at most %d" % (name, MAX_DEGREE))
    return int(digits)


class BaseAlgebra:
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
        raise NotImplementedError

    def basis_upto(self, degree):
        raise NotImplementedError

    def mul_keys(self, k1, k2):
        raise NotImplementedError

    def key_name(self, key):
        raise NotImplementedError

    def parse_key(self, name):
        raise NotImplementedError

    def is_unital(self):
        return False

    def one(self):
        raise AlgebraError("%s algebra has no stored identity" % self.kind)

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


class ScalarAlgebra(BaseAlgebra):
    """The ground field as a one-dimensional algebra; basis key 0."""

    kind = "scalar"

    def descriptor(self):
        return ("scalar",)

    def key_degree(self, key):
        return 0

    def basis_upto(self, degree):
        return [0]

    def mul_keys(self, k1, k2):
        return {0: 1}

    def key_name(self, key):
        return "1"

    def parse_key(self, name):
        if name == "1":
            return 0
        raise AlgebraError("unknown scalar basis name %r" % name)

    def is_unital(self):
        return True

    def one(self):
        return self.basis_element(0)


class PolynomialAlgebra(BaseAlgebra):
    """Q[x]; basis key k stands for x^k."""

    kind = "poly"

    def descriptor(self):
        return ("poly",)

    def key_degree(self, key):
        return key

    def basis_upto(self, degree):
        return list(range(degree + 1))

    def mul_keys(self, k1, k2):
        return {k1 + k2: 1}

    def key_name(self, key):
        if key == 0:
            return "1"
        if key == 1:
            return "x"
        return "x^%d" % key

    def parse_key(self, name):
        if name == "1":
            return 0
        if name == "x":
            return 1
        if name.startswith("x^") and name[2:].isdecimal():
            return parse_exponent(name[2:], name)
        raise AlgebraError("unknown poly basis name %r" % name)

    def is_unital(self):
        return True

    def one(self):
        return self.basis_element(0)

    def supports_ddx(self):
        return True

    def ddx_key(self, key):
        if key == 0:
            return {}
        return {key - 1: key}

    def shift_key(self, key, k):
        return key + k


class MatrixAlgebra(BaseAlgebra):
    """n x n matrices; basis key (i, j) is the matrix unit e_ij, 1-based."""

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
        return [(i, j) for i in range(1, self.n + 1) for j in range(1, self.n + 1)]

    def mul_keys(self, k1, k2):
        if k1[1] != k2[0]:
            return {}
        return {(k1[0], k2[1]): 1}

    def key_name(self, key):
        return "e%d%d" % key

    def parse_key(self, name):
        if len(name) == 3 and name[0] == "e" and name[1:].isdecimal():
            i, j = int(name[1]), int(name[2])
            if 1 <= i <= self.n and 1 <= j <= self.n:
                return (i, j)
        raise AlgebraError("unknown matrix basis name %r" % name)

    def is_unital(self):
        return True

    def one(self):
        return Element(self, {(i, i): 1 for i in range(1, self.n + 1)})


class MatrixPolyAlgebra(BaseAlgebra):
    """n x n matrices over Q[x]; basis key (k, i, j) is x^k e_ij."""

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

    def mul_keys(self, k1, k2):
        if k1[2] != k2[1]:
            return {}
        return {(k1[0] + k2[0], k1[1], k2[2]): 1}

    def key_name(self, key):
        k, i, j = key
        if self.n == 1:
            return PolynomialAlgebra().key_name(k)
        unit = "e%d%d" % (i, j)
        if k == 0:
            return unit
        if k == 1:
            return "x*" + unit
        return "x^%d*%s" % (k, unit)

    def parse_key(self, name):
        if self.n == 1 and "e" not in name:
            return (PolynomialAlgebra().parse_key(name), 1, 1)
        if "*" in name:
            power, unit = name.split("*", 1)
            k = PolynomialAlgebra().parse_key(power)
        else:
            k, unit = 0, name
        if len(unit) == 3 and unit[0] == "e" and unit[1:].isdecimal():
            i, j = int(unit[1]), int(unit[2])
            if 1 <= i <= self.n and 1 <= j <= self.n:
                return (k, i, j)
        raise AlgebraError("unknown matrix_poly basis name %r" % name)

    def is_unital(self):
        return True

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

    def mul_keys(self, k1, k2):
        if k1[0] != k2[0]:
            return {}
        s = k1[0]
        return {(s, k): c for k, c in self.summands[s].mul_keys(k1[1], k2[1]).items()}

    def key_name(self, key):
        return "%d:%s" % (key[0], self.summands[key[0]].key_name(key[1]))

    def parse_key(self, name):
        if ":" not in name:
            raise AlgebraError("direct sum names look like '0:e11', got %r" % name)
        s, rest = name.split(":", 1)
        if not s.isdecimal() or int(s) >= len(self.summands):
            raise AlgebraError("no summand %s" % s)
        return (int(s), self.summands[int(s)].parse_key(rest))

    def is_unital(self):
        return all(s.is_unital() for s in self.summands)

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

    def span_upto(self, degree):
        return [v for v in self.spanning if v.degree() <= degree]

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
        """Products of spanning elements must stay in the declared-degree span."""
        if self.unital and not self.member(self.parent.one(), self.degree):
            raise AlgebraError("subalgebra marked unital but 1 is not in the span")
        for u in self.spanning:
            for w in self.spanning:
                if u.degree() + w.degree() > self.degree:
                    continue
                p = u.mul(w)
                if not self.member(p, self.degree):
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
        for k, c in other.items.items():
            out[k] = out.get(k, 0) + c
        return Element(self.alg, out)

    def sub(self, other):
        return self.add(other.neg())

    def neg(self):
        return Element(self.alg, {k: -c for k, c in self.items.items()})

    def scale(self, c):
        c = frac(c)
        return Element(self.alg, {k: v * c for k, v in self.items.items()})

    def mul(self, other):
        self._compat(other)
        out = {}
        for k1, c1 in self.items.items():
            for k2, c2 in other.items.items():
                for k, c in self.alg.mul_keys(k1, k2).items():
                    out[k] = out.get(k, 0) + c1 * c2 * c
        return Element(self.alg, out)

    def degree(self):
        if not self.items:
            return 0
        return max(self.alg.key_degree(k) for k in self.items)

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

    orbit(x) yields the nonzero iterates x, d(x), d^2(x), ...; every
    nilpotency index, d-power and Ore expansion is read from it. ore_table
    memoises the monomial products of the twisted Laurent ring over this
    derivation; OreElement fills it."""

    def __init__(self, alg, kind, r=None, images=None):
        self.alg = alg
        self.kind = kind
        self.r = r
        self.images = images
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
            return self.r.mul(x).sub(x.mul(self.r))
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

    def validate(self):
        """Check what the kind does not guarantee: Leibniz for a table, on
        covered pairs whose product stays covered, and local nilpotency for
        ad(r) on its degree-0 keys and for a table on its covered keys.
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
            nilpotency_index(self, self.alg.basis_element(k))


def nilpotency_index(d, x):
    """Least m >= 1 with d^m(x) = 0: the length of the orbit of x, or 1 for
    x = 0. A derivation that is not locally nilpotent on x is refused."""
    return max(sum(1 for _ in d.orbit(x)), 1)


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
    if d.kind != "ddx" or a.alg.kind not in ("poly", "matrix_poly"):
        raise AlgebraError("kernel decomposition needs ddx on poly or matrix_poly")
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
    left. Multiplication uses t b = b t - d(b) and, for negative powers,
    t^-m b = sum_k C(m-1+k, k) d^k(b) t^-m-k, finite by local nilpotency.
    Items keep the order they were built in; to_map and repr sort them."""

    __slots__ = ("base", "der", "items")

    def __init__(self, base, der, items):
        self.base = base
        self.der = der
        self.items = {p: el for p, el in items.items() if not el.is_zero()}

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

    def commute_t(self, p, b):
        """Expand t^p b as a map power -> coefficient element, read from the
        orbit of b: its first p + 1 iterates for p > 0, the whole orbit for
        p < 0."""
        if p == 0 or b.is_zero():
            return {p: b}
        out = {}
        if p > 0:
            for k, v in enumerate(islice(self.der.orbit(b), p + 1)):
                coef = -comb(p, k) if k % 2 else comb(p, k)
                out[p - k] = v if coef == 1 else v.scale(coef)
        else:
            for k, v in enumerate(self.der.orbit(b)):
                coef = comb(-p - 1 + k, k)
                out[p - k] = v if coef == 1 else v.scale(coef)
        return out

    def monomial_product(self, k1, p, k2):
        """(b_k1 t^p) b_k2 as a list of (power, key, coefficient), built from
        commute_t and mul_keys and memoised in the derivation's ore_table
        under (k1, p, k2). A right factor t^q only shifts every power by q."""
        key = (k1, p, k2)
        got = self.der.ore_table.get(key)
        if got is None:
            mul_keys = self.base.mul_keys
            got = []
            for pw, coef in self.commute_t(p, self.base.basis_element(k2)).items():
                acc = {}
                for kk, cc in coef.items.items():
                    for k, c in mul_keys(k1, kk).items():
                        acc[k] = acc.get(k, 0) + cc * c
                got.extend((pw, k, c) for k, c in acc.items() if c)
            self.der.ore_table[key] = got
        return got

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
                            terms = self.monomial_product(k1, p, k2)
                        c12 = c1 * c2
                        for pw, k, c in terms:
                            slot = out.setdefault(pw + q, {})
                            c *= c12
                            cur = slot.get(k)
                            slot[k] = c if cur is None else cur + c
        return type(self)(
            self.base, self.der, {p: Element(self.base, s) for p, s in out.items()}
        )

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
    "ScalarAlgebra",
    "PolynomialAlgebra",
    "MatrixAlgebra",
    "MatrixPolyAlgebra",
    "DirectSum",
    "Subalgebra",
    "Element",
    "Derivation",
    "OreElement",
    "rank_0",
    "nilpotency_index",
    "element_nilpotency_index",
    "kernel_decompose",
    "kernel_reconstruct",
]
