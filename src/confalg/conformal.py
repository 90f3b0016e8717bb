"""Conformal structures on free Q[D]-modules over a base-algebra basis.

Elements are finite sums of D-polynomial multiples of base basis symbols
(written b~). The whole family of n-products is generated from a basis-level
table by the two shift rules, so the table is the only modelling input:
here it is always (b1, b2, m) -> (-1)^m b1 * delta^m(b2) for a locally
nilpotent derivation delta, with delta = 0 giving the pure current case.
"""

import random
from itertools import zip_longest
from math import ceil, comb, log, perm

from .algebra import AlgebraError, Element, parse_exponent, parse_unit
from .rings import Poly, frac, normal


class ConformalError(AlgebraError):
    pass


class ConformalAlgebra:
    """Carrier for the n-products; owns the basis table. A structure is its
    carrier and its derivation: two with equal ones are equal, whichever
    constructor built them. delta^m of a basis symbol is read from the
    derivation's orbit table (Derivation.key_orbit)."""

    def __init__(self, base, derivation):
        if derivation.alg != base:
            raise AlgebraError("derivation is not over the carrier algebra")
        self.base = base
        self.der = derivation
        # (k1, k2) -> a list of length nilp_key(k2) whose entry m is
        # basis_nprod(k1, k2, m), or None until a product's order window
        # reaches m
        self._pairs = {}

    def descriptor(self):
        return ("conformal", self.base.descriptor(), self.der.descriptor())

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, ConformalAlgebra) and self.descriptor() == other.descriptor()

    def __hash__(self):
        return hash(self.descriptor())

    def zero(self):
        return CElement(self, {})

    def tilde(self, elem):
        """Image of a base element under b -> b~."""
        if elem.alg != self.base:
            raise ConformalError("element is not in the carrier algebra")
        return CElement(self, {k: Poly.const(c) for k, c in elem.items.items()})

    def from_map(self, mapping):
        items = {}
        for name, polymap in mapping.items():
            items[self.base.parse_key(name)] = Poly.from_map(polymap)
        return CElement(self, items)

    def named_element(self, name):
        """Resolve a basis symbol name, or L<k> / L<k>_eij shorthand for the
        multiplication-operator generators x^k (times a matrix unit)."""
        if name.startswith("L") and len(name) > 1:
            body = name[1:]
            unit = None
            if "_" in body:
                body, unit = body.split("_", 1)
            if body.isdecimal():
                k = parse_exponent(body, name)
                if self.base.kind == "matrix_poly":
                    if unit is None:
                        diag = {(k, i, i): 1 for i in range(1, self.base.n + 1)}
                        return self.tilde(Element(self.base, diag))
                    unit = parse_unit(unit, self.base.n)
                    if unit is not None:
                        return self.tilde(self.base.basis_element((k,) + unit))
            raise ConformalError("unknown generator name %r" % name)
        return self.tilde(self.base.basis_element(self.base.parse_key(name)))

    def basis_nprod(self, k1, k2, m):
        """Order-m product of two basis symbols, as a key -> coefficient map:
        (-1)^m b_k1 delta^m(b_k2), zero past the orbit of b_k2. Computed
        afresh on each call; nprod keeps each result in the pair's row of
        self._pairs."""
        orbit = self.der.key_orbit(k2)
        if m >= len(orbit):
            return {}
        prod = self.base.mul_items({k1: 1}, orbit[m])
        return {k: -c for k, c in prod.items()} if m % 2 else prod

    def nilp_key(self, key):
        """Nilpotency index of delta on a basis symbol: its orbit's length."""
        return len(self.der.key_orbit(key))

    def structural_bound(self, a, b):
        """Order above which a (n) b vanishes identically, or None when an
        argument is zero. Every term of the expanded product carries a basis
        order >= n - pdeg(a) - pdeg(b), and basis orders at or past the
        nilpotency index of delta on the right support are zero."""
        if a.is_zero() or b.is_zero():
            return None
        nil = max(self.nilp_key(k) for k in b.items)
        return a.pdeg() + b.pdeg() + nil - 1

    def nprod(self, a, b, n):
        if n < 0:
            raise ConformalError("product order must be >= 0")
        if a.conf != self or b.conf != self:
            raise ConformalError("arguments of a different conformal algebra")
        return self._element(self._products(a, b, ((0, 0, n, n),))[0].get(n, {}))

    def nprod_all(self, a, b):
        """All nonzero orders of a (n) b, as a dict order -> element, from
        one pass over the basis products. An order left out is zero."""
        if a.conf != self or b.conf != self:
            raise ConformalError("arguments of a different conformal algebra")
        out = {}
        for n, acc in sorted(self._products(a, b, ((0, 0, 0, None),))[0].items()):
            v = self._element(acc)
            if v.items:
                out[n] = v
        return out

    def _products(self, a, b, jobs):
        """The closed-form kernel. A job (i, j, lo, hi) asks for
        (D^i a) (n) (D^j b) at every order n in [lo, hi] (no upper end when
        hi is None); the result lists one map n -> {key: D-coefficient list}
        per job, in the jobs' order, an order with no term left out. The
        sums of a listed order can still cancel.

        (D^i u) (n) (D^j v) = (-1)^i sum_s C(j,s) ff(n,i+s) D^(j-s) [u (n-i-s) v]
        with ff(n,k) = perm(n,k) the falling factorial. For symbols u, v
        with D-polynomials p' = D^i p and q' = D^j q, the terms at a basis
        order m are ff(n,t) (-1)^x p'_x q'^[t-x] [u (m) v] for t = n - m
        <= deg p' + deg q' and x <= t, where q'^[s] = sum_y C(y,s) q'_y
        D^(y-s) is the s-th divided derivative of q'. The walk goes over the
        symbol pairs, the basis orders m below nilp(v) that reach the job's
        range and each t that lands in it, and adds each term as it makes
        it. A basis product is made once, into the pair's row of
        self._pairs, where every later read finds it.

        The signed p' of each left term and the divided derivatives of each
        right term, up to the highest order asked, are built once for each
        i and each j the jobs name and shared by the jobs that name it. A
        job adds only into its own map, and no job's sums are read off
        another's: a (n-1) b and (Da) (n) b are related by the shift rule,
        which check_axioms tests. The sum over x is not kept per t and
        spread to every order m + t of a range: on check_axioms' jobs, which
        meet each t at one m, such a cache measured slower."""
        orbits = self.der.key_orbits
        pairs = self._pairs
        # the highest order asked, None when a job has no upper end
        top = 0
        for job in jobs:
            hi = job[3]
            if hi is None:
                top = None
                break
            if hi > top:
                top = hi
        lefts = {}
        rights = {}
        out = []
        for i, j, lo, hi in jobs:
            left = lefts.get(i)
            if left is None:
                # (-1)^x c_x for D^i p = sum_x c_x D^x, per left term
                left = lefts[i] = []
                for k1, p in a.items.items():
                    ps = [-c if (x + i) % 2 else c for x, c in enumerate(p.coeffs)]
                    if i:
                        ps = [0] * i + ps
                    left.append((k1, ps, len(ps)))
            got = rights.get(j)
            if got is None:
                right = []
                width = 0
                for k2, q in b.items.items():
                    qs = (0,) * j + q.coeffs if j else q.coeffs
                    lq = len(qs)
                    divided = [qs]
                    for s in range(1, lq if top is None or lq <= top else top + 1):
                        divided.append([comb(y, s) * qs[y] for y in range(s, lq)])
                    right.append((k2, divided, lq, len(orbits.get(k2) or self.der.key_orbit(k2))))
                    if lq > width:
                        width = lq
                rights[j] = right, width
            else:
                right, width = got
            accs = {}
            for k1, ps, lp in left:
                for k2, divided, lq, nil in right:
                    span = lp + lq - 2
                    mlo = lo - span if lo > span else 0
                    mhi = nil - 1 if hi is None or nil <= hi else hi
                    if mlo > mhi:
                        continue
                    row = pairs.get((k1, k2)) or pairs.setdefault((k1, k2), [None] * nil)
                    for m in range(mlo, mhi + 1):
                        entry = row[m]
                        if entry is None:
                            entry = row[m] = self.basis_nprod(k1, k2, m)
                        if not entry:
                            continue
                        thi = span if hi is None or hi - m >= span else hi - m
                        for t in range(lo - m if lo > m else 0, thi + 1):
                            n = m + t
                            acc = accs.get(n) or accs.setdefault(n, {})
                            f = perm(n, t)
                            xs = range(t - lq + 1 if t >= lq else 0, t + 1 if t < lp else lp)
                            for bk, bc in entry.items():
                                c = f * bc
                                slot = acc.get(bk) or acc.setdefault(bk, [0] * width)
                                for x in xs:
                                    px = ps[x]
                                    if px:
                                        px *= c
                                        for d, h in enumerate(divided[t - x]):
                                            slot[d] += px * h
            out.append(accs)
        return out

    def _element(self, acc):
        """The element of a _products accumulation: the sums can cancel,
        wholly or in their top coefficients."""
        trusted = Poly._trusted
        out = {}
        for bk, cs in acc.items():
            cs = normal(cs)
            if cs:
                out[bk] = trusted(cs)
        return CElement._trusted(self, out)


class CElement:
    """Finite sum of D-polynomial multiples of base basis symbols. Items keep
    the order they were built in; to_map and repr sort them."""

    __slots__ = ("conf", "items")

    def __init__(self, conf, items):
        clean = {}
        for k, p in items.items():
            if not isinstance(p, Poly):
                p = Poly.const(frac(p))
            if not p.is_zero():
                clean[k] = p
        self.conf = conf
        self.items = clean

    @classmethod
    def _trusted(cls, conf, items):
        """An element from a map key -> nonzero Poly, which it keeps: no
        coercion, no scan, no copy. For results the library has just built;
        the constructor checks everything else."""
        el = object.__new__(cls)
        el.conf = conf
        el.items = items
        return el

    def is_zero(self):
        return not self.items

    def __eq__(self, other):
        if not isinstance(other, CElement):
            return NotImplemented
        return self.conf == other.conf and self.items == other.items

    def __hash__(self):
        return hash((self.conf.descriptor(), frozenset(self.items.items())))

    def _compat(self, other):
        if self.conf != other.conf:
            raise ConformalError("elements of different conformal algebras")

    def add(self, other):
        self._compat(other)
        out = dict(self.items)
        cancelled = False
        for k, p in other.items.items():
            if k in out:
                p = out[k] + p
                if not p.coeffs:
                    cancelled = True
            out[k] = p
        if cancelled:
            out = {k: p for k, p in out.items() if p.coeffs}
        return CElement._trusted(self.conf, out)

    def neg(self):
        return CElement._trusted(self.conf, {k: -p for k, p in self.items.items()})

    def dapply(self, k=1):
        """Multiply by D^k."""
        return CElement._trusted(self.conf, {key: p.shift(k) for key, p in self.items.items()})

    def pdeg(self):
        if not self.items:
            return -1
        return max(p.degree() for p in self.items.values())

    def to_map(self):
        return {self.conf.base.key_name(k): p.to_map() for k, p in sorted(self.items.items())}

    def __repr__(self):
        if not self.items:
            return "0"
        parts = []
        for k, p in sorted(self.items.items()):
            name = self.conf.base.key_name(k)
            if any(ch in name for ch in "*^:"):
                name = "(%s)" % name
            name += "~"
            if p == Poly.one():
                parts.append(name)
            else:
                parts.append("(%s)*%s" % (p.text(), name))
        return " + ".join(parts)


def locality_degree(c, a, b):
    """Largest order with a nonzero product, or "none" when all orders vanish."""
    return max(c.nprod_all(a, b), default="none")


def _randbelow(rng, width):
    """A uniform int in [0, width), drawn as rng.randint(lo, lo + width - 1)
    draws it, less lo: getrandbits(width.bit_length()) until below width,
    the stream random.Random._randbelow_with_getrandbits reads, without
    randint's and randrange's layers. An empty range is refused before any
    draw, with ValueError as randint refuses it."""
    if width <= 0:
        raise ValueError("empty range for a draw below %d" % width)
    k = width.bit_length()
    u = rng.getrandbits(k)
    while u >= width:
        u = rng.getrandbits(k)
    return u


def _sample(rng, population, k):
    """rng.sample(population, k), read from the same getrandbits stream as
    CPython's Random.sample reads it, without its per-draw calls. Up to
    setsize keys (21, more once k > 5) it picks from a pool: each pick a
    draw below the pool's size, the picked slot refilled from the pool's
    end. Past setsize each pick is a draw below n, redrawn while already
    picked. A k outside [0, n] is refused before any draw, with ValueError
    as sample refuses it."""
    n = len(population)
    if not 0 <= k <= n:
        raise ValueError("Sample larger than population or is negative")
    getrandbits = rng.getrandbits
    setsize = 21
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))
    result = []
    if n <= setsize:
        pool = list(population)
        for m in range(n, n - k, -1):
            bits = m.bit_length()
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            result.append(pool[j])
            pool[j] = pool[m - 1]
    else:
        bits = n.bit_length()
        selected = set()
        for _ in range(k):
            j = getrandbits(bits)
            while j >= n or j in selected:
                j = getrandbits(bits)
            selected.add(j)
            result.append(population[j])
    return result


def sample_celement(c, rng, keys, pdeg=2):
    """An element on up to 3 of keys, each with a random D-polynomial of
    degree at most pdeg and coefficients in [-5, 5]; a check passes
    c.base.basis_upto(degree) as keys, built once for all its draws. Every
    integer is drawn as _randbelow draws it, inline: the key count below 3
    and each coefficient below 11 from getrandbits(2) and getrandbits(4)
    until in range, the keys by _sample."""
    getrandbits = rng.getrandbits
    count = getrandbits(2)
    while count >= 3:
        count = getrandbits(2)
    items = {}
    for k in _sample(rng, keys, min(1 + count, len(keys))):
        coeffs = []
        for _ in range(pdeg + 1):
            u = getrandbits(4)
            while u >= 11:
                u = getrandbits(4)
            coeffs.append(u - 5)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        if coeffs:
            items[k] = Poly._trusted(tuple(coeffs))
    return CElement._trusted(c, items)


def _refuse_uncovered(der, keys, degree, error, reach="draws %s"):
    """Refuse, with error, a degree whose keys hold a symbol outside a table
    derivation's covered span: a product reads the orbit of every symbol of
    its right factor, so some seed would fail on it."""
    key = der.uncovered(keys)
    if key is not None:
        raise error(
            "--degree %d %s, outside the table derivation's covered span"
            % (degree, reach % der.alg.key_name(key))
        )


def check_axioms(c, samples=200, seed=0, degree=4, pdeg=2, product=None):
    """Randomized check of the two shift rules on sampled element pairs.

    Each sample draws a, b and an order n, then makes one call of the
    closed-form kernel c._products, the one nprod, nprod_all and
    oracle_check read, with the jobs (i, j, lo, hi), each
    (D^i a) (m) (D^j b) for m in [lo, hi]:
    (0, 0, max(n-1, 0), n) gives P1 = a (n) b and, when n >= 1,
    P4 = a (n-1) b (zero at n = 0); (1, 0, n, n) gives P2 = (Da) (n) b and
    (0, 1, n, n) gives P3 = a (n) (Db). Each job's sums come from its own
    coefficients; no Da or Db is built. The rules are compared in place on
    the kernel's key -> D-coefficient lists, padded with zeros, values
    compared exactly:
      leibniz: D P1 - P2 - P3 = 0 at every key and D-power;
      shift:   P2 + n P4 = 0.
    No element is built for a product. Leibniz is checked before shift.

    product(x, y, m) may override the n-product under test; it must return
    a CElement. It feeds the same loop: it is called once per order of each
    job, on Da or Db where the job shifts a factor, so a sample makes 4
    calls, or 3 at n = 0. Returns a report dict; ok is False with the first
    failing sample when a violation is found. A check of no samples, or of
    samples that are all zero (degree or pdeg below 0), is refused, not
    reported ok; so is a degree whose keys a table derivation does not all
    cover, before any draw."""
    for name, value, least in (("samples", samples, 1), ("degree", degree, 0), ("pdeg", pdeg, 0)):
        if value < least:
            raise ConformalError("%s must be >= %d, got %d" % (name, least, value))
    if product is None:
        products = c._products
    else:

        def products(x, y, jobs):
            out = []
            for i, j, lo, hi in jobs:
                xi, yj = x.dapply(i) if i else x, y.dapply(j) if j else y
                acc = {}
                for m in range(lo, hi + 1):
                    acc[m] = {k: p.coeffs for k, p in product(xi, yj, m).items.items()}
                out.append(acc)
            return out

    keys = c.base.basis_upto(degree)
    _refuse_uncovered(c.der, keys, degree, ConformalError)
    rng = random.Random(seed)
    report = {
        "ok": True,
        "samples": samples,
        "seed": seed,
        "degree": degree,
        "checked": ["leibniz", "shift"],
        "violation": None,
    }
    for _ in range(samples):
        a = sample_celement(c, rng, keys, pdeg)
        b = sample_celement(c, rng, keys, pdeg)
        bound = c.structural_bound(a, b)
        top = 1 if bound is None else bound + 1
        n = _randbelow(rng, max(top, 1) + 1)
        jobs = [(0, 0, max(n - 1, 0), n), (1, 0, n, n), (0, 1, n, n)]
        both, shifted_a, shifted_b = products(a, b, jobs)
        p1, p2, p3 = both.get(n, {}), shifted_a.get(n, {}), shifted_b.get(n, {})
        p4 = both.get(n - 1, {}) if n else {}
        if not _leibniz_holds(p1, p2, p3):
            axiom = "leibniz"
        elif not _shift_holds(p2, p4, n):
            axiom = "shift"
        else:
            continue
        report["ok"] = False
        report["violation"] = {"axiom": axiom, "order": n, "a": a.to_map(), "b": b.to_map()}
        return report
    return report


def _leibniz_holds(p1, p2, p3):
    """D P1 = P2 + P3 on key -> D-coefficient lists."""
    for k in p1.keys() | p2.keys() | p3.keys():
        for u, v, w in zip_longest((0, *p1.get(k, ())), p2.get(k, ()), p3.get(k, ()), fillvalue=0):
            if u != v + w:
                return False
    return True


def _shift_holds(p2, p4, n):
    """P2 = -n P4 on key -> D-coefficient lists."""
    for k in p2.keys() | p4.keys():
        for v, w in zip_longest(p2.get(k, ()), p4.get(k, ()), fillvalue=0):
            if v != -n * w:
                return False
    return True


__all__ = [
    "ConformalError",
    "ConformalAlgebra",
    "CElement",
    "locality_degree",
    "sample_celement",
    "check_axioms",
]
