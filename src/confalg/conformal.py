"""Conformal structures on free Q[D]-modules over a base-algebra basis.

Elements are finite sums of D-polynomial multiples of base basis symbols
(written b~). The whole family of n-products is generated from a basis-level
table by the two shift rules, so the table is the only modelling input:
here it is always (b1, b2, m) -> (-1)^m b1 * delta^m(b2) for a locally
nilpotent derivation delta, with delta = 0 giving the pure current case.
"""

import random
from math import comb

from .algebra import AlgebraError, Element, nilpotency_index, parse_exponent
from .rings import Poly, falling, frac


class ConformalError(AlgebraError):
    pass


class ConformalAlgebra:
    """Carrier for the n-products; owns the basis table and its caches."""

    def __init__(self, base, derivation, tag):
        if derivation.alg != base:
            raise AlgebraError("derivation is not over the carrier algebra")
        self.base = base
        self.der = derivation
        self.tag = tag
        self._der_pow = {}
        self._table = {}
        self._nilp = {}
        # (j, r) -> [C(j,s) ff(r,s) for s <= min(j, r)], the weights of nprod;
        # bounded by the D-degrees and orders the products reach
        self._weights = {}

    def descriptor(self):
        return ("conformal", self.tag, self.base.descriptor(), self.der.descriptor())

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
                if self.base.kind == "poly" and unit is None:
                    return self.tilde(self.base.basis_element(k))
                if self.base.kind == "matrix_poly":
                    if unit is None:
                        diag = {(k, i, i): 1 for i in range(1, self.base.n + 1)}
                        return self.tilde(Element(self.base, diag))
                    if len(unit) == 3 and unit[0] == "e" and unit[1:].isdecimal():
                        i, j = int(unit[1]), int(unit[2])
                        if 1 <= i <= self.base.n and 1 <= j <= self.base.n:
                            return self.tilde(self.base.basis_element((k, i, j)))
            raise ConformalError("unknown generator name %r" % name)
        return self.tilde(self.base.basis_element(self.base.parse_key(name)))

    def _delta_pow(self, key, m):
        if m == 0:
            return self.base.basis_element(key)
        got = self._der_pow.get((key, m))
        if got is None:
            got = self.der.apply(self._delta_pow(key, m - 1))
            self._der_pow[(key, m)] = got
        return got

    def basis_nprod(self, k1, k2, m):
        """Order-m product of two basis symbols, as a key -> coefficient map.
        Computed afresh on each call; nprod memoises it in self._table."""
        prod = self.base.basis_element(k1).mul(self._delta_pow(k2, m))
        return {k: -c for k, c in prod.items.items()} if m % 2 else prod.items

    def nilp_key(self, key):
        got = self._nilp.get(key)
        if got is None:
            got = nilpotency_index(self.der, self.base.basis_element(key))
            self._nilp[key] = got
        return got

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
        bound = self.structural_bound(a, b)
        if bound is None or n > bound:
            return self.zero()
        # (D^i u) (n) (D^j v) = (-1)^i ff(n,i) sum_s C(j,s) ff(n-i,s)
        #                        D^(j-s) [u (n-i-s) v]
        # with ff the falling factorial; each ff vanishes exactly when its
        # step count exceeds its argument, so orders never go negative.
        # The right factor's nonzero terms are listed once per call and the
        # weights C(j,s) ff(r,s), r = n - i, once per algebra; results are
        # gathered per D-power.
        right = [
            (k2, j, qj) for k2, q in b.items.items() for j, qj in enumerate(q.coeffs) if qj
        ]
        width = max(j for _, j, _ in right) + 1
        weights = self._weights
        table = self._table
        acc = [{} for _ in range(width)]
        for k1, p in a.items.items():
            for i, pi in enumerate(p.coeffs[: n + 1]):
                if not pi:
                    continue
                r = n - i
                head = pi * falling(n, i)
                if i % 2:
                    head = -head
                for k2, j, qj in right:
                    ws = weights.get((j, r))
                    if ws is None:
                        ws = [comb(j, s) * falling(r, s) for s in range(min(j, r) + 1)]
                        weights[(j, r)] = ws
                    hq = head * qj
                    for s, w in enumerate(ws):
                        key = (k1, k2, r - s)
                        entry = table.get(key)
                        if entry is None:
                            entry = table[key] = self.basis_nprod(k1, k2, r - s)
                        if not entry:
                            continue
                        c = hq * w
                        slot = acc[j - s]
                        get = slot.get
                        for bk, bc in entry.items():
                            slot[bk] = get(bk, 0) + c * bc
        coeffs = {}
        for pw, slot in enumerate(acc):
            for bk, v in slot.items():
                coeffs.setdefault(bk, [0] * width)[pw] = v
        return CElement(self, {bk: Poly(cs) for bk, cs in coeffs.items()})

    def nprod_all(self, a, b):
        """All nonzero orders of a (n) b, as a dict order -> element."""
        bound = self.structural_bound(a, b)
        out = {}
        if bound is None:
            return out
        for n in range(bound + 1):
            v = self.nprod(a, b, n)
            if not v.is_zero():
                out[n] = v
        return out


class CElement:
    """Finite sum of D-polynomial multiples of base basis symbols."""

    __slots__ = ("conf", "items")

    def __init__(self, conf, items):
        clean = {}
        for k, p in items.items():
            if not isinstance(p, Poly):
                p = Poly.const(frac(p))
            if not p.is_zero():
                clean[k] = p
        self.conf = conf
        self.items = dict(sorted(clean.items()))

    def is_zero(self):
        return not self.items

    def __eq__(self, other):
        if not isinstance(other, CElement):
            return NotImplemented
        return self.conf == other.conf and self.items == other.items

    def __hash__(self):
        return hash((self.conf.descriptor(), tuple(self.items.items())))

    def _compat(self, other):
        if self.conf != other.conf:
            raise ConformalError("elements of different conformal algebras")

    def add(self, other):
        self._compat(other)
        out = dict(self.items)
        for k, p in other.items.items():
            out[k] = out[k] + p if k in out else p
        return CElement(self.conf, out)

    def neg(self):
        return CElement(self.conf, {k: -p for k, p in self.items.items()})

    def sub(self, other):
        return self.add(other.neg())

    def scale(self, c):
        c = frac(c)
        return CElement(self.conf, {k: p.scale(c) for k, p in self.items.items()})

    def dapply(self, k=1):
        """Multiply by D^k."""
        return CElement(self.conf, {key: p.shift(k) for key, p in self.items.items()})

    def pdeg(self):
        if not self.items:
            return -1
        return max(p.degree() for p in self.items.values())

    def to_map(self):
        return {self.conf.base.key_name(k): p.to_map() for k, p in self.items.items()}

    def __repr__(self):
        if not self.items:
            return "0"
        parts = []
        for k, p in self.items.items():
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
    """Largest order with a nonzero product, or "none" when all orders vanish.
    The scan starts at the structural bound, so the result is exact."""
    bound = c.structural_bound(a, b)
    if bound is None:
        return "none"
    for n in range(bound, -1, -1):
        if not c.nprod(a, b, n).is_zero():
            return n
    return "none"


def sample_celement(c, rng, degree, pdeg=2, terms=3, coeff_bound=5):
    keys = c.base.basis_upto(degree)
    picked = rng.sample(keys, min(rng.randint(1, terms), len(keys)))
    items = {}
    for k in picked:
        coeffs = [rng.randint(-coeff_bound, coeff_bound) for _ in range(pdeg + 1)]
        items[k] = Poly(coeffs)
    return CElement(c, items)


def check_axioms(c, samples=200, seed=0, degree=4, pdeg=2, product=None):
    """Randomized check of the two shift rules on sampled element pairs.

    product may override the n-product under test; the default is the
    algebra's own. Returns a report dict; ok is False with a witness when a
    violation is found. A check of no samples is refused, not reported ok."""
    if samples < 1:
        raise ConformalError("samples must be >= 1, got %d" % samples)
    if product is None:
        product = c.nprod
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
        a = sample_celement(c, rng, degree, pdeg)
        b = sample_celement(c, rng, degree, pdeg)
        bound = c.structural_bound(a, b)
        top = 1 if bound is None else bound + 1
        n = rng.randint(0, max(top, 1))
        # (Da) (n) b enters both rules; it is computed once
        da_b = product(a.dapply(), b, n)
        lhs = product(a, b, n).dapply()
        rhs = da_b.add(product(a, b.dapply(), n))
        if lhs != rhs:
            report["ok"] = False
            report["violation"] = {
                "axiom": "leibniz",
                "order": n,
                "a": a.to_map(),
                "b": b.to_map(),
            }
            return report
        rhs = c.zero() if n == 0 else product(a, b, n - 1).scale(-n)
        if da_b != rhs:
            report["ok"] = False
            report["violation"] = {
                "axiom": "shift",
                "order": n,
                "a": a.to_map(),
                "b": b.to_map(),
            }
            return report
    return report


def coeff_matrix(elems):
    """Common-support coefficient matrix of conformal elements; rows are
    D-polynomial vectors, one per element."""
    keys = sorted(set().union(*[set(e.items) for e in elems])) if elems else []
    rows = []
    for e in elems:
        rows.append([e.items.get(k, Poly.zero()) for k in keys])
    return keys, rows


__all__ = [
    "ConformalError",
    "ConformalAlgebra",
    "CElement",
    "locality_degree",
    "sample_celement",
    "check_axioms",
    "coeff_matrix",
]
