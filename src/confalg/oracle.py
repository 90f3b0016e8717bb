"""Independent verification route through formal distributions.

A conformal element maps to the family f(n) = sum_i c_i (-1)^i ff(n,i) b t^(n-i)
of twisted-Laurent-ring values, stored on a finite window. The
order-m product of two such families is computed by a residue-style sum in
the ring itself, never through the closed-form n-product, so agreement of
the two routes is evidence for both.
"""

import random
from math import comb

from .algebra import AlgebraError, Element, OreElement
from .conformal import sample_celement
from .rings import falling


class OracleError(AlgebraError):
    pass


class Distribution:
    """Window of ring values n -> f(n), with zero values stored sparsely."""

    __slots__ = ("base", "der", "lo", "hi", "vals")

    def __init__(self, base, der, lo, hi, vals):
        if lo > hi:
            raise OracleError("empty window")
        self.base = base
        self.der = der
        self.lo = lo
        self.hi = hi
        self.vals = {n: v for n, v in vals.items() if not v.is_zero()}

    def value(self, n):
        if not self.lo <= n <= self.hi:
            raise OracleError("index %d outside window [%d, %d]" % (n, self.lo, self.hi))
        got = self.vals.get(n)
        if got is None:
            got = OreElement(self.base, self.der, {})
        return got

    def __eq__(self, other):
        if not isinstance(other, Distribution):
            return NotImplemented
        return (
            self.base == other.base
            and self.der == other.der
            and self.lo == other.lo
            and self.hi == other.hi
            and self.vals == other.vals
        )

    def first_difference(self, other):
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        for n in range(lo, hi + 1):
            if self.value(n) != other.value(n):
                return n
        return None


def to_distribution(a, lo, hi):
    """Distribution of a conformal element on the window [lo, hi]:
    (D^i b)~ goes to n -> (-1)^i ff(n,i) b t^(n-i)."""
    base = a.conf.base
    der = a.conf.der
    top = max((len(p.coeffs) for p in a.items.values()), default=0)
    vals = {}
    for n in range(lo, hi + 1):
        # the signed falling factorials (-1)^i ff(n,i), shared by every key
        signed = [(-1) ** i * falling(n, i) for i in range(top)]
        # power -> key -> coefficient, one Element per power; each (key, i)
        # lands on its own (power, key) slot, so nothing needs summing
        acc = {}
        for k, p in a.items.items():
            for i, ci in enumerate(p.coeffs):
                c = ci * signed[i]
                if c:
                    acc.setdefault(n - i, {})[k] = c
        vals[n] = OreElement(base, der, {pw: Element(base, s) for pw, s in acc.items()})
    return Distribution(base, der, lo, hi, vals)


def dist_nprod(f, g, m, cache=None):
    """Order-m product of distributions by the ring-side residue sum
    (f m g)(n) = sum_j C(m,j) (-1)^j f(m-j) g(n+j); needs f on [0, m] and
    returns the window [g.lo, g.hi - m].

    Every product f(i) g(J) is assembled from rows R(i, k) = f(i) b_k, one
    Ore product per left value and basis symbol: as x (b t^q) = (x b) t^q, a
    term c b_k t^q of g(J) adds c R(i, k) with every power shifted by q.
    Rows and products are kept as flat (power, key) -> coefficient lists in
    cache, which calls with the same f and g may share across orders."""
    if m < 0:
        raise OracleError("product order must be >= 0")
    if f.lo > 0 or f.hi < m:
        raise OracleError("left window [%d, %d] does not cover [0, %d]" % (f.lo, f.hi, m))
    base, der = f.base, f.der
    if base != g.base or der != g.der:
        raise AlgebraError("Ore elements over different rings")
    if cache is None:
        cache = {}
    rows = cache.setdefault("rows", {})
    pairs = cache.setdefault("pairs", {})
    fvals = f.vals
    gvals = g.vals

    def row(i, k):
        got = rows.get((i, k))
        if got is None:
            prod = fvals[i].mul(OreElement(base, der, {0: base.basis_element(k)}))
            got = [(p, kk, c) for p, el in prod.items.items() for kk, c in el.items.items()]
            rows[(i, k)] = got
        return got

    def pair(i, J):
        got = pairs.get((i, J))
        if got is None:
            acc = {}
            for q, el in gvals[J].items.items():
                for k, v in el.items.items():
                    for p, kk, c in row(i, k):
                        slot = (p + q, kk)
                        acc[slot] = acc.get(slot, 0) + v * c
            got = [(slot, c) for slot, c in acc.items() if c]
            pairs[(i, J)] = got
        return got

    vals = {}
    for n in range(g.lo, g.hi - m + 1):
        # flat (power, key) -> coefficient over the whole residue sum
        acc = {}
        for j in range(m + 1):
            i = m - j
            if n + j not in gvals or i not in fvals:
                continue
            sign = -comb(m, j) if j % 2 else comb(m, j)
            for slot, c in pair(i, n + j):
                acc[slot] = acc.get(slot, 0) + sign * c
        by_power = {}
        for (p, kk), c in acc.items():
            if c:
                by_power.setdefault(p, {})[kk] = c
        vals[n] = OreElement(base, der, {p: Element(base, s) for p, s in by_power.items()})
    return Distribution(base, der, g.lo, g.hi - m, vals)


def oracle_check(c, samples=100, seed=0, window=8, degree=4, pdeg=2):
    """Randomized two-route agreement check: for sampled pairs and every
    order up to one past the structural bound, the distribution of the
    closed-form product must match the ring-side residue product on the
    whole valid window. A check of no samples is refused, not reported ok."""
    if samples < 1:
        raise OracleError("samples must be >= 1, got %d" % samples)
    rng = random.Random(seed)
    report = {
        "ok": True,
        "samples": samples,
        "seed": seed,
        "window": window,
        "degree": degree,
        "orders_checked": 0,
        "violation": None,
    }
    for _ in range(samples):
        a = sample_celement(c, rng, degree, pdeg)
        b = sample_celement(c, rng, degree, pdeg)
        f = to_distribution(a, -window, window)
        g = to_distribution(b, -window, window)
        bound = c.structural_bound(a, b)
        top = min((0 if bound is None else bound + 1), window)
        cache = {}
        for m in range(top + 1):
            lhs = to_distribution(c.nprod(a, b, m), g.lo, g.hi - m)
            rhs = dist_nprod(f, g, m, cache)
            n = lhs.first_difference(rhs)
            report["orders_checked"] += 1
            if n is not None:
                report["ok"] = False
                report["violation"] = {
                    "order": m,
                    "index": n,
                    "a": a.to_map(),
                    "b": b.to_map(),
                    "closed_form": lhs.value(n).to_map(),
                    "residue": rhs.value(n).to_map(),
                }
                return report
    return report


def sample_ore(base, der, rng, degree=3, power=2, terms=2, coeff_bound=5):
    items = {}
    for _ in range(rng.randint(1, terms)):
        p = rng.randint(-power, power)
        keys = base.basis_upto(degree)
        picked = rng.sample(keys, min(rng.randint(1, 2), len(keys)))
        el = Element(base, {k: rng.randint(-coeff_bound, coeff_bound) for k in picked})
        items[p] = items[p].add(el) if p in items else el
    return OreElement(base, der, items)


def coeff_assoc_check(base, der, samples=100, seed=0, degree=3, power=2, mul=None):
    """Randomized associativity check for the twisted Laurent ring, mixing
    positive and negative powers of t. mul may override the product. A
    check of no samples is refused, not reported ok."""
    if samples < 1:
        raise OracleError("samples must be >= 1, got %d" % samples)
    if mul is None:
        mul = OreElement.mul
    rng = random.Random(seed)
    report = {
        "ok": True,
        "samples": samples,
        "seed": seed,
        "degree": degree,
        "power": power,
        "violation": None,
    }
    for _ in range(samples):
        x = sample_ore(base, der, rng, degree, power)
        y = sample_ore(base, der, rng, degree, power)
        z = sample_ore(base, der, rng, degree, power)
        lhs = mul(mul(x, y), z)
        rhs = mul(x, mul(y, z))
        if lhs != rhs:
            report["ok"] = False
            report["violation"] = {
                "x": x.to_map(),
                "y": y.to_map(),
                "z": z.to_map(),
                "left_assoc": lhs.to_map(),
                "right_assoc": rhs.to_map(),
            }
            return report
    return report


__all__ = [
    "OracleError",
    "Distribution",
    "to_distribution",
    "dist_nprod",
    "oracle_check",
    "sample_ore",
    "coeff_assoc_check",
]
