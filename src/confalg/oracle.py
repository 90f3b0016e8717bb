"""Independent verification route through formal distributions.

A conformal element maps to the family f(n) = sum_i c_i (-1)^i ff(n,i) b t^(n-i)
of twisted-Laurent-ring values, one value for every integer n, stored once
for all n by its coefficients on the family basis ff(n,s) b t^(n+d). The
order-m product of two such families is computed by a residue-style sum in
the ring itself, never through the closed-form n-product, so agreement of
the two routes is evidence for both.
"""

import random
from math import comb

from .algebra import AlgebraError, Element, OreElement
from .conformal import sample_celement
from .rings import falling, frac


class OracleError(AlgebraError):
    pass


class Distribution:
    """A family n -> f(n) = sum c ff(n,s) b_key t^(n+d) over all integers n,
    kept as the map terms: (d, key, s) -> c. Zero coefficients are not stored
    and integral ones are ints, so equal families have equal maps. The window
    [lo, hi] is where the family is read: value(n) and first_difference."""

    __slots__ = ("base", "der", "lo", "hi", "terms")

    def __init__(self, base, der, lo, hi, terms):
        if lo > hi:
            raise OracleError("empty window")
        self.base = base
        self.der = der
        self.lo = lo
        self.hi = hi
        self.terms = {t: c if type(c) is int else frac(c) for t, c in terms.items() if c}

    def _flat(self, n):
        """f(n) as a flat map (power, key) -> nonzero coefficient."""
        out = {}
        for (d, k, s), c in self.terms.items():
            v = c * falling(n, s)
            if v:
                slot = (n + d, k)
                out[slot] = out.get(slot, 0) + v
        return {slot: c for slot, c in out.items() if c}

    def _at(self, n):
        by_power = {}
        for (p, k), c in self._flat(n).items():
            by_power.setdefault(p, {})[k] = c
        return OreElement(
            self.base, self.der, {p: Element(self.base, s) for p, s in by_power.items()}
        )

    def value(self, n):
        """f(n) as an element of the twisted Laurent ring."""
        if not self.lo <= n <= self.hi:
            raise OracleError("index %d outside window [%d, %d]" % (n, self.lo, self.hi))
        return self._at(n)

    def __eq__(self, other):
        if not isinstance(other, Distribution):
            return NotImplemented
        return (
            self.base == other.base
            and self.der == other.der
            and self.lo == other.lo
            and self.hi == other.hi
            and self.terms == other.terms
        )

    def first_difference(self, other):
        """None when the families agree at every n, else the first n from the
        larger lo on where they differ, possibly past hi: at most that lo + S,
        S the largest s, as a nonzero polynomial of degree <= S has <= S roots."""
        if self.terms == other.terms:
            return None
        n = max(self.lo, other.lo)
        while self._flat(n) == other._flat(n):
            n += 1
        return n


def to_distribution(a, lo, hi):
    """Distribution of a conformal element, read on the window [lo, hi]:
    (D^i b)~ goes to n -> (-1)^i ff(n,i) b t^(n-i), the term (-i, b, i)."""
    terms = {
        (-i, k, i): -ci if i % 2 else ci
        for k, p in a.items.items()
        for i, ci in enumerate(p.coeffs)
    }
    return Distribution(a.conf.base, a.conf.der, lo, hi, terms)


def dist_nprod(f, g, m, cache=None):
    """Order-m product of distributions by the ring-side residue sum
    (f m g)(n) = sum_j C(m,j) (-1)^j f(m-j) g(n+j), for every n at once;
    needs f on [0, m] and is read on the window [g.lo, g.hi - m].

    Each left value f(i) goes into rows R(i, k) = f(i) b_k, one Ore product
    per basis symbol: as x (b t^q) = (x b) t^q, a term c ff(n+j,s) b_k t^(n+j+d)
    of g(n+j) adds c ff(n+j,s) R(i, k) t^(n+j+d), and Vandermonde,
    ff(n+j,s) = sum_r C(s,r) ff(j,s-r) ff(n,r), puts it on the family basis.
    Left values and rows are kept in cache, which calls with the same f may
    share across orders."""
    if m < 0:
        raise OracleError("product order must be >= 0")
    if f.lo > 0 or f.hi < m:
        raise OracleError("left window [%d, %d] does not cover [0, %d]" % (f.lo, f.hi, m))
    base, der = f.base, f.der
    if base != g.base or der != g.der:
        raise AlgebraError("Ore elements over different rings")
    if cache is None:
        cache = {}
    lefts = cache.setdefault("lefts", {})
    rows = cache.setdefault("rows", {})
    for i in range(m + 1):
        if i not in lefts:
            lefts[i] = f.value(i)
    acc = {}
    for j in range(m + 1):
        i = m - j
        if lefts[i].is_zero():
            continue
        sign = -comb(m, j) if j % 2 else comb(m, j)
        for (d, k, s), c in g.terms.items():
            rw = rows.get((i, k))
            if rw is None:
                prod = lefts[i].mul(OreElement(base, der, {0: base.basis_element(k)}))
                rw = [(p, kk, x) for p, el in prod.items.items() for kk, x in el.items.items()]
                rows[(i, k)] = rw
            # ff(j, s - r) vanishes for s - r > j
            for r in range(max(0, s - j), s + 1):
                w = sign * c * comb(s, r) * falling(j, s - r)
                for p, kk, x in rw:
                    slot = (p + j + d, kk, r)
                    acc[slot] = acc.get(slot, 0) + w * x
    return Distribution(base, der, g.lo, g.hi - m, acc)


def oracle_check(c, samples=100, seed=0, window=8, degree=4, pdeg=2):
    """Randomized two-route agreement check: for sampled pairs and every
    order up to one past the structural bound, the distribution of the
    closed-form product must match the ring-side residue product as a
    family of n, which lhs.first_difference(rhs) decides by comparing the
    two coefficient maps. A violation's index is the first n of the window
    [-window, window - m] where the values differ or, when the maps differ
    but every value on the window agrees, the first such n past the window.
    A check of no samples is refused, not reported ok."""
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
        bound = c.structural_bound(a, b)
        top = min((0 if bound is None else bound + 1), window)
        # the residue sum reads the left factor only on [0, top]
        f = to_distribution(a, 0, top)
        g = to_distribution(b, -window, window)
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
                    "closed_form": lhs._at(n).to_map(),
                    "residue": rhs._at(n).to_map(),
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
