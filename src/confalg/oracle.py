"""Independent verification route through formal distributions.

A conformal element maps to the family f(n) = sum_i c_i (-1)^i ff(n,i) b t^(n-i)
of twisted-Laurent-ring values, one value for every integer n, stored once
for all n by its coefficients on the family basis ff(n,s) b t^(n+d). The
order-m product of two such families is computed by a residue-style sum in
the ring itself, never through the closed-form n-product, so agreement of
the two routes is evidence for both. The sum is an m-th forward difference
in the left index: each ring product f(i) b_k is read once, term by term,
from the Ore monomial table of the derivation, and folded into one
difference table for all basis symbols k of the right factor, kept as
coefficient lists over the slots (k, power, key) its rows reach, from
whose leading diagonal one pass builds every order. The check compares,
order by order, that pass with the closed-form kernel's sums over the same
orders, both read as coefficient maps on the family basis; a Distribution
is built only for a mismatch.
"""

import random
from math import comb, perm
from operator import sub

from .algebra import AlgebraError, Element, OreElement, normal_map
from .conformal import _refuse_uncovered, _sample, sample_celement
from .rings import falling


class OracleError(AlgebraError):
    pass


class Distribution:
    """A family n -> f(n) = sum c ff(n,s) b_key t^(n+d) over all integers n,
    kept as the map terms: (d, key, s) -> c. Zero coefficients are not stored
    and integral ones are ints, so equal families have equal maps."""

    __slots__ = ("base", "der", "terms")

    def __init__(self, base, der, terms):
        self.base = base
        self.der = der
        self.terms = normal_map(terms)

    def _flat(self, n):
        """f(n) as a flat map (power, key) -> nonzero coefficient."""
        out = {}
        for (d, k, s), c in self.terms.items():
            v = c * falling(n, s)
            if v:
                slot = (n + d, k)
                out[slot] = out.get(slot, 0) + v
        return {slot: c for slot, c in out.items() if c}

    def value(self, n):
        """f(n) as an element of the twisted Laurent ring, at any integer n."""
        by_power = {}
        for (p, k), c in self._flat(n).items():
            by_power.setdefault(p, {})[k] = c
        return OreElement(
            self.base, self.der, {p: Element(self.base, s) for p, s in by_power.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, Distribution):
            return NotImplemented
        return self.base == other.base and self.der == other.der and self.terms == other.terms

    def first_difference(self, other, start):
        """None when the families agree at every n, else the first n >= start
        where they differ: at most start + S, S the largest s, as a nonzero
        polynomial of degree <= S has <= S roots."""
        if self.terms == other.terms:
            return None
        n = start
        while self._flat(n) == other._flat(n):
            n += 1
        return n


def _family_terms(items):
    """The (d, key, s) -> coefficient map of the distribution of
    sum_k p_k(D) b_k~, given as (key, D-coefficients of p_k) pairs over
    distinct keys: c_i (D^i b)~ goes to n -> (-1)^i c_i ff(n,i) b t^(n-i),
    the term (-i, b, i). The map may hold zeros and integral Fractions: each
    caller puts it in normal form once, as Distribution does."""
    return {(-i, k, i): -ci if i % 2 else ci for k, cs in items for i, ci in enumerate(cs)}


def to_distribution(a):
    """Distribution of a conformal element."""
    return Distribution(
        a.conf.base, a.conf.der, _family_terms((k, p.coeffs) for k, p in a.items.items())
    )


def dist_nprod(f, g, top):
    """Every order m <= top of the product of distributions by the
    ring-side residue sum (f m g)(n) = sum_j C(m,j) (-1)^j f(m-j) g(n+j),
    for every n at once, from one pass; it reads f at 0, ..., top. Returns
    the list whose entry m is the (d, key, s) -> coefficient map of f m g in
    normal form (no zero, integral values as ints).

    Each left value f(i) goes into rows R(i, k) = f(i) b_k, one per basis
    symbol k of g, read from the Ore monomial table: (b_key t^p) b_k for
    every term of f(i). As x (b t^q) = (x b) t^q, a term c ff(n+j,s) b_k
    t^(n+j+d) of g(n+j) adds c ff(n+j,s) R(i, k) t^(n+j+d), and
    Vandermonde, ff(n+j,s) = sum_r C(s,r) ff(j,u) ff(n,r) with u = s - r,
    puts it on the family basis. With R^(i, k) the row R(i, k) with every
    power lowered by i, C(m,j) ff(j,u) = ff(m,u) C(m-u, j-u) turns the sum
    over j into a forward difference in i: the part on ff(n,r) is
    c C(s,r) (-1)^u ff(m,u) (Delta^(m-u) R^(., k))(0) t^(n+m+d).
    An entry x of level q of _leading_differences, at the slot
    (k, p, key), thus adds c C(s,u) (-1)^u ff(q+u,u) x at
    (p + q + u + d, key, s - u) to order q + u, for each term (d, k, s) of
    g and each u <= s. Nothing outlives the call."""
    if top < 0:
        raise OracleError("product order must be >= 0")
    if f.base != g.base or f.der != g.der:
        raise AlgebraError("Ore elements over different rings")
    # g's terms by symbol, each as (d, s, [c C(s,u) (-1)^u for u <= s])
    right = {}
    for (d, k, s), c in g.terms.items():
        ws = [c * comb(s, u) for u in range(s + 1)]
        for u in range(1, s + 1, 2):
            ws[u] = -ws[u]
        right.setdefault(k, []).append((d, s, ws))
    accs = [{} for _ in range(top + 1)]
    for q, level in enumerate(_leading_differences(f, list(right), top)):
        for (k, p, kk), x in level:
            for d, s, ws in right[k]:
                # order q + u <= top reads level q
                for u in range((s if s < top - q else top - q) + 1):
                    n = q + u
                    slot = (p + n + d, kk, s - u)
                    acc = accs[n]
                    acc[slot] = acc.get(slot, 0) + ws[u] * perm(n, u) * x
    return [normal_map(acc) for acc in accs]


def _leading_differences(f, symbols, top):
    """[(Delta^q R^)(0) for q <= top], each a list of (slot, coefficient)
    with the zeros dropped, where the row R^(i) holds f(i) b_k with every
    power lowered by i, for every k in symbols, on the slots
    (k, power, key). A row is one walk over the terms (d, key, s) of f,
    each worth c ff(i,s) = c perm(i,s) at (i + d, key) for i >= 0: a term
    of value v adds v x at (k, pw - i, kk) for each symbol k and each
    (pw, kk, x) of (b_key t^(i+d)) b_k in the derivation's Ore monomial
    table, a miss filled by the derivation's ore_monomial. Slots are indexed
    in the order the rows reach them, so a row or difference is one
    coefficient list, zero-padded when a later row brings a new slot. last
    holds the last diagonal [(Delta^q R^)(i - q)], i the last row; row
    i + 1 then costs i + 1 list subtractions for all symbols at once. Every
    level is returned, zero or not: a left factor may vanish on its first
    indices only."""
    der = f.der
    ore = der.ore_table
    index, slots, last, lead = {}, [], [], []
    for i in range(top + 1):
        diff = [0] * len(slots)
        for (d, key, s), c in f.terms.items():
            if s > i:
                continue
            v = c * perm(i, s)
            p = i + d
            for k in symbols:
                terms = ore.get((key, p, k))
                if terms is None:
                    terms = der.ore_monomial(key, p, k)
                for pw, kk, x in terms:
                    slot = (k, pw - i, kk)
                    at = index.get(slot)
                    if at is None:
                        at = index[slot] = len(slots)
                        slots.append(slot)
                        diff.append(0)
                    diff[at] += v * x
        width = len(diff)
        for q in range(i):
            prev, last[q] = last[q], diff
            if len(prev) < width:
                prev += [0] * (width - len(prev))
            diff = list(map(sub, diff, prev))
        last.append(diff)
        lead.append([(slot, x) for slot, x in zip(slots, diff) if x])
    return lead


def oracle_check(c, samples=100, seed=0, window=8, degree=4, pdeg=2):
    """Randomized two-route agreement check: for sampled pairs and every
    order m up to top = min(structural bound + 1, window), the distribution
    of the closed-form product must match the ring-side residue product as a
    family of n. Each sample makes one pass per route over [0, top]: one
    call of the closed-form kernel c._products, each order's sums read as
    family terms, and one dist_nprod pass. The two are compared order by
    order as coefficient maps in normal form, equal exactly when the
    families agree at every n. On a mismatch both become Distributions, and
    the violation's index is the first n >= -window where the values
    differ. A check of no samples, of samples that are all zero (degree or
    pdeg below 0) or on no window is refused, not reported ok; so is a
    degree whose keys a table derivation does not all cover, before any
    draw."""
    for name, value, least in (
        ("samples", samples, 1),
        ("window", window, 0),
        ("degree", degree, 0),
        ("pdeg", pdeg, 0),
    ):
        if value < least:
            raise OracleError("%s must be >= %d, got %d" % (name, least, value))
    keys = c.base.basis_upto(degree)
    _refuse_uncovered(c.der, keys, degree, OracleError)
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
        a = sample_celement(c, rng, keys, pdeg)
        b = sample_celement(c, rng, keys, pdeg)
        bound = c.structural_bound(a, b)
        top = min((0 if bound is None else bound + 1), window)
        closed = c._products(a, b, ((0, 0, 0, top),))[0]
        for m, rhs in enumerate(dist_nprod(to_distribution(a), to_distribution(b), top)):
            lhs = normal_map(_family_terms(closed.get(m, {}).items()))
            report["orders_checked"] += 1
            if lhs != rhs:
                lhs = Distribution(c.base, c.der, lhs)
                rhs = Distribution(c.base, c.der, rhs)
                n = lhs.first_difference(rhs, -window)
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


def sample_ore(base, der, rng, keys, power=2):
    """A sum of one or two terms e t^p, p in [-power, power], each e on one
    or two of keys with coefficients in [-5, 5]; a check passes
    base.basis_upto(degree) as keys, built once for all its draws. Every
    integer is drawn as conformal._randbelow draws it, inline, and the keys
    by conformal._sample; terms of one power are summed as they are drawn."""
    getrandbits = rng.getrandbits
    width = 2 * power + 1
    bits = width.bit_length()
    terms = getrandbits(2)
    while terms >= 2:
        terms = getrandbits(2)
    items = {}
    for _ in range(1 + terms):
        p = getrandbits(bits)
        while p >= width:
            p = getrandbits(bits)
        count = getrandbits(2)
        while count >= 2:
            count = getrandbits(2)
        acc = items.setdefault(p - power, {})
        for k in _sample(rng, keys, min(1 + count, len(keys))):
            u = getrandbits(4)
            while u >= 11:
                u = getrandbits(4)
            if u != 5:
                v = acc.get(k, 0) + u - 5
                if v:
                    acc[k] = v
                else:
                    del acc[k]
    return OreElement._trusted(
        base, der, {p: Element._trusted(base, acc) for p, acc in items.items() if acc}
    )


def _product_keys(der, keys, power):
    """The keys a coefficient of y z can carry for samples y, z on keys:
    key_product(k1, kk) for kk in the orbit of k2 (t^p b_k2 reads the whole
    orbit at p < 0, only b_k2 itself at power 0), in a fixed order."""
    orbits = (der.key_orbit(k2) if power else ({k2: 1},) for k2 in keys)
    reach = dict.fromkeys(kk for orbit in orbits for v in orbit for kk in v)
    key_product = der.alg.key_product
    out = dict.fromkeys(key_product(k1, kk) for k1 in keys for kk in reach)
    out.pop(None, None)
    return list(out)


def coeff_assoc_check(base, der, samples=100, seed=0, degree=3, power=2, mul=None):
    """Randomized associativity check for the twisted Laurent ring, mixing
    positive and negative powers of t. mul may override the product. A
    check of no samples, or of samples that are all zero (degree below 0),
    is refused, not reported ok, and so is a power below 0. So is, before
    any draw, a degree whose keys, or the keys of a product y z of two
    samples (whose orbits x (y z) reads), a table derivation does not all
    cover."""
    for name, value, least in (("samples", samples, 1), ("degree", degree, 0), ("power", power, 0)):
        if value < least:
            raise OracleError("%s must be >= %d, got %d" % (name, least, value))
    keys = base.basis_upto(degree)
    _refuse_uncovered(der, keys, degree, OracleError)
    if der.kind == "table":
        reach = _product_keys(der, keys, power)
        _refuse_uncovered(der, reach, degree, OracleError, "reaches %s in a product y z")
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
        x = sample_ore(base, der, rng, keys, power)
        y = sample_ore(base, der, rng, keys, power)
        z = sample_ore(base, der, rng, keys, power)
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
