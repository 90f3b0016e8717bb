"""Independent reference computations the tests cross-check the library
against. They are deliberately naive and share no code with the routines
they check."""

import random
from contextlib import contextmanager
from fractions import Fraction
from math import comb
from types import SimpleNamespace

from confalg import conformal
from confalg.algebra import AlgebraError, Element, OreElement
from confalg.conformal import CElement
from confalg.linalg import Echelon, solve_right
from confalg.oracle import OracleError
from confalg.rings import Poly, RatFunc, falling, frac
from confalg.structure import StructureError


class RatFuncReducer(Echelon):
    """Rank over the fraction field Q(D) of conformal elements by
    elimination in RatFunc entries, sparse rows keyed by base basis keys:
    the closure's reducer as first written."""

    __slots__ = ()

    def add(self, elem):
        """Insert an element; True when it raised the rank."""
        return super().add({k: RatFunc(p) for k, p in elem.items.items()})


def enumerate_towers(c, gens, length):
    """Every product of the generators with every bracketing, up to the given
    factor count, at all nonzero orders. Exponential; test-scale only."""
    by_len = {1: list(gens)}
    for l in range(2, length + 1):
        out = []
        for split in range(1, l):
            for u in by_len[split]:
                for v in by_len[l - split]:
                    for n, w in sorted(c.nprod_all(u, v).items()):
                        out.append(w)
        by_len[l] = out
    all_elems = []
    for l in range(1, length + 1):
        all_elems.extend(by_len[l])
    return all_elems


def random_element(alg, rng, degree, terms=3, coeff_bound=5):
    """A seeded base element: up to `terms` basis symbols of degree at most
    `degree`, with integer coefficients in [-coeff_bound, coeff_bound]."""
    keys = alg.basis_upto(degree)
    picked = rng.sample(keys, min(rng.randint(1, terms), len(keys)))
    return Element(alg, {k: rng.randint(-coeff_bound, coeff_bound) for k in picked})


class CappedRandom(random.Random):
    """A seeded Random whose getrandbits fails after `cap` calls, so a draw
    that would never end fails instead."""

    def __init__(self, seed, cap):
        super().__init__(seed)
        self.left = cap

    def getrandbits(self, k):
        if self.left <= 0:
            raise AssertionError("more than the allowed getrandbits calls")
        self.left -= 1
        return super().getrandbits(k)


def streams_fail_on_first_draw(monkeypatch):
    """Give every sampled check a stream whose first getrandbits fails: the
    checks draw only from the stream conformal.open_check opens, so a
    refusal raised under this patch came before any draw."""
    stream = SimpleNamespace(Random=lambda seed: CappedRandom(seed, 0))
    monkeypatch.setattr(conformal, "random", stream)


def randint_sample_celement(c, rng, degree, pdeg=2):
    """sample_celement as first written, every integer drawn by rng.randint:
    up to 3 basis symbols of degree at most `degree`, each with a
    D-polynomial of degree at most pdeg and coefficients in [-5, 5]."""
    keys = c.base.basis_upto(degree)
    picked = rng.sample(keys, min(rng.randint(1, 3), len(keys)))
    items = {}
    for k in picked:
        items[k] = Poly([rng.randint(-5, 5) for _ in range(pdeg + 1)])
    return CElement(c, items)


def randint_sample_ore(base, der, rng, degree=3, power=2):
    """sample_ore as first written, every integer drawn by rng.randint."""
    keys = base.basis_upto(degree)
    items = {}
    for _ in range(rng.randint(1, 2)):
        p = rng.randint(-power, power)
        picked = rng.sample(keys, min(rng.randint(1, 2), len(keys)))
        el = Element(base, {k: rng.randint(-5, 5) for k in picked})
        items[p] = items[p].add(el) if p in items else el
    return OreElement(base, der, items)


def cscale(a, c):
    """c a for a conformal element a: each D-polynomial scaled by c."""
    c = frac(c)
    if not c:
        return CElement._trusted(a.conf, {})
    return CElement._trusted(a.conf, {k: p.scale(c) for k, p in a.items.items()})


def csub(a, b):
    """a - b for conformal elements."""
    return a.add(b.neg())


def leibniz_violation(d, degree):
    """A basis pair up to the degree window on which d(ab) = d(a) b + a d(b)
    fails, or None. Every pair is checked, including those whose product
    leaves the window."""
    alg = d.alg
    basis = alg.basis_upto(degree)
    for k1 in basis:
        b1 = alg.basis_element(k1)
        d1 = d.apply(b1)
        for k2 in basis:
            b2 = alg.basis_element(k2)
            if d.apply(b1.mul(b2)) != d1.mul(b2).add(b1.mul(d.apply(b2))):
                return k1, k2
    return None


def nilpotent_by_iteration(d, keys, cap):
    """Whether every basis key dies within cap applications of d."""
    for k in keys:
        v = d.alg.basis_element(k)
        for _ in range(cap):
            v = d.apply(v)
            if v.is_zero():
                break
        else:
            return False
    return True


def orbit_by_iteration(d, x, cap):
    """The nonzero iterates x, d(x), d^2(x), ... up to the first zero, by
    repeated application of d, or None when d^cap(x) is not zero."""
    out = []
    for _ in range(cap):
        if x.is_zero():
            return out
        out.append(x)
        x = d.apply(x)
    return out if x.is_zero() else None


def element_index_by_iteration(a, cap):
    """Least m <= cap with a^m = 0, by repeated multiplication, or None."""
    cur = a
    for m in range(1, cap + 1):
        if cur.is_zero():
            return m
        cur = cur.mul(a)
    return None


def _coordinates(v):
    """A base or conformal element as a sparse vector over Q."""
    if isinstance(v, CElement):
        return {(k, i): c for k, p in v.items.items() for i, c in enumerate(p.coeffs) if c}
    return v.items


def _independent(elems):
    """A linearly independent subfamily with the same Q-span, by plain
    Gaussian elimination after dropping repeats: each kept row is cleared at
    the pivots of the rows kept before it, so one pass in order reduces a
    vector."""
    rows = []
    kept = []
    seen = set()
    for e in elems:
        coords = _coordinates(e)
        key = frozenset(coords.items())
        if key in seen:
            continue
        seen.add(key)
        vec = {k: Fraction(c) for k, c in coords.items()}
        for pivot, row in rows:
            c = vec.get(pivot)
            if c:
                for k, x in row.items():
                    vec[k] = vec.get(k, 0) - c * x
                vec = {k: x for k, x in vec.items() if x}
        if vec:
            pivot = next(iter(vec))
            rows.append((pivot, {k: x / vec[pivot] for k, x in vec.items()}))
            kept.append(e)
    return kept


def _first_zero_level(first, step, cap):
    """Least k in 2..cap with level k zero, where level 1 is first and level
    k + 1 spans step(level k); None when level cap is still nonzero. Each
    level is pruned to an independent subfamily, which keeps its span and
    so the next level's."""
    level = first
    for k in range(2, cap + 1):
        level = _independent(step(level))
        if not level:
            return k
    return None


def carrier_index_by_iteration(pair, cap):
    """Carrier nilpotency index of an ideal slice, S_{k+1} spanned by the
    products S_k S_1, by plain iteration up to cap, or None."""
    s1 = pair.base_span
    return _first_zero_level(s1, lambda level: [u.mul(v) for u in level for v in s1], cap)


def module_index_by_iteration(c, pair, cap):
    """Module nilpotency index of an ideal slice, T_{k+1} spanned by the
    products of T_k with T_1 at every order, by plain iteration up to cap,
    or None."""
    t1 = pair.conf_span
    return _first_zero_level(
        t1, lambda level: [w for u in level for v in t1 for w in c.nprod_all(u, v).values()], cap
    )


def slices_rebuild(c, comps):
    out = c.zero()
    for k, a_k in comps.items():
        out = out.add(c.tilde(a_k).dapply(k))
    return out


def extract_current_components(c, a):
    """Recover the slices through products against the canonical identity:
    a (n) 1~ = (-1)^n n! (a_n)~, with 1 the identity of the carrier."""
    e = c.tilde(c.base.one())
    out = {}
    fact = Fraction(1)
    for n in range(a.pdeg() + 1):
        if n:
            fact *= n
        v = c.nprod(a, e, n)
        if v.is_zero():
            continue
        sign = Fraction(-1 if n % 2 else 1) / fact
        items = {}
        for key, p in v.items.items():
            if p.degree() > 0:
                raise StructureError("non-constant residue in component extraction")
            items[key] = p.coeff(0) * sign
        out[n] = Element(c.base, items)
    return out


def naive_expansion(der, p, b, sign=-1):
    """t^p b in B[t, t^-1; d] as a map power -> nonzero Element, one power
    of t at a time, with nothing memoised: t (c t^r) = c t^(r+1) + sign d(c) t^r
    for p > 0, sign -1 being the ring's rule t b = b t - d(b), and for p < 0
    the inverse of that rule, t^-1 (c t^r) = sum_k d^k(c) t^(r-1-k), whatever
    the sign. An iterate d^k(c) that survives iteration_bound(c) steps is
    refused, as the library refuses it."""
    out = {0: b}
    for _ in range(abs(p)):
        terms = []
        for r, c in out.items():
            if p > 0:
                terms += [(r + 1, c), (r, der.apply(c).scale(sign))]
                continue
            for k in range(der.iteration_bound(c)):
                if c.is_zero():
                    break
                terms.append((r - 1 - k, c))
                c = der.apply(c)
            if not c.is_zero():
                raise AlgebraError("derivation is not locally nilpotent: %r survives" % c)
        out = {}
        for r, c in terms:
            out[r] = out[r].add(c) if r in out else c
    return {r: c for r, c in out.items() if not c.is_zero()}


def naive_ore_mul(x, y):
    """Product in B[t, t^-1; d] term by term, with nothing memoised: every
    t^p b is expanded by naive_expansion and every pair of basis keys goes
    through key_product."""
    out = {}
    for p, a in x.items.items():
        for q, b in y.items.items():
            for pw, coef in naive_expansion(x.der, p, b).items():
                slot = out.setdefault(pw + q, {})
                for k1, c1 in a.items.items():
                    for k2, c2 in coef.items.items():
                        k = x.base.key_product(k1, k2)
                        if k is not None:
                            slot[k] = slot.get(k, 0) + c1 * c2
    return OreElement(x.base, x.der, {p: Element(x.base, s) for p, s in out.items()})


def flatten(x):
    """An Ore element as a flat (power, key) -> coefficient map."""
    return {(p, k): c for p, el in x.items.items() for k, c in el.items.items()}


class WindowValues:
    """A distribution as its values on a finite window, n -> f(n), each a
    flat (power, key) -> coefficient map. Read only at concrete n, it shares
    nothing with the library's coefficient maps."""

    def __init__(self, base, der, lo, hi, vals):
        self.base, self.der, self.lo, self.hi, self.vals = base, der, lo, hi, vals

    def value(self, n):
        if not self.lo <= n <= self.hi:
            raise OracleError("index %d outside window [%d, %d]" % (n, self.lo, self.hi))
        by_power = {}
        for (p, k), c in self.vals[n].items():
            by_power.setdefault(p, {})[k] = c
        return OreElement(
            self.base, self.der, {p: Element(self.base, s) for p, s in by_power.items()}
        )


def naive_dist_nprod(f, g, m, lo, hi, cache=None):
    """Order-m product of distributions by the residue sum
    (f m g)(n) = sum_j C(m,j) (-1)^j f(m-j) g(n+j), evaluated at each n of
    [lo, hi] with one naive_ore_mul product per pair f(i) g(J), memoised in
    cache under (i, J)."""
    if m < 0:
        raise OracleError("product order must be >= 0")
    if cache is None:
        cache = {}

    def pr(i, j):
        got = cache.get((i, j))
        if got is None:
            got = naive_ore_mul(f.value(i), g.value(j))
            cache[(i, j)] = got
        return got

    vals = {}
    for n in range(lo, hi + 1):
        acc = {}
        for j in range(m + 1):
            term = pr(m - j, n + j)
            if term.is_zero():
                continue
            c = -comb(m, j) if j % 2 else comb(m, j)
            for slot, v in flatten(term).items():
                acc[slot] = acc.get(slot, 0) + c * v
        vals[n] = acc
    return WindowValues(f.base, f.der, lo, hi, vals)


def naive_value(a, n):
    """The value at n of a conformal element's distribution, straight from
    the formula: sum over its terms c (D^i b)~ of c (-1)^i ff(n,i) b t^(n-i)."""
    out = {}
    for k, p in a.items.items():
        for i, c in enumerate(p.coeffs):
            slot = out.setdefault(n - i, {})
            slot[k] = slot.get(k, 0) + c * (-1) ** i * falling(n, i)
    base = a.conf.base
    return OreElement(base, a.conf.der, {q: Element(base, s) for q, s in out.items()})


def naive_nprod(c, a, b, n):
    """Closed-form n-product term by term: one basis_nprod, falling and comb
    call per (k1, i, k2, j, s), with no hoisting and no shared table."""
    bound = c.structural_bound(a, b)
    if bound is None or n > bound:
        return c.zero()
    acc = {}
    for k1, p in a.items.items():
        for i in range(p.degree() + 1):
            pi = p.coeff(i)
            if not pi or i > n:
                continue
            head = pi * falling(n, i) * (-1 if i % 2 else 1)
            if not head:
                continue
            for k2, q in b.items.items():
                for j in range(q.degree() + 1):
                    qj = q.coeff(j)
                    if not qj:
                        continue
                    for s in range(min(j, n - i) + 1):
                        coef = head * qj * comb(j, s) * falling(n - i, s)
                        if not coef:
                            continue
                        table = c.basis_nprod(k1, k2, n - i - s)
                        if not table:
                            continue
                        for bk, bc in table.items():
                            slot = acc.setdefault(bk, {})
                            pw = j - s
                            slot[pw] = slot.get(pw, 0) + coef * bc
    items = {}
    for bk, slot in acc.items():
        top = max(slot)
        coeffs = [slot.get(t, 0) for t in range(top + 1)]
        items[bk] = Poly(coeffs)
    return CElement(c, items)


def naive_mul_items(alg, left, right):
    """BaseAlgebra.mul_items term by term: every key pair's product in
    Fractions, summed per key in the order the keys first appear, then the
    zero sums dropped and the integral ones made ints."""
    sums = {}
    for k1, c1 in left.items():
        for k2, c2 in right.items():
            k = alg.key_product(k1, k2)
            if k is not None:
                sums[k] = sums.get(k, Fraction(0)) + Fraction(c1) * Fraction(c2)
    return {k: v.numerator if v.denominator == 1 else v for k, v in sums.items() if v}


# The structure routines as first written: every ordered product, every
# equation and every candidate, repeats included.


def naive_is_current(sub, a, degree):
    """(current, witness) of is_current: both products of every ordered
    pair of spanning elements, and every row of every key."""
    vs = sub.span_upto(degree)
    if not vs:
        return False, None
    rows = []
    rhs = []
    for u in vs:
        comms = [v.mul(u).sub(u.mul(v)) for v in vs]
        target = a.mul(u).sub(u.mul(a))
        keys = sorted(set().union(set(target.items), *[set(w.items) for w in comms]))
        for key in keys:
            rows.append([w.items.get(key, 0) for w in comms])
            rhs.append(target.items.get(key, 0))
    sol = solve_right(rows, rhs)
    if sol is None:
        return False, None
    witness = sub.parent.zero()
    for cs, v in zip(sol, vs):
        witness = witness.add(v.scale(cs))
    return True, witness


def naive_ideal_lift(c, gens, degree, within=None):
    """(base_span, delta_stable, two_sided) of ideal_lift: every product
    b1 g b2, zero left factors and repeats included, and every product of
    the two-sided check reduced."""
    base = c.base
    if within is None:
        basis = [base.basis_element(k) for k in base.basis_upto(degree)]
    else:
        basis = within.span_upto(degree)
    raw = list(gens)
    for g in gens:
        for b1 in basis:
            left = b1.mul(g)
            raw.append(left)
            raw.append(g.mul(b1))
            for b2 in basis:
                raw.append(left.mul(b2))
    raw = [p for p in raw if p.degree() <= degree]
    span = [Element(base, row) for _, row in Echelon(p.items for p in raw).basis()]
    ech = Echelon(u.items for u in span)

    def member(v):
        return not ech.reduce(v.items)

    delta_stable = all(member(c.der.apply(u)) for u in span)
    two_sided = True
    for u in span:
        for b in basis:
            for p in (b.mul(u), u.mul(b)):
                if p.degree() <= degree and not member(p):
                    two_sided = False
    return span, delta_stable, two_sided


def naive_ideal_restrict(c, celems):
    """ideal_restrict on a dense matrix: every conformal element a row of
    D-polynomials over the common support, an absent cell a zero
    polynomial. The combination coefficients run up to degree
    nrows * maxdeg + 1; each (row, power t) gives one vector, its share of
    the positive-degree coefficients keyed (0, column, degree) and of the
    constant term keyed (1, column). Echelon rows pivoting in the second
    block span the constant vectors."""
    keys = sorted(set().union(*[set(e.items) for e in celems])) if celems else []
    rows = [[e.items.get(k, Poly.zero()) for k in keys] for e in celems]
    rows = [r for r in rows if any(r)]
    if not rows:
        return []
    maxdeg = max(p.degree() for row in rows for p in row)
    bound = len(rows) * maxdeg + 1
    ech = Echelon()
    for row in rows:
        for t in range(bound + 1):
            vec = {}
            for col, p in enumerate(row):
                for d in range(max(1, t), t + p.degree() + 1):
                    if p.coeff(d - t):
                        vec[(0, col, d)] = p.coeff(d - t)
                if t == 0 and p.coeff(0):
                    vec[(1, col)] = p.coeff(0)
            ech.add(vec)
    return [
        Element(c.base, {keys[col]: row.get((1, col), 0) for col in range(len(keys))})
        for pivot, row in ech.basis()
        if pivot[0] == 1
    ]


def naive_unital_split(c, e, degree):
    """unital_split's report, with every order-0 image made twice: once for
    the identity certificate and once for the span."""
    keys = c.base.basis_upto(degree)
    certified = True
    for key in keys:
        v = c.tilde(c.base.basis_element(key))
        if c.nprod(e, v, 0) != v:
            certified = False
    bound = c.structural_bound(e, e)
    if bound is not None:
        for n in range(1, bound + 1):
            if not c.nprod(e, e, n).is_zero():
                certified = False
    image = RatFuncReducer()
    for key in keys:
        image.add(c.nprod(e, c.tilde(c.base.basis_element(key)), 0))
    return {
        "degree": degree,
        "identity_certified": certified,
        "module_rank": len(keys),
        "image_rank": image.rank,
        "kernel_rank": len(keys) - image.rank,
    }


def naive_generate_closure(c, gens, rounds):
    """(spanning, ranks, stabilized) of generate_closure, with every
    candidate reduced, repeats included, and the products made one order at
    a time up to the structural bound."""
    reducer = RatFuncReducer()
    spanning = []
    frontier = []
    for g in gens:
        if reducer.add(g):
            spanning.append(g)
            frontier.append(g)
    ranks = [reducer.rank]
    stabilized = None
    for r in range(2, rounds + 1):
        new = []
        for u in frontier:
            for g in gens:
                bound = c.structural_bound(u, g)
                for n in range(0 if bound is None else bound + 1):
                    v = c.nprod(u, g, n)
                    if not v.is_zero() and reducer.add(v):
                        spanning.append(v)
                        new.append(v)
        frontier = new
        ranks.append(reducer.rank)
        if not new and stabilized is None:
            stabilized = r
    return spanning, ranks, stabilized


def ore_product(sign):
    """Product of B[t, t^-1; d] built from t b = b t + sign d(b); sign -1 is
    the honest ring. Negative powers use the honest inverse whatever the
    sign, as naive_expansion does."""

    def mul(x, y):
        out = {}
        for p, a in x.items.items():
            for q, b in y.items.items():
                for pw, coef in naive_expansion(x.der, p, b, sign).items():
                    term = a.mul(coef)
                    out[pw + q] = out[pw + q].add(term) if pw + q in out else term
        return OreElement(x.base, x.der, out)

    return mul


def assert_canonical(x):
    """x is in normal form: no zero or trailing coefficient, no zero value,
    and every integral coefficient an int. Covers Poly, Element, CElement
    and OreElement, down to their coefficients."""

    def coefficient(c):
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)

    if isinstance(x, Poly):
        assert type(x.coeffs) is tuple
        assert not x.coeffs or x.coeffs[-1] != 0, x.coeffs
        for c in x.coeffs:
            coefficient(c)
    elif isinstance(x, Element):
        for c in x.items.values():
            assert c != 0, x.items
            coefficient(c)
    elif isinstance(x, CElement):
        for p in x.items.values():
            assert type(p) is Poly and p.coeffs, x.items
            assert_canonical(p)
    elif isinstance(x, OreElement):
        for el in x.items.values():
            assert type(el) is Element and el.items and el.alg == x.base, x.items
            assert_canonical(el)
    else:
        raise TypeError("not a ring element: %r" % (x,))


TRUSTED = (Poly, Element, CElement, OreElement)


@contextmanager
def checked_constructors():
    """While active, each class's private constructor _trusted calls its
    public, checking constructor instead, so a run inside it builds every
    result through the checks."""
    saved = [(cls, vars(cls)["_trusted"]) for cls in TRUSTED]
    for cls in TRUSTED:
        setattr(cls, "_trusted", staticmethod(cls))
    try:
        yield
    finally:
        for cls, orig in saved:
            setattr(cls, "_trusted", orig)
