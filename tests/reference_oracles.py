"""Independent reference computations the tests cross-check the library
against. They are deliberately naive and share no code with the routines
they check."""

from fractions import Fraction
from math import comb

from confalg.algebra import Derivation, Element, MatrixPolyAlgebra, OreElement
from confalg.conformal import CElement
from confalg.oracle import Distribution, OracleError
from confalg.rings import Poly, falling
from confalg.structure import StructureError


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
    a (n) 1~ = (-1)^n n! (a_n)~. Only the image of the base identity works
    here, so the carrier must be unital."""
    if not c.base.is_unital():
        raise StructureError("component extraction needs a unital carrier")
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


def naive_ore_mul(x, y):
    """Product in B[t, t^-1; d] term by term, with nothing memoised: every
    t^p b is expanded by commute_t and every pair of basis keys goes through
    mul_keys."""
    out = {}
    for p, a in x.items.items():
        for q, b in y.items.items():
            for pw, coef in x.commute_t(p, b).items():
                slot = out.setdefault(pw + q, {})
                for k1, c1 in a.items.items():
                    for k2, c2 in coef.items.items():
                        for k, c in x.base.mul_keys(k1, k2).items():
                            slot[k] = slot.get(k, 0) + c1 * c2 * c
    return OreElement(x.base, x.der, {p: Element(x.base, s) for p, s in out.items()})


def naive_dist_nprod(f, g, m, cache=None):
    """Order-m product of distributions by the residue sum
    (f m g)(n) = sum_j C(m,j) (-1)^j f(m-j) g(n+j), one Ore product per
    pair f(i) g(J), memoised in cache under (i, J)."""
    if m < 0:
        raise OracleError("product order must be >= 0")
    if f.lo > 0 or f.hi < m:
        raise OracleError("left window [%d, %d] does not cover [0, %d]" % (f.lo, f.hi, m))
    if cache is None:
        cache = {}

    def pr(i, j):
        got = cache.get((i, j))
        if got is None:
            got = f.value(i).mul(g.value(j))
            cache[(i, j)] = got
        return got

    vals = {}
    for n in range(g.lo, g.hi - m + 1):
        acc = {}
        for j in range(m + 1):
            term = pr(m - j, n + j)
            if term.is_zero():
                continue
            c = -comb(m, j) if j % 2 else comb(m, j)
            for p, el in term.items.items():
                slot = acc.setdefault(p, {})
                for k, v in el.items.items():
                    cur = slot.get(k)
                    slot[k] = c * v if cur is None else cur + c * v
        vals[n] = OreElement(
            f.base, f.der, {p: Element(f.base, s) for p, s in acc.items()}
        )
    return Distribution(f.base, f.der, g.lo, g.hi - m, vals)


def table_ddx_plus_ad_e12():
    """d/dx + ad(e12) on 2x2 matrices over Q[x], written out as a basis table
    up to degree 3; its images have several terms, so a table entry can
    hold several keys at one power. Returns (base, derivation)."""
    base = MatrixPolyAlgebra(2)
    ddx, ad = Derivation.ddx(base), Derivation.ad(base.parse_element({"e12": "1"}))
    images = {}
    for k in base.basis_upto(3):
        b = base.basis_element(k)
        images[k] = ddx.apply(b).add(ad.apply(b))
    return base, Derivation.table(base, images)


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
