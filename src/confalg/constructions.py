"""Builders for the stock conformal structures and the closure machinery.

A current structure is the differential one with the zero derivation, so a
single basis table serves every construction; what changes is which carrier
and derivation get installed.
"""

from .algebra import AlgebraError, Derivation, MatrixPolyAlgebra
from .conformal import ConformalAlgebra
from .linalg import Echelon


def make_current(base):
    """Pure current structure: b1~ (0) b2~ = (b1 b2)~, higher orders zero."""
    return ConformalAlgebra(base, Derivation.zero(base))


def make_differential(base, der):
    """Structure with basis table b1~ (m) b2~ = (-1)^m (b1 delta^m(b2))~."""
    return ConformalAlgebra(base, der)


def make_cend(n):
    """Conformal endomorphism structure of rank n over Q[x]: the carrier is
    n x n matrices over Q[x] with delta = d/dx."""
    base = MatrixPolyAlgebra(n)
    return ConformalAlgebra(base, Derivation.ddx(base))


def product_table(c, named_gens):
    """All pairwise n-products of named generators; only nonzero orders are
    listed. named_gens is a list of (name, element) pairs."""
    entries = []
    for name1, a in named_gens:
        for name2, b in named_gens:
            orders = c.nprod_all(a, b)
            entries.append(
                {
                    "left": name1,
                    "right": name2,
                    "orders": {str(n): v.to_map() for n, v in sorted(orders.items())},
                }
            )
    return entries


def _evaluate(items, alpha):
    """A conformal element's items at D = alpha: the sparse rational vector
    key -> p(alpha), zeros left out."""
    out = {}
    for k, p in items.items():
        cs = p.coeffs
        if alpha:
            v = 0
            for c in reversed(cs):
                v = v * alpha + c
        else:
            v = cs[0]
        if v:
            out[k] = v
    return out


class SpanReducer:
    """Rank over the fraction field Q(D) of conformal elements, which is
    the free-module rank of their Q[D]-span, tested by evaluation at
    D = alpha over Q.

    The kept rows S have rank r. A minor of S and a candidate v is a
    polynomial of degree at most B, the sum of their D-degrees, so when one
    is nonzero it is nonzero at one of alpha = 0..B. Hence v raises the rank
    exactly when, at some such point, S(alpha) has rank r and v(alpha) lies
    outside the Q-span of S(alpha). One Echelon over Q per point holds
    S(alpha); it takes in the rows kept since it was last read only when it
    is read again. A point where S(alpha) has rank below r stays so for
    every later S, and is not read again."""

    __slots__ = ("rows", "degree", "points")

    def __init__(self):
        self.rows = []
        # sum of the kept rows' D-degrees
        self.degree = 0
        # entry alpha: [Echelon of S(alpha), rows taken in], or None once
        # S(alpha) falls short of rank r
        self.points = []

    @property
    def rank(self):
        return len(self.rows)

    def add(self, elem):
        """Insert an element; True when it raised the rank."""
        items = elem.items
        if not items:
            return False
        rows = self.rows
        r = len(rows)
        d = elem.pdeg()
        points = self.points
        for alpha in range(self.degree + d + 1):
            if alpha == len(points):
                points.append([Echelon(), 0])
            point = points[alpha]
            if point is None:
                continue
            ech, taken = point
            for row in rows[taken:]:
                ech.add(_evaluate(row, alpha))
            point[1] = r
            if ech.rank < r:
                points[alpha] = None
                continue
            if ech.add(_evaluate(items, alpha)):
                point[1] = r + 1
                rows.append(items)
                self.degree += d
                return True
        return False


def first_sight(seen, items):
    """True the first time an item map (an element's items) with these
    entries is met, which it records in the set seen; False for one equal
    to a map met before."""
    key = frozenset(items.items())
    if key in seen:
        return False
    seen.add(key)
    return True


class ClosureProfile:
    """Spanning elements and the per-round rank trace of a closure run."""

    def __init__(self, spanning, ranks, stabilized):
        self.spanning = spanning
        self.ranks = ranks
        self.stabilized = stabilized


def generate_closure(c, gens, rounds=4):
    """Left-normed closure: round 1 keeps the generators, every later round
    multiplies the previous round's new elements by the generators at all
    nonzero orders, each pair's orders in one nprod_all pass. Candidates
    that do not raise the Q(D)-rank (SpanReducer, by evaluation over Q)
    are dropped; the higher-bracketed products they would feed are then
    linear combinations of towers already kept, so the rank trace is
    unaffected. A candidate equal to an earlier one already lies in the
    span and is skipped before its rank test: each distinct candidate is
    tested once."""
    if rounds < 1:
        raise AlgebraError("rounds must be >= 1")
    reducer = SpanReducer()
    seen = set()
    spanning = []
    frontier = []
    for g in gens:
        if first_sight(seen, g.items) and reducer.add(g):
            spanning.append(g)
            frontier.append(g)
    ranks = [reducer.rank]
    stabilized = None
    for r in range(2, rounds + 1):
        new = []
        for u in frontier:
            for g in gens:
                prods = c.nprod_all(u, g)
                for n in sorted(prods):
                    v = prods[n]
                    if first_sight(seen, v.items) and reducer.add(v):
                        spanning.append(v)
                        new.append(v)
        frontier = new
        ranks.append(reducer.rank)
        if not new and stabilized is None:
            stabilized = r
    return ClosureProfile(spanning, ranks, stabilized)


__all__ = [
    "make_current",
    "make_differential",
    "make_cend",
    "product_table",
    "SpanReducer",
    "ClosureProfile",
    "generate_closure",
]
