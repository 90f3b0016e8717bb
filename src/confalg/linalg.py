"""Exact linear algebra: one sparse echelon kernel, its dense entry points,
and a fraction-free rank kept as an independent reference.

The kernel is generic over the entry field: entries must support +, -,
unary -, *, / and truth testing, and every division goes through
rings.div. The library feeds it rationals only, stored as int or Fraction
(ranks over Q(D) are taken by evaluation, constructions.SpanReducer); the
tests' reference reducer over Q(D) feeds it RatFunc entries. Vectors are
sparse {key: entry} maps over orderable keys; every elimination in the
package goes through Echelon, which keeps its rows by pivot and reduces a
vector by the rows at the pivots it holds, never walking the others.
"""

from heapq import heapify, heappop, heappush

from .rings import Poly, div


def _eliminate(vec, rows):
    """Subtract from vec, in place, the multiple of each row (rows maps
    pivot -> row) that clears vec at the pivot. Each row is 1 at its pivot
    and its other keys lie past it, so clearing the pivots vec holds in
    increasing order leaves vec 0 at every pivot. Only those pivots are
    visited: a heap holds the pivot keys of vec, and a key a subtraction
    brings in joins it when it is a pivot. The subtractions, and their
    order, are those of one increasing pass over every row."""
    heap = [k for k in vec if k in rows]
    heapify(heap)
    while heap:
        pivot = heappop(heap)
        c = vec.get(pivot)
        if not c:
            continue
        for k, v in rows[pivot].items():
            cur = vec.get(k)
            if cur is None:
                # c and v are nonzero, and a field has no zero divisors
                vec[k] = -c * v
                if k in rows:
                    heappush(heap, k)
            else:
                cur = cur - c * v
                if cur:
                    vec[k] = cur
                else:
                    del vec[k]
    return vec


class Echelon:
    """Incremental row echelon form over a field.

    Rows are sparse maps normalized to 1 at their minimal key, their pivot,
    and kept in a map pivot -> row. A row's entries all sit at keys >= its
    pivot, so a vector is reduced by the rows at the pivots it holds, taken
    in increasing order."""

    __slots__ = ("rows",)

    def __init__(self, vectors=()):
        self.rows = {}
        for vec in vectors:
            self.add(vec)

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec):
        """Residual of vec modulo the rows, as a new map without zero
        entries; empty exactly when vec lies in their span."""
        return _eliminate({k: v for k, v in vec.items() if v}, self.rows)

    def add(self, vec):
        """Insert a vector; True when it raised the rank."""
        vec = self.reduce(vec)
        if not vec:
            return False
        pivot = min(vec)
        inv = vec[pivot]
        self.rows[pivot] = {k: div(v, inv) for k, v in vec.items()}
        return True

    def basis(self):
        """The reduced basis sorted by pivot: every pivot entry is 1 and is
        the only nonzero entry of its key across the basis."""
        done = {}
        for pivot in sorted(self.rows, reverse=True):
            done[pivot] = _eliminate(dict(self.rows[pivot]), done)
        return sorted(done.items())


def rref(rows):
    """Reduced row echelon form of a dense rational matrix. Returns the
    nonzero reduced rows and their pivot columns."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    basis = Echelon({j: e for j, e in enumerate(r) if e} for r in rows).basis()
    return (
        [[row.get(j, 0) for j in range(ncols)] for _, row in basis],
        [pivot for pivot, _ in basis],
    )


def solve_right(a, b):
    """Least solution of A x = b over Q with free unknowns set to zero, or
    None when the system is inconsistent."""
    if len(b) != len(a):
        raise ValueError("%d equations but %d right-hand sides" % (len(a), len(b)))
    if not a:
        return []
    ncols = len(a[0])
    m, pivots = rref([list(row) + [bv] for row, bv in zip(a, b)])
    if ncols in pivots:
        return None
    x = [0] * ncols
    for row, c in zip(m, pivots):
        x[c] = row[ncols]
    return x


def bareiss_rank(rows):
    """Rank of a Poly matrix over the fraction field, by fraction-free
    elimination. Intermediate entries stay in the polynomial ring; every
    division is exact. An independent reference for the kernel's rank."""
    m = [list(r) for r in rows]
    nr = len(m)
    if nr == 0:
        return 0
    nc = len(m[0])
    prev = None
    r = 0
    rank = 0
    for c in range(nc):
        p = None
        for i in range(r, nr):
            if m[i][c]:
                p = i
                break
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(r + 1, nr):
            for j in range(c + 1, nc):
                num = m[i][j] * m[r][c] - m[i][c] * m[r][j]
                m[i][j] = num if prev is None else num.exact_div(prev)
            m[i][c] = Poly.zero()
        prev = m[r][c]
        r += 1
        rank += 1
        if r == nr:
            break
    return rank


def pol_constant_intersection(rows):
    """Reduced basis, over Q, of the constant vectors inside the
    Q[D]-module spanned by the rows. Rows are sparse maps key -> Poly with
    no zero cell, as CElement.items are; the basis comes as sparse maps
    key -> rational, sorted by pivot.

    Combination coefficients of polynomial degree at most
    nrows * maxdeg + 1 suffice: back substitution in echelon form raises the
    degree by at most maxdeg per step. Each unknown coefficient (row i,
    power t) contributes one vector: its share of every positive-degree
    coefficient, keyed (0, key, degree), then its share of the constant
    term, keyed (1, key). Echelon rows with a pivot in the second block
    vanish on the first, and they span exactly the constant vectors."""
    rows = [[(k, p.coeffs) for k, p in r.items()] for r in rows if r]
    if not rows:
        return []
    maxdeg = max(len(cs) for row in rows for _, cs in row) - 1
    bound = len(rows) * maxdeg + 1
    ech = Echelon()
    for row in rows:
        for t in range(bound + 1):
            vec = {}
            for k, cs in row:
                for i in range(0 if t else 1, len(cs)):
                    if cs[i]:
                        vec[(0, k, i + t)] = cs[i]
                if t == 0 and cs[0]:
                    vec[(1, k)] = cs[0]
            ech.add(vec)
    return [{k: v for (_, k), v in row.items()} for pivot, row in ech.basis() if pivot[0] == 1]


__all__ = [
    "Echelon",
    "rref",
    "solve_right",
    "bareiss_rank",
    "pol_constant_intersection",
]
