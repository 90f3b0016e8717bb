"""Exact linear algebra: one sparse echelon kernel, its dense entry points,
and a fraction-free rank kept as an independent reference.

The kernel is generic over the entry field: entries must support +, -,
unary -, *, / and truth testing, and every division goes through
rings.div. The library feeds it rationals only, stored as int or Fraction
(ranks over Q(D) are taken by evaluation, constructions.SpanReducer); the
tests' reference reducer over Q(D) feeds it RatFunc entries. Vectors are
sparse {key: entry} maps over orderable keys; every elimination in the
package goes through Echelon.
"""

from bisect import insort
from operator import itemgetter

from .rings import Poly, div


def _eliminate(vec, rows):
    """Subtract from vec, in place, the multiple of each (pivot, row) that
    clears vec at the pivot. Each row is 1 at its pivot and 0 at the pivots
    of the rows before it, so one pass leaves vec 0 at every pivot."""
    for pivot, row in rows:
        c = vec.get(pivot)
        if not c:
            continue
        for k, v in row.items():
            cur = vec.get(k)
            cur = -c * v if cur is None else cur - c * v
            if cur:
                vec[k] = cur
            else:
                vec.pop(k, None)
    return vec


class Echelon:
    """Incremental row echelon form over a field.

    Rows are sparse maps normalized to 1 at their minimal key, their pivot,
    and kept sorted by pivot. A row's entries all sit at keys >= its pivot,
    so one increasing pass over the rows reduces any vector."""

    __slots__ = ("rows",)

    def __init__(self, vectors=()):
        self.rows = []
        for vec in vectors:
            self.add(vec)

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec):
        """Residual of vec modulo the rows, as a new map; empty exactly when
        vec lies in their span."""
        return _eliminate(dict(vec), self.rows)

    def add(self, vec):
        """Insert a vector; True when it raised the rank."""
        vec = self.reduce(vec)
        if not vec:
            return False
        pivot = min(vec)
        inv = vec[pivot]
        insort(self.rows, (pivot, {k: div(v, inv) for k, v in vec.items()}), key=itemgetter(0))
        return True

    def basis(self):
        """The reduced basis sorted by pivot: every pivot entry is 1 and is
        the only nonzero entry of its key across the basis."""
        done = []
        for pivot, row in reversed(self.rows):
            done.append((pivot, _eliminate(dict(row), done)))
        done.reverse()
        return done


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
    Q[D]-module spanned by the rows.

    Combination coefficients of polynomial degree at most
    nrows * maxdeg + 1 suffice: back substitution in echelon form raises the
    degree by at most maxdeg per step. Each unknown coefficient (row i,
    power t) contributes one vector: its share of every positive-degree
    coefficient, keyed (0, column, degree), then its share of the constant
    term, keyed (1, column). Echelon rows with a pivot in the second block
    vanish on the first, and they span exactly the constant vectors."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    nc = len(rows[0])
    maxdeg = max(p.degree() for row in rows for p in row)
    bound = len(rows) * maxdeg + 1
    ech = Echelon()
    for row in rows:
        for t in range(bound + 1):
            vec = {}
            for c, p in enumerate(row):
                for d in range(max(1, t), t + p.degree() + 1):
                    coef = p.coeff(d - t)
                    if coef:
                        vec[(0, c, d)] = coef
                if t == 0 and p.coeff(0):
                    vec[(1, c)] = p.coeff(0)
            ech.add(vec)
    return [
        [row.get((1, c), 0) for c in range(nc)]
        for pivot, row in ech.basis()
        if pivot[0] == 1
    ]


__all__ = [
    "Echelon",
    "rref",
    "solve_right",
    "bareiss_rank",
    "pol_constant_intersection",
]
