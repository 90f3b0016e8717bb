"""The stock structures the tests draw from, each defined once. STOCK maps a
name to a factory that returns a fresh (carrier, derivation), so a
structure built from it starts with empty tables: the derivation's Ore
tables and the conformal structure's basis table. conformal(name) builds
the conformal structure. A structure is its carrier and its derivation, so
make_differential builds the current and cend ones too: cur_matrix2 equals
make_current(MatrixAlgebra(2)), and cend<n> equals make_cend(n)."""

from confalg.algebra import Derivation, DirectSum, MatrixAlgebra, MatrixPolyAlgebra
from confalg.constructions import make_differential


def _ddx(base):
    return base, Derivation.ddx(base)


def _ad_e12(base):
    return base, Derivation.ad(base.parse_element({"e12": "1"}))


def _zero(base):
    return base, Derivation.zero(base)


def table_ddx_plus_ad_e12():
    """d/dx + ad(e12) on 2x2 matrices over Q[x], written out as a basis table
    up to degree 3; its images have several terms, so a table entry can
    hold several keys at one power."""
    base, ddx = _ddx(MatrixPolyAlgebra(2))
    ad = _ad_e12(base)[1]
    images = {}
    for k in base.basis_upto(3):
        b = base.basis_element(k)
        images[k] = ddx.apply(b).add(ad.apply(b))
    return base, Derivation.table(base, images)


STOCK = {
    "cend1": lambda: _ddx(MatrixPolyAlgebra(1)),
    "cend2": lambda: _ddx(MatrixPolyAlgebra(2)),
    "cur_matrix2": lambda: _zero(MatrixAlgebra(2)),
    "dif_matrix2_ad_e12": lambda: _ad_e12(MatrixAlgebra(2)),
    "dif_matrix_poly2_ad_e12": lambda: _ad_e12(MatrixPolyAlgebra(2)),
    "table_ddx_plus_ad_e12": table_ddx_plus_ad_e12,
    # d/dx acts summand by summand on Q[x] + M_2(Q[x])
    "sum_poly_matrix_poly2_ddx": lambda: _ddx(
        DirectSum([MatrixPolyAlgebra(1), MatrixPolyAlgebra(2)])
    ),
}


def conformal(name):
    """A fresh conformal structure of the stock name."""
    return make_differential(*STOCK[name]())
