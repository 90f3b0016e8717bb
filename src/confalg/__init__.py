"""Exact computations in associative conformal structures over Q."""

from .algebra import (
    AlgebraError,
    BaseAlgebra,
    Derivation,
    DirectSum,
    Element,
    MatrixAlgebra,
    MatrixPolyAlgebra,
    OreElement,
    PolynomialAlgebra,
    ScalarAlgebra,
    Subalgebra,
    element_nilpotency_index,
    kernel_decompose,
    kernel_reconstruct,
    nilpotency_index,
)
from .conformal import (
    CElement,
    ConformalAlgebra,
    ConformalError,
    check_axioms,
    coeff_matrix,
    locality_degree,
    sample_celement,
)
from .constructions import (
    ClosureProfile,
    generate_closure,
    make_cend,
    make_current,
    make_differential,
    product_table,
)
from .growth import RankProfile, gk_profile
from .oracle import (
    Distribution,
    OracleError,
    coeff_assoc_check,
    dist_nprod,
    oracle_check,
    to_distribution,
)
from .rings import Poly, RatFunc, falling, frac, inv_factorial
from .specfile import SpecData, SpecError, load_spec, load_spec_text
from .structure import (
    CurrentnessVerdict,
    IdealPair,
    StructureError,
    UntwistResult,
    component_slices,
    dual_identity_consistency,
    ideal_lift,
    ideal_restrict,
    is_conformal_identity,
    is_current,
    nilpotency_check,
    unital_split,
    untwist,
)

__version__ = "0.1.0"
