"""Exact computation with totally nondegenerate CR models of CR dimension one.

Everything is computed over the rationals and Gaussian rationals: symbol
algebras as Hall-basis structure-constant tables, Tanaka and Levi-Tanaka
prolongations as exact kernel problems, the abstract infinitesimal CR
automorphism algebras, their isomorphism verification, and polynomial
vector-field realizations of the models (tangential CR fields, growth
vectors, group laws in exponential coordinates, left-invariant frames).
"""

from .exact import QI, Echelon, Inconsistent, Matrix
from .freelie import (
    HallBasis,
    HallWord,
    cumulative_dim,
    hall_basis,
    hall_rewrite,
    min_length_for_codim,
    witt_dim,
)
from .liealg import (
    BadQuotient,
    GradedLieAlgebra,
    MissingJ,
    NotSelfConjugate,
    QuotientSpec,
    SymbolAlgebra,
    build_symbol_algebra,
    check_grading,
    check_jacobi,
    is_fundamental,
    is_nondegenerate_symbol,
    is_pseudocomplex,
    real_form,
    realify,
)
from .prolong import (
    FULL_TANAKA,
    LEVI_TANAKA,
    GuardExceeded,
    MissingLowerComponents,
    NotFundamental,
    ProlongationComponent,
    ProlongedAlgebra,
    full_prolongation,
    grade0,
    is_transitive,
    prolong_component,
)
from .crmodels import (
    AutCRAlgebra,
    RhoTooSmall,
    TheoremReport,
    VerificationFailed,
    build_aut_cr,
    verify_heisenberg,
    verify_theorem,
)
from .poly import Chart, ChartMismatch, Poly, PolyVectorField, rigid_chart, real_chart, vf_bracket
from .bch import GroupLaw, NotNilpotent, bch_series, left_invariant_frame
from .frames import (
    Filtration,
    ModelSpec,
    NotRigid,
    NotTotallyNondegenerate,
    builtin_catalog,
    catalog_to_json,
    growth_and_nondegeneracy,
    load_catalog,
    rigid_model,
    field_model,
    symbol_from_frame,
)

__version__ = "0.1.0"
