"""Exact invariant theory for finite and algebraic groups.

Ground fields: Q, GF(p), and simple extensions Q[t]/(m).  On top of a
sparse polynomial layer and a truncation-aware Buchberger engine, the
package computes minimal generating invariants of nonmodular finite
groups (King's algorithm), Molien series, separating sets with the
2n+1 reduction, primary invariants by Dade's orbit-product method,
Derksen ideals and generating invariants of linearly reductive groups,
and invariant-field generators over rational function fields.
"""

from .errors import InvarError
from .fields import (
    NumberField,
    PrimeField,
    Rationals,
    Scalar,
)
from .groebner import (
    BuchbergerEngine,
    GroebnerBasis,
    SubalgebraOracle,
    buchberger,
    elimination_ideal,
    ideal_dimension,
    ideal_membership,
    normal_form,
    radical_membership,
    reduce_basis,
    s_polynomial,
    subalgebra_membership,
)
from .groups import (
    FiniteMatrixGroup,
    classify_element,
    close_group,
    cohen_macaulay_necessary_condition,
    generated_by_predicate,
    is_bireflection_group,
    is_reflection_group,
    molien_series,
    reynolds,
)
from .invariants import (
    GeneratingSetResult,
    SeparatingSetResult,
    dade_primary_invariants,
    degree_bound_report,
    invariant_basis,
    is_phsop,
    king_generators,
    noether_separating_set,
    reduce_separating_set,
    verify_noether_and_hilbert,
    verify_separation_samples,
)
from .algebraic import (
    AlgebraicGroupSpec,
    action_graph_generators,
    algebraic_invariant_basis,
    derksen_generators,
    derksen_ideal,
    hilbert_ideal_generators,
    invariant_field_generators,
    separating_subalgebra,
    separating_variety,
)
from .linalg import Matrix
from .polynomials import (
    GRADEDLEX,
    GREVLEX,
    LEX,
    BlockElimination,
    MonomialOrder,
    Polynomial,
    PolynomialRing,
    monomials_of_degree,
)
from .ratfunc import RationalFunctionField, multivariate_gcd
from .specfile import fixture_path, load_spec_file

__version__ = "0.1.0"
