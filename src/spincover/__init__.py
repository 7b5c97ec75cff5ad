"""Spin structures and low-degree Stiefel-Whitney classes of small covers
over products of simplices, decided from the reduced characteristic matrix
by closed-form criteria, by the equivalent weighted-digraph criteria, and by
direct computation in the mod 2 cohomology ring."""

from .model import (
    DimensionVector,
    InvalidMatrixError,
    MatrixFormatError,
    ReducedMatrix,
    SpinReport,
    ValidityReport,
    conjugate_by_permutation,
    elementary_component,
    identity_matrix,
    is_valid,
    parse_matrix,
    serialize_matrix,
    validate,
)
from .oracle import (
    GradedPolynomial,
    ideal_degree_basis,
    normal_form,
    oracle_class_is_zero,
    oracle_has_spin,
    polynomial_str,
    relation_generators,
    sw_oracle,
    total_sw_truncated,
)
from .closedform import (
    conjecture_predicate,
    has_spin,
    interval_simplex_matrix,
    spin_sufficient,
    w2_coefficients,
    w3_coefficients,
    w3_vanishes_big,
    w4_coefficients,
    w4_vanishes_big,
)
from .digraph import (
    CyclicDigraphError,
    DigraphFormatError,
    WeightedDigraph,
    common_source_sum,
    from_matrix,
    has_spin_digraph,
    parse_digraph,
    serialize_digraph,
    to_matrix,
    w3_vanishes_digraph,
    weighted_in_degree,
)
from .census import (
    DEFAULT_BUDGET,
    DEFAULT_SEED,
    BudgetError,
    CensusRecord,
    DiscrepancyReport,
    crosscheck_spin,
    crosscheck_w,
    enumerate_valid,
    matrix_from_counter,
    sample_valid,
    space_size,
    verify_conjecture,
    verify_elementary,
)

__version__ = "0.1.0"
