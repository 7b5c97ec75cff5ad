import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincover import (
    DimensionVector,
    InvalidMatrixError,
    MatrixFormatError,
    ReducedMatrix,
    ValidityReport,
    conjugate_by_permutation,
    elementary_component,
    enumerate_valid,
    identity_matrix,
    is_valid,
    matrix_from_counter,
    parse_matrix,
    serialize_matrix,
    space_size,
    validate,
)
from spincover.model import block_arcs, require_valid, topological_order
from conftest import det_rows, dv, principal_minors_all_one


def normalize_upper_triangular(A):
    """Conjugate a valid matrix so all blocks below the diagonal vanish.

    Returns (A', sigma) with A' == conjugate_by_permutation(A, sigma).  The
    blocks are ordered topologically under i -> j iff v_ij != 0, which is
    acyclic exactly because the matrix is valid.
    """
    require_valid(A)
    k = A.omega.k
    order = topological_order(k, block_arcs(A))
    sigma = [0] * k
    for pos, old in enumerate(order):
        sigma[old] = pos
    return conjugate_by_permutation(A, sigma), tuple(sigma)


def test_dimension_vector_derived_quantities():
    w = dv(1, 2, 1, 5)
    assert w.n == 9
    assert w.k == 4
    assert w.l == 2
    assert [w.offset(i) for i in range(4)] == [0, 1, 3, 4]
    assert list(w) == [1, 2, 1, 5]
    assert len(w) == 4
    assert w[1] == 2


def test_dimension_vector_rejects_bad_dims():
    with pytest.raises(ValueError):
        DimensionVector(())
    with pytest.raises(ValueError):
        DimensionVector((1, 0))


def test_reduced_matrix_shape_check():
    with pytest.raises(ValueError):
        ReducedMatrix.from_rows((2,), [[1]])
    with pytest.raises(ValueError):
        ReducedMatrix.from_rows((1, 1), [[1], [1]])
    with pytest.raises(ValueError):
        ReducedMatrix(dv(1, 1), [0b01, 0b100])
    with pytest.raises(ValueError):
        ReducedMatrix.from_rows((1, 1), [[1, 2], [0, 1]])


def test_block_and_column_accessors(spin_235):
    # bit t of a block is row t of its block-row
    assert spin_235.block(0, 0) == 0b11
    assert spin_235.block(1, 0) == 0b110
    assert spin_235.block(2, 1) == 0
    assert spin_235.block(1, 2) == 0b011
    assert spin_235.k_count([1]) == 3
    with pytest.raises(IndexError):
        spin_235.block(3, 0)


def test_k_count_multiway(spin_235):
    assert spin_235.k_count([0]) == 7
    assert spin_235.k_count([0, 1]) == 2
    assert spin_235.k_count([0, 1, 2]) == 1
    with pytest.raises(ValueError):
        spin_235.k_count([])


def test_columns_dot_fixture_values(spin_235):
    assert spin_235.k_count((0, 0)) == 7
    assert spin_235.k_count((1, 2)) == 2
    assert spin_235.k_count((0, 2)) == 4


def test_columns_dot_all_ones_diagonal():
    A = ReducedMatrix.from_rows((4,), [[1]] * 4)
    assert A.k_count((0, 0)) == 4


def test_validate_identity_and_dependent_pair():
    assert validate(identity_matrix(dv(1, 1))).valid
    bad = ReducedMatrix.from_rows((1, 1), [[1, 1], [1, 1]])
    report = validate(bad)
    assert not report.valid
    assert report.failing_selection == (0, 0)
    assert report.failing_subset == frozenset({0, 1})


def test_validate_fixture(spin_235):
    assert validate(spin_235).valid


def test_block_arcs_read_blocks_and_diagonals():
    # off-diagonal arcs both ways, a loop where v_22 = (0, 1) is not all ones
    A = ReducedMatrix.from_rows((1, 2), [[1, 1], [1, 0], [1, 1]])
    assert block_arcs(A) == [(0, 1), (1, 0), (1, 1)]
    assert block_arcs(identity_matrix(dv(2, 1, 3))) == []


def _selection_rows(A, selection):
    """Row ints of the k x k matrix picking row selection[i] of block-row i."""
    return [A.rows[A.omega.offset(i) + li] for i, li in enumerate(selection)]


def _definitional_report(A):
    """The definition of validity, kept apart from `validate`: scan the row
    selections, then the principal subsets, in lexicographic order and report
    the first vanishing minor."""
    k = A.omega.k
    for selection in itertools.product(*(range(d) for d in A.omega.dims)):
        rows = _selection_rows(A, selection)
        for size in range(1, k + 1):
            for subset in itertools.combinations(range(k), size):
                mask = sum(1 << c for c in subset)
                if det_rows([rows[r] for r in subset], mask) != 1:
                    return ValidityReport(False, selection, frozenset(subset))
    return ValidityReport(True)


@pytest.mark.parametrize(
    "dims", [(2, 3), (1, 1, 2), (1, 2, 2), (2, 2, 2), (1, 2, 3), (1, 1, 1, 1)]
)
def test_is_valid_matches_principal_minors_on_every_candidate(dims):
    omega = DimensionVector(dims)
    selections = list(itertools.product(*(range(d) for d in dims)))
    for counter in range(space_size(omega)):
        A = matrix_from_counter(omega, counter)
        expected = all(
            principal_minors_all_one(_selection_rows(A, sel)) for sel in selections
        )
        assert is_valid(A) == expected, (dims, counter)


@st.composite
def any_matrices(draw):
    """Matrices with every entry free, diagonal blocks included.  Half of them
    are first pushed towards an acyclic block relation under a drawn order,
    so valid matrices and matrices with one late cycle show up too."""
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    k, n = len(dims), sum(dims)
    rows = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=n, max_size=n))
    if draw(st.booleans()):
        rank = draw(st.permutations(range(k)))
        block = [i for i, d in enumerate(dims) for _ in range(d)]
        for r, i in enumerate(block):
            rows[r] |= 1 << i
            for j in range(k):
                if rank[j] < rank[block[r]]:
                    rows[r] &= ~(1 << j)
        if draw(st.booleans()):
            rows[draw(st.integers(0, n - 1))] |= draw(st.integers(0, (1 << k) - 1))
    return ReducedMatrix(DimensionVector(tuple(dims)), rows)


@settings(deadline=None)
@given(any_matrices())
def test_validate_matches_the_definition_with_its_witness(A):
    assert validate(A) == _definitional_report(A)


def test_validate_of_a_valid_matrix_computes_no_determinant():
    # the package has no determinant code: validity and its witness are both
    # decided by acyclicity, and the determinant lives only in conftest
    k = 6
    # block-row i carries ones in columns i..k-1: unitriangular, so valid
    rows = [[int(j >= i) for j in range(k)] for i in range(k) for _ in range(2)]
    A = ReducedMatrix.from_rows((2,) * k, rows)
    assert validate(A).valid
    B = ReducedMatrix.from_rows((2,) * k, [[1] * k] * (2 * k))
    assert not validate(B).valid


def test_validity_report_consistency():
    with pytest.raises(ValueError):
        ValidityReport(valid=True, failing_selection=(0, 0), failing_subset=frozenset({0}))
    with pytest.raises(ValueError):
        ValidityReport(valid=False, failing_selection=None, failing_subset=None)


def test_require_valid_message_is_one_based():
    bad = ReducedMatrix.from_rows((1, 1), [[1, 1], [1, 1]])
    with pytest.raises(InvalidMatrixError) as exc:
        elementary_component(bad, 0, 1)
    assert "(1, 1)" in str(exc.value)


def test_identity_matrix_blocks():
    ident = identity_matrix(dv(2, 3))
    for i, j in itertools.product(range(2), range(2)):
        assert ident.block(i, j) == ((1 << ident.omega[i]) - 1 if i == j else 0)


def test_conjugate_identity_permutation(spin_235):
    assert conjugate_by_permutation(spin_235, (0, 1, 2)) == spin_235


def test_conjugate_swap_moves_blocks():
    A = parse_matrix("1 2\n11\n01\n01\n")
    B = conjugate_by_permutation(A, (1, 0))
    assert B.omega.dims == (2, 1)
    assert B.block(0, 1) == A.block(1, 0)
    assert B.block(1, 0) == A.block(0, 1)


def test_conjugate_rejects_non_permutation(torus):
    with pytest.raises(ValueError):
        conjugate_by_permutation(torus, (0, 0))


def test_conjugation_preserves_dots_and_validity():
    # every valid matrix of a mixed family, every relabeling
    for A in enumerate_valid(dv(1, 2)):
        for sigma in itertools.permutations(range(2)):
            B = conjugate_by_permutation(A, sigma)
            assert validate(B).valid
            for i, j in itertools.product(range(2), repeat=2):
                assert A.k_count((i, j)) == B.k_count((sigma[i], sigma[j]))


def test_normalize_already_upper_triangular():
    A = parse_matrix("1 1\n11\n01\n")
    B, sigma = normalize_upper_triangular(A)
    assert B == A
    assert sigma == (0, 1)


def test_normalize_swaps_lower_edge():
    A = parse_matrix("1 1\n10\n11\n")
    B, sigma = normalize_upper_triangular(A)
    assert serialize_matrix(B) == "1 1\n11\n01\n"
    assert sigma == (1, 0)


def test_topological_order_is_smallest_first_and_drops_cycles():
    assert topological_order(4, [(2, 0), (3, 1)]) == [2, 0, 3, 1]
    # 0 <-> 1 is a cycle and 2 hangs below it; only 3 is ever emitted
    assert topological_order(4, [(0, 1), (1, 0), (1, 2)]) == [3]


def test_normalize_result_is_upper_triangular_everywhere():
    for A in enumerate_valid(dv(1, 1, 1)):
        B, _ = normalize_upper_triangular(A)
        for i in range(3):
            for j in range(i):
                assert B.block(i, j) == 0


def test_elementary_component_of_identity():
    ident = identity_matrix(dv(1, 2, 2))
    for i, j in itertools.combinations(range(3), 2):
        assert elementary_component(ident, i, j) == ident


def test_elementary_component_two_factors_is_whole(klein):
    assert elementary_component(klein, 0, 1) == klein


def test_elementary_component_resets_other_columns():
    A = parse_matrix("1 1 1\n111\n011\n001\n")
    assert serialize_matrix(elementary_component(A, 0, 1)) == "1 1 1\n110\n010\n001\n"
    assert serialize_matrix(elementary_component(A, 0, 2)) == "1 1 1\n101\n011\n001\n"
    # columns 2 and 3 are kept whole, including their entries in block-row 1
    assert elementary_component(A, 1, 2) == A


def test_elementary_component_rejects_bad_pairs(torus):
    with pytest.raises(ValueError):
        elementary_component(torus, 1, 1)
    with pytest.raises(ValueError):
        elementary_component(torus, 1, 0)


@pytest.mark.parametrize("dims", [(1, 1, 1), (1, 2, 2)])
def test_elementary_components_stay_valid(dims):
    for A in enumerate_valid(DimensionVector(dims)):
        for i, j in itertools.combinations(range(len(dims)), 2):
            assert is_valid(elementary_component(A, i, j))


def test_parse_skips_comments_and_blank_lines():
    text = "# header\n\n1 1\n# middle\n10\n\n01\n"
    assert parse_matrix(text) == identity_matrix(dv(1, 1))


def test_serialize_parse_roundtrip(spin_235, tower_2333):
    for A in (spin_235, tower_2333):
        assert parse_matrix(serialize_matrix(A)) == A


@given(st.sampled_from([(1, 1), (1, 2), (2, 2), (1, 1, 1)]), st.data())
def test_roundtrip_on_random_candidates(dims, data):
    omega = DimensionVector(dims)
    counter = data.draw(st.integers(0, space_size(omega) - 1))
    A = matrix_from_counter(omega, counter)
    assert parse_matrix(serialize_matrix(A)) == A


@pytest.mark.parametrize(
    "text, line",
    [
        ("1 x\n10\n01\n", 1),
        ("0 1\n", 1),
        ("# c\n1 1\n10\n0x\n", 4),
        ("1 1\n101\n01\n", 2),
        ("1 1\n10\n01\n11\n", 4),
        ("1 1\n10\n", 2),
        ("# only a comment\n", 1),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(MatrixFormatError) as exc:
        parse_matrix(text)
    assert exc.value.line == line
    assert f"line {line}:" in str(exc.value)
