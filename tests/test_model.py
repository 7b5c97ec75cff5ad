import dataclasses
import heapq
import itertools
import random

import pytest
from hypothesis import example, given, settings
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
from spincover.model import _block_masks, bit_string, block_successors, cycle_vertices, is_cyclic
from spincover.census import compact_matrix
from conftest import (
    EVERY_MATRIX_FAMILIES,
    columns_bitwise,
    counter_rows,
    det_rows,
    dv,
    perfbench_common,
    principal_minors_all_one,
    reaches_itself,
    row_ints,
    seeded_candidates,
    serialize_bitwise,
)


def topological_order(k, arcs):
    """Kahn order of the vertices 0..k-1, smallest available vertex first.

    Vertices on a directed cycle, or reachable from one, are never emitted,
    so the order is shorter than k exactly when the relation is cyclic.
    """
    succ = [[] for _ in range(k)]
    indeg = [0] * k
    for i, j in arcs:
        succ[i].append(j)
        indeg[j] += 1
    ready = [v for v in range(k) if indeg[v] == 0]
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    return order


def normalize_upper_triangular(A):
    """Conjugate a valid matrix so all blocks below the diagonal vanish.

    Returns (A', sigma) with A' == conjugate_by_permutation(A, sigma).  The
    blocks are ordered topologically under i -> j iff v_ij != 0, which is
    acyclic exactly because the matrix is valid.
    """
    k = A.omega.k
    arcs = [(i, j) for i, m in enumerate(block_successors(A)) for j in range(k) if (m >> j) & 1]
    order = topological_order(k, arcs)
    sigma = [0] * k
    for pos, old in enumerate(order):
        sigma[old] = pos
    return conjugate_by_permutation(A, sigma), tuple(sigma)


def test_dimension_vector_derived_quantities():
    w = dv(1, 2, 1, 5)
    assert (w.n, w.k, w.l) == (9, 4, 2)
    assert w.offsets == (0, 1, 3, 4, 9)
    assert w.dims[1] == 2
    # one spelling per size: no method, iteration or indexing besides the fields
    for name in ("offset", "__iter__", "__len__", "__getitem__"):
        assert not hasattr(w, name), name


@pytest.mark.parametrize("dims", [(1,), (3, 1), (1, 2, 1, 5), (4, 4, 4, 2, 1)])
def test_dimension_vector_sizes_are_read_once(dims):
    w = DimensionVector(dims)
    assert w.offsets == tuple(sum(dims[:i]) for i in range(len(dims) + 1))
    assert (w.n, w.k, w.l) == (sum(dims), len(dims), dims.count(1))
    # derived in the constructor as plain fields, which equality, hashing
    # and the repr leave out; the offsets are one tuple per dims
    assert [f.name for f in dataclasses.fields(w)] == ["dims", "offsets", "n", "k", "l"]
    same = DimensionVector(dims)
    assert same.offsets is w.offsets
    assert w == same and hash(w) == hash(same)
    assert repr(w) == f"DimensionVector(dims={dims!r})"
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.dims = (1,)


def test_count_table_matches_k_count():
    # on seeded valid matrices of up to 8 factors
    rng = random.Random(12)
    for _ in range(300):
        dims = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 8)))
        omega = dv(*dims)
        A = ReducedMatrix(omega, perfbench_common().random_valid_matrix(rng, dims))
        assert A._dots is None
        if rng.random() < 0.5:
            assert A.self_dots == tuple(A.k_count([i]) for i in range(omega.k))
        table = single, pair = A.dots()
        assert A.dots() is table and A.self_dots is single
        for i in range(omega.k):
            assert single[i] == pair[i][i] == A.k_count([i])
            for j in range(omega.k):
                assert pair[i][j] == A.k_count({i, j})


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
    assert validate(dv(1, 1), [0b01, 0b10]).valid
    # a built matrix is valid by construction, and validate(A) says so
    assert validate(identity_matrix(dv(1, 1))).valid
    report = validate(dv(1, 1), [0b11, 0b11])
    assert not report.valid
    assert report.failing_selection == (0, 0)
    assert report.failing_subset == frozenset({0, 1})


def test_validate_fixture(spin_235):
    assert validate(spin_235).valid


def test_block_successors_read_blocks_and_diagonals():
    # off-diagonal arcs both ways, a loop where v_22 = (0, 1) is not all ones
    assert _block_masks(dv(1, 2), row_ints([[1, 1], [1, 0], [1, 1]])) == (0b10, 0b11)
    ident = identity_matrix(dv(2, 1, 3))
    assert block_successors(ident) == (0, 0, 0)
    assert block_successors(ident) is block_successors(ident)


def test_derived_columns_and_successors_match_their_definitions():
    # The block successor masks against their entry-by-entry definition on
    # valid and invalid candidates; on the valid ones, the constructor's
    # columns are the entry-by-entry columns, and block_successors hands out
    # its masks, kept on the matrix as a tuple.
    cases = seeded_candidates()
    assert {is_valid(omega, rows) for omega, rows in cases} == {True, False}
    for omega, rows in cases:
        want = tuple(
            sum(
                1 << j
                for j in range(omega.k)
                if any(
                    ((rows[t] >> j) & 1) != (i == j)
                    for t in range(omega.offsets[i], omega.offsets[i + 1])
                )
            )
            for i in range(omega.k)
        )
        assert _block_masks(omega, rows) == want
        if not is_valid(omega, rows):
            continue
        A = ReducedMatrix(omega, rows)
        assert A.columns == columns_bitwise(A)
        first = block_successors(A)
        assert type(first) is tuple and first == want
        assert block_successors(A) is first
    # Rows of more than ROW_NAME_BITS columns are named one by one, and a
    # one-factor matrix of 5,000 rows reads a column of 5,000 binary digits.
    dims = (1, 2, 1, 3, 1, 1, 2, 1, 1, 1, 1, 2)
    wide = perfbench_common().random_valid_matrix(random.Random(27), dims)
    tall = identity_matrix(dv(5000))
    for A in (ReducedMatrix(dv(*dims), wide), tall):
        assert A.columns == columns_bitwise(A)
        assert A.self_dots == tuple([c.bit_count() for c in A.columns])
    assert tall.self_dots == (5000,)


def test_cycle_vertices_name_the_vertices_on_a_cycle_like_the_reference():
    rng = random.Random(20)
    for _ in range(3000):
        k = rng.randint(1, 8)
        density = rng.random()
        arcs = [(i, j) for i in range(k) for j in range(k) if rng.random() < density / 2]
        succ = [0] * k
        for i, j in arcs:
            succ[i] |= 1 << j
        assert cycle_vertices(succ) == [v for v in range(k) if reaches_itself(v, arcs)]


def successors_by_rows(omega, rows):
    """The definition of the block relation: block i's mask is the union of
    its rows, each read with bit i flipped, so a clear diagonal entry is a loop."""
    out = []
    for i in range(omega.k):
        mask = 0
        for t in range(omega.offsets[i], omega.offsets[i + 1]):
            mask |= rows[t] ^ (1 << i)
        out.append(mask)
    return tuple(out)


@pytest.mark.parametrize("dims", EVERY_MATRIX_FAMILIES)
def test_one_pass_masks_equal_the_union_of_the_rows_on_every_matrix(dims):
    # Every n x k 0/1 matrix, valid or not, with its diagonal blocks free too;
    # a valid one keeps the masks its constructor derived.
    omega = DimensionVector(dims)
    for rows in itertools.product(range(1 << omega.k), repeat=omega.n):
        assert _block_masks(omega, rows) == successors_by_rows(omega, rows), rows
        if is_valid(omega, rows):
            assert block_successors(ReducedMatrix(omega, rows)) == successors_by_rows(omega, rows)


def test_one_pass_masks_equal_the_union_of_the_rows_on_random_matrices():
    rng = random.Random(18)
    for _ in range(2000):
        dims = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 8)))
        omega = DimensionVector(dims)
        rows = [rng.getrandbits(omega.k) for _ in range(omega.n)]
        assert _block_masks(omega, rows) == successors_by_rows(omega, rows), (dims, rows)


def reaches_itself_somewhere(succ):
    return bool(cycle_vertices(succ))


def test_kahn_peel_finds_a_cycle_exactly_when_a_vertex_reaches_itself():
    # Every relation on up to 3 vertices, loops included, then random ones.
    for k in range(4):
        for arcs in range(1 << (k * k)):
            succ = [(arcs >> (k * i)) & ((1 << k) - 1) for i in range(k)]
            assert is_cyclic(succ) == reaches_itself_somewhere(succ), succ
    rng = random.Random(19)
    for _ in range(3000):
        k = rng.randint(1, 12)
        density = rng.random() / 2
        succ = [sum(1 << j for j in range(k) if rng.random() < density) for _ in range(k)]
        assert is_cyclic(succ) == reaches_itself_somewhere(succ), succ


def _selection_rows(omega, rows, selection):
    """Row ints of the k x k matrix picking row selection[i] of block-row i."""
    return [rows[omega.offsets[i] + li] for i, li in enumerate(selection)]


def _definitional_report(omega, rows):
    """The definition of validity, kept apart from `validate`: scan the row
    selections, then the principal subsets, in lexicographic order and report
    the first vanishing minor."""
    k = omega.k
    for selection in itertools.product(*(range(d) for d in omega.dims)):
        square = _selection_rows(omega, rows, selection)
        for size in range(1, k + 1):
            for subset in itertools.combinations(range(k), size):
                mask = sum(1 << c for c in subset)
                if det_rows([square[r] for r in subset], mask) != 1:
                    return ValidityReport(False, selection, frozenset(subset))
    return ValidityReport(True)


@pytest.mark.parametrize("dims", EVERY_MATRIX_FAMILIES)
def test_the_constructor_refuses_exactly_the_invalid_candidates(dims):
    # Every n x k 0/1 matrix, diagonal blocks free: the constructor builds
    # exactly the candidates whose principal minors are all 1, and refuses
    # the rest naming the definition's first vanishing minor, one-based.
    omega = DimensionVector(dims)
    refused = 0
    for rows in itertools.product(range(1 << omega.k), repeat=omega.n):
        report = _definitional_report(omega, rows)
        if report.valid:
            assert ReducedMatrix(omega, rows).rows == rows
            continue
        sel = tuple(x + 1 for x in report.failing_selection)
        sub = tuple(sorted(x + 1 for x in report.failing_subset))
        with pytest.raises(InvalidMatrixError) as exc:
            ReducedMatrix(omega, rows)
        assert str(exc.value) == (
            f"not a characteristic matrix; principal minor vanishes "
            f"at row selection {sel}, column subset {sub}"
        ), rows
        refused += 1
    assert 0 < refused < 1 << omega.n * omega.k


@pytest.mark.parametrize(
    "dims", [(2, 3), (1, 1, 2), (1, 2, 2), (2, 2, 2), (1, 2, 3), (1, 1, 1, 1)]
)
def test_is_valid_matches_principal_minors_on_every_candidate(dims):
    omega = DimensionVector(dims)
    selections = list(itertools.product(*(range(d) for d in dims)))
    for counter in range(space_size(omega)):
        rows = counter_rows(omega, counter)
        expected = all(
            principal_minors_all_one(_selection_rows(omega, rows, sel)) for sel in selections
        )
        assert is_valid(omega, rows) == expected, (dims, counter)


@st.composite
def any_candidates(draw):
    """Candidates (omega, rows) with every entry free, diagonal blocks
    included.  Half of them are first pushed towards an acyclic block
    relation under a drawn order, so valid matrices and matrices with one
    late cycle show up too."""
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
    return DimensionVector(tuple(dims)), rows


@settings(deadline=None)
@given(any_candidates())
# Arcs 0->1, 1->2, 0->2, 1->3, 3->0, 2->4, 4->1, 2->5, 5->0: the girth is 3,
# and the first 3-subset of vertices on shortest cycles, {0, 1, 2}, is a
# transitive triangle, so the witness search must backtrack to {0, 1, 3}.
@example((dv(*(1,) * 6), [0b000111, 0b001110, 0b110100, 0b001001, 0b010010, 0b100001]))
def test_validate_matches_the_definition_with_its_witness(candidate):
    assert validate(*candidate) == _definitional_report(*candidate)


def test_validate_of_a_valid_matrix_computes_no_determinant():
    # the package has no determinant code: validity and its witness are both
    # decided by acyclicity, and the determinant lives only in conftest
    k = 6
    # block-row i carries ones in columns i..k-1: unitriangular, so valid
    omega = dv(*(2,) * k)
    rows = [[int(j >= i) for j in range(k)] for i in range(k) for _ in range(2)]
    assert validate(omega, row_ints(rows)).valid
    assert not validate(omega, row_ints([[1] * k] * (2 * k))).valid


def test_validity_report_consistency():
    with pytest.raises(ValueError):
        ValidityReport(valid=True, failing_selection=(0, 0), failing_subset=frozenset({0}))
    with pytest.raises(ValueError):
        ValidityReport(valid=False, failing_selection=None, failing_subset=None)


def test_the_refusal_message_is_one_based():
    # the matrix 1 1 / 11 / 11: both factors reach each other
    with pytest.raises(InvalidMatrixError) as exc:
        ReducedMatrix.from_rows((1, 1), [[1, 1], [1, 1]])
    assert str(exc.value) == (
        "not a characteristic matrix; principal minor vanishes "
        "at row selection (1, 1), column subset (1, 2)"
    )


def test_identity_matrix_blocks():
    ident = identity_matrix(dv(2, 3))
    for i, j in itertools.product(range(2), range(2)):
        assert ident.block(i, j) == ((1 << ident.omega.dims[i]) - 1 if i == j else 0)


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
            C = elementary_component(A, i, j)
            assert is_valid(C.omega, C.rows)


def test_parse_skips_comments_and_blank_lines():
    text = "# header\n\n1 1\n# middle\n10\n\n01\n"
    assert parse_matrix(text) == identity_matrix(dv(1, 1))


def test_serialize_parse_roundtrip(spin_235, tower_2333):
    for A in (spin_235, tower_2333):
        assert parse_matrix(serialize_matrix(A)) == A


def test_serialize_matches_the_bitwise_formatter():
    rng = random.Random(5)
    for _ in range(300):
        dims = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 8)))
        A = ReducedMatrix(dv(*dims), perfbench_common().random_valid_matrix(rng, dims))
        text = serialize_matrix(A)
        assert text == serialize_bitwise(A)
        assert compact_matrix(A) == "/".join(text.splitlines()[1:])
    assert serialize_matrix(ReducedMatrix(dv(2), [1, 1])) == "2\n1\n1\n"


@given(st.sampled_from([(1, 1), (1, 2), (2, 2), (1, 1, 1)]), st.data())
def test_roundtrip_on_random_candidates(dims, data):
    omega = DimensionVector(dims)
    counter = data.draw(st.integers(0, space_size(omega) - 1))
    rows = counter_rows(omega, counter)
    if is_valid(omega, rows):
        A = matrix_from_counter(omega, counter)
        assert parse_matrix(serialize_matrix(A)) == A
    else:
        # the text of the candidate parses, and the constructor refuses it
        lines = [" ".join(map(str, dims))] + [bit_string(r, omega.k) for r in rows]
        with pytest.raises(InvalidMatrixError):
            parse_matrix("\n".join(lines) + "\n")


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


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 1\n1a\n01\n", "line 2: row '1a' has characters outside 0/1"),
        ("1 1\n١0\n01\n", "line 2: row '١0' has characters outside 0/1"),
        ("1 1\n1 0\n01\n", "line 2: expected 2 columns, got 3"),
        ("1 1\n1\t0\n01\n", "line 2: expected 2 columns, got 3"),
        ("1 1\n1\n01\n", "line 2: expected 2 columns, got 1"),
        ("1 1\n10\n01\n11\n", "line 4: extra row after matrix is complete"),
        ("1 1\n10\n\n# c\n", "line 4: expected 2 rows, got 1"),
    ],
)
def test_parse_row_errors_keep_their_words(text, message):
    # A row is checked by its length and then by its counts of 0 and 1.
    with pytest.raises(MatrixFormatError) as exc:
        parse_matrix(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("line", ["١ 1", "1_0 1", "+1 1", "-1 1", "1 ２"])
def test_parse_refuses_dimension_tokens_that_int_would_read(line):
    # A factor dimension is plain ASCII decimal digits; int() also reads
    # signs, underscores and the digits of other scripts.
    with pytest.raises(MatrixFormatError) as exc:
        parse_matrix(f"{line}\n10\n01\n")
    assert exc.value.line == 1
    assert f"bad dimension line {line!r}" in str(exc.value)


@pytest.mark.parametrize("row", ["1_0", "01+", "01-", "1١0"])
def test_parse_refuses_rows_that_int_would_read(row):
    # Rows are read with int(row[::-1], 2), which accepts signs, underscores
    # and non-ASCII digits; the format allows only the characters 0 and 1.
    with pytest.raises(MatrixFormatError) as exc:
        parse_matrix(f"1 1 1\n{row}\n010\n001\n")
    assert exc.value.line == 2
    assert "characters outside 0/1" in str(exc.value)
