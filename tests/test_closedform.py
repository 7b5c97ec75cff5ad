import itertools
import random

import pytest

from spincover import (
    InvalidMatrixError,
    ReducedMatrix,
    SpinReport,
    conjecture_predicate,
    conjugate_by_permutation,
    enumerate_valid,
    from_matrix,
    has_spin,
    identity_matrix,
    interval_simplex_matrix,
    oracle_class_is_zero,
    oracle_has_spin,
    parse_matrix,
    serialize_matrix,
    spin_sufficient,
    sw_oracle,
    total_sw_truncated,
    w2_coefficients,
    w3_coefficients,
    w3_vanishes_big,
    w3_vanishes_digraph,
    w4_coefficients,
    w4_vanishes_big,
)
from spincover.closedform import _key_bits, binom_parity, closed_coefficients
from spincover.oracle import GradedPolynomial, monomials_of_degree
from conftest import EVERY_MATRIX_FAMILIES, dv, perfbench_common, rp, upper_triangular_draw


def from_compact(dims, compact):
    return ReducedMatrix.from_rows(
        dims, [[int(ch) for ch in row] for row in compact.split("/")]
    )


def coefficient(p, key):
    """The coefficient in p of the product of x_i over the indices i of key."""
    e = tuple(key.count(i) for i in range(p.k))
    return p.pieces.get(len(key), 0) >> [*monomials_of_degree(p.k, len(key))].index(e) & 1


def test_spin_report_guards():
    with pytest.raises(ValueError):
        SpinReport(orientable=False, spin=True)
    with pytest.raises(ValueError):
        SpinReport(orientable=True, spin=False, failed_condition="ii", witness=None)


def test_orientability(torus, klein, spin_235):
    assert has_spin(torus).orientable
    assert not has_spin(klein).orientable
    assert has_spin(spin_235).orientable


def test_orientability_equals_vanishing_first_class():
    for dims in [(1, 2), (2, 2), (1, 1, 1)]:
        for A in enumerate_valid(dv(*dims)):
            assert has_spin(A).orientable == sw_oracle(A, 1).is_zero()


def test_w2_table_small_cases(torus, spin_235):
    assert coefficient(w2_coefficients(rp(2)), (0, 0)) == 1
    # pre-reduction both squares survive; the ring kills them afterwards
    t = w2_coefficients(torus)
    assert coefficient(t, (0, 0)) == 1 and coefficient(t, (1, 1)) == 1
    assert sw_oracle(torus, 2).is_zero()
    t = w2_coefficients(spin_235)
    assert [coefficient(t, (i, i)) for i in range(3)] == [0, 0, 0]
    assert coefficient(t, (0, 1)) == 0


def test_w2_table_equals_expansion_everywhere():
    for dims in [(1, 1), (1, 2), (2, 2), (2, 3), (1, 1, 1)]:
        for A in enumerate_valid(dv(*dims)):
            assert w2_coefficients(A) == total_sw_truncated(A, 2).degree_part(2)


def test_spin_fixture(spin_235):
    report = has_spin(spin_235)
    assert report.spin and report.orientable
    assert report.failed_condition is None and report.witness is None


def test_spin_interval_times_even_simplex():
    # one interval factor, one simplex of dimension 4t+2, second column all ones
    for t in (0, 1):
        A = interval_simplex_matrix(t)
        assert A.omega.dims == (1, 4 * t + 2)
        assert has_spin(A).spin
        assert oracle_has_spin(A)
    assert serialize_matrix(interval_simplex_matrix(0)) == "1 2\n11\n01\n01\n"
    with pytest.raises(ValueError):
        interval_simplex_matrix(-1)


def test_spin_failure_tags_and_witnesses(klein):
    assert has_spin(klein).failed_condition == "i"
    assert has_spin(klein).witness == (1,)
    pair_even = from_compact((2, 3), "10/10/01/01/11")
    assert has_spin(pair_even) == SpinReport(True, False, "ii", (0, 1))
    interval_pair = from_compact((1, 1, 3), "100/010/011/101/111")
    assert has_spin(interval_pair) == SpinReport(True, False, "iii", (0, 1))
    mixed_pair = from_compact((1, 1, 3), "100/110/001/001/101")
    assert has_spin(mixed_pair) == SpinReport(True, False, "iv", (0, 2))


def test_spin_verdict_survives_relabeling():
    for A in enumerate_valid(dv(1, 2)):
        for sigma in itertools.permutations(range(2)):
            B = conjugate_by_permutation(A, sigma)
            assert has_spin(B).spin == has_spin(A).spin
            assert spin_sufficient(B) == spin_sufficient(A)


def test_sufficient_condition(spin_235, torus):
    assert spin_sufficient(spin_235)
    assert spin_sufficient(rp(3))
    # not necessary once an interval factor is present
    assert not spin_sufficient(torus)
    assert has_spin(torus).spin


def test_sufficient_implies_spin_and_l0_equivalence():
    for dims in [(1, 1, 1), (1, 2), (1, 1, 2)]:
        for A in enumerate_valid(dv(*dims)):
            if spin_sufficient(A):
                assert has_spin(A).spin
    for dims in [(2, 2), (2, 3), (3, 3)]:
        for A in enumerate_valid(dv(*dims)):
            assert spin_sufficient(A) == has_spin(A).spin


def test_w3_cube_coefficients():
    assert coefficient(w3_coefficients(rp(3)), (0, 0, 0)) == 0
    assert coefficient(w3_coefficients(rp(6)), (0, 0, 0)) == 1


def test_w3_triple_coefficient(spin_235):
    # 8*4*8 + 8*2 + 4*4 + 8*2 is even
    assert coefficient(w3_coefficients(spin_235), (0, 1, 2)) == 0


def test_w3_table_equals_expansion_on_big_factors():
    for A in enumerate_valid(dv(3, 3)):
        assert w3_coefficients(A) == total_sw_truncated(A, 3).degree_part(3)


def test_w3_vanishing_criterion():
    assert w3_vanishes_big(identity_matrix(dv(3, 3)))
    assert not w3_vanishes_big(rp(6))
    with pytest.raises(ValueError):
        w3_vanishes_big(parse_matrix("2 3\n10\n10\n01\n01\n01\n"))
    for A in enumerate_valid(dv(3, 3)):
        assert w3_vanishes_big(A) == sw_oracle(A, 3).is_zero()


def test_w4_quartic_coefficients():
    assert coefficient(w4_coefficients(rp(7)), (0, 0, 0, 0)) == 0
    assert coefficient(w4_coefficients(rp(4)), (0, 0, 0, 0)) == 1
    ident = identity_matrix(dv(4, 4))
    assert coefficient(w4_coefficients(ident), (0, 0, 1, 1)) == 0


def test_w4_table_equals_expansion_on_big_factors():
    for A in enumerate_valid(dv(4, 4)):
        assert w4_coefficients(A) == total_sw_truncated(A, 4).degree_part(4)


def test_w4_vanishing_criterion():
    seven_pair = identity_matrix(dv(7, 7))
    assert w4_vanishes_big(seven_pair)
    assert sw_oracle(seven_pair, 4).is_zero()
    assert not w4_vanishes_big(rp(4))
    assert w4_vanishes_big(rp(8))
    with pytest.raises(ValueError):
        w4_vanishes_big(identity_matrix(dv(2, 3)))
    for A in enumerate_valid(dv(4, 4)):
        assert w4_vanishes_big(A) == sw_oracle(A, 4).is_zero()


def test_w4_pair_table_overconstrains_small_column_counts():
    # The pairwise residue rules encode constraints that only bind when at
    # least four columns exist; with two columns the (0,0) rule demands
    # k_12 = 1 mod 4, which the product of two RP^8 factors violates while
    # its fourth class still vanishes in the ring.  The table is kept as
    # is; this records the divergence rather than hiding it.
    ident = identity_matrix(dv(8, 8))
    assert not w4_vanishes_big(ident)
    assert sw_oracle(ident, 4).is_zero()


def first_seven_vanish(A):
    # w_1..w_7 vanish for factors of dimension >= 4 exactly under the t = 2
    # congruences: self-dots 7 mod 8, pair dots 0 mod 4, triple dots even
    return conjecture_predicate(A, 2, "shifted")


def test_first_seven_vanish():
    assert first_seven_vanish(rp(7))
    assert first_seven_vanish(identity_matrix(dv(7, 7)))
    assert [n for n in range(4, 10) if first_seven_vanish(rp(n))] == [7]
    with pytest.raises(ValueError, match="at least 4"):
        first_seven_vanish(identity_matrix(dv(2, 3)))
    assert not any(first_seven_vanish(A) for A in enumerate_valid(dv(4, 4)))


def test_first_seven_implies_oracle_vanishing():
    for A in (rp(7), identity_matrix(dv(7, 7))):
        assert first_seven_vanish(A)
        for m in range(1, 5):
            assert oracle_class_is_zero(A, m)


def test_conjecture_predicate_guards(torus):
    with pytest.raises(ValueError):
        conjecture_predicate(rp(4), 3, "shifted")
    with pytest.raises(ValueError):
        conjecture_predicate(rp(4), 1, "backwards")
    with pytest.raises(ValueError):
        conjecture_predicate(torus, 1, "shifted")


def test_conjecture_predicate_readings(spin_235):
    assert conjecture_predicate(rp(7), 2, "shifted")
    assert conjecture_predicate(rp(7), 2, "as-written")
    # dots 7, 3, 7 with even pairwise counts
    assert conjecture_predicate(spin_235, 1, "shifted")
    # odd pair count: vacuous modulus under the written exponent only
    witness = from_compact((2, 3), "10/10/01/01/11")
    assert conjecture_predicate(witness, 1, "as-written")
    assert not conjecture_predicate(witness, 1, "shifted")


def test_closed_coefficients_cover_degrees_one_to_four(spin_235, klein):
    # the face ideal has no degree-1 part, so closed w1 is the oracle's w1
    for A in enumerate_valid(dv(1, 1, 2)):
        assert closed_coefficients(A, 1) == sw_oracle(A, 1)
    assert [coefficient(closed_coefficients(klein, 1), (i,)) for i in range(2)] == [0, 1]
    assert closed_coefficients(spin_235, 2) == w2_coefficients(spin_235)
    assert closed_coefficients(spin_235, 3) == w3_coefficients(spin_235)
    assert closed_coefficients(spin_235, 4) == w4_coefficients(spin_235)
    for m in (0, 5):
        with pytest.raises(ValueError):
            closed_coefficients(spin_235, m)


def test_closed_forms_equal_the_raw_expansion_on_seeded_matrices():
    # Pre-reduction tables against the product they describe, through the
    # cached counts and the key-to-bit table, on shapes with factors below
    # the degree too: 300 valid matrices over the benchmark's query shapes
    # and (1,)^8.
    common = perfbench_common()
    shapes = [*common.QUERY_SHAPES, (1,) * 8]
    rng = random.Random(31)
    cases = 0
    for t in range(300):
        dims = shapes[t % len(shapes)]
        A = ReducedMatrix(dv(*dims), common.random_valid_matrix(rng, dims))
        for m in range(1, min(4, A.omega.n) + 1):
            wm = total_sw_truncated(A, m).degree_part(m)
            assert closed_coefficients(A, m) == wm, (A, m)
            cases += 1
    assert cases == 1200


def w3_reference(A):
    """w3_coefficients as it read before its parities were hoisted: each
    binomial parity read where it is used, each key sorted."""
    k = A.omega.k
    single, pair = A.dots()
    bits, mask = _key_bits(k, 3), 0
    for i in range(k):
        mask |= bits[(i, i, i)] * binom_parity(single[i] + 1, 3)
    for i, j in itertools.permutations(range(k), 2):
        p = (
            binom_parity(single[i] + 1, 2) * (single[j] + 1)
            + single[i] * pair[i][j]
        )
        mask |= bits[tuple(sorted((i, i, j)))] * (p % 2)
    for tri in itertools.combinations(range(k), 3):
        q = 1
        for p in tri:
            q *= single[p] + 1
        for p in tri:
            a, b = (x for x in tri if x != p)
            q += (single[p] + 1) * pair[a][b]
        mask |= bits[tri] * (q % 2)
    return GradedPolynomial(k, {3: mask})


def w4_reference(A):
    """w4_coefficients as it read before its parities were hoisted."""
    k = A.omega.k
    (single, pair), cols = A.dots(), A.columns
    bits, mask = _key_bits(k, 4), 0
    for i in range(k):
        mask |= bits[(i, i, i, i)] * binom_parity(single[i] + 1, 4)
    for i, j in itertools.permutations(range(k), 2):
        kij = pair[i][j]
        p1 = (
            binom_parity(single[i] + 1, 3) * (single[j] + 1)
            + binom_parity(single[i], 2) * kij
        )
        mask |= bits[tuple(sorted((i, i, i, j)))] * (p1 % 2)
    for i, j in itertools.combinations(range(k), 2):
        p2 = (
            binom_parity(single[i] + 1, 2) * binom_parity(single[j] + 1, 2)
            + single[i] * single[j] * pair[i][j]
            + binom_parity(pair[i][j], 2)
        )
        mask |= bits[(i, i, j, j)] * (p2 % 2)
    for sq in range(k):
        for i2, i3 in itertools.combinations(range(k), 2):
            if sq in (i2, i3):
                continue
            kt = (cols[sq] & cols[i2] & cols[i3]).bit_count()
            q = binom_parity(single[sq] + 1, 2) * (
                (single[i2] + 1) * (single[i3] + 1) + pair[i2][i3]
            )
            q += single[sq] * (
                pair[sq][i2] * (single[i3] + 1)
                + pair[sq][i3] * (single[i2] + 1)
            )
            q += pair[sq][i2] * pair[sq][i3] + kt
            mask |= bits[tuple(sorted((sq, sq, i2, i3)))] * (q % 2)
    for quad in itertools.combinations(range(k), 4):
        r = 1
        for p in quad:
            r *= single[p] + 1
        a, b, c, d = quad
        for p, q, z, w in ((a, b, c, d), (a, c, b, d), (a, d, b, c),
                           (b, c, a, d), (b, d, a, c), (c, d, a, b)):
            r += (single[p] + 1) * (single[q] + 1) * pair[z][w]
        r += (
            pair[a][b] * pair[c][d]
            + pair[a][c] * pair[b][d]
            + pair[a][d] * pair[b][c]
        )
        mask |= bits[quad] * (r % 2)
    return GradedPolynomial(k, {4: mask})


def test_closed_forms_equal_their_unhoisted_references():
    # Every valid matrix of the small families, then 200 seeded matrices per
    # query shape: the hoisted parities and unsorted keys change no bit.
    common, rng = perfbench_common(), random.Random(37)
    matrices = [A for dims in EVERY_MATRIX_FAMILIES for A in enumerate_valid(dv(*dims))]
    matrices += [
        ReducedMatrix(dv(*dims), common.random_valid_matrix(rng, dims))
        for dims in common.QUERY_SHAPES
        for _ in range(200)
    ]
    for A in matrices:
        assert w3_coefficients(A) == w3_reference(A), A
        assert w4_coefficients(A) == w4_reference(A), A
    assert len(matrices) == 120 + 200 * len(common.QUERY_SHAPES)


def test_closed_w1_reads_the_self_dots_without_the_pair_table(spin_235):
    A = ReducedMatrix(spin_235.omega, spin_235.rows)
    # sw -m 1 needs only the self-dots: the k x k pair table stays unbuilt
    assert closed_coefficients(A, 1) == sw_oracle(A, 1)
    assert A._dots is None


def test_closed_w1_has_no_singular_matrix_to_read():
    # No manifold stands behind a singular matrix, so closed_coefficients
    # is never asked for its w_1: the matrix cannot be built.
    with pytest.raises(InvalidMatrixError):
        ReducedMatrix.from_rows((1, 1), [[1, 1], [1, 1]])


def drawn_with_residues(dims, count, residues, seed=11):
    """The first `count` upper-triangular draws over dims whose self-dots
    all lie in `residues` mod 8."""
    rng, kept = random.Random(seed), []
    while len(kept) < count:
        A = upper_triangular_draw(rng, dims)
        if all(d % 8 in residues for d in A.self_dots):
            kept.append(A)
    return kept


@pytest.mark.parametrize(
    "dims, vanish",
    [
        ((4, 4, 7), 2),
        ((4, 7, 7), 0),
        ((7, 7, 7), 2),
        ((8, 9, 10), 0),
        ((8, 8, 9), 0),
        ((8, 9, 9), 1),
    ],
)
def test_w4_table_matches_the_oracle_on_three_column_draws(dims, vanish):
    # Three columns whose self-dots all pass the single rows reach the pair
    # and triple rows of the quartic table; the walk and the sampler reach
    # no such family.  A source factor's self-dot is its dimension, so the
    # first three families take the residue-7 triple rows, and the last
    # three, with a source of residue 0, 1 or 2, the `want` and `None` rows.
    # (8,8,8), where the table diverges, stays out: see README "Checked
    # divergences".
    draws = drawn_with_residues(dims, 400, {0, 1, 2, 7})
    verdicts = [w4_vanishes_big(A) for A in draws]
    assert verdicts == [oracle_class_is_zero(A, 4) for A in draws]
    assert sum(verdicts) == vanish


@pytest.mark.parametrize("dims, vanish", [((3, 3, 3, 3), 6), ((3, 3, 4, 4), 2)])
def test_w3_three_ways_on_four_column_draws(dims, vanish):
    rng = random.Random(11)
    draws = [upper_triangular_draw(rng, dims) for _ in range(400)]
    verdicts = [w3_vanishes_big(A) for A in draws]
    assert verdicts == [w3_vanishes_digraph(from_matrix(A)) for A in draws]
    assert verdicts == [oracle_class_is_zero(A, 3) for A in draws]
    assert sum(verdicts) == vanish


@pytest.mark.parametrize(
    "dims, m, table_misses",
    [
        ((8, 8), 4, 19),
        ((8, 8, 8), 4, 17),
        ((4, 4, 7), 4, 0),
        ((8, 9, 10), 4, 0),
        ((3, 3, 3, 3), 3, 0),
        ((3, 3, 4, 4), 3, 0),
    ],
)
def test_w_m_vanishes_exactly_when_every_closed_coefficient_is_0(dims, m, table_misses):
    # With every n_i >= m the face ideal starts above degree m, so w_m is its
    # closed form, and each coefficient reads the dots of at most m columns.
    # The printed vanishing table misses that exact condition on the quartic
    # (8,8) and (8,8,8) draws, each time by calling a vanishing w_4 nonzero:
    # the measured extent of README's "Checked divergences" entry.
    draws = drawn_with_residues(dims, 400, {0, 1, 2, 7} if m == 4 else range(8))
    exact = [closed_coefficients(A, m).is_zero() for A in draws]
    assert exact == [oracle_class_is_zero(A, m) for A in draws]
    table = w3_vanishes_big if m == 3 else w4_vanishes_big
    misses = [zero for A, zero in zip(draws, exact) if table(A) != zero]
    assert misses == [True] * table_misses
