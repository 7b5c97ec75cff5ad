import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spincover import (
    GradedPolynomial,
    InvalidMatrixError,
    ReducedMatrix,
    conjugate_by_permutation,
    enumerate_valid,
    identity_matrix,
    ideal_degree_basis,
    is_valid,
    normal_form,
    oracle_class_is_zero,
    oracle_has_spin,
    polynomial_str,
    relation_generators,
    sw_oracle,
    total_sw_truncated,
)
from spincover.closedform import binom_parity
from spincover import oracle
from spincover.oracle import DegreeBasis, monomials_of_degree
from conftest import dv, expand_tuples, perfbench_common, rp

HILBERT_FAMILIES = [(1, 1, 1, 1), (2, 3), (1, 1, 2), (3, 3)]


def poly(k, *terms):
    """The polynomial whose terms are these exponent vectors; over GF(2) a
    repeated term cancels."""
    pieces = {}
    for e in terms:
        d = sum(e)
        pieces[d] = pieces.get(d, 0) ^ (1 << list(monomials_of_degree(k, d)).index(e))
    return GradedPolynomial(k, pieces)


def test_monomials_of_degree_order_and_count():
    ms = list(monomials_of_degree(3, 3))
    assert len(ms) == math.comb(3 + 3 - 1, 3)
    assert all(sum(e) == 3 for e in ms)
    assert ms == sorted(ms, reverse=True)
    assert ms[0] == (3, 0, 0) and ms[-1] == (0, 0, 3)


def test_degree_part():
    p = poly(2, (1, 0), (1, 1), (0, 2))
    assert p.degree_part(2) == poly(2, (1, 1), (0, 2))
    assert p.degree_part(5).is_zero()


def test_polynomial_str_formats():
    assert polynomial_str(poly(3)) == "0"
    assert polynomial_str(poly(3, (0, 0, 0))) == "1"
    assert polynomial_str(poly(3, (2, 0, 1), (0, 1, 0))) == "x1^2*x3 + x2"
    assert polynomial_str(poly(2, (1, 1), (0, 2), (2, 0))) == "x1^2 + x1*x2 + x2^2"


def test_relation_generators_products(torus, klein):
    g = relation_generators(torus)
    assert g[0] == poly(2, (2, 0))
    assert g[1] == poly(2, (0, 2))
    # generator i multiplies x_i by the substituted rows of block i
    g = relation_generators(klein)
    assert g[0] == poly(2, (2, 0), (1, 1))
    assert g[1] == poly(2, (0, 2))


def test_relation_generator_degrees(spin_235):
    gens = relation_generators(spin_235)
    assert [max(g.pieces) for g in gens] == [3, 4, 6]


def test_relation_generators_require_validity():
    # the generators take a ReducedMatrix, and singular rows never become one
    with pytest.raises(InvalidMatrixError):
        ReducedMatrix.from_rows((1, 1), [[1, 1], [1, 1]])


def test_total_class_small_cases(torus):
    assert total_sw_truncated(torus, 2) == poly(2, (0, 0), (2, 0), (0, 2))
    assert total_sw_truncated(rp(2), 2) == poly(1, (0,), (1,), (2,))
    assert total_sw_truncated(torus, 0) == poly(2, (0, 0))


@pytest.mark.parametrize("dims", [(1, 2, 4), (3, 3), (2, 2, 2), (5,), (1, 1, 1, 1)])
def test_identity_expansion_is_binomial(dims):
    # For I_omega the total class is prod (1 + x_i)^(n_i + 1), so the
    # degree-m piece holds the e with every C(n_i + 1, e_i) odd.
    omega = dv(*dims)
    ident = identity_matrix(omega)
    for d in range(omega.n + 2):
        total = total_sw_truncated(ident, d)
        assert max(total.pieces) <= d
        for m in range(d + 1):
            expected = {
                e
                for e in monomials_of_degree(omega.k, m)
                if all(binom_parity(n + 1, x) for n, x in zip(dims, e))
            }
            assert decode(omega.k, m, total.pieces.get(m, 0)) == expected


def hilbert_coefficient(dims, d):
    """The coefficient of t^d in prod (1 + t + ... + t^{n_i})."""
    coeffs = [1]
    for n in dims:
        coeffs = [sum(coeffs[max(0, e - n):e + 1]) for e in range(len(coeffs) + n)]
    return coeffs[d] if d < len(coeffs) else 0


@pytest.mark.parametrize("dims", HILBERT_FAMILIES)
def test_quotient_has_the_hilbert_function_of_the_polytope(dims):
    # The degree-d piece of the quotient has dimension #{e : |e| = d,
    # e_i <= n_i}, whatever the matrix and the monomial order.
    omega = dv(*dims)
    for A in enumerate_valid(omega):
        for d in range(1, omega.n + 2):
            free = math.comb(d + omega.k - 1, d) - ideal_degree_basis(A, d).rank
            assert free == hilbert_coefficient(dims, d)


def decode(k, d, mask):
    """The exponent vectors of a degree-d bitmask piece, read off the
    descending lex list of the degree-d monomials."""
    monomials = list(monomials_of_degree(k, d))
    assert mask >> len(monomials) == 0
    return {e for t, e in enumerate(monomials) if (mask >> t) & 1}


def test_bitmask_expansion_matches_the_tuple_reference():
    rng = random.Random(8)
    for _ in range(400):
        k, maxdeg = rng.randint(1, 6), rng.randint(0, 6)
        rows = [rng.randrange(1 << k) for _ in range(rng.randint(0, 8))]
        got = oracle._expand(k, rows, maxdeg)
        assert [decode(k, d, mask) for d, mask in enumerate(got)] == expand_tuples(
            k, rows, maxdeg
        )


def test_expansion_over_a_shuffled_last_block_matches_the_tuple_reference():
    # The prefix times the last block's rows in any order is the product of
    # all rows: a census may expand one member of each row-order class.
    rng = random.Random(21)
    for _ in range(300):
        k, maxdeg = rng.randint(1, 6), rng.randint(0, 6)
        rows = [rng.randrange(1 << k) for _ in range(rng.randint(0, 8))]
        cut = rng.randint(0, len(rows))
        last = rows[cut:]
        rng.shuffle(last)
        got = oracle._expand(k, last, maxdeg, oracle._expand(k, rows[:cut], maxdeg))
        assert [decode(k, d, mask) for d, mask in enumerate(got)] == expand_tuples(
            k, rows, maxdeg
        )


@pytest.mark.parametrize("dims", [(1, 1, 2), (2, 3)])
def test_total_class_and_generators_match_the_tuple_reference(dims):
    omega = dv(*dims)
    k = omega.k
    for A in enumerate_valid(omega):
        total = total_sw_truncated(A, omega.n)
        want = expand_tuples(k, [1 << i for i in range(k)] + list(A.rows), omega.n)
        assert [decode(k, d, total.pieces.get(d, 0)) for d in range(omega.n + 1)] == want
        for i, g in enumerate(relation_generators(A)):
            off, top = omega.offsets[i], omega.dims[i] + 1
            want = expand_tuples(k, [1 << i, *A.rows[off:off + omega.dims[i]]], top)[top]
            assert sorted(g.pieces) == [top] and decode(k, top, g.pieces[top]) == want


def generator_shift_basis(A, d):
    """Every generator times every monomial of the complementary degree:
    the definitional spanning set of the ideal in degree d.  Each g_i is the
    top piece of the tuple expansion over x_i and the rows of block i, so no
    bitmask kernel of the oracle builds it."""
    k, omega = A.omega.k, A.omega
    index = {e: t for t, e in enumerate(monomials_of_degree(k, d))}
    shifts = []
    for i, n in enumerate(omega.dims):
        if n + 1 > d:
            continue
        block = A.rows[omega.offsets[i]:omega.offsets[i + 1]]
        g = expand_tuples(k, [1 << i, *block], n + 1)[n + 1]
        for m in monomials_of_degree(k, d - n - 1):
            vec = 0
            for e in g:
                vec ^= 1 << index[tuple(a + b for a, b in zip(e, m))]
            shifts.append(vec)
    return DegreeBasis(shifts)


def reference_reduced_total(A, maxdeg):
    """The reduced total class, degree by degree, from the definitional
    pieces: the tuple expansion of the rows of [I_k; A], reduced against the
    span of the generator shifts."""
    k = A.omega.k
    pieces = expand_tuples(k, [1 << i for i in range(k)] + list(A.rows), maxdeg)
    out = []
    for d, terms in enumerate(pieces):
        index = {e: t for t, e in enumerate(monomials_of_degree(k, d))}
        mask = sum(1 << index[e] for e in terms)
        out.append(generator_shift_basis(A, d).reduce(mask) if d else mask)
    return out


@pytest.mark.parametrize("dims", HILBERT_FAMILIES + [(1, 2, 4)])
def test_cached_oracle_matches_the_definitional_reduction_in_any_order(dims):
    # The ideal bases and the expansion prefix are cached on the rows they
    # read.  The walk order reuses them across neighbours; a shuffled order
    # visits the keys out of turn, which is where a key that leaves out a row
    # its value depends on would return a stale entry.
    omega = dv(*dims)
    walk = list(enumerate_valid(omega))
    want = {A: reference_reduced_total(A, omega.n) for A in walk}
    shuffled = walk[:]
    random.Random(11).shuffle(shuffled)
    for order in (walk, shuffled):
        oracle._degree_basis.cache_clear()
        oracle._prefix.cache_clear()
        for A in order:
            got = normal_form(total_sw_truncated(A, omega.n), A)
            assert [got.pieces.get(d, 0) for d in range(omega.n + 1)] == want[A]


def test_cached_entries_still_refuse_an_invalid_matrix():
    # Over (1, 2) the basis of degree 2 and the expansion prefix read only
    # block-row 0.  B shares it with the valid A, but its block-row 1 closes
    # the cycle 1 <-> 2; with A's entries cached, B is still refused, by the
    # constructor, before any lookup.
    A = ReducedMatrix.from_rows((1, 2), [[1, 1], [0, 1], [0, 1]])
    b_rows = [0b11, 0b11, 0b10]
    assert is_valid(A.omega, A.rows) and not is_valid(A.omega, b_rows)
    assert A.rows[0] == b_rows[0]
    ideal_degree_basis(A, 2)
    normal_form(total_sw_truncated(A, 3), A)
    with pytest.raises(InvalidMatrixError):
        ReducedMatrix(A.omega, b_rows)


@pytest.mark.parametrize("dims", HILBERT_FAMILIES)
def test_degree_recursive_basis_matches_the_generator_shifts(dims):
    # Equal reductions of every monomial mean equal spans, since the
    # reduction is linear and vanishes exactly on the span.
    omega = dv(*dims)
    for A in enumerate_valid(omega):
        for d in range(1, omega.n + 2):
            fast, slow = ideal_degree_basis(A, d), generator_shift_basis(A, d)
            assert fast.rank == slow.rank
            for t in range(math.comb(d + omega.k - 1, d)):
                assert fast.reduce(1 << t) == slow.reduce(1 << t)


@pytest.mark.parametrize("dims", [s for s in perfbench_common().QUERY_SHAPES if len(s) >= 4])
def test_oracle_matches_the_tuple_references_on_seeded_query_shapes(dims):
    # The row images, and the ideal's multiples read off them, against the
    # tuple expansion and the generator shifts, up to degree 5, on the shapes
    # whose rows take several variables at once.
    common, rng, top = perfbench_common(), random.Random(29), 5
    omega = dv(*dims)
    k = omega.k
    for _ in range(6):
        A = ReducedMatrix(omega, common.random_valid_matrix(rng, dims))
        total = total_sw_truncated(A, top)
        want = expand_tuples(k, [1 << i for i in range(k)] + list(A.rows), top)
        assert [decode(k, d, total.pieces.get(d, 0)) for d in range(top + 1)] == want
        reduced = reference_reduced_total(A, top)
        for d in range(1, top + 1):
            fast, slow = ideal_degree_basis(A, d), generator_shift_basis(A, d)
            assert fast.rank == slow.rank
            for t in range(math.comb(d + k - 1, d)):
                assert fast.reduce(1 << t) == slow.reduce(1 << t)
            assert sw_oracle(A, d).pieces.get(d, 0) == reduced[d]


def test_row_images_are_shared_and_zero_rows_give_zero():
    # Image entry t is monomial t times the row's linear form without x_1;
    # x_1 keeps a monomial's bit, so a row with bit 0 adds the piece itself.
    rng = random.Random(3)
    for k in range(1, 6):
        for d in range(4):
            tables = oracle._times_x(k, d)
            count = len(tables[0])
            assert oracle._row_image(k, d, 0) == (0,) * count
            for j in range(1, k):
                assert oracle._row_image(k, d, 1 << j) is tables[j]
            for row in range(0, 1 << k, 2):
                image = oracle._row_image(k, d, row)
                for t in range(count):
                    want = 0
                    for j in range(1, k):
                        if (row >> j) & 1:
                            want ^= tables[j][t]
                    assert image[t] == want
                mask = rng.getrandbits(count)
                alone = oracle._times_linear(k, d, row, mask)
                assert oracle._times_linear(k, d, row | 1, mask) == alone ^ mask


def test_ideal_degree_basis_ranks(torus):
    assert ideal_degree_basis(torus, 2).rank == 2
    assert ideal_degree_basis(torus, 1).rank == 0
    assert ideal_degree_basis(rp(2), 3).rank == 1


def test_degree_one_ideal_always_empty():
    for dims in [(1, 1), (1, 2), (2, 2)]:
        for A in enumerate_valid(dv(*dims)):
            assert ideal_degree_basis(A, 1).rank == 0


def test_normal_form_reduces_generators(torus):
    assert normal_form(poly(2, (2, 0)), torus).is_zero()
    xy = poly(2, (1, 1))
    assert normal_form(xy, torus) == xy
    assert normal_form(poly(2), torus).is_zero()


def test_normal_form_refuses_another_number_of_variables():
    # The bits of a piece index the monomials of its own k; read in the
    # monomial order of another k they would name other monomials.
    p = poly(2, (2, 0), (1, 1), (0, 2))
    with pytest.raises(ValueError, match="2 variables"):
        normal_form(p, identity_matrix(dv(1, 1, 1)))
    with pytest.raises(ValueError, match="k=2"):
        normal_form(poly(1, (1,)), identity_matrix(dv(1, 1)))


@given(st.data())
def test_normal_form_idempotent(klein, data):
    terms = data.draw(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=6
        )
    )
    reduced = normal_form(poly(2, *terms), klein)
    assert normal_form(reduced, klein) == reduced


def test_projective_space_quotient_dimensions():
    # one simplex factor: the ring is GF(2)[x]/(x^(n+1))
    for n in (2, 3, 5):
        A = rp(n)
        for d in range(1, n + 3):
            x_d = poly(1, (d,))
            assert normal_form(x_d, A).is_zero() == (d > n)


def test_sw_oracle_surfaces(torus, klein):
    assert sw_oracle(torus, 1).is_zero()
    assert sw_oracle(torus, 2).is_zero()
    assert sw_oracle(rp(2), 1) == poly(1, (1,))
    assert sw_oracle(rp(2), 2) == poly(1, (2,))
    assert not sw_oracle(klein, 1).is_zero()


def test_sw_oracle_spin_fixture(spin_235):
    assert sw_oracle(spin_235, 1).is_zero()
    assert sw_oracle(spin_235, 2).is_zero()


def test_sw_oracle_matches_classical_binomials():
    # w(RP^n) = (1+x)^(n+1), reduced mod x^(n+1)
    for n in range(2, 10):
        A = rp(n)
        for m in range(1, 5):
            if m > n:
                continue
            expected = math.comb(n + 1, m) % 2
            assert sw_oracle(A, m).is_zero() == (expected == 0)


def test_sw_oracle_degree_guards(torus):
    with pytest.raises(ValueError):
        sw_oracle(torus, 0)
    with pytest.raises(ValueError):
        sw_oracle(torus, 3)
    assert oracle_class_is_zero(torus, 3)


def test_oracle_has_spin(torus, klein, spin_235):
    assert oracle_has_spin(torus)
    assert not oracle_has_spin(klein)
    assert oracle_has_spin(spin_235)


def test_wu_consequence_on_small_families():
    # w1 = w2 = 0 forces w3 = 0
    for dims in [(1, 1, 1), (2, 2), (1, 2)]:
        for A in enumerate_valid(dv(*dims)):
            if oracle_has_spin(A) and A.omega.n >= 3:
                assert sw_oracle(A, 3).is_zero()


def test_oracle_zero_status_survives_relabeling():
    for A in enumerate_valid(dv(1, 2)):
        B = conjugate_by_permutation(A, (1, 0))
        for m in (1, 2, 3):
            assert sw_oracle(A, m).is_zero() == sw_oracle(B, m).is_zero()
