"""GF(2) arithmetic on plain ints: binomial parity, and the determinant and
principal-minor references of conftest that validity is checked against."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spincover import ReducedMatrix
from spincover.closedform import binom_parity
from conftest import det_rows, principal_minors_all_one


@given(st.integers(0, 300), st.integers(0, 300))
def test_binom_parity_matches_comb(n, r):
    assert binom_parity(n, r) == math.comb(n, r) % 2


def test_binom_parity_rejects_negatives():
    with pytest.raises(ValueError):
        binom_parity(-1, 0)
    with pytest.raises(ValueError):
        binom_parity(3, -2)


def test_binom_parity_above_n_is_zero():
    assert binom_parity(3, 5) == 0


def test_matrix_rows_and_columns():
    # a reduced matrix is n x k with n >= k: this one is 3 x 2
    m = ReducedMatrix.from_rows((1, 2), [[1, 0], [0, 1], [1, 1]])
    assert m.omega.n == 3 and m.omega.k == 2
    assert m.rows == (0b01, 0b10, 0b11)
    assert (m.rows[2] >> 0) & 1 == 1 and (m.rows[0] >> 1) & 1 == 0
    # column 0 is (1, 0, 1) and column 1 is (0, 1, 1), read block by block
    assert (m.block(0, 0), m.block(1, 0)) == (0b1, 0b10)
    assert (m.block(0, 1), m.block(1, 1)) == (0b0, 0b11)


def _row_ints(entries):
    return [sum(e << c for c, e in enumerate(row)) for row in entries]


def _det_bruteforce(entries):
    # Leibniz expansion over GF(2): parity of permutations hitting all ones.
    import itertools

    n = len(entries)
    total = 0
    for perm in itertools.permutations(range(n)):
        prod = 1
        for r, c in enumerate(perm):
            prod &= entries[r][c]
        total ^= prod
    return total


@given(st.integers(1, 4), st.data())
def test_determinant_matches_leibniz(n, data):
    entries = [
        [data.draw(st.integers(0, 1)) for _ in range(n)] for _ in range(n)
    ]
    assert det_rows(_row_ints(entries), (1 << n) - 1) == _det_bruteforce(entries)


def test_principal_minors_all_one():
    assert principal_minors_all_one(_row_ints([[1, 0], [0, 1]]))
    # det of the whole 2x2 all-ones matrix is 0
    assert not principal_minors_all_one(_row_ints([[1, 1], [1, 1]]))
    # upper triangular with ones on the diagonal always passes
    assert principal_minors_all_one(_row_ints([[1, 1, 1], [0, 1, 1], [0, 0, 1]]))


@given(st.integers(1, 5), st.data())
def test_principal_minors_definition(n, data):
    import itertools

    entries = [
        [data.draw(st.integers(0, 1)) for _ in range(n)] for _ in range(n)
    ]
    expected = True
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            sub = [[entries[r][c] for c in subset] for r in subset]
            if _det_bruteforce(sub) != 1:
                expected = False
    assert principal_minors_all_one(_row_ints(entries)) == expected


def test_column_intersection_count():
    m = ReducedMatrix.from_rows((2, 2), [[1, 1], [1, 0], [0, 1], [0, 1]])
    assert m.k_count([0]) == 2
    assert m.k_count([1]) == 3
    assert m.k_count([0, 1]) == 1
