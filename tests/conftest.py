from pathlib import Path

import pytest

from spincover import DimensionVector, ReducedMatrix, parse_matrix

DATA = Path(__file__).parent / "data"


def load(name: str) -> ReducedMatrix:
    return parse_matrix((DATA / name).read_text(encoding="utf-8"))


def rp(n: int) -> ReducedMatrix:
    """Real projective n-space: one simplex factor, all-ones column."""
    return ReducedMatrix.from_rows((n,), [[1]] * n)


@pytest.fixture(scope="session")
def spin_235() -> ReducedMatrix:
    return load("spin_235.txt")


@pytest.fixture(scope="session")
def tower_2333() -> ReducedMatrix:
    return load("tower_2333.txt")


@pytest.fixture(scope="session")
def torus() -> ReducedMatrix:
    return load("torus.txt")


@pytest.fixture(scope="session")
def klein() -> ReducedMatrix:
    return load("klein.txt")


def dv(*dims: int) -> DimensionVector:
    return DimensionVector(tuple(dims))


def det_rows(rows: list[int], cols_mask: int) -> int:
    """Determinant over GF(2) of the square submatrix given by row ints and
    the column set cols_mask, via elimination.  len(rows) must equal the
    popcount of cols_mask."""
    rows = [r & cols_mask for r in rows]
    mask = cols_mask
    while mask:
        col = mask & -mask
        pivot = None
        for idx, r in enumerate(rows):
            if r & col:
                pivot = idx
                break
        if pivot is None:
            return 0
        prow = rows.pop(pivot)
        rows = [r ^ prow if r & col else r for r in rows]
        mask ^= col
    return 1


def principal_minors_all_one(rows: list[int]) -> bool:
    """True iff det of the S x S submatrix is 1 for every nonempty S.

    rows are the row ints of a square matrix.  Iterates all 2^k - 1 subsets
    directly: this is the definition of validity that the acyclicity rule of
    `is_valid` and `validate` is compared against, not a fast path.
    """
    k = len(rows)
    for r in rows:
        if r < 0 or r >> k:
            raise ValueError("principal minors of a non-square matrix")
    for mask in range(1, 1 << k):
        sub = [rows[i] for i in range(k) if (mask >> i) & 1]
        if det_rows(sub, mask) != 1:
            return False
    return True
