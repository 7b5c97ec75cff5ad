import contextlib
import functools
import importlib.util
import io
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from spincover import (
    DimensionVector,
    ReducedMatrix,
    conjugate_by_permutation,
    is_valid,
    parse_matrix,
    space_size,
)
from spincover.census import bit_layout
from spincover.cli import main
from spincover.model import identity_rows

DATA = Path(__file__).parent / "data"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# Small enough that every n x k 0/1 matrix over them, valid or not, is checked.
EVERY_MATRIX_FAMILIES = [(1, 1), (1, 2), (2, 2), (1, 1, 1), (1, 1, 2), (2, 3)]


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


def run_cli(argv: list[str]) -> SimpleNamespace:
    """Run `main(argv)` in this process as the command line does, with
    stdout and stderr captured: the exit code, each stream, and `output`,
    stdout then stderr.  Any exception other than SystemExit propagates."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(argv)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return SimpleNamespace(exit_code=code, stdout=out.getvalue(), stderr=err.getvalue(),
                           output=out.getvalue() + err.getvalue())


def dv(*dims: int) -> DimensionVector:
    return DimensionVector(tuple(dims))


def row_ints(rows: list[list[int]]) -> list[int]:
    """Rows of 0/1 entries, column 0 first, as the row ints of a candidate."""
    return [sum(e << c for c, e in enumerate(row)) for row in rows]


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


def expand_tuples(k: int, rows: list[int], maxdeg: int) -> list[set[tuple[int, ...]]]:
    """prod over rows of (1 + sum of x_j over the set bits j of the row),
    truncated above maxdeg: entry d holds the exponent vectors of degree d.

    Exponent tuples in sets, one term at a time: the definitional expansion
    that the bitmask kernel `spincover.oracle._expand` is compared against.
    """
    pieces: list[set[tuple[int, ...]]] = [{(0,) * k}] + [set() for _ in range(maxdeg)]
    for row in rows:
        js = [j for j in range(k) if (row >> j) & 1]
        # Descending, so pieces[d - 1] is still the product without this row.
        for d in range(maxdeg, 0, -1):
            bucket = pieces[d]
            for e in pieces[d - 1]:
                for j in js:
                    # GF(2): a repeated term cancels
                    bucket ^= {e[:j] + (e[j] + 1,) + e[j + 1:]}
    return pieces


@functools.lru_cache(maxsize=None)
def perfbench_common():
    """perfbench/common.py, loaded by path: the benchmark's request stream,
    its valid-by-construction matrices and its golden digests, none of which
    import spincover."""
    spec = importlib.util.spec_from_file_location("perfbench_common", PERFBENCH / "common.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.lru_cache(maxsize=None)
def seeded_candidates() -> tuple[tuple[DimensionVector, tuple[int, ...]], ...]:
    """300 seeded candidates (omega, rows) over the benchmark's query shapes,
    valid and arbitrary (mostly invalid) in turn, then ten each over the
    one-factor shapes (1,) and (3,) and over (1,)^8: the inputs on which a
    matrix's derived structure, and the refusal of the rest, are compared
    against their definitions."""
    common = perfbench_common()
    rng = random.Random(14)
    shapes = [common.QUERY_SHAPES[t % len(common.QUERY_SHAPES)] for t in range(300)]
    shapes += [dims for dims in ((1,), (3,), (1,) * 8) for _ in range(10)]
    out = []
    for t, dims in enumerate(shapes):
        if t % 2:
            rows = [rng.getrandbits(len(dims)) for _ in range(sum(dims))]
        else:
            rows = common.random_valid_matrix(rng, dims)
        out.append((DimensionVector(dims), tuple(rows)))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def seeded_matrices() -> tuple[ReducedMatrix, ...]:
    """The valid `seeded_candidates`, built."""
    return tuple(ReducedMatrix(*c) for c in seeded_candidates() if is_valid(*c))


def upper_triangular_draw(rng: random.Random, dims: tuple[int, ...]) -> ReducedMatrix:
    """A valid matrix over dims, drawn with no rejection.  The factors are
    put in a random order, and over that order every block above the
    diagonal is random, every diagonal block is all ones and every block
    below is zero, so the block relation only rises; `conjugate_by_permutation`
    then relabels the factors back to the order of dims.  The draws are not
    uniform over the valid matrices, so their counts are not family
    statistics, but they reach families too large for the walk and the
    rejection sampler."""
    k = len(dims)
    order = rng.sample(range(k), k)
    ranked = tuple(dims[v] for v in order)
    rows = [
        (1 << p) | (rng.getrandbits(k) >> (p + 1) << (p + 1))
        for p, d in enumerate(ranked)
        for _ in range(d)
    ]
    return conjugate_by_permutation(ReducedMatrix(DimensionVector(ranked), rows), order)


def columns_bitwise(A: ReducedMatrix) -> tuple[int, ...]:
    """Column j as the int whose bit t is entry (t, j), one entry at a time:
    the definitional generator that `ReducedMatrix.columns` is compared
    against."""
    return tuple(
        sum(((r >> j) & 1) << t for t, r in enumerate(A.rows))
        for j in range(A.omega.k)
    )


def serialize_bitwise(A: ReducedMatrix) -> str:
    """The dimension line, then every row one entry at a time: the
    definitional text that `serialize_matrix` is compared against."""
    lines = [" ".join(str(d) for d in A.omega.dims)]
    for r in range(A.omega.n):
        lines.append("".join(str((A.rows[r] >> c) & 1) for c in range(A.omega.k)))
    return "\n".join(lines) + "\n"


def reaches_itself(v: int, arcs: list[tuple[int, int]]) -> bool:
    """Whether a directed path of length at least one leads from v back to v;
    the definitional test that `model.cycle_vertices` answers for every vertex."""
    seen: set[int] = set()
    todo = [j for i, j in arcs if i == v]
    while todo:
        u = todo.pop()
        if u == v:
            return True
        if u not in seen:
            seen.add(u)
            todo.extend(j for i, j in arcs if i == u)
    return False


def counter_rows(omega: DimensionVector, counter: int) -> tuple[int, ...]:
    """The candidate rows that counter assigns, valid or not, one layout
    position at a time: the definitional decoding that
    `census.matrix_from_counter` is compared against."""
    layout = bit_layout(omega)
    rows = identity_rows(omega)
    for pos, (r, c) in enumerate(layout):
        if (counter >> (len(layout) - 1 - pos)) & 1:
            rows[r] |= 1 << c
    return tuple(rows)


@functools.lru_cache(maxsize=None)
def filter_valid(omega: DimensionVector) -> tuple[ReducedMatrix, ...]:
    """Every candidate decoded from its counter and kept when valid, in
    counter order: the definitional slow path that the acyclicity walk of
    `enumerate_valid` is compared against."""
    candidates = (counter_rows(omega, c) for c in range(space_size(omega)))
    return tuple(ReducedMatrix(omega, rows) for rows in candidates if is_valid(omega, rows))


def count_valid(dims: tuple[int, ...]) -> int:
    """The number of valid matrices over dims, without enumerating them.

    A valid matrix is an acyclic relation on the factors whose arc i -> j
    carries a nonzero block v_ij of n_i bits.  By inclusion-exclusion over
    the nonempty set T of sources of the subset S (Robinson 1973; Stanley
    1973), a(S) = sum over T of (-1)^(|T|+1) * prod_{t in T} 2^(n_t |S - T|)
    * a(S - T): each source picks its blocks towards S - T freely.
    """
    @functools.lru_cache(maxsize=None)
    def a(S: int) -> int:
        total = 0
        T = S
        while T:
            rest = S & ~T
            bits = sum(d for t, d in enumerate(dims) if (T >> t) & 1)
            sign = 1 if T.bit_count() % 2 else -1
            total += sign * (1 << (bits * rest.bit_count())) * a(rest)
            T = (T - 1) & S
        return total if S else 1

    return a((1 << len(dims)) - 1)
