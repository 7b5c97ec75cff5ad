"""Reduced characteristic matrices of small covers over products of simplices.

A product of simplices Delta^{n_1} x ... x Delta^{n_k} has facets F^i_0..F^i_{n_i}
per factor.  After the standard normalization the characteristic function is
determined by an n x k matrix A over GF(2) (n = sum n_i), viewed as a k x k
array of blocks v_ij in GF(2)^{n_i}: block-row i holds the rows of factor i,
column j the values on F^j_0.  Non-singularity of the characteristic function
becomes the principal-minor condition on all row selections of A.

All indices in this API are 0-based; the text file format and any rendered
reports are 1-based.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .gf2 import BitMatrix, BitVector, dot_count


class MatrixFormatError(ValueError):
    """Malformed matrix text.  Carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InvalidMatrixError(ValueError):
    """Raised when an operation requires a valid characteristic matrix."""


@dataclass(frozen=True)
class DimensionVector:
    """Block sizes (n_1, ..., n_k) of the simplex factors."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if not self.dims:
            raise ValueError("at least one factor is required")
        for d in self.dims:
            if d < 1:
                raise ValueError(f"factor dimension {d} is not positive")

    @property
    def n(self) -> int:
        return sum(self.dims)

    @property
    def k(self) -> int:
        return len(self.dims)

    @property
    def l(self) -> int:
        """Number of interval factors (n_i = 1)."""
        return sum(1 for d in self.dims if d == 1)

    def offset(self, i: int) -> int:
        """Row index where block i starts."""
        return sum(self.dims[:i])

    def __iter__(self):
        return iter(self.dims)

    def __len__(self) -> int:
        return len(self.dims)

    def __getitem__(self, i: int) -> int:
        return self.dims[i]


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    # First failing row selection (l_1..l_k, entry i < n_i) and principal
    # subset, both in lexicographic order; None when valid.
    failing_selection: Optional[tuple[int, ...]] = None
    failing_subset: Optional[frozenset[int]] = None

    def __post_init__(self):
        if self.valid != (self.failing_selection is None and self.failing_subset is None):
            raise ValueError("witnesses present iff invalid")


class ReducedMatrix:
    """The pair (omega, A) with cached column bitmasks for counting products."""

    __slots__ = ("omega", "mat", "_cols")

    def __init__(self, omega: DimensionVector, mat: BitMatrix):
        if mat.nrows != omega.n or mat.ncols != omega.k:
            raise ValueError(
                f"matrix shape {mat.nrows}x{mat.ncols} does not match "
                f"omega (n={omega.n}, k={omega.k})"
            )
        self.omega = omega
        self.mat = mat
        self._cols = tuple(mat.column(j).bits for j in range(omega.k))

    @classmethod
    def from_rows(cls, dims: Sequence[int], rows: Sequence[Sequence[int]]) -> "ReducedMatrix":
        return cls(DimensionVector(tuple(dims)), BitMatrix.from_entries(rows))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ReducedMatrix)
            and self.omega == other.omega
            and self.mat == other.mat
        )

    def __hash__(self) -> int:
        return hash((self.omega, self.mat))

    def __repr__(self) -> str:
        return f"ReducedMatrix(omega={self.omega.dims}, mat={self.mat!r})"

    def block(self, i: int, j: int) -> BitVector:
        """v_ij: the part of column j lying in block-row i."""
        k = self.omega.k
        if not (0 <= i < k and 0 <= j < k):
            raise IndexError((i, j))
        off = self.omega.offset(i)
        width = self.omega[i]
        bits = (self._cols[j] >> off) & ((1 << width) - 1)
        return BitVector(bits, width)

    def column(self, j: int) -> BitVector:
        return BitVector(self._cols[j], self.omega.n)

    def k_count(self, cols: Iterable[int]) -> int:
        """k_S: rows carrying 1 in every column of S, as a plain integer."""
        S = tuple(cols)
        if not S:
            raise ValueError("empty column set")
        acc = (1 << self.omega.n) - 1
        for c in S:
            acc &= self._cols[c]
        return acc.bit_count()


def columns_dot(A: ReducedMatrix, i: int, j: int) -> int:
    """Dot count A_i . A_j of two columns (k_i when i == j, k_ij otherwise)."""
    return dot_count(A.column(i), A.column(j))


def _selection_rows(A: ReducedMatrix, selection: Sequence[int]) -> list[int]:
    """Row ints of the k x k matrix picking row selection[i] from block-row i."""
    return [A.mat.rows[A.omega.offset(i) + li] for i, li in enumerate(selection)]


def block_arcs(A: ReducedMatrix) -> list[tuple[int, int]]:
    """i -> j when v_ij != 0 (i != j), and a loop i -> i when v_ii is not all ones."""
    arcs = []
    off = 0
    for i, d in enumerate(A.omega.dims):
        full = ((1 << d) - 1) << off
        for j, col in enumerate(A._cols):
            if col & full != full if i == j else col & full:
                arcs.append((i, j))
        off += d
    return arcs


def is_valid(A: ReducedMatrix) -> bool:
    """The non-singularity condition: a shortest cycle of `block_arcs` spans a
    vanishing principal minor, and without a cycle every row selection is
    unitriangular after relabeling."""
    return len(topological_order(A.omega.k, block_arcs(A))) == A.omega.k


def validate(A: ReducedMatrix) -> ValidityReport:
    """Check the non-singularity condition.

    Every selection of one row per block must have all principal minors equal
    to 1 over GF(2).  Selections and subsets are scanned in lexicographic
    order so failure witnesses are reproducible.
    """
    from .gf2 import _det_rows

    if is_valid(A):  # the scan below only names the witness
        return ValidityReport(True)
    k = A.omega.k
    for selection in itertools.product(*(range(d) for d in A.omega.dims)):
        rows = _selection_rows(A, selection)
        for size in range(1, k + 1):
            for subset in itertools.combinations(range(k), size):
                mask = 0
                for c in subset:
                    mask |= 1 << c
                sub = [rows[c] for c in subset]
                if _det_rows(sub, mask) != 1:
                    return ValidityReport(False, tuple(selection), frozenset(subset))
    return ValidityReport(True)


def require_valid(A: ReducedMatrix) -> None:
    report = validate(A)
    if not report.valid:
        sel = tuple(x + 1 for x in report.failing_selection)
        sub = tuple(sorted(x + 1 for x in report.failing_subset))
        raise InvalidMatrixError(
            f"not a characteristic matrix; principal minor vanishes "
            f"at row selection {sel}, column subset {sub}"
        )


def identity_rows(omega: DimensionVector) -> list[int]:
    """Row ints of I_omega: every row of block i is the unit vector e_i."""
    return [1 << i for i, d in enumerate(omega.dims) for _ in range(d)]


def identity_matrix(omega: DimensionVector) -> ReducedMatrix:
    """I_omega: all diagonal blocks all-ones, all off-diagonal blocks zero."""
    return ReducedMatrix(omega, BitMatrix(identity_rows(omega), omega.n, omega.k))


def conjugate_by_permutation(A: ReducedMatrix, sigma: Sequence[int]) -> ReducedMatrix:
    """Relabel the simplex factors: block (i, j) moves to (sigma[i], sigma[j]).

    Dot counts of columns are preserved under (i, j) -> (sigma[i], sigma[j]).
    """
    k = A.omega.k
    if sorted(sigma) != list(range(k)):
        raise ValueError(f"{tuple(sigma)} is not a permutation of 0..{k - 1}")
    inv = [0] * k
    for old, new in enumerate(sigma):
        inv[new] = old
    new_omega = DimensionVector(tuple(A.omega[inv[p]] for p in range(k)))
    rows = []
    for p in range(k):
        src = inv[p]
        off = A.omega.offset(src)
        for t in range(A.omega[src]):
            old_row = A.mat.rows[off + t]
            new_row = 0
            for q in range(k):
                new_row |= ((old_row >> inv[q]) & 1) << q
            rows.append(new_row)
    return ReducedMatrix(new_omega, BitMatrix(rows, new_omega.n, k))


def topological_order(k: int, arcs: Iterable[tuple[int, int]]) -> list[int]:
    """Kahn order of the vertices 0..k-1, smallest available vertex first.

    Vertices on a directed cycle, or reachable from one, are never emitted,
    so the order is shorter than k exactly when the relation is cyclic.
    """
    succ: list[list[int]] = [[] for _ in range(k)]
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


def normalize_upper_triangular(A: ReducedMatrix) -> tuple[ReducedMatrix, tuple[int, ...]]:
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


def elementary_component(A: ReducedMatrix, i: int, j: int) -> ReducedMatrix:
    """I_omega + B_ij, where B_ij keeps only columns i and j of B = A - I_omega.

    Every column other than i and j is reset to its identity block; columns i
    and j are kept whole.
    """
    k = A.omega.k
    if not (0 <= i < j < k):
        raise ValueError(f"need 0 <= i < j < k, got ({i}, {j})")
    require_valid(A)
    ident = identity_matrix(A.omega)
    keep = (1 << i) | (1 << j)
    rows = [
        (a & keep) | (e & ~keep)
        for a, e in zip(A.mat.rows, ident.mat.rows)
    ]
    return ReducedMatrix(A.omega, BitMatrix(rows, A.omega.n, k))


def parse_matrix(text: str) -> ReducedMatrix:
    """Read the text format: a dimension line, then n rows of 0/1 characters.

    Blank lines and lines starting with '#' are skipped.  Errors name the
    1-based line where parsing stopped.
    """
    dims: Optional[tuple[int, ...]] = None
    rows: list[list[int]] = []
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        last_line = lineno
        if not line or line.startswith("#"):
            continue
        if dims is None:
            try:
                dims = tuple(int(tok) for tok in line.split())
            except ValueError:
                raise MatrixFormatError(lineno, f"bad dimension line {line!r}")
            if not dims:
                raise MatrixFormatError(lineno, "empty dimension line")
            if any(d < 1 for d in dims):
                raise MatrixFormatError(lineno, f"non-positive factor in {dims}")
            continue
        if len(rows) == sum(dims):
            raise MatrixFormatError(lineno, "extra row after matrix is complete")
        if len(line) != len(dims):
            raise MatrixFormatError(
                lineno, f"expected {len(dims)} columns, got {len(line)}"
            )
        try:
            rows.append([{"0": 0, "1": 1}[ch] for ch in line])
        except KeyError:
            raise MatrixFormatError(lineno, f"row {line!r} has characters outside 0/1")
    if dims is None:
        raise MatrixFormatError(last_line or 1, "missing dimension line")
    if len(rows) != sum(dims):
        raise MatrixFormatError(
            last_line or 1, f"expected {sum(dims)} rows, got {len(rows)}"
        )
    return ReducedMatrix.from_rows(dims, rows)


def serialize_matrix(A: ReducedMatrix) -> str:
    lines = [" ".join(str(d) for d in A.omega.dims)]
    for r in range(A.omega.n):
        lines.append("".join(str(A.mat.entry(r, c)) for c in range(A.omega.k)))
    return "\n".join(lines) + "\n"
