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
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


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
    """The pair (omega, A): row r of A is the int rows[r] with bit c = entry
    (r, c), and the column ints are cached for counting products."""

    __slots__ = ("omega", "rows", "_cols")

    def __init__(self, omega: DimensionVector, rows: Sequence[int]):
        if len(rows) != omega.n:
            raise ValueError(
                f"matrix has {len(rows)} rows, omega needs n={omega.n}"
            )
        for r in rows:
            if r < 0 or r >> omega.k:
                raise ValueError(f"row bits outside the width k={omega.k}")
        self.omega = omega
        self.rows = tuple(rows)
        self._cols = tuple(
            sum(((r >> j) & 1) << t for t, r in enumerate(self.rows))
            for j in range(omega.k)
        )

    @classmethod
    def from_rows(cls, dims: Sequence[int], rows: Sequence[Sequence[int]]) -> "ReducedMatrix":
        omega = DimensionVector(tuple(dims))
        ncols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
        if rows and ncols != omega.k:
            raise ValueError(f"matrix has {ncols} columns, omega needs k={omega.k}")
        if any(e not in (0, 1) for row in rows for e in row):
            raise ValueError("matrix entries must be 0 or 1")
        return cls(omega, [sum(e << c for c, e in enumerate(row)) for row in rows])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ReducedMatrix)
            and self.omega == other.omega
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.omega, self.rows))

    def __repr__(self) -> str:
        return f"ReducedMatrix({serialize_matrix(self)!r})"

    def block(self, i: int, j: int) -> int:
        """v_ij, the part of column j lying in block-row i, as an int whose
        bit t is row t of block i."""
        k = self.omega.k
        if not (0 <= i < k and 0 <= j < k):
            raise IndexError((i, j))
        off = self.omega.offset(i)
        width = self.omega[i]
        return (self._cols[j] >> off) & ((1 << width) - 1)

    def k_count(self, cols: Iterable[int]) -> int:
        """k_S: rows carrying 1 in every column of S, as a plain integer."""
        S = tuple(cols)
        if not S:
            raise ValueError("empty column set")
        acc = (1 << self.omega.n) - 1
        for c in S:
            acc &= self._cols[c]
        return acc.bit_count()


def _successors(A: ReducedMatrix) -> list[list[int]]:
    """Per block i, each of its rows as the successor set it gives vertex i.

    That is the row with bit i flipped: bit j != i is an arc i -> j, and a
    clear diagonal entry is a loop i -> i.
    """
    out = []
    off = 0
    for i, d in enumerate(A.omega.dims):
        out.append([r ^ (1 << i) for r in A.rows[off:off + d]])
        off += d
    return out


def _union(masks: Iterable[int]) -> int:
    acc = 0
    for m in masks:
        acc |= m
    return acc


def _arcs(succ: Sequence[int]) -> list[tuple[int, int]]:
    """The relation i -> j for every bit j of succ[i], in ascending order."""
    arcs = []
    for i, m in enumerate(succ):
        while m:
            low = m & -m
            arcs.append((i, low.bit_length() - 1))
            m ^= low
    return arcs


def _is_cyclic(succ: Sequence[int]) -> bool:
    return len(topological_order(len(succ), _arcs(succ))) < len(succ)


def _path_lengths(succ: Sequence[int], v: int) -> list[int]:
    """Per vertex u, the length of a shortest path of one or more arcs from v
    to u (so entry v is a shortest cycle through v, and a loop has length 1),
    or 0 when there is none; by breadth-first search."""
    lengths = [0] * len(succ)
    frontier, seen, length = succ[v], 0, 1
    while frontier:
        for u in range(len(succ)):
            if (frontier >> u) & 1:
                lengths[u] = length
        seen |= frontier
        frontier = _union(succ[u] for u in range(len(succ)) if (frontier >> u) & 1)
        frontier &= ~seen
        length += 1
    return lengths


def _induced(succ: Sequence[int], subset: Iterable[int]) -> list[int]:
    """The relation restricted to the vertices of subset."""
    inside = _union(1 << c for c in subset)
    return [m & inside if (inside >> c) & 1 else 0 for c, m in enumerate(succ)]


def block_arcs(A: ReducedMatrix) -> list[tuple[int, int]]:
    """i -> j when v_ij != 0 (i != j), and a loop i -> i when v_ii is not all ones."""
    return _arcs([_union(rows) for rows in _successors(A)])


def is_valid(A: ReducedMatrix) -> bool:
    """The non-singularity condition: a shortest cycle of `block_arcs` spans a
    vanishing principal minor, and without a cycle every row selection is
    unitriangular after relabeling."""
    return len(topological_order(A.omega.k, block_arcs(A))) == A.omega.k


def validate(A: ReducedMatrix) -> ValidityReport:
    """Check the non-singularity condition.

    Every selection of one row per block must have all principal minors equal
    to 1 over GF(2).  The witness of an invalid matrix is the first vanishing
    minor with selections, then subset sizes, then subsets in lexicographic
    order, so it is reproducible.  It is found without a determinant: a
    selection has a vanishing minor exactly when its relation (the rows read
    as `_successors`) is cyclic.  Every subset smaller than the girth g of
    that relation is acyclic, so its minor is 1.  A cyclic subset of size g
    induces a chordless g-cycle, whose minor det(I + P) is 0.
    """
    if is_valid(A):
        return ValidityReport(True)
    blocks = _successors(A)
    # The first cyclic selection, block by block: the smallest row that still
    # closes a cycle when the later blocks may use any of their rows.
    selection: list[int] = []
    chosen: list[int] = []
    for i, rows in enumerate(blocks):
        later = [_union(b) for b in blocks[i + 1:]]
        for li, succ in enumerate(rows):
            if _is_cyclic(chosen + [succ] + later):
                selection.append(li)
                chosen.append(succ)
                break
    dist = [_path_lengths(chosen, v) for v in range(len(chosen))]
    girth = min(d[v] for v, d in enumerate(dist) if d[v])
    # Two vertices u, v of one shortest cycle have d(u, v) + d(v, u) = girth,
    # so a cyclic subset of the girth's size, which is a shortest cycle, is
    # built only from vertices that pairwise meet this.
    close = [
        _union(
            1 << v
            for v in range(len(chosen))
            if d[v] and dist[v][u] and d[v] + dist[v][u] == girth
        )
        for u, d in enumerate(dist)
    ]
    on_shortest = _union(1 << v for v, d in enumerate(dist) if d[v] == girth)

    def first_cycle(prefix: list[int], allowed: int) -> Optional[list[int]]:
        """The first cyclic extension of prefix to the girth's size, by
        vertices of allowed, in lexicographic order."""
        if len(prefix) == girth:
            return prefix if _is_cyclic(_induced(chosen, prefix)) else None
        for v in range(prefix[-1] + 1 if prefix else 0, len(chosen)):
            if (allowed >> v) & 1:
                found = first_cycle(prefix + [v], allowed & close[v])
                if found:
                    return found
        return None

    subset = first_cycle([], on_shortest)
    return ValidityReport(False, tuple(selection), frozenset(subset))


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
    return ReducedMatrix(omega, identity_rows(omega))


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
            old_row = A.rows[off + t]
            new_row = 0
            for q in range(k):
                new_row |= ((old_row >> inv[q]) & 1) << q
            rows.append(new_row)
    return ReducedMatrix(new_omega, rows)


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


def elementary_component(A: ReducedMatrix, i: int, j: int) -> ReducedMatrix:
    """I_omega + B_ij, where B_ij keeps only columns i and j of B = A - I_omega.

    Every column other than i and j is reset to its identity block; columns i
    and j are kept whole.
    """
    k = A.omega.k
    if not (0 <= i < j < k):
        raise ValueError(f"need 0 <= i < j < k, got ({i}, {j})")
    require_valid(A)
    keep = (1 << i) | (1 << j)
    rows = [
        (a & keep) | (e & ~keep)
        for a, e in zip(A.rows, identity_rows(A.omega))
    ]
    return ReducedMatrix(A.omega, rows)


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
        lines.append("".join(str((A.rows[r] >> c) & 1) for c in range(A.omega.k)))
    return "\n".join(lines) + "\n"
