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

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import accumulate
from operator import and_, or_
from typing import Iterable, Optional, Sequence


class MatrixFormatError(ValueError):
    """Malformed matrix text.  Carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InvalidMatrixError(ValueError):
    """Raised by the `ReducedMatrix` constructor on rows that are not a
    characteristic matrix; the message names the first vanishing minor."""


@lru_cache(maxsize=None)
def _offsets_of(dims: tuple[int, ...]) -> tuple[int, ...]:
    """The row offsets of the blocks and n, shared by every vector of the same
    dims: a tuple per vector raised the peak RSS of a long run of requests."""
    return tuple(accumulate(dims, initial=0))


def parse_decimal(token: str) -> int:
    """A factor dimension written in plain ASCII decimal digits; `int` alone
    would also read signs, underscores and the digits of other scripts."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"{token!r} is not a decimal number")
    return int(token)


@dataclass(frozen=True)
class DimensionVector:
    """Block sizes dims = (n_1, ..., n_k) of the simplex factors.  The rest is
    derived once, and equality and hashing read dims alone: offsets[i] is the
    row where block i starts (offsets[k] = n), and l counts the interval
    factors (n_i = 1)."""

    dims: tuple[int, ...]
    offsets: tuple[int, ...] = field(init=False, repr=False, compare=False)
    n: int = field(init=False, repr=False, compare=False)
    k: int = field(init=False, repr=False, compare=False)
    l: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dims = self.dims
        if not dims:
            raise ValueError("at least one factor is required")
        for d in dims:
            if d < 1:
                raise ValueError(f"factor dimension {d} is not positive")
        offsets = _offsets_of(dims)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "n", offsets[-1])
        object.__setattr__(self, "k", len(dims))
        object.__setattr__(self, "l", dims.count(1))


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


@dataclass(frozen=True)
class SpinReport:
    """A Spin verdict, as every decider reports it: the first failing
    condition of the criterion and its 0-based witness, None when Spin."""

    orientable: bool
    spin: bool
    failed_condition: Optional[str] = None
    witness: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if self.spin and (not self.orientable or self.failed_condition is not None):
            raise ValueError("spin verdict inconsistent with its evidence")
        if (self.failed_condition is None) != (self.witness is None):
            raise ValueError("condition tag and witness go together")


@lru_cache(maxsize=1024)
def spin_verdict(
    orientable: bool,
    spin: bool,
    failed_condition: Optional[str] = None,
    witness: Optional[tuple[int, ...]] = None,
) -> SpinReport:
    """The one shared `SpinReport` of these fields, checked when first built.
    A report is frozen, so every decider can hand out the same object; a
    family's verdicts take few distinct values (6 over the 1,525 matrices of
    (1,2,4)), and a witness names at most two of the k vertices."""
    return SpinReport(orientable, spin, failed_condition, witness)


class ReducedMatrix:
    """The pair (omega, A): row r of A is the int rows[r] with bit c = entry
    (r, c).  Only a characteristic matrix can be built: the constructor
    derives the block successor masks `_succ` and refuses a cycle among them
    with `InvalidMatrixError`, so every function that takes a ReducedMatrix
    takes a valid one.  It then reads the column ints `columns` (bit t of
    column j is entry (t, j)) and the self-dots `self_dots` k_i, their
    popcounts; the pair table `_dots` is built on first use (None until
    then) and shared by every later reader."""

    __slots__ = ("omega", "rows", "columns", "self_dots", "_dots", "_succ")

    def __init__(self, omega: DimensionVector, rows: Sequence[int]):
        if len(rows) != omega.n:
            raise ValueError(
                f"matrix has {len(rows)} rows, omega needs n={omega.n}"
            )
        if min(rows) < 0 or max(rows) >> omega.k:
            raise ValueError(f"row bits outside the width k={omega.k}")
        self.omega = omega
        self.rows = tuple(rows)
        self._succ = _block_masks(omega, self.rows)
        if is_cyclic(self._succ):
            report = validate(omega, self.rows)
            sel = tuple(x + 1 for x in report.failing_selection)
            sub = tuple(sorted(x + 1 for x in report.failing_subset))
            raise InvalidMatrixError(
                f"not a characteristic matrix; principal minor vanishes "
                f"at row selection {sel}, column subset {sub}"
            )
        # Column j is every k-th character of the row names, last row first.
        k = omega.k
        names = "".join(row_strings(reversed(self.rows), k))
        self.columns = tuple([int(names[j::k], 2) for j in range(k)])
        self.self_dots = tuple([c.bit_count() for c in self.columns])
        self._dots: Optional[tuple] = None

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
        return (self.columns[j] >> self.omega.offsets[i]) & ((1 << self.omega.dims[i]) - 1)

    def dots(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """The self-dots k_i, and the table whose entry i, j is k_ij (k_i on
        the diagonal); built in one pass over the column ints and kept."""
        if self._dots is None:
            cols = self.columns
            pair = tuple([tuple([(a & b).bit_count() for b in cols]) for a in cols])
            self._dots = self.self_dots, pair
        return self._dots

    def k_count(self, cols: Iterable[int]) -> int:
        """k_S: rows carrying 1 in every column of S, as a plain integer."""
        S = tuple(cols)
        if not S:
            raise ValueError("empty column set")
        cols = self.columns
        acc = (1 << self.omega.n) - 1
        for c in S:
            acc &= cols[c]
        return acc.bit_count()


def _successors(omega: DimensionVector, rows: Sequence[int]) -> list[list[int]]:
    """Per block i, each of its rows as the successor set it gives vertex i.

    That is the row with bit i flipped: bit j != i is an arc i -> j, and a
    clear diagonal entry is a loop i -> i.
    """
    offsets = omega.offsets
    return [[r ^ (1 << i) for r in rows[offsets[i]:offsets[i + 1]]] for i in range(omega.k)]


def cycle_vertices(succ: Sequence[int]) -> list[int]:
    """The vertices that lie on a cycle of the relation with bit j of succ[i]
    an arc i -> j, in increasing order: those of a strongly connected
    component of two or more vertices, and those with a loop.  By Tarjan's
    algorithm (1972) in O(k + arcs) int operations, with an explicit stack, so
    that a long path cannot reach the recursion limit."""
    k, seen = len(succ), 0
    # index[v] is v's discovery order, -1 before it; once v's component is
    # closed it is k, above every low value, so an arc into v lowers none.
    index, low, cyclic = [-1] * k, [0] * k, [False] * k
    stack: list[int] = []  # the vertices of the components not yet closed
    path: list[list[int]] = []  # per vertex searched from: it, its arcs not yet followed

    def discover(u: int) -> None:
        nonlocal seen
        index[u] = low[u] = seen
        seen += 1
        stack.append(u)
        path.append([u, succ[u]])

    for root in range(k):
        if index[root] < 0:
            discover(root)
        while path:
            top = path[-1]
            v, rest = top
            if rest:
                top[1] = rest & (rest - 1)
                u = (rest & -rest).bit_length() - 1
                if index[u] < 0:
                    discover(u)
                else:
                    low[v] = min(low[v], index[u])
                continue
            path.pop()
            if path:
                parent = path[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                cut = len(stack) - 1
                while stack[cut] != v:
                    cut -= 1
                members = stack[cut:]
                del stack[cut:]
                on_cycle = len(members) > 1 or bool((succ[v] >> v) & 1)
                for u in members:
                    index[u], cyclic[u] = k, on_cycle
    return [v for v in range(k) if cyclic[v]]


def is_cyclic(succ: Sequence[int]) -> bool:
    """Whether the relation with bit j of succ[i] an arc i -> j has a cycle,
    by Kahn's peel in O(k + arcs) int operations: sources are removed until
    none is left, and a loop is an arc into its own vertex, which is then never
    a source."""
    k = len(succ)
    indeg = [0] * k
    for m in succ:
        while m:
            indeg[(m & -m).bit_length() - 1] += 1
            m &= m - 1
    sources = [v for v, d in enumerate(indeg) if not d]
    for v in sources:  # the loop also visits the sources appended below
        m = succ[v]
        while m:
            u = (m & -m).bit_length() - 1
            indeg[u] -= 1
            if not indeg[u]:
                sources.append(u)
            m &= m - 1
    return len(sources) < k


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
        frontier = reduce(or_, [succ[u] for u in range(len(succ)) if (frontier >> u) & 1], 0)
        frontier &= ~seen
        length += 1
    return lengths


def _induced(succ: Sequence[int], subset: Iterable[int]) -> list[int]:
    """The relation restricted to the vertices of subset."""
    inside = reduce(or_, [1 << c for c in subset], 0)
    return [m & inside if (inside >> c) & 1 else 0 for c, m in enumerate(succ)]


def _block_masks(omega: DimensionVector, rows: Sequence[int]) -> tuple[int, ...]:
    """The masks of `block_successors`, one OR and one AND per block of rows:
    bit j != i of the OR is v_ij != 0, and the loop bit i is set unless the
    AND has it, that is unless v_ii is all ones."""
    offsets, masks = omega.offsets, []
    for i in range(len(offsets) - 1):
        block, bit = rows[offsets[i]:offsets[i + 1]], 1 << i
        masks.append((reduce(or_, block) | bit) ^ (reduce(and_, block) & bit))
    return tuple(masks)


def block_successors(A: ReducedMatrix) -> tuple[int, ...]:
    """Per vertex i, the mask of the j with i -> j: v_ij != 0 (i != j), and
    a loop i -> i when v_ii is not all ones.  The constructor derived them
    and keeps them; since A is valid, they are acyclic."""
    return A._succ


def is_valid(omega: DimensionVector, rows: Sequence[int]) -> bool:
    """Whether the n row ints of k bits over omega form a characteristic
    matrix, that is whether `ReducedMatrix(omega, rows)` would be built.  A
    shortest cycle of the block successor masks spans a vanishing principal
    minor, and without a cycle every row selection is unitriangular after
    relabeling."""
    return not is_cyclic(_block_masks(omega, rows))


def validate(omega: DimensionVector, rows: Optional[Sequence[int]] = None) -> ValidityReport:
    """Check the non-singularity condition of the row ints over omega.

    Every selection of one row per block must have all principal minors equal
    to 1 over GF(2).  The witness of an invalid candidate is the first
    vanishing minor with selections, then subset sizes, then subsets in
    lexicographic order, so it is reproducible.  It is found without a
    determinant: a selection has a vanishing minor exactly when its relation
    (the rows read as `_successors`) is cyclic.  Every subset smaller than
    the girth g of that relation is acyclic, so its minor is 1.  A cyclic
    subset of size g induces a chordless g-cycle, whose minor det(I + P) is 0.

    `validate(A)` of a built matrix reads A's own omega and rows, and is
    therefore always valid.
    """
    if rows is None:
        omega, rows = omega.omega, omega.rows
    succ = _block_masks(omega, rows)
    if not is_cyclic(succ):
        return ValidityReport(True)
    # The first cyclic selection, block by block: the smallest row that still
    # closes a cycle when the later blocks may use any of their rows.
    selection: list[int] = []
    chosen: list[int] = []
    for i, block in enumerate(_successors(omega, rows)):
        later = succ[i + 1:]
        for li, row in enumerate(block):
            if is_cyclic([*chosen, row, *later]):
                selection.append(li)
                chosen.append(row)
                break
    dist = [_path_lengths(chosen, v) for v in range(len(chosen))]
    girth = min(d[v] for v, d in enumerate(dist) if d[v])
    # Two vertices u, v of one shortest cycle have d(u, v) + d(v, u) = girth,
    # so a cyclic subset of the girth's size, which is a shortest cycle, is
    # built only from vertices that pairwise meet this.
    close = [
        reduce(or_, [1 << v for v, row in enumerate(dist)
                     if d[v] and row[u] and d[v] + row[u] == girth], 0)
        for u, d in enumerate(dist)
    ]
    on_shortest = reduce(or_, [1 << v for v, d in enumerate(dist) if d[v] == girth], 0)

    def first_cycle(prefix: list[int], allowed: int) -> Optional[list[int]]:
        """The first cyclic extension of prefix to the girth's size, by
        vertices of allowed, in lexicographic order."""
        if len(prefix) == girth:
            return prefix if is_cyclic(_induced(chosen, prefix)) else None
        for v in range(prefix[-1] + 1 if prefix else 0, len(chosen)):
            if (allowed >> v) & 1:
                found = first_cycle(prefix + [v], allowed & close[v])
                if found:
                    return found
        return None

    subset = first_cycle([], on_shortest)
    return ValidityReport(False, tuple(selection), frozenset(subset))


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
    new_omega = DimensionVector(tuple(A.omega.dims[inv[p]] for p in range(k)))
    rows = []
    for p in range(k):
        src = inv[p]
        off = A.omega.offsets[src]
        for t in range(A.omega.dims[src]):
            old_row = A.rows[off + t]
            new_row = 0
            for q in range(k):
                new_row |= ((old_row >> inv[q]) & 1) << q
            rows.append(new_row)
    return ReducedMatrix(new_omega, rows)


def elementary_component(A: ReducedMatrix, i: int, j: int) -> ReducedMatrix:
    """I_omega + B_ij, where B_ij keeps only columns i and j of B = A - I_omega.

    Every column other than i and j is reset to its identity block; columns i
    and j are kept whole.
    """
    k = A.omega.k
    if not (0 <= i < j < k):
        raise ValueError(f"need 0 <= i < j < k, got ({i}, {j})")
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
    rows: list[int] = []
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        last_line = lineno
        if not line or line.startswith("#"):
            continue
        if dims is None:
            try:
                dims = tuple(parse_decimal(tok) for tok in line.split())
            except ValueError:
                raise MatrixFormatError(lineno, f"bad dimension line {line!r}")
            if any(d < 1 for d in dims):
                raise MatrixFormatError(lineno, f"non-positive factor in {dims}")
            k, n = len(dims), sum(dims)
            continue
        if len(rows) == n:
            raise MatrixFormatError(lineno, "extra row after matrix is complete")
        if len(line) != k:
            raise MatrixFormatError(lineno, f"expected {k} columns, got {len(line)}")
        if line.count("0") + line.count("1") != k:
            raise MatrixFormatError(lineno, f"row {line!r} has characters outside 0/1")
        rows.append(int(line[::-1], 2))
    if dims is None:
        raise MatrixFormatError(last_line or 1, "missing dimension line")
    if len(rows) != n:
        raise MatrixFormatError(last_line or 1, f"expected {n} rows, got {len(rows)}")
    return ReducedMatrix(DimensionVector(dims), rows)


def bit_string(x: int, width: int) -> str:
    """The bits of x < 2^width as `width` 0/1 characters, bit 0 leftmost."""
    return format(x, f"0{width}b")[::-1]


# Rows of up to this many columns are named from a table of every row.
ROW_NAME_BITS = 11


@lru_cache(maxsize=ROW_NAME_BITS)
def _row_names(k: int) -> list[str]:
    """The `bit_string` of every k-column row, indexed by the row; never
    changed.  A list, since `map` calls a list's bound `__getitem__` faster
    than a tuple's."""
    return [bit_string(row, k) for row in range(1 << k)]


def row_strings(rows: Iterable[int], k: int) -> list[str]:
    """Each row int as its k entries in 0/1, column 0 first."""
    if k > ROW_NAME_BITS:
        return [bit_string(row, k) for row in rows]
    return list(map(_row_names(k).__getitem__, rows))


def serialize_matrix(A: ReducedMatrix) -> str:
    dims = " ".join(str(d) for d in A.omega.dims)
    return "\n".join([dims, *row_strings(A.rows, A.omega.k)]) + "\n"
