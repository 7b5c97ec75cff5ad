"""Ground-truth Stiefel-Whitney classes via the cohomology ring.

The mod 2 cohomology of a small cover over a product of simplices is the
Stanley-Reisner ring of the polytope modulo the linear relations coming from
the characteristic matrix.  Eliminating the linear relations leaves k
variables x_1..x_k (the classes of the facets F^1_0..F^k_0) and k substituted
generators g_i = x_i * prod over block-row i of (sum of x_j over the row).

A degree-d piece of a polynomial is an int bitmask, bit t the t-th monomial
of degree d in descending lex order.  Tables cached per (k, d) list these
monomials, their printed names and, per variable x_j, the bit of x_j times
each of them.  A row's image, cached per (k, d, row), XORs those tables over
the row's variables once, so a piece times the row's linear form is one image
entry per set bit of the piece.  x_1 times monomial t is monomial t, so the
image leaves x_1 out and rows that differ only there share it.  `_expand`
multiplies out the total class, the product over the n + k rows of [I_k; A]
of (1 + sum of x_j over the row) (Davis and Januszkiewicz, 1991), truncated
above the wanted degree.

Two bounded caches let a family walk, whose last block-row varies fastest,
reuse work across consecutive matrices.  Each is keyed on exactly the rows
it reads, so a hit is the value a rebuild would give:

- The ideal in degree d is spanned by the multiples x^mu * g_i of degree d,
  and g_i reads only block-row i.  So the echelon basis of I_d is a function
  of (omega, d, the rows of the blocks with n_i < d); it is cached on that
  key and built from those multiples alone, each the monomial x^mu * x_i
  times the linear forms of block i's rows, read off their images.
- The expansion multiplies the identity rows and every block-row but the
  last into a prefix, cached on (k, maxdeg, those rows), and then only the
  rows of the last block.

Cached values are never mutated, and every lookup is made for a
`ReducedMatrix`, which its constructor has checked, so an invalid matrix that
shares rows with a cached valid one is refused before it reaches a cache.  A
census record reduces one expansion of its total class against these bases.

No Groebner machinery: only degrees up to about 7 in at most a handful of
variables ever occur, so per-degree linear algebra is exact and cheap.
"""

from __future__ import annotations

import functools
from operator import xor
from typing import Iterable, Iterator

from .model import DimensionVector, ReducedMatrix

ExpVec = tuple[int, ...]


def monomials_of_degree(k: int, d: int) -> Iterator[ExpVec]:
    """All exponent vectors of length k summing to d, descending lex order."""
    if k == 1:
        yield (d,)
        return
    for e in range(d, -1, -1):
        for rest in monomials_of_degree(k - 1, d - e):
            yield (e,) + rest


@functools.lru_cache(maxsize=None)
def _monomial_index(k: int, d: int) -> tuple[tuple[ExpVec, ...], dict[ExpVec, int]]:
    """The monomials of degree d, descending lex, and the bit of each."""
    monomials = tuple(monomials_of_degree(k, d))
    return monomials, {e: t for t, e in enumerate(monomials)}


@functools.lru_cache(maxsize=None)
def _times_x(k: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Entry j, t: the degree-(d + 1) bit of x_j times monomial t of degree d."""
    monomials = _monomial_index(k, d)[0]
    index = _monomial_index(k, d + 1)[1]
    return tuple(
        tuple(1 << index[e[:j] + (e[j] + 1,) + e[j + 1:]] for e in monomials)
        for j in range(k)
    )


@functools.lru_cache(maxsize=None)
def _row_image(k: int, d: int, row: int) -> tuple[int, ...]:
    """Entry t: monomial t of degree d times the sum of x_j over the set bits
    j >= 1 of row, as a degree-(d + 1) piece.  Bit 0 is the caller's, since
    x_1 times monomial t is monomial t: rows that differ only there share
    this image.  A zero row gives zeros, and one variable its `_times_x` entry."""
    tables = _times_x(k, d)
    images = [tables[j] for j in range(1, k) if (row >> j) & 1]
    if not images:
        return (0,) * len(tables[0])
    image = images[0]
    for other in images[1:]:
        image = tuple(map(xor, image, other))
    return image


def _times_linear(k: int, d: int, row: int, mask: int) -> int:
    """The degree-d piece `mask` times the sum of x_j over the set bits of row:
    one image entry per set bit of mask."""
    out = mask if row & 1 else 0
    image = _row_image(k, d, row & ~1)
    while mask:
        low = mask & -mask
        out ^= image[low.bit_length() - 1]
        mask ^= low
    return out


class GradedPolynomial:
    """Polynomial over GF(2) in k variables, stored by degree.

    pieces[d] is the degree-d piece as a bitmask over the monomials of
    degree d in descending lex order; zero pieces are never stored.
    """

    __slots__ = ("k", "pieces")

    def __init__(self, k: int, pieces: dict[int, int]):
        self.k = k
        self.pieces = {d: mask for d, mask in pieces.items() if mask}

    def is_zero(self) -> bool:
        return not self.pieces

    def degree_part(self, d: int) -> "GradedPolynomial":
        return GradedPolynomial(self.k, {d: self.pieces.get(d, 0)})

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GradedPolynomial)
            and self.k == other.k
            and self.pieces == other.pieces
        )

    def __hash__(self) -> int:
        return hash((self.k, frozenset(self.pieces.items())))

    def __repr__(self) -> str:
        return f"GradedPolynomial({polynomial_str(self)!r})"


def _monomial_str(e: ExpVec) -> str:
    parts = []
    for i, exp in enumerate(e):
        if exp == 1:
            parts.append(f"x{i + 1}")
        elif exp > 1:
            parts.append(f"x{i + 1}^{exp}")
    return "*".join(parts) if parts else "1"


@functools.lru_cache(maxsize=None)
def _monomial_names(k: int, d: int) -> tuple[str, ...]:
    """The printed name of each monomial of degree d, by bit."""
    return tuple(_monomial_str(e) for e in _monomial_index(k, d)[0])


def piece_str(k: int, d: int, mask: int) -> str:
    """Render the degree-d piece `mask` like "x1^2*x3 + x1*x2^2", lex
    descending; "0" when it is zero."""
    names, terms = _monomial_names(k, d), []
    while mask:
        low = mask & -mask
        terms.append(names[low.bit_length() - 1])
        mask ^= low
    return " + ".join(terms) or "0"


def polynomial_str(p: GradedPolynomial) -> str:
    """Render like "x1^2*x3 + x2": degree descending, then lex descending."""
    pieces = sorted(p.pieces.items(), reverse=True)
    return " + ".join([piece_str(p.k, d, mask) for d, mask in pieces]) or "0"


class DegreeBasis:
    """Echelon span of the ideal inside one graded piece, built from a
    spanning set and never changed after.

    Rows are keyed by pivot index, their lowest bit (the leading monomial),
    and the pivots are distinct.  Every nonzero element of the span then has
    a pivot as its lowest bit, so `reduce`, clearing the pivots in ascending
    order, yields the one representative with no pivot bit set.  The
    constructor stores the rows in that order.
    """

    __slots__ = ("rows",)

    def __init__(self, vectors: Iterable[int]):
        rows: dict[int, int] = {}
        for vec in vectors:
            while vec:
                p = (vec & -vec).bit_length() - 1
                row = rows.get(p)
                if row is None:
                    rows[p] = vec
                    break
                vec ^= row
        self.rows = dict(sorted(rows.items()))

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, mask: int) -> int:
        for p, row in self.rows.items():
            if (mask >> p) & 1:
                mask ^= row
        return mask


def _expand(k: int, rows: Iterable[int], maxdeg: int, start: Iterable[int] = (1,)) -> list[int]:
    """start (pieces by degree, 1 by default) times the product over rows of
    (1 + sum of x_j over the set bits j of the row), truncated above maxdeg:
    entry d is the degree-d piece."""
    pieces = list(start)
    pieces += [0] * (maxdeg + 1 - len(pieces))
    for row in rows:
        # Descending, so pieces[d - 1] is still the product without this row.
        for d in range(maxdeg, 0, -1):
            if pieces[d - 1]:
                pieces[d] ^= _times_linear(k, d - 1, row, pieces[d - 1])
    return pieces


def _generator(k: int, i: int, rows: Iterable[int]) -> int:
    """The piece of g_i: x_i times, per row of block i, the sum of x_j over
    the set bits j of the row; its degree is the number of rows plus one."""
    mask = 1 << i  # x_i is monomial i of degree 1
    for d, row in enumerate(rows, 1):
        mask = _times_linear(k, d, row, mask)
    return mask


def relation_generators(A: ReducedMatrix) -> tuple[GradedPolynomial, ...]:
    """Substitute the linear relations into the Stanley-Reisner generators.

    g_i = x_i * prod over rows r of block i of (sum_l a_{rl} x_l), of degree
    n_i + 1.  The diagonal convention makes each factor contain x_i.
    """
    k, offsets = A.omega.k, A.omega.offsets
    return tuple(
        GradedPolynomial(k, {n + 1: _generator(k, i, A.rows[offsets[i]:offsets[i + 1]])})
        for i, n in enumerate(A.omega.dims)
    )


@functools.lru_cache(maxsize=None)
def _rows_read(omega: DimensionVector, d: int) -> tuple[int, ...]:
    """The indices of the rows of the blocks with n_i < d: all that the
    generators of degree at most d, and so the ideal in degree d, read."""
    offsets = omega.offsets
    return tuple(
        r
        for i, n in enumerate(omega.dims)
        if n < d
        for r in range(offsets[i], offsets[i + 1])
    )


@functools.lru_cache(maxsize=None)
def _divisible(k: int, d: int, i: int) -> tuple[int, ...]:
    """The bits of the degree-d monomials that x_i divides, d >= 1."""
    return tuple(b.bit_length() - 1 for b in _times_x(k, d - 1)[i])


@functools.lru_cache(maxsize=32)
def _degree_basis(omega: DimensionVector, d: int, low: tuple[int, ...]) -> DegreeBasis:
    """Echelon basis of I_d for every matrix over omega whose rows
    `_rows_read(omega, d)` are `low`: the span of the multiples x^mu * g_i
    of degree d, one per monomial mu.  Each is (x^mu * x_i) times the linear
    form of every row of block i, so it starts from a degree-(d - n_i)
    monomial that x_i divides, and the first row's factor is one image entry."""
    k, multiples, offsets = omega.k, [], omega.offsets
    row = dict(zip(_rows_read(omega, d), low))
    for i, n in enumerate(omega.dims):
        if n < d:
            first, *rest = [row[r] for r in range(offsets[i], offsets[i + 1])]
            image, starts = _row_image(k, d - n, first & ~1), _divisible(k, d - n, i)
            # x_1 keeps the monomial's bit
            layer = [image[t] ^ ((first & 1) << t) for t in starts]
            for deg, r in enumerate(rest, d - n + 1):
                layer = [_times_linear(k, deg, r, m) for m in layer]
            multiples += layer
    return DegreeBasis(multiples)


def ideal_degree_basis(A: ReducedMatrix, d: int) -> DegreeBasis:
    """Echelon basis of I_d, the span of the multiples x^mu * g_i of degree
    d; the cached one for A's rows `_rows_read(A.omega, d)`."""
    if d < 1:
        raise ValueError("degree must be positive")
    rows = A.rows
    return _degree_basis(A.omega, d, tuple(rows[r] for r in _rows_read(A.omega, d)))


def normal_form(p: GradedPolynomial, A: ReducedMatrix) -> GradedPolynomial:
    """Canonical representative of p modulo the ideal, degree by degree."""
    if p.k != A.omega.k:
        raise ValueError(f"polynomial in {p.k} variables, matrix has k={A.omega.k}")
    out = {d: ideal_degree_basis(A, d).reduce(m) if d else m for d, m in p.pieces.items()}
    return GradedPolynomial(p.k, out)


@functools.lru_cache(maxsize=1)
def _prefix(k: int, maxdeg: int, rows: tuple[int, ...]) -> tuple[int, ...]:
    """The truncated product over the identity rows and then `rows`."""
    return tuple(_expand(k, [*(1 << i for i in range(k)), *rows], maxdeg))


def total_sw_truncated(A: ReducedMatrix, maxdeg: int) -> GradedPolynomial:
    """Expansion of prod over the rows of [I_k; A] of (1 + sum_j a_rj x_j),
    truncated above maxdeg; the identity rows give the factors (1 + x_i).
    Every row but those of the last block goes into a cached prefix."""
    if maxdeg < 0:
        raise ValueError("maxdeg must be nonnegative")
    k, last = A.omega.k, A.omega.offsets[-2]
    start = _prefix(k, maxdeg, A.rows[:last])
    pieces = _expand(k, A.rows[last:], maxdeg, start)
    return GradedPolynomial(k, dict(enumerate(pieces)))


def sw_oracle(A: ReducedMatrix, m: int) -> GradedPolynomial:
    """Reduced degree-m Stiefel-Whitney class w_m as a polynomial in x_1..x_k."""
    if m < 1:
        raise ValueError("degree must be positive")
    if m > A.omega.n:
        raise ValueError(f"w_{m} exceeds the manifold dimension {A.omega.n}")
    total = total_sw_truncated(A, m)
    return normal_form(total.degree_part(m), A)


def oracle_class_is_zero(A: ReducedMatrix, m: int) -> bool:
    """Whether w_m vanishes, treating degrees above the dimension as zero."""
    if m > A.omega.n:
        return True
    return sw_oracle(A, m).is_zero()


def oracle_has_spin(A: ReducedMatrix) -> bool:
    return oracle_class_is_zero(A, 1) and oracle_class_is_zero(A, 2)
