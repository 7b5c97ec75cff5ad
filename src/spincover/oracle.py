"""Ground-truth Stiefel-Whitney classes via the cohomology ring.

The mod 2 cohomology of a small cover over a product of simplices is the
Stanley-Reisner ring of the polytope modulo the linear relations coming from
the characteristic matrix.  Eliminating the linear relations leaves k
variables x_1..x_k (the classes of the facets F^1_0..F^k_0) and k substituted
monomial generators.  Both the total Stiefel-Whitney class and the generators
come from one product routine, `_expand`: the total class is the product of
(1 + sum of x_j over the row) over the n + k rows of [I_k; A] (Davis and
Januszkiewicz, 1991), truncated above the wanted degree, and generator i is
the top piece of the product over the unit row e_i and block-row i.  The
result is reduced per degree by GF(2) row echelon.

No Groebner machinery: only degrees up to about 7 in at most a handful of
variables ever occur, so per-degree linear algebra is exact and cheap.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator

from .model import ReducedMatrix, require_valid

ExpVec = tuple[int, ...]


def monomials_of_degree(k: int, d: int) -> Iterator[ExpVec]:
    """All exponent vectors of length k summing to d, descending lex order."""
    if k == 1:
        yield (d,)
        return
    for e in range(d, -1, -1):
        for rest in monomials_of_degree(k - 1, d - e):
            yield (e,) + rest


class GradedPolynomial:
    """Polynomial over GF(2) in k variables, stored by degree.

    pieces[d] is the frozenset of exponent vectors with coefficient 1 in
    degree d; empty degrees are never stored.
    """

    __slots__ = ("k", "pieces")

    def __init__(self, k: int, pieces: dict[int, frozenset[ExpVec]]):
        self.k = k
        self.pieces = {d: terms for d, terms in pieces.items() if terms}

    @classmethod
    def from_terms(cls, k: int, terms: Iterable[ExpVec]) -> "GradedPolynomial":
        acc: dict[int, set[ExpVec]] = {}
        for e in terms:
            d = sum(e)
            bucket = acc.setdefault(d, set())
            # GF(2): a repeated term cancels
            if e in bucket:
                bucket.remove(e)
            else:
                bucket.add(e)
        return cls(k, {d: frozenset(s) for d, s in acc.items()})

    def is_zero(self) -> bool:
        return not self.pieces

    def degrees(self) -> list[int]:
        return sorted(self.pieces)

    def piece(self, d: int) -> frozenset[ExpVec]:
        return self.pieces.get(d, frozenset())

    def degree_part(self, d: int) -> "GradedPolynomial":
        return GradedPolynomial(self.k, {d: self.piece(d)})

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GradedPolynomial)
            and self.k == other.k
            and self.pieces == other.pieces
        )

    def __hash__(self) -> int:
        return hash((self.k, frozenset((d, s) for d, s in self.pieces.items())))

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


def polynomial_str(p: GradedPolynomial) -> str:
    """Render like "x1^2*x3 + x2": degree descending, then lex descending."""
    if p.is_zero():
        return "0"
    terms = []
    for d in sorted(p.pieces, reverse=True):
        for e in sorted(p.pieces[d], reverse=True):
            terms.append(_monomial_str(e))
    return " + ".join(terms)


class DegreeBasis:
    """Echelon span of the ideal inside one graded piece.

    Monomials of the degree are indexed in descending lex order; a
    polynomial of that degree is a bitmask with bit t = monomial t.  Rows
    are keyed by pivot index, their lowest bit (the leading monomial), and
    the pivots are distinct.  Every nonzero element of the span then has a
    pivot as its lowest bit, so `reduce`, clearing the pivots in ascending
    order, yields the one representative with no pivot bit set.
    """

    __slots__ = ("monomials", "index", "rows")

    def __init__(self, k: int, degree: int):
        self.monomials = tuple(monomials_of_degree(k, degree))
        self.index = {e: t for t, e in enumerate(self.monomials)}
        self.rows: dict[int, int] = {}

    def _insert(self, vec: int) -> None:
        while vec:
            p = (vec & -vec).bit_length() - 1
            row = self.rows.get(p)
            if row is None:
                self.rows[p] = vec
                return
            vec ^= row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def to_mask(self, terms: Iterable[ExpVec]) -> int:
        mask = 0
        for e in terms:
            mask ^= 1 << self.index[e]
        return mask

    def from_mask(self, mask: int) -> frozenset[ExpVec]:
        return frozenset(
            self.monomials[t] for t in range(mask.bit_length()) if (mask >> t) & 1
        )

    def reduce(self, mask: int) -> int:
        for p in sorted(self.rows):
            if (mask >> p) & 1:
                mask ^= self.rows[p]
        return mask


def _expand(k: int, rows: Iterable[int], maxdeg: int) -> list[set[ExpVec]]:
    """prod over rows of (1 + sum of x_j over the set bits j of the row),
    truncated above maxdeg: entry d holds the exponent vectors of degree d."""
    pieces: list[set[ExpVec]] = [{(0,) * k}] + [set() for _ in range(maxdeg)]
    for row in rows:
        js = [j for j in range(k) if (row >> j) & 1]
        # Descending, so pieces[d - 1] is still the product without this row.
        for d in range(maxdeg, 0, -1):
            bucket = pieces[d]
            for e in pieces[d - 1]:
                for j in js:
                    f = e[:j] + (e[j] + 1,) + e[j + 1:]
                    # GF(2): a repeated term cancels
                    if f in bucket:
                        bucket.remove(f)
                    else:
                        bucket.add(f)
    return pieces


@functools.lru_cache(maxsize=1)
def relation_generators(A: ReducedMatrix) -> tuple[GradedPolynomial, ...]:
    """Substitute the linear relations into the Stanley-Reisner generators.

    g_i = x_i * prod over rows r of block i of (sum_l a_{rl} x_l), of degree
    n_i + 1: the top piece of the product over e_i and block-row i.  The
    diagonal convention makes each factor contain x_i.  Every caller asks
    for one matrix's generators several times in a row and never returns to
    an earlier one, so one cached entry suffices.
    """
    require_valid(A)
    k = A.omega.k
    gens = []
    for i in range(k):
        off, top = A.omega.offset(i), A.omega[i] + 1
        pieces = _expand(k, (1 << i,) + A.rows[off:off + A.omega[i]], top)
        gens.append(GradedPolynomial(k, {top: frozenset(pieces[top])}))
    return tuple(gens)


def ideal_degree_basis(A: ReducedMatrix, d: int) -> DegreeBasis:
    """Echelon basis of {m * g_i : deg m = d - n_i - 1} in degree d."""
    if d < 1:
        raise ValueError("degree must be positive")
    k = A.omega.k
    basis = DegreeBasis(k, d)
    for i, g in enumerate(relation_generators(A)):
        gdeg = A.omega[i] + 1
        if gdeg > d:
            continue
        gterms = g.piece(gdeg)
        for m in monomials_of_degree(k, d - gdeg):
            shifted = (tuple(a + b for a, b in zip(e, m)) for e in gterms)
            basis._insert(basis.to_mask(shifted))
    return basis


def normal_form(p: GradedPolynomial, A: ReducedMatrix) -> GradedPolynomial:
    """Canonical representative of p modulo the ideal, degree by degree."""
    out: dict[int, frozenset[ExpVec]] = {}
    for d, terms in p.pieces.items():
        if d == 0:
            out[d] = terms
            continue
        basis = ideal_degree_basis(A, d)
        out[d] = basis.from_mask(basis.reduce(basis.to_mask(terms)))
    return GradedPolynomial(p.k, out)


def total_sw_truncated(A: ReducedMatrix, maxdeg: int) -> GradedPolynomial:
    """Expansion of prod over the rows of [I_k; A] of (1 + sum_j a_rj x_j),
    truncated above maxdeg; the identity rows give the factors (1 + x_i)."""
    if maxdeg < 0:
        raise ValueError("maxdeg must be nonnegative")
    require_valid(A)
    k = A.omega.k
    pieces = _expand(k, [1 << i for i in range(k)] + list(A.rows), maxdeg)
    return GradedPolynomial(k, {d: frozenset(s) for d, s in enumerate(pieces)})


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
