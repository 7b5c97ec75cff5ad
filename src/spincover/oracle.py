"""Ground-truth Stiefel-Whitney classes via the cohomology ring.

The mod 2 cohomology of a small cover over a product of simplices is the
Stanley-Reisner ring of the polytope modulo the linear relations coming from
the characteristic matrix.  Eliminating the linear relations leaves k
variables x_1..x_k (the classes of the facets F^1_0..F^k_0) and k substituted
monomial generators.  The total Stiefel-Whitney class is the product of the
facet classes (1 + x) over all n + k facets, expanded here with degree
truncation and reduced per degree by GF(2) row echelon.

No Groebner machinery: only degrees up to about 7 in at most a handful of
variables ever occur, so per-degree linear algebra is exact and cheap.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, Optional

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
    def zero(cls, k: int) -> "GradedPolynomial":
        return cls(k, {})

    @classmethod
    def one(cls, k: int) -> "GradedPolynomial":
        return cls(k, {0: frozenset({(0,) * k})})

    @classmethod
    def variable(cls, k: int, i: int) -> "GradedPolynomial":
        if not 0 <= i < k:
            raise IndexError(i)
        e = tuple(1 if t == i else 0 for t in range(k))
        return cls(k, {1: frozenset({e})})

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

    def __add__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        if self.k != other.k:
            raise ValueError("variable count mismatch")
        out: dict[int, frozenset[ExpVec]] = {}
        for d in set(self.pieces) | set(other.pieces):
            out[d] = self.piece(d) ^ other.piece(d)
        return GradedPolynomial(self.k, out)

    def mul(self, other: "GradedPolynomial", maxdeg: Optional[int] = None) -> "GradedPolynomial":
        """Product over GF(2), discarding degrees above maxdeg if given."""
        if self.k != other.k:
            raise ValueError("variable count mismatch")
        acc: dict[int, set[ExpVec]] = {}
        for d1, terms1 in self.pieces.items():
            for d2, terms2 in other.pieces.items():
                d = d1 + d2
                if maxdeg is not None and d > maxdeg:
                    continue
                bucket = acc.setdefault(d, set())
                for e1 in terms1:
                    for e2 in terms2:
                        e = tuple(a + b for a, b in zip(e1, e2))
                        if e in bucket:
                            bucket.remove(e)
                        else:
                            bucket.add(e)
        return GradedPolynomial(self.k, {d: frozenset(s) for d, s in acc.items()})

    def __mul__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        return self.mul(other)

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
    """Row-reduced span of the ideal inside one graded piece.

    Monomials of the degree are indexed in descending lex order; a
    polynomial of that degree is a bitmask with bit t = monomial t.  Rows
    are kept fully reduced, keyed by pivot index (the leading monomial).
    """

    __slots__ = ("k", "degree", "monomials", "index", "rows")

    def __init__(self, k: int, degree: int, vectors: Iterable[int]):
        self.k = k
        self.degree = degree
        self.monomials = tuple(monomials_of_degree(k, degree))
        self.index = {e: t for t, e in enumerate(self.monomials)}
        self.rows: dict[int, int] = {}
        for vec in vectors:
            self._insert(vec)

    def _insert(self, vec: int) -> None:
        cur = vec
        while cur:
            p = (cur & -cur).bit_length() - 1
            if p in self.rows:
                cur ^= self.rows[p]
                continue
            for q, row in list(self.rows.items()):
                if (row >> p) & 1:
                    self.rows[q] = row ^ cur
            self.rows[p] = cur
            return

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


def _linear_form(k: int, row: int) -> GradedPolynomial:
    """sum of x_j over the set bits j of a matrix row."""
    return GradedPolynomial.from_terms(
        k,
        (
            tuple(1 if t == j else 0 for t in range(k))
            for j in range(k)
            if (row >> j) & 1
        ),
    )


@functools.lru_cache(maxsize=1)
def relation_generators(A: ReducedMatrix) -> tuple[GradedPolynomial, ...]:
    """Substitute the linear relations into the Stanley-Reisner generators.

    g_i = x_i * prod over rows r of block i of (sum_l a_{rl} x_l), of degree
    n_i + 1; the diagonal convention makes each factor contain x_i.  Every
    caller asks for one matrix's generators several times in a row and never
    returns to an earlier one, so one cached entry suffices, and a matrix is
    validated only when it is not the cached one.
    """
    require_valid(A)
    k = A.omega.k
    gens = []
    for i in range(k):
        g = GradedPolynomial.variable(k, i)
        off = A.omega.offset(i)
        for row in A.rows[off:off + A.omega[i]]:
            g = g * _linear_form(k, row)
        gens.append(g)
    return tuple(gens)


def ideal_degree_basis(A: ReducedMatrix, d: int) -> DegreeBasis:
    """Echelon basis of {m * g_i : deg m = d - n_i - 1} in degree d."""
    if d < 1:
        raise ValueError("degree must be positive")
    k = A.omega.k
    probe = DegreeBasis(k, d, ())
    vectors = []
    for i, g in enumerate(relation_generators(A)):
        gdeg = A.omega[i] + 1
        if gdeg > d:
            continue
        gterms = g.piece(gdeg)
        for m in monomials_of_degree(k, d - gdeg):
            shifted = (tuple(a + b for a, b in zip(e, m)) for e in gterms)
            vectors.append(probe.to_mask(shifted))
    return DegreeBasis(k, d, vectors)


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
    """Expansion of prod(1 + x_i) * prod over rows (1 + sum_j a_rj x_j)."""
    if maxdeg < 0:
        raise ValueError("maxdeg must be nonnegative")
    require_valid(A)
    k = A.omega.k
    total = GradedPolynomial.one(k)
    for i in range(k):
        factor = GradedPolynomial.one(k) + GradedPolynomial.variable(k, i)
        total = total.mul(factor, maxdeg)
    for row in A.rows:
        total = total.mul(GradedPolynomial.one(k) + _linear_form(k, row), maxdeg)
    return total


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
