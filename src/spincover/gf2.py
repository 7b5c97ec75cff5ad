"""Bit-exact GF(2) vectors and matrices with integer-valued counting products.

Vectors and matrix rows are stored as Python ints (bit t = entry t), which
makes popcounts, dot counts and row elimination single machine operations
for the sizes that occur here (a few dozen bits).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


def binom_parity(n: int, r: int) -> int:
    """Return C(n, r) mod 2 by the subset rule.

    C(n, r) is odd exactly when every binary digit of r is dominated by the
    corresponding digit of n.  r > n always yields 0, since r then has a set
    bit outside n.
    """
    if n < 0 or r < 0:
        raise ValueError("binom_parity needs nonnegative arguments")
    return 1 if (r & ~n) == 0 else 0


class BitVector:
    """Immutable vector over GF(2) with a fixed length."""

    __slots__ = ("bits", "length")

    def __init__(self, bits: int, length: int):
        if length < 0:
            raise ValueError("negative length")
        if bits < 0 or bits >> length:
            raise ValueError("bits outside the stated length")
        self.bits = bits
        self.length = length

    @classmethod
    def from_entries(cls, entries: Iterable[int]) -> "BitVector":
        bits = 0
        length = 0
        for e in entries:
            if e not in (0, 1):
                raise ValueError(f"entry {e!r} is not a bit")
            bits |= e << length
            length += 1
        return cls(bits, length)

    @classmethod
    def zero(cls, length: int) -> "BitVector":
        return cls(0, length)

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, t: int) -> int:
        if not 0 <= t < self.length:
            raise IndexError(t)
        return (self.bits >> t) & 1

    def __iter__(self) -> Iterator[int]:
        return ((self.bits >> t) & 1 for t in range(self.length))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitVector)
            and self.bits == other.bits
            and self.length == other.length
        )

    def __hash__(self) -> int:
        return hash((self.bits, self.length))

    def __repr__(self) -> str:
        return f"BitVector({''.join(str(b) for b in self)!r})"

    def popcount(self) -> int:
        return self.bits.bit_count()

    def is_zero(self) -> bool:
        return self.bits == 0


def dot_count(u: BitVector, v: BitVector) -> int:
    """Number of positions where both u and v are 1, as an ordinary integer.

    Deliberately not reduced mod 2: the same count is consumed at different
    moduli (2, 4, 8) by the criteria downstream.
    """
    if u.length != v.length:
        raise ValueError(f"length mismatch: {u.length} != {v.length}")
    return (u.bits & v.bits).bit_count()


def _det_rows(rows: list[int], cols_mask: int) -> int:
    """Determinant over GF(2) of the square submatrix given by rows and the
    column set cols_mask, via elimination.  len(rows) must equal the popcount
    of cols_mask."""
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


def principal_minors_all_one(rows: Sequence[int]) -> bool:
    """True iff det of the S x S submatrix is 1 for every nonempty S.

    rows are the row ints of a square matrix.  Iterates all 2^k - 1 subsets
    directly: this is the definition of validity that tests compare the
    acyclicity rule against, not a fast path.
    """
    k = len(rows)
    for r in rows:
        if r < 0 or r >> k:
            raise ValueError("principal minors of a non-square matrix")
    for mask in range(1, 1 << k):
        sub = [rows[i] for i in range(k) if (mask >> i) & 1]
        if _det_rows(sub, mask) != 1:
            return False
    return True
