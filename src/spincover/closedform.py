"""Closed-form Stiefel-Whitney criteria in terms of column dot counts.

Everything here is a function of the counts k_S (rows of A carrying 1 in
every column of S); the heavy lifting happened in deriving the formulas, so
the code is mostly parity bookkeeping.  Coefficient tables are pre-reduction:
they describe the class before dividing by the face ideal, which is the
whole class whenever every simplex factor has dimension >= the degree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .model import DimensionVector, ReducedMatrix, require_valid
from .oracle import GradedPolynomial

MultiIndex = tuple[int, ...]


@dataclass(frozen=True)
class CoeffTable:
    """Coefficients of a fixed degree, keyed by sorted index multisets.

    The key (i, i, j) holds the coefficient of x_i^2 x_j; every degree-d
    multiset over the column indices appears, zeros included.
    """

    degree: int
    entries: dict[MultiIndex, int] = field(compare=True)

    def coefficient(self, key: MultiIndex) -> int:
        return self.entries[tuple(sorted(key))]

    def polynomial(self, k: int) -> GradedPolynomial:
        terms = []
        for key, bit in self.entries.items():
            if not bit:
                continue
            e = [0] * k
            for i in key:
                e[i] += 1
            terms.append(tuple(e))
        return GradedPolynomial.from_terms(k, terms)


@dataclass(frozen=True)
class SpinReport:
    orientable: bool
    spin: bool
    failed_condition: Optional[str] = None
    witness: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if self.spin and (not self.orientable or self.failed_condition is not None):
            raise ValueError("spin verdict inconsistent with its evidence")
        if (self.failed_condition is None) != (self.witness is None):
            raise ValueError("condition tag and witness go together")


def binom_parity(n: int, r: int) -> int:
    """Return C(n, r) mod 2 by the subset rule.

    C(n, r) is odd exactly when every binary digit of r is dominated by the
    corresponding digit of n.  r > n always yields 0, since r then has a set
    bit outside n.
    """
    if n < 0 or r < 0:
        raise ValueError("binom_parity needs nonnegative arguments")
    return 1 if (r & ~n) == 0 else 0


def _counts(A: ReducedMatrix):
    k = A.omega.k
    single = [A.k_count([i]) for i in range(k)]
    pair = {
        (i, j): A.k_count([i, j]) for i, j in itertools.combinations(range(k), 2)
    }
    return single, pair


def _pair(pair: dict, i: int, j: int) -> int:
    return pair[(i, j) if i < j else (j, i)]


def w2_coefficients(A: ReducedMatrix) -> CoeffTable:
    """Pre-reduction w2: alpha_i on x_i^2 and beta_ij on x_i x_j."""
    require_valid(A)
    k = A.omega.k
    single, pair = _counts(A)
    entries: dict[MultiIndex, int] = {}
    for i in range(k):
        entries[(i, i)] = binom_parity(1 + single[i], 2)
    for i, j in itertools.combinations(range(k), 2):
        entries[(i, j)] = ((1 + single[i]) * (1 + single[j]) + pair[(i, j)]) % 2
    return CoeffTable(2, entries)


def has_spin(A: ReducedMatrix) -> SpinReport:
    """The four-condition Spin criterion, split by block size per index.

    Conditions iii and iv halve expressions that are even only once the
    self-dot conditions hold, so condition i is settled first and the
    remaining conditions are evaluated in order ii, iii, iv; the first
    failure is reported.
    """
    require_valid(A)
    k = A.omega.k
    dims = A.omega.dims
    single, pair = _counts(A)
    orientable = all(d % 2 == 1 for d in single)

    def report(tag: str, witness: tuple[int, ...]) -> SpinReport:
        return SpinReport(orientable, False, tag, witness)

    for i in range(k):
        if dims[i] == 1:
            if single[i] % 2 != 1:
                return report("i", (i,))
        elif single[i] % 4 != 3:
            return report("i", (i,))
    for i, j in itertools.combinations(range(k), 2):
        if dims[i] > 1 and dims[j] > 1 and pair[(i, j)] % 2 != 0:
            return report("ii", (i, j))
    for i, j in itertools.combinations(range(k), 2):
        if dims[i] == 1 and dims[j] == 1:
            vij = A.block(i, j)
            vji = A.block(j, i)
            half = (vij * (single[i] + 1) + vji * (single[j] + 1)) // 2
            if pair[(i, j)] % 2 != half % 2:
                return report("iii", (i, j))
    for i, j in itertools.combinations(range(k), 2):
        if (dims[i] == 1) != (dims[j] == 1):
            a, b = (i, j) if dims[i] == 1 else (j, i)
            vab = A.block(a, b)
            half = vab * (single[a] + 1) // 2
            if _pair(pair, a, b) % 2 != half % 2:
                return report("iv", (a, b))
    return SpinReport(orientable, True)


def spin_sufficient(A: ReducedMatrix) -> bool:
    """Self-dots 3 mod 4 and pairwise dots even.

    Always implies Spin; when no factor is an interval it is equivalent.
    """
    require_valid(A)
    single, pair = _counts(A)
    return all(d % 4 == 3 for d in single) and all(
        p % 2 == 0 for p in pair.values()
    )


def w3_coefficients(A: ReducedMatrix) -> CoeffTable:
    """Pre-reduction w3 coefficients.

    The x_i^2 x_j coefficient uses the subtrahend k_i * k_ij; replacing it
    by the bare k_ij breaks the expansion comparison, which arbitrates.
    """
    require_valid(A)
    k = A.omega.k
    single, pair = _counts(A)
    entries: dict[MultiIndex, int] = {}
    for i in range(k):
        entries[(i, i, i)] = binom_parity(single[i] + 1, 3)
    for i, j in itertools.permutations(range(k), 2):
        p = (
            binom_parity(single[i] + 1, 2) * (single[j] + 1)
            + single[i] * pair[(i, j) if i < j else (j, i)]
        )
        entries[tuple(sorted((i, i, j)))] = p % 2
    for tri in itertools.combinations(range(k), 3):
        q = 1
        for p in tri:
            q *= single[p] + 1
        for p in tri:
            rest = tuple(x for x in tri if x != p)
            q += (single[p] + 1) * pair[rest]
        entries[tri] = q % 2
    return CoeffTable(3, entries)


def w3_vanishes_big(A: ReducedMatrix) -> bool:
    """w3 = 0 test for covers whose factors all have dimension >= 3.

    Below that the face ideal reaches degree 3 and the count criteria stop
    being the whole story, so the guard is hard.
    """
    require_valid(A)
    if any(d < 3 for d in A.omega.dims):
        raise ValueError("every factor dimension must be at least 3")
    k = A.omega.k
    single, pair = _counts(A)
    for i in range(k):
        if single[i] % 4 == 2:
            return False
    for i, j in itertools.combinations(range(k), 2):
        if single[i] % 2 == 1 or single[j] % 2 == 1:
            pattern = sorted((single[i] % 4, single[j] % 4)) == [0, 1]
            if (pair[(i, j)] % 2 == 1) != pattern:
                return False
    for tri in itertools.combinations(range(k), 3):
        if all(single[p] % 4 == 0 for p in tri):
            s = sum(pair[pr] for pr in itertools.combinations(tri, 2))
            if s % 2 != 1:
                return False
    return True


def w4_coefficients(A: ReducedMatrix) -> CoeffTable:
    """Pre-reduction w4 coefficients.

    The quadruple coefficient sums over unordered index pairs; the halved
    pair count then appears once per complementary pairing and stays
    integral.  Summing over ordered pairs instead cancels everything but
    the leading product mod 2 and fails the expansion comparison.
    """
    require_valid(A)
    k = A.omega.k
    single, pair = _counts(A)
    entries: dict[MultiIndex, int] = {}
    for i in range(k):
        entries[(i, i, i, i)] = binom_parity(single[i] + 1, 4)
    for i, j in itertools.permutations(range(k), 2):
        kij = _pair(pair, i, j)
        p1 = (
            binom_parity(single[i] + 1, 3) * (single[j] + 1)
            + binom_parity(single[i], 2) * kij
        )
        entries[tuple(sorted((i, i, i, j)))] = p1 % 2
    for i, j in itertools.combinations(range(k), 2):
        p2 = (
            binom_parity(single[i] + 1, 2) * binom_parity(single[j] + 1, 2)
            + single[i] * single[j] * pair[(i, j)]
            + binom_parity(pair[(i, j)], 2)
        )
        entries[(i, i, j, j)] = p2 % 2
    for sq in range(k):
        for i2, i3 in itertools.combinations(range(k), 2):
            if sq in (i2, i3):
                continue
            kt = A.k_count((sq, i2, i3))
            q = binom_parity(single[sq] + 1, 2) * (
                (single[i2] + 1) * (single[i3] + 1) + pair[(i2, i3)]
            )
            q += single[sq] * (
                _pair(pair, sq, i2) * (single[i3] + 1)
                + _pair(pair, sq, i3) * (single[i2] + 1)
            )
            q += _pair(pair, sq, i2) * _pair(pair, sq, i3) + kt
            entries[tuple(sorted((sq, sq, i2, i3)))] = q % 2
    for quad in itertools.combinations(range(k), 4):
        r = 1
        for p in quad:
            r *= single[p] + 1
        for p, q in itertools.combinations(quad, 2):
            z, w = (x for x in quad if x not in (p, q))
            r += (single[p] + 1) * (single[q] + 1) * pair[(z, w)]
        a, b, c, d = quad
        r += (
            pair[(a, b)] * pair[(c, d)]
            + pair[(a, c)] * pair[(b, d)]
            + pair[(a, d)] * pair[(b, c)]
        )
        entries[quad] = r % 2
    return CoeffTable(4, entries)


def closed_coefficients(A: ReducedMatrix, m: int) -> CoeffTable:
    """Pre-reduction w_m coefficients for m = 1..4.

    w_1 is the sum of x_i over the columns with an even self-dot; it is
    read off the counts directly, with no validation pass.
    """
    if m == 1:
        return CoeffTable(
            1, {(i,): (A.k_count([i]) + 1) % 2 for i in range(A.omega.k)}
        )
    if m == 2:
        return w2_coefficients(A)
    if m == 3:
        return w3_coefficients(A)
    if m == 4:
        return w4_coefficients(A)
    raise ValueError("closed forms cover degrees 1..4")


# Pairwise requirement on k_ij mod 4, keyed by sorted (k_i, k_j) mod 8.
# A residue 7 on either side forces 0 regardless of the partner.
_W4_PAIR_TABLE = {
    (0, 0): (1,),
    (0, 1): (0, 1),
    (0, 2): (1,),
    (1, 1): (2,),
    (1, 2): (2,),
    (2, 2): (3,),
}

# Triple requirement on k_{ijl} mod 2 keyed by sorted residues; None marks
# the rows whose requirement is the parity of the residue-(0,1) pair dots.
_W4_TRIPLE_TABLE = {
    (0, 0, 0): 1,
    (0, 0, 1): None,
    (0, 0, 2): 1,
    (0, 1, 1): None,
    (0, 1, 2): None,
    (0, 2, 2): 1,
    (1, 1, 1): 0,
    (1, 1, 2): 0,
    (1, 2, 2): 0,
    (2, 2, 2): 1,
}


def w4_vanishes_big(A: ReducedMatrix) -> bool:
    """w4 = 0 table test for covers whose factors all have dimension >= 4.

    Triples containing a residue-7 column force an even triple count; the
    requirement follows from the same squared-index coefficients as the
    printed rows even though no 7 row is printed.  The pair rows for
    residues (0,0) and (1,1) descend from quadruple coefficients, so they
    genuinely constrain only matrices with at least four columns; with
    fewer columns the table can reject matrices whose w4 already vanishes.
    """
    require_valid(A)
    if any(d < 4 for d in A.omega.dims):
        raise ValueError("every factor dimension must be at least 4")
    k = A.omega.k
    single, pair = _counts(A)
    theta = [d % 8 for d in single]
    for i in range(k):
        if theta[i] not in (0, 1, 2, 7):
            return False
    for i, j in itertools.combinations(range(k), 2):
        key = tuple(sorted((theta[i], theta[j])))
        if 7 in key:
            if pair[(i, j)] % 4 != 0:
                return False
        elif key in _W4_PAIR_TABLE:
            if pair[(i, j)] % 4 not in _W4_PAIR_TABLE[key]:
                return False
    for tri in itertools.combinations(range(k), 3):
        res = tuple(sorted(theta[p] for p in tri))
        kt = A.k_count(tri)
        if 7 in res:
            if kt % 2 != 0:
                return False
        elif res in _W4_TRIPLE_TABLE:
            want = _W4_TRIPLE_TABLE[res]
            if want is None:
                for p, q in itertools.combinations(tri, 2):
                    if sorted((theta[p], theta[q])) == [0, 1]:
                        if kt % 2 != pair[(p, q)] % 2:
                            return False
            elif kt % 2 != want:
                return False
    return True


CONJECTURE_READINGS = ("as-written", "shifted")


def conjecture_predicate(A: ReducedMatrix, t: int, reading: str) -> bool:
    """Congruence test conjectured to control w_1..w_{2^{t+1}-1}.

    Singletons need k_i = -1 mod 2^{t+1}.  Larger subsets need k_S = 0
    modulo 2^{t+1-|S|} as written, or 2^{t+2-|S|} in the shifted reading;
    a modulus of 2^0 or below constrains nothing.  The shifted reading is
    the one that reproduces the known t = 1 and t = 2 equivalences; the
    as-written reading is kept because the discrepancy is part of the
    record.
    """
    if t < 1:
        raise ValueError("t must be positive")
    if reading not in CONJECTURE_READINGS:
        raise ValueError(f"reading must be one of {CONJECTURE_READINGS}")
    require_valid(A)
    if any(d < 2**t for d in A.omega.dims):
        raise ValueError(f"every factor dimension must be at least {2**t}")
    k = A.omega.k
    shift = 1 if reading == "shifted" else 0
    for size in range(1, min(t + 1, k) + 1):
        for S in itertools.combinations(range(k), size):
            kS = A.k_count(S)
            if size == 1:
                mod = 2 ** (t + 1)
                if kS % mod != mod - 1:
                    return False
            else:
                e = t + 1 - size + shift
                if e > 0 and kS % (2**e) != 0:
                    return False
    return True


def interval_simplex_matrix(t: int) -> ReducedMatrix:
    """The Spin cover of I x Delta^{4t+2}: column 1 = e_1, column 2 all-ones."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    omega = DimensionVector((1, 4 * t + 2))
    rows = [[1, 1]] + [[0, 1]] * (4 * t + 2)
    return ReducedMatrix.from_rows(omega.dims, rows)
