"""Closed-form Stiefel-Whitney criteria in terms of column dot counts.

Everything here is a function of the counts k_S (rows of A carrying 1 in
every column of S); the heavy lifting happened in deriving the formulas, so
the code is mostly parity bookkeeping.  The closed forms are pre-reduction:
they return the class before dividing by the face ideal, which is the
whole class whenever every simplex factor has dimension >= the degree.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator

from .model import DimensionVector, ReducedMatrix, SpinReport, spin_verdict
from .oracle import GradedPolynomial, monomials_of_degree

MultiIndex = tuple[int, ...]


@functools.lru_cache(maxsize=None)
def _key_bits(k: int, d: int) -> dict[MultiIndex, int]:
    """Per sorted index key of degree d over k columns, the bit of its
    monomial in a degree-d piece: the key (i, i, j) is that of x_i^2 x_j.
    The closed forms multiply each bit by its 0/1 coefficient and OR it in."""
    return {
        tuple(i for i, exp in enumerate(e) for _ in range(exp)): 1 << t
        for t, e in enumerate(monomials_of_degree(k, d))
    }


def binom_parity(n: int, r: int) -> int:
    """Return C(n, r) mod 2 by the subset rule.

    C(n, r) is odd exactly when every binary digit of r is dominated by the
    corresponding digit of n.  r > n always yields 0, since r then has a set
    bit outside n.
    """
    if n < 0 or r < 0:
        raise ValueError("binom_parity needs nonnegative arguments")
    return 1 if (r & ~n) == 0 else 0


def subset_dots(A: ReducedMatrix, top: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """(S, k_S) for every column subset S of size 1..top, by size and then
    in lexicographic order; k_i and k_ij come from the table of A."""
    single, pair = A.dots()
    for size in range(1, min(top, A.omega.k) + 1):
        for S in itertools.combinations(range(A.omega.k), size):
            yield S, pair[S[0]][S[-1]] if size <= 2 else A.k_count(S)


def w2_coefficients(A: ReducedMatrix) -> GradedPolynomial:
    """Pre-reduction w2: alpha_i on x_i^2 and beta_ij on x_i x_j."""
    k = A.omega.k
    single, pair = A.dots()
    bits, mask = _key_bits(k, 2), 0
    for i in range(k):
        mask |= bits[(i, i)] * binom_parity(1 + single[i], 2)
    for i, j in itertools.combinations(range(k), 2):
        mask |= bits[(i, j)] * (((1 + single[i]) * (1 + single[j]) + pair[i][j]) % 2)
    return GradedPolynomial(k, {2: mask})


def has_spin(A: ReducedMatrix) -> SpinReport:
    """The four-condition Spin criterion, split by block size per index.

    Conditions iii and iv halve expressions that are even only once the
    self-dot conditions hold, so condition i is settled first and the
    remaining conditions are evaluated in order ii, iii, iv; the first
    failure is reported.
    """
    k = A.omega.k
    dims = A.omega.dims
    single = A.self_dots
    orientable = all([d % 2 == 1 for d in single])

    def report(tag: str, witness: tuple[int, ...]) -> SpinReport:
        return spin_verdict(orientable, False, tag, witness)

    for i in range(k):
        if dims[i] == 1:
            if single[i] % 2 != 1:
                return report("i", (i,))
        elif single[i] % 4 != 3:
            return report("i", (i,))
    pair = A.dots()[1]
    for i, j in itertools.combinations(range(k), 2):
        if dims[i] > 1 and dims[j] > 1 and pair[i][j] % 2 != 0:
            return report("ii", (i, j))
    for i, j in itertools.combinations(range(k), 2):
        if dims[i] == 1 and dims[j] == 1:
            vij = A.block(i, j)
            vji = A.block(j, i)
            half = (vij * (single[i] + 1) + vji * (single[j] + 1)) // 2
            if pair[i][j] % 2 != half % 2:
                return report("iii", (i, j))
    for i, j in itertools.combinations(range(k), 2):
        if (dims[i] == 1) != (dims[j] == 1):
            a, b = (i, j) if dims[i] == 1 else (j, i)
            vab = A.block(a, b)
            half = vab * (single[a] + 1) // 2
            if pair[a][b] % 2 != half % 2:
                return report("iv", (a, b))
    return spin_verdict(orientable, True)


def spin_sufficient(A: ReducedMatrix) -> bool:
    """Self-dots 3 mod 4 and pairwise dots even.

    Always implies Spin; when no factor is an interval it is equivalent.
    """
    return all([d % 4 == 3 for d in A.self_dots]) and all(
        [p % 2 == 0 for i, row in enumerate(A.dots()[1]) for p in row[i + 1:]]
    )


def _parities(single: list[int]) -> tuple[list[int], ...]:
    """Per index i: k_i + 1, and C(k_i + 1, r) mod 2 for r = 2, 3, 4."""
    plus = [s + 1 for s in single]
    return plus, *([binom_parity(s, r) for s in plus] for r in (2, 3, 4))


def w3_coefficients(A: ReducedMatrix) -> GradedPolynomial:
    """Pre-reduction w3 from its closed coefficients.

    The x_i^2 x_j coefficient uses the subtrahend k_i * k_ij; replacing it
    by the bare k_ij breaks the expansion comparison, which arbitrates.
    """
    k = A.omega.k
    single, pair = A.dots()
    plus, c2, c3, _ = _parities(single)
    bits, mask = _key_bits(k, 3), 0
    for i in range(k):
        mask |= bits[(i, i, i)] * c3[i]
    for i, j in itertools.permutations(range(k), 2):
        p = c2[i] * plus[j] + single[i] * pair[i][j]
        mask |= bits[(i, i, j) if i < j else (j, i, i)] * (p % 2)
    for a, b, c in itertools.combinations(range(k), 3):
        q = (plus[a] * plus[b] * plus[c]
             + plus[a] * pair[b][c] + plus[b] * pair[a][c] + plus[c] * pair[a][b])
        mask |= bits[(a, b, c)] * (q % 2)
    return GradedPolynomial(k, {3: mask})


def w3_vanishes_big(A: ReducedMatrix) -> bool:
    """w3 = 0 test for covers whose factors all have dimension >= 3.

    Below that the face ideal reaches degree 3 and the count criteria stop
    being the whole story, so the guard is hard.
    """
    if any(d < 3 for d in A.omega.dims):
        raise ValueError("every factor dimension must be at least 3")
    k = A.omega.k
    single, pair = A.dots()
    for i in range(k):
        if single[i] % 4 == 2:
            return False
    for i, j in itertools.combinations(range(k), 2):
        if single[i] % 2 == 1 or single[j] % 2 == 1:
            pattern = sorted((single[i] % 4, single[j] % 4)) == [0, 1]
            if (pair[i][j] % 2 == 1) != pattern:
                return False
    for tri in itertools.combinations(range(k), 3):
        if all(single[p] % 4 == 0 for p in tri):
            s = sum(pair[a][b] for a, b in itertools.combinations(tri, 2))
            if s % 2 != 1:
                return False
    return True


def w4_coefficients(A: ReducedMatrix) -> GradedPolynomial:
    """Pre-reduction w4 from its closed coefficients.

    The quadruple coefficient sums over unordered index pairs; the halved
    pair count then appears once per complementary pairing and stays
    integral.  Summing over ordered pairs instead cancels everything but
    the leading product mod 2 and fails the expansion comparison.
    """
    k = A.omega.k
    (single, pair), cols = A.dots(), A.columns
    plus, c2, c3, c4 = _parities(single)
    half = [binom_parity(s, 2) for s in single]  # C(k_i, 2) mod 2
    bits, mask = _key_bits(k, 4), 0
    for i in range(k):
        mask |= bits[(i, i, i, i)] * c4[i]
    for i, j in itertools.permutations(range(k), 2):
        p1 = c3[i] * plus[j] + half[i] * pair[i][j]
        mask |= bits[(i, i, i, j) if i < j else (j, i, i, i)] * (p1 % 2)
    for i, j in itertools.combinations(range(k), 2):
        p2 = c2[i] * c2[j] + single[i] * single[j] * pair[i][j] + binom_parity(pair[i][j], 2)
        mask |= bits[(i, i, j, j)] * (p2 % 2)
    for sq in range(k):
        c2sq, ksq, row, col = c2[sq], single[sq], pair[sq], cols[sq]
        for i2, i3 in itertools.combinations([i for i in range(k) if i != sq], 2):
            kt = (col & cols[i2] & cols[i3]).bit_count()
            q = (c2sq * (plus[i2] * plus[i3] + pair[i2][i3])
                 + ksq * (row[i2] * plus[i3] + row[i3] * plus[i2])
                 + row[i2] * row[i3] + kt)
            key = ((sq, sq, i2, i3) if sq < i2 else
                   (i2, sq, sq, i3) if sq < i3 else (i2, i3, sq, sq))
            mask |= bits[key] * (q % 2)
    for a, b, c, d in itertools.combinations(range(k), 4):
        # the product, then each pair of the quadruple times its complement's
        # pair count, then each complementary pairing
        r = (plus[a] * plus[b] * plus[c] * plus[d]
             + plus[a] * plus[b] * pair[c][d] + plus[a] * plus[c] * pair[b][d]
             + plus[a] * plus[d] * pair[b][c] + plus[b] * plus[c] * pair[a][d]
             + plus[b] * plus[d] * pair[a][c] + plus[c] * plus[d] * pair[a][b]
             + pair[a][b] * pair[c][d] + pair[a][c] * pair[b][d] + pair[a][d] * pair[b][c])
        mask |= bits[(a, b, c, d)] * (r % 2)
    return GradedPolynomial(k, {4: mask})


def closed_coefficients(A: ReducedMatrix, m: int) -> GradedPolynomial:
    """Pre-reduction w_m, m = 1..4, from its closed coefficients.

    w_1 is the sum of x_i over the columns with an even self-dot, read off
    the counts directly.
    """
    if m == 1:
        bits = _key_bits(A.omega.k, 1)
        mask = sum([bits[(i,)] * ((d + 1) % 2) for i, d in enumerate(A.self_dots)])
        return GradedPolynomial(A.omega.k, {1: mask})
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
    if any(d < 4 for d in A.omega.dims):
        raise ValueError("every factor dimension must be at least 4")
    k = A.omega.k
    (single, pair), cols = A.dots(), A.columns
    theta = [d % 8 for d in single]
    for i in range(k):
        if theta[i] not in (0, 1, 2, 7):
            return False
    for i, j in itertools.combinations(range(k), 2):
        key = tuple(sorted((theta[i], theta[j])))
        if 7 in key:
            if pair[i][j] % 4 != 0:
                return False
        elif key in _W4_PAIR_TABLE:
            if pair[i][j] % 4 not in _W4_PAIR_TABLE[key]:
                return False
    for tri in itertools.combinations(range(k), 3):
        res = tuple(sorted(theta[p] for p in tri))
        a, b, c = tri
        kt = (cols[a] & cols[b] & cols[c]).bit_count()
        if 7 in res:
            if kt % 2 != 0:
                return False
        elif res in _W4_TRIPLE_TABLE:
            want = _W4_TRIPLE_TABLE[res]
            if want is None:
                for p, q in itertools.combinations(tri, 2):
                    if sorted((theta[p], theta[q])) == [0, 1]:
                        if kt % 2 != pair[p][q] % 2:
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
    if any(d < 2**t for d in A.omega.dims):
        raise ValueError(f"every factor dimension must be at least {2**t}")
    shift = 1 if reading == "shifted" else 0
    for S, kS in subset_dots(A, t + 1):
        if len(S) == 1:
            mod = 2 ** (t + 1)
            if kS % mod != mod - 1:
                return False
        else:
            e = t + 1 - len(S) + shift
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
