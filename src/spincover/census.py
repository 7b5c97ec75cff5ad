"""Exhaustive enumeration of valid matrices and closed-form vs oracle checks.

The off-diagonal entries of a candidate matrix are packed into a counter:
block-rows ascending, then columns, then bits, with the first position most
significant, so counting up walks the assignments in lexicographic order.
Only the valid ones, those with an acyclic block relation, are walked, in one
process.  A run computes the oracle part of its census records once per
row-order class (see `class_memo`).
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Optional, Sequence, TextIO

from .closedform import (
    closed_coefficients,
    conjecture_predicate,
    has_spin,
    spin_sufficient,
    w3_vanishes_big,
    w4_vanishes_big,
)
from .digraph import from_matrix, has_spin_digraph, w3_vanishes_digraph
from .model import (
    DimensionVector,
    InvalidMatrixError,
    ReducedMatrix,
    elementary_component,
    identity_rows,
    is_cyclic,
    row_strings,
    validate,  # unused here; perfbench's tracer test reads this binding
)
from .oracle import (
    normal_form,
    oracle_class_is_zero,
    oracle_has_spin,
    piece_str,
    total_sw_truncated,
)

DEFAULT_BUDGET = 2**24
DEFAULT_SEED = 1729
SCHEMA_VERSION = 1


class BudgetError(RuntimeError):
    """A refused run: a search space larger than the caller allowed, a matrix
    of more entries than that (space then 0), or a sample that the draw cap
    could not fill (space and budget then 0).  A space of more than 2^64
    candidates is never built; its space is 0."""

    def __init__(self, message: str, space: int = 0, budget: int = 0):
        super().__init__(message)
        self.space = space
        self.budget = budget


@functools.lru_cache(maxsize=None)
def bit_layout(omega: DimensionVector) -> tuple[tuple[int, int], ...]:
    """(row, column) per off-diagonal bit, most significant first, so
    counter bit b is entry -1 - b."""
    return tuple(
        (omega.offsets[i] + t, j)
        for i in range(omega.k)
        for j in range(omega.k)
        if j != i
        for t in range(omega.dims[i])
    )


def space_size(omega: DimensionVector) -> int:
    return 1 << (omega.n * (omega.k - 1))


def check_budget(omega: DimensionVector, budget: int) -> None:
    """Refuse a space of 2^{n(k-1)} candidates over budget by comparing
    exponents, so a huge space is neither built nor printed in full."""
    bits = omega.n * (omega.k - 1)
    if bits >= max(budget, 0).bit_length():
        space = 1 << bits if bits <= 64 else 0
        shown = space or f"2^{bits}"
        raise BudgetError(f"search space {shown} exceeds budget {budget}", space, budget)


def check_size(omega: DimensionVector, budget: int) -> None:
    """Refuse a matrix of more than budget entries n*k: each matrix of a
    run costs time and memory in n*k, and one factor has a space of 1."""
    n, k = omega.n, omega.k
    if n * k > budget:
        raise BudgetError(f"matrix of {n}x{k} = {n * k} entries exceeds budget {budget}", 0, budget)


def _counter_rows(omega: DimensionVector, counter: int) -> list[int]:
    """The row ints that `counter` assigns."""
    layout = bit_layout(omega)
    rows = identity_rows(omega)
    while counter:
        low = counter & -counter
        r, c = layout[-low.bit_length()]
        rows[r] |= 1 << c
        counter ^= low
    return rows


def matrix_from_counter(omega: DimensionVector, counter: int) -> ReducedMatrix:
    return ReducedMatrix(omega, _counter_rows(omega, counter))


def _checked(omega: DimensionVector, rows: Sequence[int], fault: str) -> ReducedMatrix:
    """The matrix of rows that a walk or a counter verdict found valid.  The
    constructor refusing them is a bug there, named with the rows instead of
    dropping the matrix from the count."""
    try:
        return ReducedMatrix(omega, rows)
    except InvalidMatrixError:
        names = "/".join(row_strings(rows, omega.k))
        raise RuntimeError(f"{fault}, rows {names}") from None


def counter_is_valid(omega: DimensionVector, counter: int) -> bool:
    """Whether `counter` decodes into a valid matrix, judged without decoding:
    a nonzero n_i-bit field v_ij is the arc i -> j, and the arcs must be
    acyclic.  Block-row i's fields run up from its lowest bit, j descending."""
    n, k, offsets = omega.n, omega.k, omega.offsets
    succ = [0] * k
    for i, d in enumerate(omega.dims):
        fields = counter >> (n - offsets[i + 1]) * (k - 1)
        for j in reversed([j for j in range(k) if j != i]):
            if fields & ((1 << d) - 1):
                succ[i] |= 1 << j
            fields >>= d
    return not is_cyclic(succ)


def _walk(omega: DimensionVector) -> Iterator[tuple[int, ...]]:
    """Rows of the valid matrices, in counter order.  Block-row i holds the
    arcs out of vertex i: it is zero in every column j that already reaches i
    through block-rows 0..i-1 and counts up through the submasks of the rest.
    Later block-rows are still zero, so every branch ends in a valid matrix.
    reach[v] is the bitmask of the vertices that v reaches by one or more arcs.
    """
    k, layout, offsets = omega.k, bit_layout(omega), omega.offsets
    rows = identity_rows(omega)
    # Per block-row, its (row, column) cells by bit of its part of the counter.
    cells = [layout[offsets[i] * (k - 1):offsets[i + 1] * (k - 1)][::-1] for i in range(k)]

    def extend(i: int, reach: list[int]) -> Iterator[tuple[int, ...]]:
        off, d, mine = offsets[i], omega.dims[i], cells[i]
        free = sum(1 << b for b, (_, j) in enumerate(mine) if not (reach[j] >> i) & 1)
        x = 0
        while True:
            rows[off:off + d] = [1 << i] * d
            out, bits = 0, x
            while bits:
                low = bits & -bits
                r, j = mine[low.bit_length() - 1]
                rows[r] |= 1 << j
                out |= (1 << j) | reach[j]
                bits ^= low
            if i + 1 == k:
                yield tuple(rows)
            else:
                after = [r | out if (r >> i) & 1 else r for r in reach]
                after[i] = out
                yield from extend(i + 1, after)
            if x == free:
                return
            x = (x - free) & free

    yield from extend(0, [0] * k)


def enumerate_valid(omega: DimensionVector, budget: int = DEFAULT_BUDGET) -> Iterator[ReducedMatrix]:
    """All valid matrices over omega, ascending in the counter order."""
    check_budget(omega, budget)
    check_size(omega, budget)
    for rows in _walk(omega):
        yield _checked(omega, rows, "the walk yielded an invalid matrix")


def sample_valid(
    omega: DimensionVector,
    count: int,
    seed: int = DEFAULT_SEED,
    budget: int = DEFAULT_BUDGET,
) -> Iterator[ReducedMatrix]:
    """Seeded uniform draws from the candidate space, keeping `count` valid ones.

    Draws are capped at 10000 per requested matrix and at `budget`, so a
    family with almost no valid members is refused with a `BudgetError`.
    Each draw is judged on its counter, and only the kept ones are decoded.
    """
    check_size(omega, budget)
    nbits = omega.n * (omega.k - 1)
    rng = random.Random(seed)
    found = 0
    draws = min(max(count, 1) * 10000, max(budget, 0))
    for _ in range(draws):
        if found >= count:
            return
        c = rng.getrandbits(nbits) if nbits else 0
        if not counter_is_valid(omega, c):
            continue
        found += 1
        yield _checked(omega, _counter_rows(omega, c), "the sampler kept an invalid draw")
    if found < count:
        raise BudgetError(
            f"only {found} of {count} requested valid samples found in {draws} draws"
        )


def compact_matrix(A: ReducedMatrix) -> str:
    """Rows as 0/1 strings joined by '/', small enough for one JSON line."""
    return "/".join(row_strings(A.rows, A.omega.k))


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_encode_str = json.encoder.encode_basestring_ascii


@functools.lru_cache(maxsize=16)
def _omega_json(omega: tuple[int, ...]) -> str:
    return _encode(list(omega))


@functools.lru_cache(maxsize=256)
def _w_json(digests: tuple[tuple[int, str], ...]) -> str:
    """The encoded "w" object of a record's digest items.  Keyed on the
    items, so every record of a row-order class shares one encoding, and a
    record with other digests can never read a stale one."""
    return _encode({str(m): d for m, d in digests})


_BOOL_JSON = {True: "true", False: "false"}


@dataclass(frozen=True)
class CensusRecord:
    omega: tuple[int, ...]
    matrix: str
    orientable: bool
    spin_closed: bool
    spin_digraph: bool
    spin_oracle: bool
    w_digests: dict[int, str]
    flags: tuple[str, ...]

    def to_json(self) -> str:
        """The census line: the eight fields as one JSON object with sorted
        keys and no spaces.  The line is assembled from parts; the omega and
        "w" parts are encoded once per distinct value, and the matrix string
        is escaped as JSON, so the line equals encoding the object whole."""
        flags = _encode(list(self.flags)) if self.flags else "[]"
        return (
            f'{{"flags":{flags},"matrix":{_encode_str(self.matrix)},'
            f'"omega":{_omega_json(self.omega)},"orientable":{_BOOL_JSON[self.orientable]},'
            f'"spin_closed":{_BOOL_JSON[self.spin_closed]},'
            f'"spin_digraph":{_BOOL_JSON[self.spin_digraph]},'
            f'"spin_oracle":{_BOOL_JSON[self.spin_oracle]},'
            f'"w":{_w_json(tuple(self.w_digests.items()))}}}'
        )


@dataclass
class DiscrepancyReport:
    omega: tuple[int, ...]
    total_enumerated: int
    total_valid: int
    counts: dict[str, int]
    discrepancies: list[CensusRecord] = field(default_factory=list)

    def summary(self) -> str:
        parts = [f"valid: {self.total_valid}"]
        parts.extend(f"{k}: {v}" for k, v in sorted(self.counts.items()))
        parts.append(f"discrepancies: {len(self.discrepancies)}")
        return ", ".join(parts)


Sink = Optional[Callable[[CensusRecord], None]]


def write_census_header(
    fh: TextIO, omega: DimensionVector, seed: int, budget: int
) -> None:
    header = {
        "budget": budget,
        "omega": list(omega.dims),
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
    }
    fh.write(_encode(header) + "\n")


OracleFields = Callable[[ReducedMatrix], tuple[bool, dict[int, str]]]


def oracle_fields(A: ReducedMatrix) -> tuple[bool, dict[int, str]]:
    """The oracle's Spin verdict on A and its w_1..w_top digests, read off
    one reduced expansion of the total class (top = min(4, n))."""
    k, top = A.omega.k, min(4, A.omega.n)
    pieces = normal_form(total_sw_truncated(A, top), A).pieces
    digests = {m: piece_str(k, m, pieces.get(m, 0)) for m in range(1, top + 1)}
    return 1 not in pieces and 2 not in pieces, digests


def class_memo(omega: DimensionVector) -> OracleFields:
    """oracle_fields over omega for one run, computed once per row-order class.

    Permuting the rows of block i relabels the facets of its simplex, and
    g_i and the total class are products over those rows in a commutative
    ring; so over one omega, which fixes top, the key is the rows sorted
    within each block, and the fields are those of that sorted member, built
    on a miss.  The 256 most recently used classes are kept.
    """
    offsets = omega.offsets
    blocks = [(offsets[i], offsets[i + 1]) for i, d in enumerate(omega.dims) if d > 1]
    cached = functools.lru_cache(maxsize=256)(lambda key: oracle_fields(ReducedMatrix(omega, key)))

    def fields(A: ReducedMatrix) -> tuple[bool, dict[int, str]]:
        rows = list(A.rows)
        for a, b in blocks:
            rows[a:b] = sorted(rows[a:b])
        return cached(tuple(rows))

    return fields


def build_record(
    A: ReducedMatrix, flags: list[str], oracle: OracleFields = oracle_fields
) -> CensusRecord:
    """The record of A.  Its deciders run on A; its oracle fields come from
    `oracle`: A's own expansion by default, a run's `class_memo` in a census."""
    spin = has_spin(A)
    spin_oracle, digests = oracle(A)
    return CensusRecord(
        omega=A.omega.dims,
        matrix=compact_matrix(A),
        orientable=spin.orientable,
        spin_closed=spin.spin,
        spin_digraph=has_spin_digraph(from_matrix(A)).spin,
        spin_oracle=spin_oracle,
        w_digests=dict(digests),  # the memo shares one dict per class
        flags=tuple(flags),
    )


# A check's discrepancy flags for one matrix, and its value for each count.
Verdict = tuple[list[str], tuple[int, ...]]
Check = Callable[[ReducedMatrix, Optional[CensusRecord]], Verdict]


def run_family(
    omega: DimensionVector,
    keys: tuple[str, ...],
    check: Check,
    *,
    sample: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    budget: int = DEFAULT_BUDGET,
    sink: Sink = None,
) -> DiscrepancyReport:
    """Run `check` on every valid matrix of the family, or on `sample` seeded draws.

    `check(A, rec)` returns the discrepancy flags of one matrix and its value
    for each count in `keys`, which the run adds up; a report's counts keep
    every key, at 0 when no matrix is checked.  A census record is built only
    for a sink or a flagged matrix; for a sink it is built first and handed to
    the check, which otherwise gets None.  Records take their oracle fields
    from a `class_memo` that lives for this run only.
    """
    if sample is None:
        matrices = enumerate_valid(omega, budget=budget)
    else:
        matrices = sample_valid(omega, sample, seed=seed, budget=budget)
    counts = dict.fromkeys(keys, 0)
    discrepancies = []
    valid = 0
    oracle = class_memo(omega)
    for A in matrices:
        valid += 1
        rec = None if sink is None else build_record(A, [], oracle)
        flags, values = check(A, rec)
        for key, value in zip(keys, values, strict=True):
            counts[key] += value
        if flags:
            rec = build_record(A, flags, oracle) if rec is None else replace(rec, flags=tuple(flags))
            discrepancies.append(rec)
        if sink is not None:
            sink(rec)
    # The space is sized only now: enumerate_valid refuses a space over budget
    # before it yields, so a refused run never builds 2^{n(k-1)}.
    total = space_size(omega) if sample is None else sample
    return DiscrepancyReport(omega.dims, total, valid, counts, discrepancies)


def _spin_check(A: ReducedMatrix, rec: Optional[CensusRecord]) -> Verdict:
    """Flags and (orientable, spin) of A for `crosscheck_spin`.  With a record
    at hand its three verdicts are the record's, so each decider runs once."""
    if rec is None:
        closed = has_spin(A)
        orientable, spin = closed.orientable, closed.spin
        dig = has_spin_digraph(from_matrix(A)).spin
        orac = oracle_has_spin(A)
    else:
        orientable, spin = rec.orientable, rec.spin_closed
        dig, orac = rec.spin_digraph, rec.spin_oracle
    suff = spin_sufficient(A)
    flags = []
    if spin != dig:
        flags.append("spin-closed-digraph-mismatch")
    if spin != orac:
        flags.append("spin-closed-oracle-mismatch")
    if suff and not spin:
        flags.append("sufficient-but-not-spin")
    if A.omega.l == 0 and suff != spin:
        flags.append("l0-necessity-mismatch")
    return flags, (orientable, spin)


def crosscheck_spin(
    omega: DimensionVector,
    budget: int = DEFAULT_BUDGET,
    sink: Sink = None,
) -> DiscrepancyReport:
    """Compare the matrix, digraph and oracle Spin deciders on every valid A.

    Also enforces that the sufficient condition implies Spin, and that it
    is exactly Spin when no factor is an interval.
    """
    keys = ("orientable", "spin")
    return run_family(omega, keys, _spin_check, budget=budget, sink=sink)


def _w_check(m: int, A: ReducedMatrix, _rec: object) -> Verdict:
    """Flags and (vanish,) of A for `crosscheck_w` in degree m."""
    closed_poly = closed_coefficients(A, m)
    vanish = (w3_vanishes_big if m == 3 else w4_vanishes_big)(A)
    wm = total_sw_truncated(A, m).degree_part(m)
    flags = []
    if closed_poly != wm:
        flags.append(f"w{m}-expansion-mismatch")
    if vanish != normal_form(wm, A).is_zero():
        flags.append(f"w{m}-vanish-mismatch")
    if m == 3 and vanish != w3_vanishes_digraph(from_matrix(A)):
        flags.append("w3-closed-digraph-mismatch")
    return flags, (vanish,)


def crosscheck_w(
    omega: DimensionVector,
    m: int,
    sample: Optional[int] = None,
    budget: int = DEFAULT_BUDGET,
    seed: int = DEFAULT_SEED,
    sink: Sink = None,
) -> DiscrepancyReport:
    """Check the degree-m closed form against the raw expansion and oracle.

    With all factor dimensions >= m the face ideal starts above degree m,
    so the coefficient tables must equal the expansion exactly and the
    vanishing predicate must match the oracle; for m = 3 it must also match
    its digraph form on `from_matrix(A)`.  Full enumeration unless a
    sample size is given, in which case seeded draws supply that many
    valid matrices.
    """
    if m not in (3, 4):
        raise ValueError("closed forms cover degrees 3 and 4 only")
    if any(d < m for d in omega.dims):
        raise ValueError(f"every factor dimension must be at least {m}")
    check = functools.partial(_w_check, m)
    return run_family(omega, ("vanish",), check, sample=sample, seed=seed, budget=budget, sink=sink)


def _elementary_check(A: ReducedMatrix, _rec: object) -> Verdict:
    """Flags and (spin, component-invalid) of A for `verify_elementary`.

    Every component is valid: `elementary_component(A, i, j)` keeps only A's
    arcs into i and j and A's all-ones diagonal, so its block relation is a
    subgraph of A's acyclic one.  So component-invalid is always 0, and an
    invalid component would raise in its constructor rather than be counted.
    """
    whole = has_spin(A).spin
    pairs = itertools.combinations(range(A.omega.k), 2)
    parts = [has_spin(elementary_component(A, i, j)).spin for i, j in pairs]
    return (["elementary-decomposition-mismatch"] if whole != all(parts) else []), (whole, 0)


def verify_elementary(
    omega: DimensionVector,
    budget: int = DEFAULT_BUDGET,
    sink: Sink = None,
) -> DiscrepancyReport:
    """Spin of A vs the conjunction of Spin over its elementary components."""
    if omega.k < 2:
        raise ValueError("needs at least two factors")
    keys = ("spin", "component-invalid")
    return run_family(omega, keys, _elementary_check, budget=budget, sink=sink)


def _conjecture_check(t: int, reading: str, A: ReducedMatrix, _rec: object) -> Verdict:
    """Flags and (predicate, oracle-vanish) of A for `verify_conjecture`,
    which compares the classes w_1..w_{t+2}."""
    pred = conjecture_predicate(A, t, reading)
    vanish = all(oracle_class_is_zero(A, m) for m in range(1, t + 3))
    return ([f"conjecture-t{t}-{reading}-mismatch"] if pred != vanish else []), (pred, vanish)


def verify_conjecture(
    omega: DimensionVector,
    t: int,
    reading: str,
    sample: Optional[int] = None,
    budget: int = DEFAULT_BUDGET,
    seed: int = DEFAULT_SEED,
    sink: Sink = None,
) -> DiscrepancyReport:
    """Conjectured congruences vs oracle vanishing of the low classes.

    For t = 1 the classes w_1..w_3 are compared, for t = 2 the classes
    w_1..w_4; in both cases the remaining classes up to 2^(t+1)-1 vanish
    by the Wu relations once these do.
    """
    if t not in (1, 2):
        raise ValueError("t must be 1 or 2")
    if any(d < 2**t for d in omega.dims):
        raise ValueError(f"every factor dimension must be at least {2**t}")
    check = functools.partial(_conjecture_check, t, reading)
    keys = ("predicate", "oracle-vanish")
    return run_family(omega, keys, check, sample=sample, seed=seed, budget=budget, sink=sink)
