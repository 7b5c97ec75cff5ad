"""Exhaustive enumeration of valid matrices and closed-form vs oracle checks.

The off-diagonal entries of a candidate matrix are packed into a counter:
block-rows ascending, then columns, then bits, with the first position most
significant, so counting up walks the assignments in lexicographic order.
Workers validate disjoint contiguous counter ranges and the parent splices
the surviving counters back together in range order, which makes the output
identical for any worker count.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass, field
from multiprocessing import Pool
from typing import Callable, Iterator, Optional, TextIO

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
    ReducedMatrix,
    elementary_component,
    identity_rows,
    is_valid,
    serialize_matrix,
    validate,  # unused here, but bound so the benchmark tracer can wrap it
)
from .oracle import (
    oracle_class_is_zero,
    oracle_has_spin,
    polynomial_str,
    sw_oracle,
    total_sw_truncated,
)

DEFAULT_BUDGET = 2**24
DEFAULT_SEED = 1729
SCHEMA_VERSION = 1


class BudgetError(RuntimeError):
    """A refused run: a search space larger than the caller allowed, or a
    sample that the draw cap could not fill (space and budget then 0)."""

    def __init__(self, message: str, space: int = 0, budget: int = 0):
        super().__init__(message)
        self.space = space
        self.budget = budget


def bit_layout(omega: DimensionVector) -> list[tuple[int, int]]:
    """(row, column) per off-diagonal bit, most significant first."""
    layout = []
    for i in range(omega.k):
        off = omega.offset(i)
        for j in range(omega.k):
            if j == i:
                continue
            for t in range(omega[i]):
                layout.append((off + t, j))
    return layout


def space_size(omega: DimensionVector) -> int:
    return 1 << (omega.n * (omega.k - 1))


def matrix_from_counter(omega: DimensionVector, counter: int) -> ReducedMatrix:
    layout = bit_layout(omega)
    nbits = len(layout)
    rows = identity_rows(omega)
    for pos, (r, c) in enumerate(layout):
        if (counter >> (nbits - 1 - pos)) & 1:
            rows[r] |= 1 << c
    return ReducedMatrix(omega, rows)


def _validate_range(args: tuple[tuple[int, ...], int, int]) -> list[int]:
    dims, start, stop = args
    omega = DimensionVector(dims)
    return [c for c in range(start, stop) if is_valid(matrix_from_counter(omega, c))]


def enumerate_valid(
    omega: DimensionVector,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> Iterator[ReducedMatrix]:
    """All valid matrices over omega, ascending in the counter order.

    At most one worker process per CPU is started, whatever `threads` asks.
    """
    space = space_size(omega)
    if space > budget:
        raise BudgetError(
            f"search space {space} exceeds budget {budget}", space, budget
        )
    threads = min(threads, os.cpu_count() or 1)
    if threads <= 1 or space < 1024:
        for c in range(space):
            A = matrix_from_counter(omega, c)
            if is_valid(A):
                yield A
        return
    bounds = [space * t // threads for t in range(threads + 1)]
    jobs = [
        (omega.dims, bounds[t], bounds[t + 1])
        for t in range(threads)
        if bounds[t] < bounds[t + 1]
    ]
    with Pool(processes=len(jobs)) as pool:
        for chunk in pool.map(_validate_range, jobs):
            for c in chunk:
                yield matrix_from_counter(omega, c)


def sample_valid(
    omega: DimensionVector,
    count: int,
    seed: int = DEFAULT_SEED,
) -> Iterator[ReducedMatrix]:
    """Seeded uniform draws from the candidate space, keeping `count` valid ones.

    Draws are capped at 10000 per requested matrix, so a family with almost
    no valid members is refused with a `BudgetError` instead of spinning.
    """
    nbits = omega.n * (omega.k - 1)
    rng = random.Random(seed)
    found = 0
    draws = max(count, 1) * 10000
    for _ in range(draws):
        if found >= count:
            return
        c = rng.getrandbits(nbits) if nbits else 0
        A = matrix_from_counter(omega, c)
        if is_valid(A):
            found += 1
            yield A
    if found < count:
        raise BudgetError(
            f"only {found} of {count} requested valid samples found in {draws} draws"
        )


def compact_matrix(A: ReducedMatrix) -> str:
    """Rows as 0/1 strings joined by '/', small enough for one JSON line."""
    return "/".join(serialize_matrix(A).splitlines()[1:])


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
        obj = {
            "flags": list(self.flags),
            "matrix": self.matrix,
            "omega": list(self.omega),
            "orientable": self.orientable,
            "spin_closed": self.spin_closed,
            "spin_digraph": self.spin_digraph,
            "spin_oracle": self.spin_oracle,
            "w": {str(m): d for m, d in sorted(self.w_digests.items())},
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass
class DiscrepancyReport:
    omega: tuple[int, ...]
    total_enumerated: int
    total_valid: int
    counts: dict[str, int]
    discrepancies: list[CensusRecord] = field(default_factory=list)
    component_failures: list[CensusRecord] = field(default_factory=list)

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
    fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")


def build_record(A: ReducedMatrix, flags: list[str]) -> CensusRecord:
    digests = {
        m: polynomial_str(sw_oracle(A, m))
        for m in range(1, min(4, A.omega.n) + 1)
    }
    spin = has_spin(A)
    return CensusRecord(
        omega=A.omega.dims,
        matrix=compact_matrix(A),
        orientable=spin.orientable,
        spin_closed=spin.spin,
        spin_digraph=has_spin_digraph(from_matrix(A)).spin,
        spin_oracle=oracle_has_spin(A),
        w_digests=digests,
        flags=tuple(flags),
    )


def _run(
    omega: DimensionVector,
    counts: dict[str, int],
    check: Callable[[ReducedMatrix, DiscrepancyReport], list[str]],
    sample: Optional[int],
    budget: int,
    seed: int,
    threads: int,
    sink: Sink,
) -> DiscrepancyReport:
    """Run `check` on every valid matrix of the family, or on `sample` seeded draws.

    The check returns the discrepancy flags of one matrix and may bump the
    report's counts.  A census record is built only for a sink or a flagged
    matrix.
    """
    if sample is None:
        matrices = enumerate_valid(omega, budget=budget, threads=threads)
        total = space_size(omega)
    else:
        matrices = sample_valid(omega, sample, seed=seed)
        total = sample
    report = DiscrepancyReport(omega.dims, total, 0, counts)
    for A in matrices:
        report.total_valid += 1
        flags = check(A, report)
        if not flags and sink is None:
            continue
        rec = build_record(A, flags)
        if flags:
            report.discrepancies.append(rec)
        if sink is not None:
            sink(rec)
    return report


def crosscheck_spin(
    omega: DimensionVector,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
    sink: Sink = None,
) -> DiscrepancyReport:
    """Compare the matrix, digraph and oracle Spin deciders on every valid A.

    Also enforces that the sufficient condition implies Spin, and that it
    is exactly Spin when no factor is an interval.
    """
    l_zero = omega.l == 0

    def check(A: ReducedMatrix, report: DiscrepancyReport) -> list[str]:
        closed = has_spin(A)
        dig = has_spin_digraph(from_matrix(A)).spin
        orac = oracle_has_spin(A)
        suff = spin_sufficient(A)
        flags = []
        if closed.spin != dig:
            flags.append("spin-closed-digraph-mismatch")
        if closed.spin != orac:
            flags.append("spin-closed-oracle-mismatch")
        if suff and not closed.spin:
            flags.append("sufficient-but-not-spin")
        if l_zero and suff != closed.spin:
            flags.append("l0-necessity-mismatch")
        report.counts["orientable"] += closed.orientable
        report.counts["spin"] += closed.spin
        return flags

    counts = {"orientable": 0, "spin": 0}
    return _run(omega, counts, check, None, budget, DEFAULT_SEED, threads, sink)


def crosscheck_w(
    omega: DimensionVector,
    m: int,
    sample: Optional[int] = None,
    budget: int = DEFAULT_BUDGET,
    seed: int = DEFAULT_SEED,
    threads: int = 1,
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

    def check(A: ReducedMatrix, report: DiscrepancyReport) -> list[str]:
        closed_poly = closed_coefficients(A, m).polynomial(A.omega.k)
        vanish = (w3_vanishes_big if m == 3 else w4_vanishes_big)(A)
        flags = []
        if closed_poly != total_sw_truncated(A, m).degree_part(m):
            flags.append(f"w{m}-expansion-mismatch")
        if vanish != oracle_class_is_zero(A, m):
            flags.append(f"w{m}-vanish-mismatch")
        if m == 3 and vanish != w3_vanishes_digraph(from_matrix(A)):
            flags.append("w3-closed-digraph-mismatch")
        report.counts["vanish"] += vanish
        return flags

    return _run(omega, {"vanish": 0}, check, sample, budget, seed, threads, sink)


def verify_elementary(
    omega: DimensionVector,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
    sink: Sink = None,
) -> DiscrepancyReport:
    """Spin of A vs the conjunction of Spin over its elementary components.

    A component that fails validation is recorded on its own list; the
    decomposition comparison is only made when every component validates.
    """
    if omega.k < 2:
        raise ValueError("needs at least two factors")

    def check(A: ReducedMatrix, report: DiscrepancyReport) -> list[str]:
        whole = has_spin(A).spin
        report.counts["spin"] += whole
        comp_spins = []
        broken = []
        for i, j in itertools.combinations(range(omega.k), 2):
            C = elementary_component(A, i, j)
            if not is_valid(C):
                broken.append((i, j))
            else:
                comp_spins.append(has_spin(C).spin)
        if broken:
            report.counts["component-invalid"] += 1
            tags = ",".join(f"{i + 1}-{j + 1}" for i, j in broken)
            report.component_failures.append(
                build_record(A, [f"component-invalid:{tags}"])
            )
        elif whole != all(comp_spins):
            return ["elementary-decomposition-mismatch"]
        return []

    counts = {"spin": 0, "component-invalid": 0}
    return _run(omega, counts, check, None, budget, DEFAULT_SEED, threads, sink)


def verify_conjecture(
    omega: DimensionVector,
    t: int,
    reading: str,
    sample: Optional[int] = None,
    budget: int = DEFAULT_BUDGET,
    seed: int = DEFAULT_SEED,
    threads: int = 1,
    sink: Sink = None,
) -> DiscrepancyReport:
    """Conjectured congruences vs oracle vanishing of the low classes.

    For t = 1 the classes w_1..w_3 are compared, for t = 2 the classes
    w_1..w_4; in both cases the remaining classes up to 2^(t+1)-1 vanish
    by the Wu relations once these do.
    """
    if t not in (1, 2):
        raise ValueError("t must be 1 or 2")
    top = 3 if t == 1 else 4

    def check(A: ReducedMatrix, report: DiscrepancyReport) -> list[str]:
        pred = conjecture_predicate(A, t, reading)
        vanish = all(oracle_class_is_zero(A, m) for m in range(1, top + 1))
        report.counts["predicate"] += pred
        report.counts["oracle-vanish"] += vanish
        return [f"conjecture-t{t}-{reading}-mismatch"] if pred != vanish else []

    counts = {"predicate": 0, "oracle-vanish": 0}
    return _run(omega, counts, check, sample, budget, seed, threads, sink)
