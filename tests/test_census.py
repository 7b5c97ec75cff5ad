import hashlib
import io
import itertools
import json

import pytest
from hypothesis import given
from click.testing import CliRunner
from hypothesis import strategies as st

from spincover import (
    BudgetError,
    DimensionVector,
    ReducedMatrix,
    crosscheck_spin,
    crosscheck_w,
    elementary_component,
    enumerate_valid,
    has_spin,
    identity_matrix,
    matrix_from_counter,
    sample_valid,
    space_size,
    validate,
    verify_conjecture,
    verify_elementary,
)
from spincover.census import (
    bit_layout,
    build_record,
    compact_matrix,
    write_census_header,
)
from spincover import census
from spincover.cli import main
from conftest import dv



def counter_from_matrix(A: ReducedMatrix) -> int:
    """The inverse of matrix_from_counter."""
    layout = bit_layout(A.omega)
    nbits = len(layout)
    counter = 0
    for pos, (r, c) in enumerate(layout):
        if (A.rows[r] >> c) & 1:
            counter |= 1 << (nbits - 1 - pos)
    return counter


# Counts frozen from the first verified full enumerations; nothing upstream
# fixes them, so they guard against silent changes to the walk or the filter.
FAMILY_COUNTS = {
    (1, 1): (3, 1, 1),
    (1, 2): (5, 1, 1),
    (2, 2): (7, 0, 0),
    (1, 1, 1): (25, 4, 4),
    (2, 3): (11, 4, 0),
    (1, 3): (9, 4, 4),
    (1, 4): (17, 1, 0),
    (1, 1, 2): (69, None, 8),
}


def test_bit_layout_row_then_column():
    assert bit_layout(dv(1, 2)) == [(0, 1), (1, 0), (2, 0)]
    assert space_size(dv(1, 2)) == 8
    assert space_size(dv(1, 2, 2)) == 1024


def test_counter_zero_is_identity():
    assert matrix_from_counter(dv(1, 2, 2), 0) == identity_matrix(dv(1, 2, 2))


@given(st.data())
def test_counter_roundtrip(data):
    omega = dv(*data.draw(st.sampled_from([(1, 1), (1, 2), (2, 2), (1, 1, 2)])))
    c = data.draw(st.integers(0, space_size(omega) - 1))
    assert counter_from_matrix(matrix_from_counter(omega, c)) == c


def test_enumeration_is_lexicographic():
    counters = [counter_from_matrix(A) for A in enumerate_valid(dv(1, 1))]
    assert counters == [0, 1, 2]
    counters = [counter_from_matrix(A) for A in enumerate_valid(dv(1, 2))]
    assert counters == sorted(counters)


def test_enumeration_matches_filtering_definition():
    listed = [compact_matrix(A) for A in enumerate_valid(dv(1, 2))]
    brute = [
        compact_matrix(A)
        for c in range(space_size(dv(1, 2)))
        for A in [matrix_from_counter(dv(1, 2), c)]
        if validate(A).valid
    ]
    assert listed == brute


@pytest.mark.parametrize("dims", sorted(FAMILY_COUNTS))
def test_frozen_valid_counts(dims):
    expected = FAMILY_COUNTS[dims][0]
    assert sum(1 for _ in enumerate_valid(DimensionVector(dims))) == expected


def test_budget_refusal():
    with pytest.raises(BudgetError) as exc:
        list(enumerate_valid(dv(1, 2, 2), budget=100))
    assert exc.value.space == 1024
    assert exc.value.budget == 100
    assert "1024" in str(exc.value)


def test_worker_count_does_not_change_output():
    single = [compact_matrix(A) for A in enumerate_valid(dv(1, 2, 2), threads=1)]
    pooled = [compact_matrix(A) for A in enumerate_valid(dv(1, 2, 2), threads=3)]
    assert single == pooled
    assert len(single) == 157


@pytest.mark.parametrize("cpus, processes", [(2, [2]), (None, [])])
def test_worker_pool_is_capped_at_the_cpu_count(monkeypatch, cpus, processes):
    started = []

    class FakePool:
        # runs the jobs in this process and records the pool size asked for
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return [fn(job) for job in jobs]

    monkeypatch.setattr(census, "Pool", FakePool)
    monkeypatch.setattr(census.os, "cpu_count", lambda: cpus)
    capped = [compact_matrix(A) for A in enumerate_valid(dv(1, 2, 2), threads=100000)]
    assert started == processes
    assert capped == [compact_matrix(A) for A in enumerate_valid(dv(1, 2, 2))]


def test_sampling_is_seeded_and_valid():
    first = [compact_matrix(A) for A in sample_valid(dv(2, 2), 6, seed=11)]
    again = [compact_matrix(A) for A in sample_valid(dv(2, 2), 6, seed=11)]
    other = [compact_matrix(A) for A in sample_valid(dv(2, 2), 6, seed=12)]
    assert first == again
    assert len(first) == 6
    assert first != other
    for A in sample_valid(dv(2, 2), 6, seed=11):
        assert validate(A).valid


def test_census_header_and_record_lines(torus):
    buf = io.StringIO()
    write_census_header(buf, dv(1, 1), 1729, 2**24)
    assert buf.getvalue() == (
        '{"budget":16777216,"omega":[1,1],"schema_version":1,"seed":1729}\n'
    )
    line = build_record(torus, []).to_json()
    assert line == (
        '{"flags":[],"matrix":"10/01","omega":[1,1],"orientable":true,'
        '"spin_closed":true,"spin_digraph":true,"spin_oracle":true,'
        '"w":{"1":"0","2":"0"}}'
    )
    assert json.loads(line)["w"] == {"1": "0", "2": "0"}


@pytest.mark.parametrize(
    "dims", [d for d in sorted(FAMILY_COUNTS) if FAMILY_COUNTS[d][1] is not None]
)
def test_spin_crosscheck_families(dims):
    valid, orientable, spin = FAMILY_COUNTS[dims]
    report = crosscheck_spin(DimensionVector(dims))
    assert report.total_valid == valid
    assert report.counts == {"orientable": orientable, "spin": spin}
    assert report.discrepancies == []


def test_spin_crosscheck_summary_and_sink():
    records = []
    report = crosscheck_spin(dv(1, 1), sink=records.append)
    assert report.summary() == "valid: 3, orientable: 1, spin: 1, discrepancies: 0"
    assert len(records) == 3
    assert all(rec.flags == () for rec in records)


def test_records_built_only_for_a_sink_or_a_flag(monkeypatch):
    built = []
    real = census.build_record

    def counting(A, flags):
        built.append(tuple(flags))
        return real(A, flags)

    monkeypatch.setattr(census, "build_record", counting)
    crosscheck_spin(dv(1, 2, 2))
    assert built == []
    report = verify_elementary(dv(1, 1, 2))
    assert built == [("elementary-decomposition-mismatch",)] * 8
    assert [rec.flags for rec in report.discrepancies] == built
    records = []
    crosscheck_spin(dv(1, 1), sink=records.append)
    assert len(built) == 8 + 3 and len(records) == 3


def test_w_crosscheck_full():
    report = crosscheck_w(dv(3, 3), 3)
    assert (report.total_valid, report.counts["vanish"]) == (15, 7)
    assert report.discrepancies == []
    report = crosscheck_w(dv(4, 4), 4)
    assert (report.total_valid, report.counts["vanish"]) == (31, 0)
    assert report.discrepancies == []


def test_w_crosscheck_sampled():
    report = crosscheck_w(dv(3, 3), 3, sample=5, seed=3)
    assert report.total_enumerated == 5
    assert report.total_valid == 5
    assert report.discrepancies == []


def test_w_crosscheck_guards():
    with pytest.raises(ValueError):
        crosscheck_w(dv(2, 3), 3)
    with pytest.raises(ValueError):
        crosscheck_w(dv(3, 3), 5)


def test_elementary_needs_two_factors():
    with pytest.raises(ValueError):
        verify_elementary(dv(3))


@pytest.mark.parametrize("dims", [(1, 1), (1, 1, 1), (1, 2, 2)])
def test_elementary_decomposition_holds_on(dims):
    report = verify_elementary(DimensionVector(dims))
    assert report.discrepancies == []
    assert report.component_failures == []


def test_elementary_decomposition_fails_with_mixed_dimensions():
    # Zeroing a column of the difference matrix reinstates a bare projective
    # factor; with an RP^2 factor present no component can be spin, yet the
    # whole cover can.  All eight spin members of this family witness that.
    report = verify_elementary(dv(1, 1, 2))
    assert report.total_valid == 69
    assert report.counts == {"spin": 8, "component-invalid": 0}
    assert len(report.discrepancies) == 8
    assert report.component_failures == []
    assert all(
        rec.flags == ("elementary-decomposition-mismatch",)
        for rec in report.discrepancies
    )
    assert all(rec.spin_closed for rec in report.discrepancies)
    assert report.discrepancies[0].matrix == "100/011/001/001"


def test_elementary_counterexample_by_hand():
    rows = [[1, 0, 0], [0, 1, 1], [0, 0, 1], [0, 0, 1]]
    A = ReducedMatrix.from_rows((1, 1, 2), rows)
    assert has_spin(A).spin
    verdicts = {}
    for i, j in itertools.combinations(range(3), 2):
        C = elementary_component(A, i, j)
        assert validate(C).valid
        verdicts[(i, j)] = has_spin(C).spin
    # dropping column 3 leaves the bare product with an RP^2 factor
    assert elementary_component(A, 0, 1) == identity_matrix(dv(1, 1, 2))
    assert verdicts == {(0, 1): False, (0, 2): True, (1, 2): True}


def test_conjecture_guards():
    with pytest.raises(ValueError):
        verify_conjecture(dv(2, 2), 3, "shifted")
    with pytest.raises(ValueError):
        verify_conjecture(dv(2, 2), 1, "sideways")
    with pytest.raises(ValueError):
        verify_conjecture(dv(1, 2), 1, "shifted")


def test_conjecture_shifted_reading_matches_oracle():
    report = verify_conjecture(dv(2, 2), 1, "shifted")
    assert report.total_valid == 7
    assert report.discrepancies == []
    report = verify_conjecture(dv(4, 4), 2, "shifted")
    assert report.total_valid == 31
    assert report.discrepancies == []


def test_conjecture_written_reading_two_squares_agrees_vacuously():
    # No member of this family is orientable, so predicate and vanishing are
    # both false everywhere and the written exponent's vacuous pair modulus
    # cannot surface here; the divergence needs an orientable family.
    report = verify_conjecture(dv(2, 2), 1, "as-written")
    assert report.counts == {"predicate": 0, "oracle-vanish": 0}
    assert report.discrepancies == []


def test_conjecture_written_reading_diverges_on_2_3():
    report = verify_conjecture(dv(2, 3), 1, "as-written")
    assert len(report.discrepancies) == 3
    assert all(
        rec.flags == ("conjecture-t1-as-written-mismatch",)
        for rec in report.discrepancies
    )
    # while the shifted exponent agrees everywhere on the same family
    assert verify_conjecture(dv(2, 3), 1, "shifted").discrepancies == []


# Exit code and sha256 of the census record lines (header excluded), recorded
# from the per-family loops that preceded the shared census driver.
CENSUS_DIGESTS = {
    "verify --omega 1,2,2 --check spin": (
        0, "38b45182495ca58d7816a01f2d6ed902a697770b38fd626dd987a8e48920e161"),
    "verify --omega 3,3 --check w3": (
        0, "443afbb3ae48ed27a545032f6425d5bdaf66ffbe55988f50f9c125014655b1af"),
    "verify --omega 4,4 --check w4": (
        0, "608f574abd4390c84aed35284398f97d50a6ef31e5ec0f1d1ba6a28165d74337"),
    "verify --omega 1,1,2 --check elementary": (
        4, "af3969f4449ad404be74af06d8aded61cb79a3cb2206290ee21a285ec4f7da37"),
    "verify --omega 3,3,3 --check w3 --sample 30 --seed 5": (
        0, "5bab0b342ecabe9b9ce78389055ed29778bfe0abde7615203133db1edd28fe5b"),
    "conjecture --omega 2,3 --t 1 --reading as-written": (
        4, "dcbc1efb3e0185a1edbf8d8368db08e6c6dd9deca4de41adc934c0c9e9812152"),
    "conjecture --omega 4,4 --t 2": (
        0, "608f574abd4390c84aed35284398f97d50a6ef31e5ec0f1d1ba6a28165d74337"),
    "enumerate --omega 1,2,2": (
        0, "38b45182495ca58d7816a01f2d6ed902a697770b38fd626dd987a8e48920e161"),
}


@pytest.mark.parametrize("command", list(CENSUS_DIGESTS))
def test_census_record_digests(command, tmp_path):
    code, digest = CENSUS_DIGESTS[command]
    out = tmp_path / "census.jsonl"
    result = CliRunner().invoke(main, [*command.split(), "--census", str(out)])
    assert result.exit_code == code
    records = out.read_text(encoding="utf-8").splitlines(keepends=True)[1:]
    assert hashlib.sha256("".join(records).encode()).hexdigest() == digest
