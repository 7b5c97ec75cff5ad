import functools
import hashlib
import io
import itertools
import json
import random
from dataclasses import replace

import pytest
from hypothesis import given
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
    is_valid,
    matrix_from_counter,
    sample_valid,
    space_size,
    validate,
    verify_conjecture,
    verify_elementary,
)
from spincover.census import (
    CensusRecord,
    bit_layout,
    build_record,
    class_memo,
    compact_matrix,
    oracle_fields,
    write_census_header,
)
from spincover import census, cli, digraph, model, oracle
from spincover import from_matrix, has_spin_digraph, normal_form, total_sw_truncated
from conftest import (
    count_valid, counter_rows, dv, filter_valid, perfbench_common, run_cli, serialize_bitwise,
)



def counter_from_rows(omega: DimensionVector, rows) -> int:
    """The inverse of counter_rows."""
    layout = bit_layout(omega)
    nbits = len(layout)
    counter = 0
    for pos, (r, c) in enumerate(layout):
        if (rows[r] >> c) & 1:
            counter |= 1 << (nbits - 1 - pos)
    return counter


def counter_from_matrix(A: ReducedMatrix) -> int:
    """The inverse of matrix_from_counter."""
    return counter_from_rows(A.omega, A.rows)


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
    assert bit_layout(dv(1, 2)) == ((0, 1), (1, 0), (2, 0))
    assert space_size(dv(1, 2)) == 8
    assert space_size(dv(1, 2, 2)) == 1024


def test_counter_zero_is_identity():
    assert matrix_from_counter(dv(1, 2, 2), 0) == identity_matrix(dv(1, 2, 2))


@given(st.data())
def test_counter_roundtrip(data):
    omega = dv(*data.draw(st.sampled_from([(1, 1), (1, 2), (2, 2), (1, 1, 2)])))
    c = data.draw(st.integers(0, space_size(omega) - 1))
    rows = counter_rows(omega, c)
    assert counter_from_rows(omega, rows) == c
    # the sampler's decoding, on every counter, valid or not
    assert census._counter_rows(omega, c) == list(rows)
    if is_valid(omega, rows):
        assert counter_from_matrix(matrix_from_counter(omega, c)) == c
    else:
        with pytest.raises(model.InvalidMatrixError):
            matrix_from_counter(omega, c)


def test_enumeration_is_lexicographic():
    counters = [counter_from_matrix(A) for A in enumerate_valid(dv(1, 1))]
    assert counters == [0, 1, 2]
    counters = [counter_from_matrix(A) for A in enumerate_valid(dv(1, 2))]
    assert counters == sorted(counters)


def test_enumeration_matches_filtering_definition():
    listed = [compact_matrix(A) for A in enumerate_valid(dv(1, 2))]
    brute = [
        compact_matrix(ReducedMatrix(dv(1, 2), rows))
        for c in range(space_size(dv(1, 2)))
        for rows in [counter_rows(dv(1, 2), c)]
        if validate(dv(1, 2), rows).valid
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


@pytest.mark.parametrize("budget, refused", [(1024, False), (1023, True), (0, True), (-5, True)])
def test_budget_bounds_the_space_exactly(budget, refused):
    if refused:
        with pytest.raises(BudgetError, match="search space 1024 exceeds"):
            next(enumerate_valid(dv(1, 2, 2), budget=budget))
    else:
        assert sum(1 for _ in enumerate_valid(dv(1, 2, 2), budget=budget)) == 157


def test_budget_refuses_a_huge_space_without_building_it():
    with pytest.raises(BudgetError) as exc:
        next(enumerate_valid(dv(7200, 7200)))
    assert str(exc.value) == "search space 2^14400 exceeds budget 16777216"
    assert (exc.value.space, exc.value.budget) == (0, 2**24)


WALK_FAMILIES = [
    dims
    for k in range(1, 5)
    for dims in itertools.product(range(1, 4), repeat=k)
    if space_size(DimensionVector(dims)) <= 2**14
]


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("dims", WALK_FAMILIES)
def test_walk_matches_the_filter(monkeypatch, dims, threads):
    # `enumerate --threads N` walks in one process whatever N is, so the
    # guard sees the walk's rows in walk order
    walked, verdicts = [], []
    real_checked = census._checked

    def recording_checked(omega, rows, fault):
        walked.append(tuple(rows))
        verdicts.append(model.is_valid(omega, rows))
        return real_checked(omega, rows, fault)

    monkeypatch.setattr(census, "_checked", recording_checked)
    omega = DimensionVector(dims)
    args = ["enumerate", "--omega", ",".join(map(str, dims)), "--threads", str(threads)]
    result = run_cli(args)
    assert result.exit_code == 0, result.output
    assert result.stdout == f"space: {space_size(omega)}, valid: {len(walked)}\n"
    assert walked == [A.rows for A in filter_valid(omega)]
    # every walked matrix passes the guard, and the walk emits no invalid one
    assert all(verdicts)


def test_the_walk_guard_refuses_an_invalid_matrix(monkeypatch):
    # A walk that ever yields a cyclic matrix is a bug in the walk: the guard
    # names the rows instead of dropping the matrix from the count.
    monkeypatch.setattr(census, "_walk", lambda omega: iter([(0b11, 0b11)]))
    with pytest.raises(RuntimeError, match="rows 11/11$"):
        list(enumerate_valid(dv(1, 1)))


@pytest.mark.parametrize("dims", sorted(FAMILY_COUNTS))
def test_count_oracle_reproduces_the_frozen_counts(dims):
    assert count_valid(dims) == FAMILY_COUNTS[dims][0]


def test_count_oracle_known_values():
    assert count_valid((1, 2, 4)) == 1525
    # OEIS A003024, acyclic digraphs on k labelled vertices
    assert [count_valid((1,) * k) for k in range(1, 7)] == [1, 3, 25, 543, 29281, 3781503]


@pytest.mark.parametrize("dims, expected", [((4, 4, 4), 23041), ((1, 1, 1, 1, 1), 29281)])
def test_walk_count_matches_the_count_oracle(dims, expected):
    assert count_valid(dims) == expected
    assert sum(1 for _ in enumerate_valid(DimensionVector(dims))) == expected


def test_sampling_is_seeded_and_valid():
    first = [compact_matrix(A) for A in sample_valid(dv(2, 2), 6, seed=11)]
    again = [compact_matrix(A) for A in sample_valid(dv(2, 2), 6, seed=11)]
    other = [compact_matrix(A) for A in sample_valid(dv(2, 2), 6, seed=12)]
    assert first == again
    assert len(first) == 6
    assert first != other
    for A in sample_valid(dv(2, 2), 6, seed=11):
        assert validate(A).valid


@pytest.mark.parametrize("dims", [(1, 2), (2, 2), (1, 1, 2)])
def test_counter_verdict_matches_the_decoded_matrix(dims):
    omega = DimensionVector(dims)
    for counter in range(space_size(omega)):
        decoded = counter_rows(omega, counter)
        assert census.counter_is_valid(omega, counter) == model.is_valid(omega, decoded)


def test_sampler_decodes_only_the_kept_draws(monkeypatch):
    # A refusal decodes no draw: the 10,000 draws of 6,000 bits each over
    # (3000, 3000) are all judged on their counters.
    decoded = []
    real = census._counter_rows

    def counting(omega, counter):
        decoded.append(counter)
        return real(omega, counter)

    monkeypatch.setattr(census, "_counter_rows", counting)
    with pytest.raises(BudgetError, match="only 0 of 1"):
        list(sample_valid(dv(3000, 3000), 1))
    assert decoded == []
    kept = list(sample_valid(dv(2, 2), 6, seed=11))
    assert len(decoded) == len(kept) == 6


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


def definitional_line(rec: CensusRecord) -> str:
    """A census line as the record's eight fields encoded whole."""
    return json.dumps(
        {
            "flags": list(rec.flags),
            "matrix": rec.matrix,
            "omega": list(rec.omega),
            "orientable": rec.orientable,
            "spin_closed": rec.spin_closed,
            "spin_digraph": rec.spin_digraph,
            "spin_oracle": rec.spin_oracle,
            "w": {str(m): d for m, d in rec.w_digests.items()},
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def record_from_line(line: str) -> CensusRecord:
    obj = json.loads(line)
    return CensusRecord(
        omega=tuple(obj["omega"]),
        matrix=obj["matrix"],
        orientable=obj["orientable"],
        spin_closed=obj["spin_closed"],
        spin_digraph=obj["spin_digraph"],
        spin_oracle=obj["spin_oracle"],
        w_digests={int(m): d for m, d in obj["w"].items()},
        flags=tuple(obj["flags"]),
    )


def twelve_column_matrix() -> ReducedMatrix:
    # wider than the row-name table: its rows are named one by one
    omega = dv(*(1,) * (model.ROW_NAME_BITS + 1))
    rows = list(model.identity_rows(omega))
    rows[-1] |= 0b101
    rows[5] |= 0b10
    return ReducedMatrix(omega, rows)


def test_census_lines_equal_the_definitional_encoding():
    # A line is assembled from parts encoded once (the omega, each row's
    # name, the "w" object); it must equal the eight fields encoded whole,
    # and read back into the same record, on every record of a census, with
    # flags, with strings that JSON escapes, and past the row-name table.
    records = []
    for dims in [(1, 2, 4), (1, 1, 1, 1), (2, 2, 2)]:
        crosscheck_spin(dv(*dims), sink=records.append)
    assert len(records) == 1525 + 543 + 289
    records += [
        replace(records[0], flags=("spin-closed-digraph-mismatch",)),
        replace(records[1], flags=("sufficient-but-not-spin", "l0-necessity-mismatch")),
        replace(records[2], flags=('a "quoted" \\ tag', "caf\u00e9\n")),
        replace(records[3], matrix='10/"01"\t\u00e9'),
        build_record(twelve_column_matrix(), ["w3-vanish-mismatch"]),
    ]
    for rec in records:
        line = rec.to_json()
        assert line == definitional_line(rec)
        assert record_from_line(line) == rec
    wide = twelve_column_matrix()
    for A in [wide, *enumerate_valid(dv(1, 2, 4))]:
        assert compact_matrix(A) == "/".join(serialize_bitwise(A).splitlines()[1:])


def test_the_encoding_caches_are_bounded():
    # One row-name table per width up to ROW_NAME_BITS, none past it; the
    # "w" fragments keep the 256 most recent digest sets, and a record with
    # other digests gets its own line, never a fragment cached for another.
    model._row_names.cache_clear()
    compact_matrix(twelve_column_matrix())
    assert model._row_names.cache_info().currsize == 0
    for A in enumerate_valid(dv(1, 2, 4)):
        compact_matrix(A)
    assert model._row_names.cache_info().currsize == 1
    assert model._row_names.cache_info().maxsize == model.ROW_NAME_BITS
    assert len(model._row_names(model.ROW_NAME_BITS)) == 2**model.ROW_NAME_BITS
    assert census._omega_json.cache_info().maxsize == 16

    base = build_record(matrix_from_counter(dv(1, 1), 0), [])
    census._w_json.cache_clear()
    for i in range(300):
        rec = replace(base, w_digests={1: f"x{i}", 2: "0"})
        assert rec.to_json() == definitional_line(rec)
    info = census._w_json.cache_info()
    assert info.maxsize == info.currsize == 256 and info.misses == 300


@pytest.mark.parametrize(
    "dims", [d for d in sorted(FAMILY_COUNTS) if FAMILY_COUNTS[d][1] is not None]
)
def test_spin_crosscheck_families(dims):
    valid, orientable, spin = FAMILY_COUNTS[dims]
    report = crosscheck_spin(DimensionVector(dims))
    assert report.total_valid == valid
    assert report.counts == {"orientable": orientable, "spin": spin}
    assert report.discrepancies == []


def test_the_sampler_guard_refuses_an_invalid_draw(monkeypatch):
    # A counter verdict that ever keeps a cyclic draw is a bug in the verdict:
    # the guard names the rows instead of dropping the draw.
    monkeypatch.setattr(census, "counter_is_valid", lambda omega, counter: True)
    with pytest.raises(RuntimeError, match="rows 11/11$"):
        list(sample_valid(dv(1, 1), 50))


@pytest.mark.parametrize("dims", [(1, 2, 2), (1, 1, 1, 1), (2, 3)])
def test_spin_check_reads_the_record_as_its_own_deciders_would(dims):
    # With a sink the spin check reads its verdicts off the record, without
    # one it runs the deciders itself; flags and counts must not differ.
    for A in enumerate_valid(DimensionVector(dims)):
        assert census._spin_check(A, None) == census._spin_check(A, build_record(A, []))


def test_every_check_gives_one_value_per_key_and_the_same_result_twice(monkeypatch):
    # The checks the drivers hand to run_family, the bound partials included,
    # give one value per count key, and the same flags and values when run
    # again on the same matrix.
    checks = []

    def capture(omega, keys, check, **kwargs):
        checks.append((omega, keys, check))

    monkeypatch.setattr(census, "run_family", capture)
    crosscheck_spin(dv(1, 1, 2))
    crosscheck_w(dv(3, 3), 3)
    crosscheck_w(dv(4, 4), 4)
    verify_elementary(dv(1, 1, 2))
    verify_conjecture(dv(2, 3), 1, "as-written")
    verify_conjecture(dv(4, 4), 2, "shifted")
    checks.append((dv(1, 2), (), cli._no_check))
    assert len(checks) == 7
    for omega, keys, check in checks:
        for A in itertools.islice(enumerate_valid(omega), 12):
            flags, values = check(A, None)
            assert check(A, None) == (flags, values)
            assert len(values) == len(keys)


def test_counts_keep_their_keys_when_no_matrix_is_checked():
    assert crosscheck_w(dv(3, 3), 3, sample=0).counts == {"vanish": 0}
    report = verify_conjecture(dv(2, 2), 1, "shifted", sample=0)
    assert report.counts == {"predicate": 0, "oracle-vanish": 0}
    assert report.total_valid == 0


def test_spin_crosscheck_summary_and_sink():
    records = []
    report = crosscheck_spin(dv(1, 1), sink=records.append)
    assert report.summary() == "valid: 3, orientable: 1, spin: 1, discrepancies: 0"
    assert len(records) == 3
    assert all(rec.flags == () for rec in records)


def test_records_built_only_for_a_sink_or_a_flag(monkeypatch):
    built = []
    real = census.build_record

    def counting(A, flags, *oracle):
        built.append(tuple(flags))
        return real(A, flags, *oracle)

    monkeypatch.setattr(census, "build_record", counting)
    crosscheck_spin(dv(1, 2, 2))
    assert built == []
    report = verify_elementary(dv(1, 1, 2))
    assert built == [("elementary-decomposition-mismatch",)] * 8
    assert [rec.flags for rec in report.discrepancies] == built
    records = []
    crosscheck_spin(dv(1, 1), sink=records.append)
    assert len(built) == 8 + 3 and len(records) == 3


def rows_class(omega, rows):
    """The rows sorted within each block."""
    return tuple(
        tuple(sorted(rows[omega.offsets[i]:omega.offsets[i + 1]])) for i in range(omega.k)
    )


def row_class(A):
    """The rows of A sorted within each block."""
    return rows_class(A.omega, A.rows)


def test_one_expansion_per_record_and_per_w_matrix(monkeypatch):
    expanded = []
    real = oracle.total_sw_truncated

    def counting(A, maxdeg):
        expanded.append(A)
        return real(A, maxdeg)

    monkeypatch.setattr(oracle, "total_sw_truncated", counting)
    monkeypatch.setattr(census, "total_sw_truncated", counting)
    rec = build_record(matrix_from_counter(dv(1, 1, 1, 1), 0), [])
    assert len(expanded) == 1 and rec.spin_oracle
    expanded.clear()
    report = crosscheck_w(dv(3, 3), 3)
    assert len(expanded) == len(set(expanded)) == report.total_valid == 15

    # With a sink, the Spin cross-check reads its verdicts off the record.
    # The closed-form decider and the digraph run on every record, but the
    # oracle fields depend only on the rows sorted within each block, so the
    # run's memo expands one member per class.  The ideal basis of degree d
    # reads only the rows of the blocks with n_i < d, and consecutive matrices
    # of the walk share them, so each basis is built once per (degree, rows
    # read) key, not once per matrix.
    expanded.clear()
    decided, digraphs, built = [], [], []
    real_has_spin, real_from_matrix = census.has_spin, census.from_matrix
    real_basis = oracle._degree_basis

    def counting_has_spin(A):
        decided.append(A)
        return real_has_spin(A)

    def counting_from_matrix(A):
        digraphs.append(A)
        return real_from_matrix(A)

    def counting_basis(omega, d, low):
        built.append((d, low))
        return real_basis.__wrapped__(omega, d, low)

    monkeypatch.setattr(census, "has_spin", counting_has_spin)
    monkeypatch.setattr(census, "from_matrix", counting_from_matrix)
    monkeypatch.setattr(
        oracle,
        "_degree_basis",
        functools.lru_cache(maxsize=real_basis.cache_info().maxsize)(counting_basis),
    )
    omega = dv(1, 2, 2)
    records = []
    report = crosscheck_spin(omega, sink=records.append)
    assert len(records) == report.total_valid == 157
    assert decided == digraphs == list(enumerate_valid(omega))

    assert len(expanded) == len({row_class(A) for A in expanded}) == 80
    assert {row_class(A) for A in expanded} == {row_class(A) for A in decided}
    # build_record reduces degrees 1..4: no key is built twice, and the
    # bases built are the distinct keys of the expanded members
    keys = {
        (d, tuple(
            r
            for i, n in enumerate(omega.dims)
            if n < d
            for r in A.rows[omega.offsets[i]:omega.offsets[i + 1]]
        ))
        for A in expanded
        for d in range(1, 5)
    }
    assert len(built) == len(set(built)) == len(keys) == 165
    assert set(built) == keys


def test_one_block_relation_per_record_and_no_witness_search(monkeypatch):
    # Each record's matrix derives its successor masks once, in its
    # constructor; from_matrix reads them back, and the witness search of
    # validate runs only to name the minor of refused rows.  The memo's
    # sorted members, built on a miss, derive their own.
    derived, searched, decided, digraphs = [], [], [], []
    real_masks, real_validate = model._block_masks, model.validate
    real_has_spin, real_from_matrix = census.has_spin, census.from_matrix
    monkeypatch.setattr(
        model, "_block_masks", lambda omega, rows: derived.append(rows) or real_masks(omega, rows)
    )
    monkeypatch.setattr(
        model, "validate", lambda omega, rows: searched.append(rows) or real_validate(omega, rows)
    )
    monkeypatch.setattr(census, "has_spin", lambda A: decided.append(A) or real_has_spin(A))
    monkeypatch.setattr(
        census, "from_matrix", lambda A: digraphs.append(A) or real_from_matrix(A)
    )
    records = []
    report = crosscheck_spin(dv(1, 2, 2), sink=records.append)
    assert len(records) == report.total_valid == len(decided) == len(digraphs) == 157
    assert [id(A) for A in decided] == [id(A) for A in digraphs]
    ids = {id(A.rows) for A in decided}
    own = [id(rows) for rows in derived if id(rows) in ids]
    assert len(own) == len(set(own)) == 157
    members = [rows for rows in derived if id(rows) not in ids]
    assert len(members) == len({rows_class(dv(1, 2, 2), rows) for rows in members}) == 80
    assert searched == []
    witness = r"at row selection \(1, 1\), column subset \(1, 2\)$"
    with pytest.raises(model.InvalidMatrixError, match=witness):
        ReducedMatrix.from_rows((1, 1), [[1, 1], [1, 1]])
    assert len(searched) == 1


def test_one_acyclicity_check_per_matrix_and_one_report_per_verdict(monkeypatch):
    # The peel runs once per matrix, in its constructor: once per record and
    # once per memo member.  from_matrix trusts that check and never runs the
    # checked digraph constructor, and the Spin deciders hand out one shared,
    # once-checked SpinReport per distinct verdict.
    peels, verdicts, checked = [], [], []
    real_is_cyclic = model.is_cyclic
    real_has_spin, real_has_spin_digraph = census.has_spin, census.has_spin_digraph
    real_post_init = model.SpinReport.__post_init__

    def refuse(self, omega, edges):
        raise AssertionError("the checked digraph constructor ran in a census")

    for module in (model, digraph, census):
        monkeypatch.setattr(
            module, "is_cyclic", lambda succ: peels.append(succ) or real_is_cyclic(succ)
        )
    monkeypatch.setattr(digraph.WeightedDigraph, "__init__", refuse)
    monkeypatch.setattr(
        census, "has_spin", lambda A: verdicts.append(real_has_spin(A)) or verdicts[-1]
    )
    monkeypatch.setattr(
        census,
        "has_spin_digraph",
        lambda G: verdicts.append(real_has_spin_digraph(G)) or verdicts[-1],
    )
    monkeypatch.setattr(
        model.SpinReport,
        "__post_init__",
        lambda report: checked.append(report) or real_post_init(report),
    )
    model.spin_verdict.cache_clear()
    records = []
    report = crosscheck_spin(dv(1, 2, 2), sink=records.append)
    assert len(records) == report.total_valid == 157
    assert len(peels) == 157 + 80
    assert len(verdicts) == 2 * 157
    assert len({id(v) for v in verdicts}) == len(set(verdicts)) == len(checked) == 8
    assert set(checked) == set(verdicts)


@pytest.mark.parametrize("dims", [(1, 1, 2), (2, 3), (1, 2, 2), (3, 3), (2, 2, 2), (1, 2, 4)])
def test_memoized_records_equal_records_built_with_no_memo(dims):
    # The census takes the oracle fields from one member per row-order
    # class; each record must still be the one its own matrix gives alone.
    omega = dv(*dims)
    records = []
    crosscheck_spin(omega, sink=records.append)
    assert records == [build_record(A, []) for A in enumerate_valid(omega)]


def test_the_memo_evicts_and_recomputes_in_any_order(monkeypatch):
    # (3,3,3) has 373 row-order classes, more than the memo keeps; a shuffled
    # walk must recompute exactly the misses of an LRU of 256 classes, each on
    # the class's sorted member, and give every matrix its own fields.
    computed = []
    monkeypatch.setattr(census, "oracle_fields", lambda A: computed.append(A) or oracle_fields(A))
    omega = dv(3, 3, 3)
    walk = list(enumerate_valid(omega))
    random.Random(5).shuffle(walk)
    fields = class_memo(omega)
    for A in walk:
        assert fields(A) == oracle_fields(A)
    misses, recent = [], []
    for A in walk:
        key = row_class(A)
        if key not in recent:
            misses.append(key)
        recent = [c for c in recent if c != key][-255:] + [key]
    assert len({row_class(A) for A in walk}) == 373
    assert [row_class(A) for A in computed] == misses and len(misses) > 373
    assert all(A.rows == sum(row_class(A), ()) for A in computed)


def test_permuting_rows_within_blocks_keeps_the_classes_and_verdicts():
    # Reordering the rows of block i relabels the facets of its simplex: the
    # reduced total class and both Spin verdicts must not move.  300 seeded
    # valid matrices over the benchmark's query shapes, each with its blocks
    # shuffled and sorted.
    common = perfbench_common()
    rng = random.Random(13)
    for t in range(300):
        dims = common.QUERY_SHAPES[t % len(common.QUERY_SHAPES)]
        omega = dv(*dims)
        A = ReducedMatrix(omega, common.random_valid_matrix(rng, dims))
        blocks = [list(A.rows[omega.offsets[i]:omega.offsets[i + 1]]) for i in range(omega.k)]
        for block in blocks:
            rng.shuffle(block)
        shuffled = ReducedMatrix(omega, [r for block in blocks for r in block])
        ordered = ReducedMatrix(omega, [r for block in blocks for r in sorted(block)])
        top = min(4, omega.n)
        want = normal_form(total_sw_truncated(A, top), A)
        spin, dig = has_spin(A), has_spin_digraph(from_matrix(A)).spin
        for B in (shuffled, ordered):
            assert normal_form(total_sw_truncated(B, top), B) == want, (A, B)
            assert has_spin(B) == spin and has_spin_digraph(from_matrix(B)).spin == dig


def test_one_count_table_per_matrix(monkeypatch):
    # has_spin and spin_sufficient build the pair table at most once per
    # matrix, only for the matrices that pass condition i, with or without a
    # record; no count is recomputed through k_count
    built, counted = [], []
    real_dots, real_k_count = ReducedMatrix.dots, ReducedMatrix.k_count

    def counting_dots(A):
        if A._dots is None:
            built.append(A)
        return real_dots(A)

    def counting_k_count(A, cols):
        counted.append(A)
        return real_k_count(A, cols)

    past_i = {A.rows for A in enumerate_valid(dv(1, 2, 2)) if has_spin(A).failed_condition != "i"}
    assert len(past_i) == 5
    monkeypatch.setattr(ReducedMatrix, "dots", counting_dots)
    monkeypatch.setattr(ReducedMatrix, "k_count", counting_k_count)
    for sink in ([].append, None):
        built.clear()
        report = crosscheck_spin(dv(1, 2, 2), sink=sink)
        assert report.total_valid == 157
        assert len(built) == len(set(built)) == 5
        assert {A.rows for A in built} == past_i
    assert counted == []


def test_w_crosscheck_full():
    report = crosscheck_w(dv(3, 3), 3)
    assert (report.total_valid, report.counts["vanish"]) == (15, 7)
    assert report.discrepancies == []
    report = crosscheck_w(dv(4, 4), 4)
    assert (report.total_valid, report.counts["vanish"]) == (31, 0)
    assert report.discrepancies == []
    # (3,3,4) is the smallest family here whose matrices reach the triple
    # condition of the w3 tables, three self-dots of residue 0: no matrix of
    # (3,3) or (3,3,3) gets past the single and pair conditions with one.
    report = crosscheck_w(dv(3, 3, 4), 3)
    assert (report.total_valid, report.counts["vanish"]) == (6465, 509)
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


def test_elementary_decomposition_fails_with_mixed_dimensions():
    # Zeroing a column of the difference matrix reinstates a bare projective
    # factor; with an RP^2 factor present no component can be spin, yet the
    # whole cover can.  All eight spin members of this family witness that.
    report = verify_elementary(dv(1, 1, 2))
    assert report.total_valid == 69
    assert report.counts == {"spin": 8, "component-invalid": 0}
    assert len(report.discrepancies) == 8
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


@pytest.mark.parametrize("sample", [None, 0, 3])
def test_conjecture_refuses_small_factors_before_the_run(monkeypatch, sample):
    # The factor-dimension guard runs up front, as crosscheck_w's does: a
    # sampled run of size 0 raises like the full run, and no matrix is checked.
    checked = []
    monkeypatch.setattr(census, "conjecture_predicate", lambda *args: checked.append(args))
    with pytest.raises(ValueError, match="^every factor dimension must be at least 2$"):
        verify_conjecture(dv(1, 2), 1, "shifted", sample=sample)
    with pytest.raises(ValueError, match="^every factor dimension must be at least 4$"):
        verify_conjecture(dv(4, 3), 2, "shifted", sample=sample)
    assert checked == []


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
    # real Bott manifolds of dimension 4: 543 valid, 43 orientable, 43 Spin
    "verify --omega 1,1,1,1 --check spin": (
        0, "34a8fd728e092b100e5a69d8da048e8b0d0b65a85afcd44bc85cd356989405aa"),
}


@pytest.mark.parametrize("command", list(CENSUS_DIGESTS))
def test_census_record_digests(command, tmp_path):
    code, digest = CENSUS_DIGESTS[command]
    out = tmp_path / "census.jsonl"
    result = run_cli([*command.split(), "--census", str(out)])
    assert result.exit_code == code
    records = out.read_text(encoding="utf-8").splitlines(keepends=True)[1:]
    assert hashlib.sha256("".join(records).encode()).hexdigest() == digest
