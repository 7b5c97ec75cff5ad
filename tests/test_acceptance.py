"""End-to-end acceptance run: one test per shipping criterion.

Each test is self-contained and bounded in wall time; `pytest -v` then
reads as a pass/fail line per criterion.  The one deliberately failing
test documents a checked divergence, not a build defect; its assertion
message carries the analysis.
"""

import time

from click.testing import CliRunner

from spincover import (
    DimensionVector,
    conjecture_predicate,
    crosscheck_spin,
    crosscheck_w,
    from_matrix,
    has_spin,
    has_spin_digraph,
    interval_simplex_matrix,
    oracle_class_is_zero,
    oracle_has_spin,
    spin_sufficient,
    validate,
    verify_conjecture,
    w3_vanishes_big,
    w4_vanishes_big,
    weighted_in_degree,
)
from spincover.cli import main as main_cli

from conftest import dv, rp


class Stopwatch:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False

    def under(self, bound: float) -> bool:
        return self.elapsed < bound


def test_01_three_factor_flagship_instance_is_spin(spin_235):
    with Stopwatch() as sw:
        assert validate(spin_235).valid
        assert has_spin(spin_235).spin
        assert spin_sufficient(spin_235)
        assert oracle_has_spin(spin_235)
    assert sw.under(1.0)


def test_02_interval_times_two_squares_has_no_spin_cover():
    with Stopwatch() as sw:
        report = crosscheck_spin(dv(1, 2, 2))
        assert report.total_enumerated == 1024
        assert report.counts["spin"] == 0
        assert report.discrepancies == []
    assert sw.under(10.0)


def test_03_four_factor_digraph_weights_degree_and_verdict(tower_2333):
    g = from_matrix(tower_2333)
    assert sorted(g.edges) == [(0, 1), (0, 3), (3, 1), (3, 2)]
    # bit t of a weight is row t of the source's block
    assert g.weight(0, 1) == 0b01
    assert g.weight(0, 3) == 0b11
    assert g.weight(3, 1) == 0b111
    assert g.weight(3, 2) == 0b101
    assert weighted_in_degree(g, 2) == 2
    report = has_spin_digraph(g)
    assert not report.spin
    assert report.failed_condition == "i"


def test_04_interval_simplex_towers():
    with Stopwatch() as sw:
        for t in (0, 1):
            A = interval_simplex_matrix(t)
            assert A.omega.dims == (1, 4 * t + 2)
            assert has_spin(A).spin
            assert oracle_has_spin(A)
        report = crosscheck_spin(dv(1, 4))
        assert report.counts["spin"] == 0
        assert report.discrepancies == []
    assert sw.under(5.0)


def test_05_spin_deciders_agree_on_small_families():
    families = [(1, 1), (2,), (3,), (1, 2), (2, 2), (1, 1, 1), (2, 3), (1, 3)]
    with Stopwatch() as sw:
        for dims in families:
            report = crosscheck_spin(DimensionVector(dims))
            assert report.discrepancies == [], dims
    assert sw.under(120.0)


def test_06_cubic_and_quartic_closed_forms_match_oracle():
    with Stopwatch() as sw:
        report = crosscheck_w(dv(3, 3), 3)
        assert report.total_enumerated == 64
        assert report.discrepancies == []
        report = crosscheck_w(dv(4, 4), 4)
        assert report.total_enumerated == 256
        assert report.total_valid == 31
        assert report.discrepancies == []
        report = crosscheck_w(dv(3, 3, 3), 3, sample=1000, seed=1729)
        assert report.total_valid == 1000
        assert report.discrepancies == []
    assert sw.under(300.0)


def test_07_projective_space_sanity():
    for n in range(2, 10):
        expected = n % 4 == 3
        assert has_spin(rp(n)).spin == expected
        assert oracle_has_spin(rp(n)) == expected
    assert not oracle_class_is_zero(rp(6), 3)
    assert not w3_vanishes_big(rp(6))
    assert not oracle_class_is_zero(rp(4), 4)
    assert not w4_vanishes_big(rp(4))
    assert oracle_class_is_zero(rp(8), 4)
    assert w4_vanishes_big(rp(8))
    hits = [n for n in range(4, 10) if conjecture_predicate(rp(n), 2, "shifted")]
    assert hits == [7]


def test_08_no_spin_without_a_three_mod_four_factor():
    with Stopwatch() as sw:
        for dims in [(2, 2), (4, 5)]:
            report = crosscheck_spin(DimensionVector(dims))
            assert report.counts["spin"] == 0, dims
            assert report.discrepancies == []
    assert sw.under(60.0)


def test_09_interval_times_even_simplices_never_spin():
    with Stopwatch() as sw:
        for dims in [(1, 2, 2), (1, 2, 4)]:
            report = crosscheck_spin(DimensionVector(dims))
            assert report.counts["spin"] == 0, dims
            assert report.discrepancies == []
    assert sw.under(120.0)


def test_10_congruence_conjecture_harness():
    report = verify_conjecture(dv(2, 2), 1, "shifted")
    assert report.discrepancies == []
    report = verify_conjecture(dv(4, 4), 2, "shifted")
    assert report.discrepancies == []
    written = verify_conjecture(dv(2, 2), 1, "as-written")
    assert len(written.discrepancies) > 0, (
        "the as-written pair exponent cannot diverge over two squares: no "
        "valid matrix there is orientable (every member has a column of even "
        "dot), so the congruence predicate and the oracle vanishing are both "
        "false on all 7 members and the discrepancy list is empty "
        f"(counts: {written.counts}); the as-written reading does diverge on "
        "an orientable family, with 3 flagged matrices over (2, 3), which "
        "test_conjecture_written_reading_diverges_on_2_3 pins down"
    )


def test_11_census_files_identical_across_thread_counts(tmp_path):
    runner = CliRunner()

    def census(args, name):
        out = tmp_path / name
        result = runner.invoke(main_cli, [*args, "--census", str(out)])
        assert result.exit_code == 0, result.output
        return out.read_bytes()

    quartic = ["verify", "--omega", "4,4", "--check", "w4"]
    assert census([*quartic, "--threads", "1"], "a.jsonl") == census(
        [*quartic, "--threads", "8"], "b.jsonl"
    )
    # the pooled walk only engages from 1024 candidates up; this family
    # crosses that line, so the byte comparison covers the parallel path
    pooled = ["verify", "--omega", "1,2,2", "--check", "spin"]
    assert census([*pooled, "--threads", "1"], "c.jsonl") == census(
        [*pooled, "--threads", "8"], "d.jsonl"
    )
