"""Self-tests of the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
import textwrap

import pytest

from common import (
    QUERY_CYCLE,
    QUERY_SHAPES,
    ROOT,
    SRC,
    census_records,
    check_query,
    digraph_rows,
    latency_summary,
    matrix_text,
    percentile,
    query_stream,
    tail_percentile,
)
import run
from tracer import TRACED, Tracer

CYCLE = len(QUERY_SHAPES) * len(QUERY_CYCLE)


def spincover():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import spincover as sc

    return sc


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert percentile(values, 50) == 500
    assert percentile(values, 99) == 990
    assert percentile(values, 100) == 1000
    assert percentile([7.0], 99) == 7.0


@pytest.mark.parametrize(
    "n, q",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (200, 95.0), (999, 95.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, q):
    assert tail_percentile(n) == q


def test_latency_summary_needs_ten_samples_beyond_the_tail():
    full = latency_summary([i / 1000 for i in range(1000)], 99.0)
    assert full["n"] == 1000 and full["highest_q"] == 99.0
    assert full["p50_ms"] == pytest.approx(499.0)
    assert full["tail_ms"] == pytest.approx(989.0)
    assert latency_summary([i / 1000 for i in range(999)], 90.0)["highest_q"] == 95.0
    with pytest.raises(ValueError):
        latency_summary([i / 1000 for i in range(999)], 99.0)


def take(seed: int, n: int) -> list:
    return list(itertools.islice(query_stream(seed), n))


def test_query_stream_is_deterministic_per_seed():
    assert take(5, 3 * CYCLE) == take(5, 3 * CYCLE)


def test_other_seed_changes_inputs_not_mix_or_checks():
    a, b = take(1, 2 * CYCLE), take(2, 2 * CYCLE)
    assert [r[3] for r in a] != [r[3] for r in b]
    for start in (0, CYCLE):
        kinds_a = sorted((c, d or 0, s) for c, d, s, _ in a[start:start + CYCLE])
        kinds_b = sorted((c, d or 0, s) for c, d, s, _ in b[start:start + CYCLE])
        assert kinds_a == kinds_b


def test_query_stream_matrices_pass_spincover_validate():
    sc = spincover()
    for cmd, deg, dims, rows in take(3, 2 * CYCLE):
        A = sc.parse_matrix(matrix_text(dims, rows))
        assert sc.validate(A).valid, (dims, rows)


def test_convert_check_accepts_the_program_output_and_rejects_a_changed_one():
    sc = spincover()
    for _, _, dims, rows in take(4, CYCLE)[:20]:
        out = sc.serialize_digraph(sc.from_matrix(sc.parse_matrix(matrix_text(dims, rows))))
        assert digraph_rows(out) == (dims, rows)
        assert check_query("convert", dims, rows, 0, out)
        changed = rows[:]
        changed[0] ^= 0b10
        assert not check_query("convert", dims, changed, 0, out)
        assert not check_query("convert", dims, rows, 2, out)


def test_sw_and_check_response_checks():
    assert check_query("sw", None, None, 0, "closed w3: 0\noracle w3: 0\nagreement (post-reduction): yes\n")
    assert not check_query("sw", None, None, 4, "closed w3: 0\noracle w3: x1\nagreement (post-reduction): no\n")
    assert check_query("check", None, None, 1, "valid: yes\norientable: no\nspin: no\n")
    assert not check_query("check", None, None, 0, "valid: yes\norientable: no\nspin: no\n")


def test_census_digest_skips_header_and_trailer(tmp_path):
    path = tmp_path / "c.jsonl"
    records = ['{"matrix":"1/1","w":{}}', '{"matrix":"11/01","w":{}}']
    path.write_text("\n".join(['{"omega":[1,1]}', *records, '{"stats":{"valid":2}}']) + "\n")
    assert census_records(path) == records


def test_family_check_flags_a_wrong_digest():
    gold = run.GOLDEN["family-spin"]
    res = {"code": 0, "matrices": 1525, "digest": gold["digest"],
           "summary": {"valid": 1525, "discrepancies": 0, "counts": gold["counts"]}}
    assert run.check_family("family-spin", 1, res) == []
    assert run.check_family("family-spin", 1, dict(res, digest="0" * 64))


def test_sample_check_uses_golden_only_at_its_seed():
    gold = run.GOLDEN["sample-w3"]
    res = {"code": 0, "matrices": 200, "digest": "other",
           "summary": {"valid": 200, "discrepancies": 0, "counts": {"vanish": 3}}}
    assert run.check_family("sample-w3", gold["seed"] + 1, res) == []
    assert len(run.check_family("sample-w3", gold["seed"], res)) == 2


def test_family_latency_samples_are_per_record_times_over_whole_slices():
    gaps = [0.001] * 10 + [0.003] * 10 + [0.5] * 5
    samples = run.latency_samples([{"gaps_s": gaps}, {"latencies_s": [0.2]}])
    assert samples == pytest.approx([0.001, 0.003, 0.2])


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    stats = tracer.layer_stats()
    assert stats["inner"]["calls"] == 3 and stats["outer"]["calls"] == 1
    covered = stats["inner"]["busy_s"] + stats["outer"]["self_s"]
    assert covered == pytest.approx(stats["outer"]["busy_s"])
    assert tracer.root_seconds() == pytest.approx(stats["outer"]["busy_s"])


def test_wrappers_cover_every_module_that_bound_the_name():
    script = textwrap.dedent(
        f"""
        import sys
        sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(SRC)!r}]
        import spincover, spincover.cli, spincover.census, spincover.model
        from tracer import Tracer
        originals = (spincover.census.validate, spincover.cli.validate, spincover.validate)
        t = Tracer()
        t.install()
        assert t.unwrapped_references() == [], t.unwrapped_references()
        assert all(f is not g for f, g in zip(originals, (spincover.census.validate,
                   spincover.cli.validate, spincover.validate)))
        for cmd in spincover.cli.main.commands.values():
            assert hasattr(cmd.callback, "__wrapped__"), cmd.name
        print(len(t.originals))
        """
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) == sum(len(v) for v in TRACED.values())


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    fake = {"wall_s": 2.0, "matrices": 4, "peak_rss_mb": 20.0, "latencies_s": [0.001] * 1000}
    e2e = run.end_to_end([fake], [0.2, 0.3], 99.0)
    assert {m["name"] for m in bench["end_to_end"]} <= set(e2e)
    names = [f"{m}.{f}" for m, fs in TRACED.items() for f in fs]
    names += ["cli.main"] + [f"cli.{c}" for c in ("check", "sw", "convert", "enumerate", "verify", "conjecture")]
    layers = {n: {"calls": 1, "self_s": 0.1, "busy_s": 0.1} for n in names}
    traced = dict(fake, layers=layers, root_s=1.9, spans=len(names), validate_repeats=0)
    pl = run.per_layer([fake, traced])
    assert {m["name"] for m in bench["per_layer"]} <= set(pl)
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)
