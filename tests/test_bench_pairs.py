import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def side(**values):
    return {"correct": True, "metrics": {k: {"value": v, "unit": ""} for k, v in values.items()}}


def test_summary_counts_wins_by_direction_and_skips_failed_runs(bench_pairs):
    # Four pairs, one of them with a failed change run: the failed pair is
    # left out of every metric, ties win for neither side, and the quartiles
    # are the inclusive ones of the three pairs that ran.
    pairs = [
        {"parent": side(t=10.0, p=2.0), "change": side(t=12.0, p=1.0)},
        {"parent": side(t=11.0, p=2.0), "change": side(t=11.0, p=3.0)},
        {"parent": side(t=13.0, p=2.0), "change": side(t=15.0, p=1.0)},
        {"parent": side(t=99.0, p=9.0), "change": {"error": "exit 3: refused"}},
    ]
    summary = bench_pairs.summarize(pairs, {"t": "higher", "p": "lower"})
    assert summary["t"]["change_wins"] == 2 and summary["t"]["pairs"] == 3
    assert summary["p"]["change_wins"] == 2
    assert summary["t"]["parent"] == {"median": 11.0, "q1": 10.5, "q3": 12.0, "n": 3}
    assert summary["t"]["median_ratio_change_over_parent"] == 12.0 / 11.0
    assert bench_pairs.spread([4.0]) == {"median": 4.0, "q1": 4.0, "q3": 4.0, "n": 1}


def test_checkout_id_names_the_head_only_for_committed_source(bench_pairs, tmp_path):
    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                              cwd=tmp_path, check=True, capture_output=True, text=True).stdout

    (tmp_path / "src").mkdir()
    source = tmp_path / "src" / "m.py"
    source.write_text("x = 1\n")
    git("init", "-q")
    git("add", "src")
    git("commit", "-q", "-m", "one")
    clean = bench_pairs.checkout_id(tmp_path)
    assert clean["git_head"] == git("rev-parse", "HEAD").strip()
    source.write_text("x = 2\n")
    edited = bench_pairs.checkout_id(tmp_path)
    assert "git_head" not in edited
    assert edited["src_sha256"] != clean["src_sha256"]
