import contextlib
import gc
import io
import json
import time
import weakref

import pytest
from click.testing import CliRunner

from spincover import census
from spincover.cli import main

from conftest import DATA


@pytest.fixture()
def runner():
    return CliRunner()


def path(name: str) -> str:
    return str(DATA / name)


def test_check_spin_instance(runner):
    result = runner.invoke(main, ["check", path("spin_235.txt")])
    assert result.exit_code == 0
    assert result.output == (
        "valid: yes\n"
        "orientable: yes\n"
        "spin: yes\n"
        "k[1] = 7\n"
        "k[2] = 3\n"
        "k[3] = 7\n"
        "k[1,2] = 2\n"
        "k[1,3] = 4\n"
        "k[2,3] = 2\n"
        "k[1,2,3] = 1\n"
    )


def test_check_nonorientable_instance(runner):
    result = runner.invoke(main, ["check", path("klein.txt")])
    assert result.exit_code == 1
    assert "orientable: no" in result.output
    assert "spin: no" in result.output
    assert "failed condition: i at (2)" in result.output


def test_check_json_output(runner):
    result = runner.invoke(main, ["check", "--json", path("klein.txt")])
    assert result.exit_code == 1
    obj = json.loads(result.output)
    assert obj["valid"] is True
    assert obj["spin"] is False
    assert obj["failed_condition"] == "i"
    assert obj["witness"] == [2]
    assert obj["k"]["1,2"] == 1


def test_check_rejects_malformed_file(runner, tmp_path):
    bad = tmp_path / "short.txt"
    bad.write_text("1 1\n10\n")
    result = runner.invoke(main, ["check", str(bad)])
    assert result.exit_code == 2
    assert "line" in result.stderr
    assert "expected 2 rows, got 1" in result.stderr


def test_check_rejects_invalid_matrix(runner, tmp_path):
    bad = tmp_path / "singular.txt"
    bad.write_text("1 1\n11\n11\n")
    result = runner.invoke(main, ["check", str(bad)])
    assert result.exit_code == 2
    assert "row selection (1, 1)" in result.stderr
    assert "column subset (1, 2)" in result.stderr


def _late_cycle_rows():
    # (2,) x 10, identity but for the second rows of blocks 1 and 2
    rows = [[int(j == i) for j in range(10)] for i in range(10) for _ in range(2)]
    rows[1][1] = rows[3][0] = 1
    return rows


@pytest.mark.parametrize(
    "dims, rows, selection, subset",
    [
        # the only cycle 1 <-> 2 needs the second row of both blocks, so the
        # first vanishing minor comes after 2^9 + 2^8 clean row selections
        ((2,) * 10, _late_cycle_rows(), (2, 2) + (1,) * 8, (1, 2)),
        # one cycle through all 22 vertices: every proper principal minor is 1
        (
            (1,) * 22,
            [[int(j in (i, (i + 1) % 22)) for j in range(22)] for i in range(22)],
            (1,) * 22,
            tuple(range(1, 23)),
        ),
        # one 11-cycle through the last 11 of 22 vertices, the last of the
        # C(22, 11) subsets of its size
        (
            (1,) * 22,
            [[int(j == i or i > 10 and j == 11 + (i - 10) % 11) for j in range(22)]
             for i in range(22)],
            (1,) * 22,
            tuple(range(12, 23)),
        ),
        # two disjoint interleaved 11-cycles, 0 -> 2 -> ... -> 20 -> 0 and
        # 1 -> 3 -> ... -> 21 -> 1: every vertex is on a shortest cycle
        (
            (1,) * 22,
            [[int(j in (i, (i + 2) % 22)) for j in range(22)] for i in range(22)],
            (1,) * 22,
            tuple(range(1, 22, 2)),
        ),
    ],
    ids=["late-2x10", "cycle-22", "last-11-cycle-of-22", "interleaved-11-cycles"],
)
def test_check_names_a_late_witness_quickly(runner, tmp_path, dims, rows, selection, subset):
    src = tmp_path / "late.txt"
    src.write_text(
        " ".join(map(str, dims)) + "\n" + "".join("".join(map(str, r)) + "\n" for r in rows)
    )
    start = time.perf_counter()
    result = runner.invoke(main, ["check", str(src)])
    assert time.perf_counter() - start < 2
    assert result.exit_code == 2
    assert result.stderr == (
        f"{src}: not a characteristic matrix; principal minor vanishes "
        f"at row selection {selection}, column subset {subset}\n"
    )


def test_sw_both_projective_plane(runner):
    result = runner.invoke(main, ["sw", "--degree", "2", "--both", path("rp2.txt")])
    assert result.exit_code == 0
    assert result.output == (
        "closed w2: x1^2\n"
        "oracle w2: x1^2\n"
        "agreement (pre-reduction): yes\n"
    )


def test_sw_post_reduction_agreement(runner):
    result = runner.invoke(main, ["sw", "-m", "2", "--both", path("torus.txt")])
    assert result.exit_code == 0
    assert "closed w2: x1^2 + x2^2" in result.output
    assert "oracle w2: 0" in result.output
    assert "agreement (post-reduction): yes" in result.output


def test_sw_oracle_only(runner):
    result = runner.invoke(main, ["sw", "-m", "2", "--oracle", path("spin_235.txt")])
    assert result.exit_code == 0
    assert result.output == "oracle w2: 0\n"


def test_sw_json(runner):
    result = runner.invoke(main, ["sw", "-m", "1", "--both", "--json", path("klein.txt")])
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["degree"] == 1
    assert obj["closed"] == obj["oracle"] == "x2"
    assert obj["agree"] is True


@pytest.mark.parametrize(
    "args, fragment",
    [
        (["-m", "0", "--oracle"], "degree must be positive"),
        (["-m", "5", "--closed"], "degrees 1..4"),
        (["-m", "3", "--oracle"], "exceeds the dimension 2"),
        (["-m", "2", "--oracle", "--closed"], "at most one"),
    ],
)
def test_sw_input_guards(runner, args, fragment):
    result = runner.invoke(main, ["sw", *args, path("torus.txt")])
    assert result.exit_code == 2
    assert fragment in result.stderr


def test_convert_matrix_to_digraph(runner):
    result = runner.invoke(main, ["convert", "--to", "digraph", path("tower_2333.txt")])
    assert result.exit_code == 0
    assert result.output == (DATA / "tower_2333.json").read_text()


def test_convert_digraph_to_matrix(runner, tmp_path):
    doc = {"omega": [1, 1], "edges": []}
    src = tmp_path / "edgeless.json"
    src.write_text(json.dumps(doc))
    result = runner.invoke(main, ["convert", "--to", "matrix", str(src)])
    assert result.exit_code == 0
    assert result.output == "1 1\n10\n01\n"


def test_convert_roundtrip(runner, tmp_path):
    mid = tmp_path / "g.json"
    result = runner.invoke(
        main, ["convert", "--to", "digraph", "-o", str(mid), path("spin_235.txt")]
    )
    assert result.exit_code == 0
    assert result.output == ""
    back = runner.invoke(main, ["convert", "--to", "matrix", str(mid)])
    assert back.exit_code == 0
    # comments are not part of the model, so compare against the parsed form
    assert back.output == "2 3 5\n100\n100\n011\n111\n110\n101\n101\n101\n001\n001\n"


def test_convert_rejects_cycle(runner, tmp_path):
    doc = {
        "omega": [1, 1],
        "edges": [
            {"from": 1, "to": 2, "w": "1"},
            {"from": 2, "to": 1, "w": "1"},
        ],
    }
    src = tmp_path / "cycle.json"
    src.write_text(json.dumps(doc))
    result = runner.invoke(main, ["convert", "--to", "matrix", str(src)])
    assert result.exit_code == 2
    assert "directed cycle through vertices [1, 2]" in result.stderr


@pytest.mark.parametrize(
    "arcs, on_cycle",
    [
        # 3 hangs below the cycle 1 <-> 2
        ([(1, 2), (2, 1), (2, 3)], [1, 2]),
        # 3 sits between the cycles 1 <-> 2 and 4 <-> 5
        ([(1, 2), (2, 1), (2, 3), (3, 4), (4, 5), (5, 4)], [1, 2, 4, 5]),
    ],
)
def test_convert_names_only_vertices_on_a_cycle(runner, tmp_path, arcs, on_cycle):
    k = max(max(arc) for arc in arcs)
    doc = {
        "omega": [1] * k,
        "edges": [{"from": i, "to": j, "w": "1"} for i, j in arcs],
    }
    src = tmp_path / "cycle.json"
    src.write_text(json.dumps(doc))
    result = runner.invoke(main, ["convert", "--to", "matrix", str(src)])
    assert result.exit_code == 2
    assert f"directed cycle through vertices {on_cycle}\n" in result.stderr


@pytest.mark.parametrize(
    "edges", [None, 5, {"from": 1, "to": 2, "w": "1"}], ids=["null", "number", "object"]
)
def test_convert_rejects_edges_that_are_not_a_list(runner, tmp_path, edges):
    src = tmp_path / "g.json"
    src.write_text(json.dumps({"omega": [1, 1], "edges": edges}))
    result = runner.invoke(main, ["convert", "--to", "matrix", str(src)])
    assert result.exit_code == 2
    assert "'edges' must be a list\n" in result.stderr


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ({"omega": [True, 2]}, "'omega' must be a nonempty list of positive integers"),
        (
            {"omega": [1, 2], "edges": [{"from": True, "to": 2, "w": "1"}]},
            "edges[0]: 'from' must be in 1..2",
        ),
        (
            {"omega": [1, 2], "edges": [{"from": 2, "to": True, "w": "11"}]},
            "edges[0]: 'to' must be in 1..2",
        ),
    ],
    ids=["omega", "from", "to"],
)
def test_convert_rejects_booleans_as_integers(runner, tmp_path, doc, fragment):
    src = tmp_path / "g.json"
    src.write_text(json.dumps(doc))
    result = runner.invoke(main, ["convert", "--to", "matrix", str(src)])
    assert result.exit_code == 2
    assert fragment in result.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--omega", "1,1", "--census"],
        ["convert", path("spin_235.txt"), "--to", "digraph", "-o"],
    ],
)
def test_unwritable_output_is_an_input_error(runner, tmp_path, args):
    target = tmp_path / "missing" / "out"
    result = runner.invoke(main, [*args, str(target)])
    assert result.exit_code == 2
    assert f"cannot write {target}: " in result.stderr
    assert not target.exists()


def _run_redirected(argv):
    """Run the CLI in this process with stdout and stderr redirected to fresh
    buffers; return the exit code, the output, and weak references to both."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(argv, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue() + err.getvalue(), weakref.ref(out), weakref.ref(err)


def test_in_process_runs_keep_no_redirected_stream(tmp_path):
    singular = tmp_path / "singular.txt"
    singular.write_text("1 1\n11\n11\n")
    runs = [
        (["check", path("spin_235.txt")], 0),
        (["sw", "--degree", "2", "--both", path("rp2.txt")], 0),
        (["convert", path("tower_2333.txt"), "--to", "digraph"], 0),
        (["check", str(singular)], 2),
    ]
    refs = []
    for argv, want in runs:
        code, text, out_ref, err_ref = _run_redirected(argv)
        assert (code, bool(text)) == (want, True), argv
        refs += [out_ref, err_ref]
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


def test_enumerate_counts(runner):
    result = runner.invoke(main, ["enumerate", "--omega", "1,1"])
    assert result.exit_code == 0
    assert result.output == "space: 4, valid: 3\n"


def test_enumerate_census_file(runner, tmp_path):
    out = tmp_path / "census.jsonl"
    result = runner.invoke(
        main, ["enumerate", "--omega", "1,1", "--census", str(out)]
    )
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    header = json.loads(lines[0])
    assert header == {
        "budget": 2**24,
        "omega": [1, 1],
        "schema_version": 1,
        "seed": 1729,
    }
    records = [json.loads(line) for line in lines[1:]]
    assert [rec["matrix"] for rec in records] == ["10/01", "10/11", "11/01"]
    assert all(rec["flags"] == [] for rec in records)


def test_enumerate_budget_refusal(runner):
    result = runner.invoke(main, ["enumerate", "--omega", "1,2,2", "--budget", "100"])
    assert result.exit_code == 3
    assert "1024" in result.stderr


@pytest.mark.parametrize("omega", ["0,2", "x", "2,"])
def test_bad_omega_is_an_input_error(runner, omega):
    result = runner.invoke(main, ["enumerate", "--omega", omega])
    assert result.exit_code == 2
    assert "bad omega" in result.stderr


def test_verify_spin_clean(runner):
    result = runner.invoke(main, ["verify", "--omega", "1,1", "--check", "spin"])
    assert result.exit_code == 0
    assert result.output == "valid: 3, orientable: 1, spin: 1, discrepancies: 0\n"


def test_verify_w3_clean(runner):
    result = runner.invoke(main, ["verify", "--omega", "3,3", "--check", "w3"])
    assert result.exit_code == 0
    assert result.output == "valid: 15, vanish: 7, discrepancies: 0\n"


def test_verify_elementary_reports_mismatches(runner):
    result = runner.invoke(main, ["verify", "--omega", "1,1,2", "--check", "elementary"])
    assert result.exit_code == 4
    lines = result.output.splitlines()
    assert lines[0] == "valid: 69, component-invalid: 0, spin: 8, discrepancies: 8"
    assert len(lines) == 9
    assert lines[1] == "  elementary-decomposition-mismatch: 100/011/001/001"


def test_verify_json(runner):
    result = runner.invoke(
        main, ["verify", "--omega", "1,1", "--check", "spin", "--json"]
    )
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["valid"] == 3
    assert obj["counts"] == {"orientable": 1, "spin": 1}
    assert obj["discrepancies"] == 0
    assert obj["check"] == "spin"


def test_verify_sample_only_for_w_checks(runner):
    result = runner.invoke(
        main, ["verify", "--omega", "1,1", "--check", "spin", "--sample", "5"]
    )
    assert result.exit_code == 2
    assert "--sample" in result.stderr


def test_verify_degree_precondition(runner):
    result = runner.invoke(main, ["verify", "--omega", "2,3", "--check", "w3"])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--omega", "3,3", "--check", "w3", "--sample", "0"],
        ["verify", "--omega", "3,3", "--check", "w3", "--sample", "-5"],
        ["conjecture", "--omega", "4,4", "--t", "2", "--sample", "0"],
    ],
)
def test_sample_below_one_is_an_input_error(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "--sample" in result.stderr


@pytest.mark.parametrize(
    "args, code",
    [
        (["verify", "--omega", "1,2,2", "--budget", "100"], 3),
        (["verify", "--omega", "2,3", "--check", "w3"], 2),
        (["enumerate", "--omega", "1,2,2", "--budget", "100"], 3),
        (["conjecture", "--omega", "2,3", "--t", "3"], 2),
    ],
)
def test_failed_run_leaves_no_census(runner, tmp_path, args, code):
    out = tmp_path / "census.jsonl"
    result = runner.invoke(main, [*args, "--census", str(out)])
    assert result.exit_code == code
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["enumerate", "--omega", "1,2,2", "--threads", "0"],
        ["verify", "--omega", "1,2,2", "--threads", "-4"],
        ["conjecture", "--omega", "4,4", "--t", "2", "--threads", "0"],
    ],
)
def test_threads_below_one_is_an_input_error(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "--threads" in result.stderr


def test_unfillable_sample_is_a_refusal(runner, tmp_path):
    # almost no candidate over five 3-simplices is valid: the draw cap runs out
    out = tmp_path / "census.jsonl"
    result = runner.invoke(
        main,
        ["verify", "--omega", "3,3,3,3,3", "--check", "w3", "--sample", "1",
         "--census", str(out)],
    )
    assert result.exit_code == 3
    assert result.stderr == "only 0 of 1 requested valid samples found in 10000 draws\n"
    assert not out.exists()


def test_w3_digraph_disagreement_is_flagged(runner, monkeypatch):
    real = census.w3_vanishes_digraph
    monkeypatch.setattr(census, "w3_vanishes_digraph", lambda G: not real(G))
    result = runner.invoke(main, ["verify", "--omega", "3,3", "--check", "w3"])
    assert result.exit_code == 4
    lines = result.output.splitlines()
    assert lines[0] == "valid: 15, vanish: 7, discrepancies: 15"
    assert all(line.startswith("  w3-closed-digraph-mismatch: ") for line in lines[1:])
    assert len(lines) == 16


def test_conjecture_shifted_clean(runner):
    result = runner.invoke(main, ["conjecture", "--omega", "2,2", "--t", "1"])
    assert result.exit_code == 0
    assert result.output == (
        "valid: 7, oracle-vanish: 0, predicate: 0, discrepancies: 0\n"
    )


def test_conjecture_written_reading_flags_divergence(runner):
    result = runner.invoke(
        main,
        ["conjecture", "--omega", "2,3", "--t", "1", "--reading", "as-written"],
    )
    assert result.exit_code == 4
    lines = result.output.splitlines()
    assert len(lines) == 4
    assert all(
        line.startswith("  conjecture-t1-as-written-mismatch: ")
        for line in lines[1:]
    )


def test_conjecture_level_guard(runner):
    result = runner.invoke(main, ["conjecture", "--omega", "2,2", "--t", "3"])
    assert result.exit_code == 2
