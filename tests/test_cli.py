import contextlib
import gc
import io
import json
import os
import resource
import subprocess
import sys
import time
import weakref
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincover import GradedPolynomial, census, cli, normal_form, to_matrix
from spincover.cli import main

from conftest import DATA, perfbench_common, run_cli


SRC = Path(__file__).resolve().parents[1] / "src"


def path(name: str) -> str:
    return str(DATA / name)


def test_check_spin_instance():
    result = run_cli(["check", path("spin_235.txt")])
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


def test_check_nonorientable_instance():
    result = run_cli(["check", path("klein.txt")])
    assert result.exit_code == 1
    assert "orientable: no" in result.output
    assert "spin: no" in result.output
    assert "failed condition: i at (2)" in result.output


def test_check_json_output():
    result = run_cli(["check", "--json", path("klein.txt")])
    assert result.exit_code == 1
    obj = json.loads(result.output)
    assert obj["valid"] is True
    assert obj["spin"] is False
    assert obj["failed_condition"] == "i"
    assert obj["witness"] == [2]
    assert obj["k"]["1,2"] == 1


def test_check_rejects_malformed_file(tmp_path):
    bad = tmp_path / "short.txt"
    bad.write_text("1 1\n10\n")
    result = run_cli(["check", str(bad)])
    assert result.exit_code == 2
    assert "line" in result.stderr
    assert "expected 2 rows, got 1" in result.stderr


def test_check_rejects_invalid_matrix(tmp_path):
    bad = tmp_path / "singular.txt"
    bad.write_text("1 1\n11\n11\n")
    result = run_cli(["check", str(bad)])
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
        # the first 3-subset on shortest cycles, {1, 2, 3}, is acyclic
        (
            (1,) * 6,
            [[int(c) for c in r]
             for r in ("111000", "011100", "001011", "100100", "010010", "100001")],
            (1,) * 6,
            (1, 2, 4),
        ),
    ],
    ids=[
        "late-2x10",
        "cycle-22",
        "last-11-cycle-of-22",
        "interleaved-11-cycles",
        "acyclic-first-subset",
    ],
)
def test_check_names_a_late_witness_quickly(tmp_path, dims, rows, selection, subset):
    src = tmp_path / "late.txt"
    src.write_text(
        " ".join(map(str, dims)) + "\n" + "".join("".join(map(str, r)) + "\n" for r in rows)
    )
    start = time.perf_counter()
    result = run_cli(["check", str(src)])
    assert time.perf_counter() - start < 2
    assert result.exit_code == 2
    assert result.stderr == (
        f"{src}: not a characteristic matrix; principal minor vanishes "
        f"at row selection {selection}, column subset {subset}\n"
    )


def test_sw_both_projective_plane():
    result = run_cli(["sw", "--degree", "2", "--both", path("rp2.txt")])
    assert result.exit_code == 0
    assert result.output == (
        "closed w2: x1^2\n"
        "oracle w2: x1^2\n"
        "agreement (pre-reduction): yes\n"
    )


def test_sw_post_reduction_agreement():
    result = run_cli(["sw", "-m", "2", "--both", path("torus.txt")])
    assert result.exit_code == 0
    assert "closed w2: x1^2 + x2^2" in result.output
    assert "oracle w2: 0" in result.output
    assert "agreement (post-reduction): yes" in result.output


def test_sw_oracle_only():
    result = run_cli(["sw", "-m", "2", "--oracle", path("spin_235.txt")])
    assert result.exit_code == 0
    assert result.output == "oracle w2: 0\n"


def test_sw_json():
    result = run_cli(["sw", "-m", "1", "--both", "--json", path("klein.txt")])
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
def test_sw_input_guards(args, fragment):
    result = run_cli(["sw", *args, path("torus.txt")])
    assert result.exit_code == 2
    assert fragment in result.stderr


def test_convert_matrix_to_digraph():
    result = run_cli(["convert", "--to", "digraph", path("tower_2333.txt")])
    assert result.exit_code == 0
    assert result.output == (DATA / "tower_2333.json").read_text()


def test_convert_digraph_to_matrix(tmp_path):
    doc = {"omega": [1, 1], "edges": []}
    src = tmp_path / "edgeless.json"
    src.write_text(json.dumps(doc))
    result = run_cli(["convert", "--to", "matrix", str(src)])
    assert result.exit_code == 0
    assert result.output == "1 1\n10\n01\n"


def test_convert_roundtrip(tmp_path):
    mid = tmp_path / "g.json"
    result = run_cli(
        ["convert", "--to", "digraph", "-o", str(mid), path("spin_235.txt")]
    )
    assert result.exit_code == 0
    assert result.output == ""
    back = run_cli(["convert", "--to", "matrix", str(mid)])
    assert back.exit_code == 0
    # comments are not part of the model, so compare against the parsed form
    assert back.output == "2 3 5\n100\n100\n011\n111\n110\n101\n101\n101\n001\n001\n"


def test_convert_rejects_cycle(tmp_path):
    doc = {
        "omega": [1, 1],
        "edges": [
            {"from": 1, "to": 2, "w": "1"},
            {"from": 2, "to": 1, "w": "1"},
        ],
    }
    src = tmp_path / "cycle.json"
    src.write_text(json.dumps(doc))
    result = run_cli(["convert", "--to", "matrix", str(src)])
    assert result.exit_code == 2
    assert "directed cycle through vertices [1, 2]" in result.stderr


@pytest.mark.parametrize(
    "arcs, on_cycle",
    [
        # 3 hangs below the cycle 1 <-> 2
        ([(1, 2), (2, 1), (2, 3)], [1, 2]),
        # 3 sits between the cycles 1 <-> 2 and 4 <-> 5
        ([(1, 2), (2, 1), (2, 3), (3, 4), (4, 5), (5, 4)], [1, 2, 4, 5]),
        # one ring through all of 800 vertices
        ([(i, i % 800 + 1) for i in range(1, 801)], list(range(1, 801))),
    ],
)
def test_convert_names_only_vertices_on_a_cycle(tmp_path, arcs, on_cycle):
    k = max(max(arc) for arc in arcs)
    doc = {
        "omega": [1] * k,
        "edges": [{"from": i, "to": j, "w": "1"} for i, j in arcs],
    }
    src = tmp_path / "cycle.json"
    src.write_text(json.dumps(doc))
    start = time.perf_counter()
    result = run_cli(["convert", "--to", "matrix", str(src)])
    assert time.perf_counter() - start < 2
    assert result.exit_code == 2
    assert f"directed cycle through vertices {on_cycle}\n" in result.stderr


@pytest.mark.parametrize(
    "edges", [None, 5, {"from": 1, "to": 2, "w": "1"}], ids=["null", "number", "object"]
)
def test_convert_rejects_edges_that_are_not_a_list(tmp_path, edges):
    src = tmp_path / "g.json"
    src.write_text(json.dumps({"omega": [1, 1], "edges": edges}))
    result = run_cli(["convert", "--to", "matrix", str(src)])
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
def test_convert_rejects_booleans_as_integers(tmp_path, doc, fragment):
    src = tmp_path / "g.json"
    src.write_text(json.dumps(doc))
    result = run_cli(["convert", "--to", "matrix", str(src)])
    assert result.exit_code == 2
    assert fragment in result.stderr


@pytest.mark.parametrize(
    "args",
    [["check"], ["sw", "-m", "1"], ["convert", "--to", "digraph"], ["convert", "--to", "matrix"]],
)
def test_a_file_that_is_not_utf8_is_an_input_error(tmp_path, args):
    src = tmp_path / "bad.txt"
    src.write_bytes(b"1 1\n10\n\xff1\n")
    result = run_cli([*args, str(src)])
    assert result.exit_code == 2
    assert result.stderr == (
        f"{src}: 'utf-8' codec can't decode byte 0xff in position 7: invalid start byte\n"
    )


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--omega", "1,1", "--census"],
        ["convert", path("spin_235.txt"), "--to", "digraph", "-o"],
    ],
)
def test_unwritable_output_is_an_input_error(tmp_path, args):
    target = tmp_path / "missing" / "out"
    result = run_cli([*args, str(target)])
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


def test_a_closed_stdout_exits_1_without_a_word():
    # The reading end of the pipe is closed before the run starts, so the
    # first write of the verdict meets EPIPE.  No PYTHON* variable is passed
    # on, so stdout is block-buffered as it is for most users.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "spincover.cli", "check", path("spin_235.txt")],
            env=dict(env, PYTHONPATH=str(SRC)),
            stdout=write_end,
            stderr=subprocess.PIPE,
            timeout=30,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_an_interrupt_prints_aborted_and_exits_1(monkeypatch):
    def interrupted(**kwargs):
        raise KeyboardInterrupt

    # main reads the callback per call, so a replaced one is the one that runs
    monkeypatch.setattr(main.commands["check"], "callback", interrupted)
    result = run_cli(["check", path("spin_235.txt")])
    assert (result.exit_code, result.stdout, result.stderr) == (1, "", "\nAborted!\n")


@pytest.mark.parametrize("error", [KeyboardInterrupt, BrokenPipeError])
def test_an_embedding_caller_sees_an_interrupt_or_a_closed_pipe(monkeypatch, error):
    def raising(**kwargs):
        raise error

    monkeypatch.setattr(main.commands["sw"], "callback", raising)
    with pytest.raises(error):
        main(["sw", "-m", "1", path("rp2.txt")], standalone_mode=False)


def test_enumerate_counts():
    result = run_cli(["enumerate", "--omega", "1,1"])
    assert result.exit_code == 0
    assert result.output == "space: 4, valid: 3\n"


def test_enumerate_census_file(tmp_path):
    out = tmp_path / "census.jsonl"
    result = run_cli(
        ["enumerate", "--omega", "1,1", "--census", str(out)]
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


def test_enumerate_reports_the_raw_candidate_space():
    result = run_cli(["enumerate", "--omega", "4,4,4", "--json"])
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert (obj["space"], obj["valid"]) == (16_777_216, 23_041)


def test_enumerate_budget_refusal():
    result = run_cli(["enumerate", "--omega", "1,2,2", "--budget", "100"])
    assert result.exit_code == 3
    assert "1024" in result.stderr


@pytest.mark.parametrize("command", ["enumerate", "verify"])
@pytest.mark.parametrize(
    "omega, bits", [("7200,7200", 14_400), ("100000000,2", 100_000_002)]
)
def test_huge_space_is_refused_by_its_exponent(command, omega, bits):
    start = time.perf_counter()
    result = run_cli([command, "--omega", omega])
    assert time.perf_counter() - start < 2
    assert result.exit_code == 3
    assert result.stderr == f"search space 2^{bits} exceeds budget 16777216\n"


def _cap_address_space():
    """Limit a child process to 1 GiB of address space, so that a command
    which builds a huge matrix fails in the child instead of filling the host."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


CENSUS = ["--census", "census.jsonl"]


@pytest.mark.parametrize(
    "args, size",
    [
        (["enumerate", "--omega", "100000000000", *CENSUS], "100000000000x1 = 100000000000"),
        (["verify", "--omega", "1000000000,3", "--check", "w3", "--sample", "1", *CENSUS],
         "1000000003x2 = 2000000006"),
        (["verify", "--omega", "30000000", "--check", "spin", *CENSUS], "30000000x1 = 30000000"),
        (["verify", "--omega", "10000000,3", "--check", "w3", "--sample", "1", *CENSUS],
         "10000003x2 = 20000006"),
        # a digraph document of 21 bytes naming one 10^8-simplex
        (["convert", "omega.json", "--to", "matrix"], "100000000x1 = 100000000"),
    ],
)
def test_a_matrix_of_more_entries_than_the_budget_is_refused(tmp_path, args, size):
    # One factor has a search space of 1, and a sample is never sized by its
    # space, so these are refused by n*k alone, before any matrix is built.
    (tmp_path / "omega.json").write_text('{"omega":[100000000]}')
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "spincover.cli", *args],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=30,
        preexec_fn=_cap_address_space,
    )
    assert time.perf_counter() - start < 10
    assert proc.returncode == 3
    assert proc.stderr == f"matrix of {size} entries exceeds budget 16777216\n"
    assert proc.stdout == ""
    assert [p.name for p in tmp_path.iterdir()] == ["omega.json"]


def _meets_the_exit_contract(result) -> None:
    # run_cli lets any exception other than SystemExit out, failing the test
    assert result.exit_code in range(5), result.output
    assert "Traceback" not in result.stdout + result.stderr


FILE_COMMANDS = [
    ["check"],
    *(["sw", "-m", str(m), *mode] for m in range(1, 5)
      for mode in ([], ["--oracle"], ["--closed"], ["--both"])),
    ["convert", "--to", "digraph"],
    ["convert", "--to", "matrix"],
]


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


@settings(max_examples=80, deadline=None)
@given(
    data=st.one_of(st.binary(max_size=64), st.text("01 2\n#", max_size=64).map(str.encode)),
    args=st.sampled_from(FILE_COMMANDS),
)
def test_any_file_meets_the_exit_contract(fuzz_file, data, args):
    fuzz_file.write_bytes(data)
    _meets_the_exit_contract(run_cli([*args, str(fuzz_file)]))


WRONG = st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=2), st.just({}))
# Far over the default budget of 2^24 matrix entries even as the only factor.
OVER_BUDGET = [2**24 + 1, 10**8, 10**12]


@st.composite
def digraph_documents(draw):
    """A digraph document whose factors are small or over the budget (no
    size in between: a matrix under the budget is built in this process),
    with random arcs out of the small factors carrying weight strings of the
    right length; then one part may be damaged: a field of the wrong type or
    range, an extra field, or a top level that is not an object."""
    dims = draw(st.lists(st.one_of(st.integers(1, 3), st.sampled_from(OVER_BUDGET)),
                         min_size=1, max_size=4))
    small = [i for i, d in enumerate(dims) if d <= 3]
    arcs = draw(st.lists(st.tuples(st.sampled_from(small), st.integers(0, len(dims) - 1)),
                         max_size=4)) if small else []
    edges = [
        {"from": i + 1, "to": j + 1, "w": draw(st.text("01", min_size=dims[i], max_size=dims[i]))}
        for i, j in arcs
    ]
    doc = {"omega": dims, "edges": edges}
    damage = draw(st.sampled_from(["none", "omega", "edges", "edge", "extra", "top"]))
    if damage == "omega":
        doc["omega"] = draw(st.one_of(WRONG, st.lists(st.one_of(st.integers(-1, 0), WRONG))))
    elif damage == "edges":
        doc["edges"] = draw(WRONG)
    elif damage == "edge" and edges:
        field = draw(st.sampled_from(["from", "to", "w"]))
        edges[0][field] = draw(st.one_of(WRONG, st.integers(-1, 6), st.text("012 ", max_size=4)))
    elif damage == "extra":
        draw(st.sampled_from([doc, *edges]))["x"] = draw(st.integers())
    elif damage == "top":
        doc = draw(st.one_of(WRONG, st.lists(st.integers(), max_size=2)))
    return doc


def _to_matrix_within_the_budget(G):
    assert G.omega.n * G.omega.k <= census.DEFAULT_BUDGET, G.omega.dims
    return to_matrix(G)


@settings(max_examples=150, deadline=None)
@given(doc=digraph_documents())
def test_any_digraph_document_meets_the_exit_contract(fuzz_file, doc):
    fuzz_file.write_text(json.dumps(doc), encoding="utf-8")
    # Building a matrix over the budget would fill this process's memory, so
    # a convert that tried would fail here first.
    with mock.patch.object(cli, "to_matrix", _to_matrix_within_the_budget):
        _meets_the_exit_contract(run_cli(["convert", "--to", "matrix", str(fuzz_file)]))


FAMILY_COMMANDS = [
    ["enumerate"],
    *(["verify", "--check", what] for what in ("spin", "w3", "w4", "elementary")),
    ["conjecture", "--t", "1"],
    ["conjecture", "--t", "2"],
]


@settings(max_examples=60, deadline=None)
@given(
    omega=st.one_of(st.text(max_size=8), st.text("0123456789, ", max_size=10)),
    args=st.sampled_from(FAMILY_COMMANDS),
)
def test_any_omega_meets_the_exit_contract(omega, args):
    result = run_cli([*args, "--omega", omega, "--budget", "4096"])
    _meets_the_exit_contract(result)


@pytest.mark.parametrize("omega", ["0,2", "x", "2,"])
def test_bad_omega_is_an_input_error(omega):
    result = run_cli(["enumerate", "--omega", omega])
    assert result.exit_code == 2
    assert "bad omega" in result.stderr


@pytest.mark.parametrize("omega", ["١,+1", "1_0", "+1,1", "1,２"])
def test_omega_needs_plain_decimal_digits(omega):
    # int() reads each of these; a factor dimension is ASCII digits only.
    result = run_cli(["enumerate", "--omega", omega])
    assert result.exit_code == 2
    assert result.stderr.startswith(f"bad omega {omega!r}: ")


def test_omega_tokens_may_be_spaced():
    result = run_cli(["enumerate", "--omega", " 1, 2 "])
    assert (result.exit_code, result.output) == (0, "space: 8, valid: 5\n")


@pytest.mark.parametrize("line", ["١ 1", "1_0 1", "+1 1"])
def test_check_refuses_a_dimension_line_int_would_read(tmp_path, line):
    src = tmp_path / "dims.txt"
    src.write_text(f"{line}\n10\n01\n", encoding="utf-8")
    result = run_cli(["check", str(src)])
    assert result.exit_code == 2
    assert result.stderr == f"{src}: line 1: bad dimension line {line!r}\n"


def test_verify_spin_clean():
    result = run_cli(["verify", "--omega", "1,1", "--check", "spin"])
    assert result.exit_code == 0
    assert result.output == "valid: 3, orientable: 1, spin: 1, discrepancies: 0\n"


def test_verify_w3_clean():
    result = run_cli(["verify", "--omega", "3,3", "--check", "w3"])
    assert result.exit_code == 0
    assert result.output == "valid: 15, vanish: 7, discrepancies: 0\n"


def test_verify_elementary_reports_mismatches():
    result = run_cli(["verify", "--omega", "1,1,2", "--check", "elementary"])
    assert result.exit_code == 4
    lines = result.output.splitlines()
    assert lines[0] == "valid: 69, component-invalid: 0, spin: 8, discrepancies: 8"
    assert len(lines) == 9
    assert lines[1] == "  elementary-decomposition-mismatch: 100/011/001/001"


def test_verify_json():
    result = run_cli(
        ["verify", "--omega", "1,1", "--check", "spin", "--json"]
    )
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["valid"] == 3
    assert obj["counts"] == {"orientable": 1, "spin": 1}
    assert obj["discrepancies"] == 0
    assert obj["check"] == "spin"


def test_verify_sample_only_for_w_checks():
    result = run_cli(
        ["verify", "--omega", "1,1", "--check", "spin", "--sample", "5"]
    )
    assert result.exit_code == 2
    assert "--sample" in result.stderr


def test_verify_degree_precondition():
    result = run_cli(["verify", "--omega", "2,3", "--check", "w3"])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--omega", "3,3", "--check", "w3", "--sample", "0"],
        ["verify", "--omega", "3,3", "--check", "w3", "--sample", "-5"],
        ["conjecture", "--omega", "4,4", "--t", "2", "--sample", "0"],
    ],
)
def test_sample_below_one_is_an_input_error(args):
    result = run_cli(args)
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
def test_failed_run_leaves_no_census(tmp_path, args, code):
    out = tmp_path / "census.jsonl"
    result = run_cli([*args, "--census", str(out)])
    assert result.exit_code == code
    assert not out.exists()


def test_conjecture_on_small_factors_exits_2_and_leaves_no_census(tmp_path):
    out = tmp_path / "census.jsonl"
    result = run_cli(
        ["conjecture", "--omega", "1,2", "--t", "1", "--census", str(out)]
    )
    assert result.exit_code == 2
    assert result.stderr == "every factor dimension must be at least 2\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["enumerate", "--omega", "1,2,2", "--threads", "0"],
        ["verify", "--omega", "1,2,2", "--threads", "-4"],
        ["conjecture", "--omega", "4,4", "--t", "2", "--threads", "0"],
    ],
)
def test_threads_below_one_is_an_input_error(args):
    result = run_cli(args)
    assert result.exit_code == 2
    assert "--threads" in result.stderr


def test_unfillable_sample_is_a_refusal(tmp_path):
    # almost no candidate over five 3-simplices is valid: the draw cap runs out
    out = tmp_path / "census.jsonl"
    result = run_cli(
        ["verify", "--omega", "3,3,3,3,3", "--check", "w3", "--sample", "1",
         "--census", str(out)],
    )
    assert result.exit_code == 3
    assert result.stderr == "only 0 of 1 requested valid samples found in 10000 draws\n"
    assert not out.exists()


def test_sample_draws_stop_at_the_budget():
    # --budget caps the draws below the 10,000 per requested matrix
    result = run_cli(
        ["verify", "--omega", "3,3,3,3,3", "--check", "w3", "--sample", "10", "--budget", "5000"],
    )
    assert result.exit_code == 3
    assert result.stderr == "only 0 of 10 requested valid samples found in 5000 draws\n"


def test_w3_digraph_disagreement_is_flagged(monkeypatch):
    real = census.w3_vanishes_digraph
    monkeypatch.setattr(census, "w3_vanishes_digraph", lambda G: not real(G))
    result = run_cli(["verify", "--omega", "3,3", "--check", "w3"])
    assert result.exit_code == 4
    lines = result.output.splitlines()
    assert lines[0] == "valid: 15, vanish: 7, discrepancies: 15"
    assert all(line.startswith("  w3-closed-digraph-mismatch: ") for line in lines[1:])
    assert len(lines) == 16


def lying_reduction(p, A):
    """The oracle's reduction with w_1 and w_2 vanishing exactly when they
    really do not, so its Spin verdict is the wrong one on every matrix."""
    real = normal_form(p, A)
    pieces = {d: mask for d, mask in real.pieces.items() if d > 2}
    if 1 not in real.pieces and 2 not in real.pieces:
        pieces[1] = 1  # x_1
    return GradedPolynomial(real.k, pieces)


def assert_every_matrix_flagged(tmp_path, with_census, flag):
    out = tmp_path / "census.jsonl"
    args = ["verify", "--omega", "1,2,2", "--check", "spin"]
    result = run_cli(args + (["--census", str(out)] if with_census else []))
    assert result.exit_code == 4
    lines = result.output.splitlines()
    assert lines[0] == "valid: 157, orientable: 7, spin: 0, discrepancies: 157"
    assert len(lines) == 158
    assert all(line.startswith(f"  {flag}: ") for line in lines[1:])
    assert out.exists() == with_census
    if with_census:
        records = [json.loads(line) for line in out.read_text().splitlines()[1:]]
        assert len(records) == 157
        assert all(rec["flags"] == [flag] for rec in records)


@pytest.mark.parametrize("with_census", [False, True])
def test_a_lying_oracle_spin_verdict_is_flagged(monkeypatch, tmp_path, with_census):
    # Without a census the check asks the oracle itself; with one it reads
    # the verdict of the record, which comes from the reduced total class.
    real = census.oracle_has_spin
    monkeypatch.setattr(census, "oracle_has_spin", lambda A: not real(A))
    monkeypatch.setattr(census, "normal_form", lying_reduction)
    assert_every_matrix_flagged(tmp_path, with_census, "spin-closed-oracle-mismatch")


@pytest.mark.parametrize("with_census", [False, True])
def test_a_lying_digraph_spin_verdict_is_flagged(monkeypatch, tmp_path, with_census):
    real = census.has_spin_digraph
    monkeypatch.setattr(
        census, "has_spin_digraph", lambda G: SimpleNamespace(spin=not real(G).spin)
    )
    assert_every_matrix_flagged(tmp_path, with_census, "spin-closed-digraph-mismatch")


def test_a_lying_sufficient_condition_is_flagged(monkeypatch, tmp_path):
    # (1,2,2) has an interval factor and no Spin member, so a condition
    # that always holds is sufficient but not Spin on every matrix.
    monkeypatch.setattr(census, "spin_sufficient", lambda A: True)
    assert_every_matrix_flagged(tmp_path, False, "sufficient-but-not-spin")


def test_a_lying_necessity_without_intervals_is_flagged(monkeypatch):
    # Without interval factors the sufficient condition is exactly Spin, so
    # one that never holds misses the one Spin member of (3,3), RP^3 x RP^3.
    monkeypatch.setattr(census, "spin_sufficient", lambda A: False)
    result = run_cli(["verify", "--omega", "3,3", "--check", "spin"])
    assert result.exit_code == 4
    assert result.output == (
        "valid: 15, orientable: 7, spin: 1, discrepancies: 1\n"
        "  l0-necessity-mismatch: 10/10/10/01/01/01\n"
    )


def flipped(p, m):
    """p with its degree-m piece changed in the first monomial."""
    return GradedPolynomial(p.k, {**p.pieces, m: p.pieces.get(m, 0) ^ 1})


def assert_every_w4_matrix_flagged(flag, vanish):
    result = run_cli(["verify", "--omega", "4,4", "--check", "w4"])
    assert result.exit_code == 4
    lines = result.output.splitlines()
    assert lines[0] == f"valid: 31, vanish: {vanish}, discrepancies: 31"
    assert len(lines) == 32
    assert lines[1] == f"  {flag}: 10/10/10/10/01/01/01/01"
    assert all(line.startswith(f"  {flag}: ") for line in lines[1:])


def test_a_lying_w4_table_is_flagged(monkeypatch):
    real = census.closed_coefficients
    monkeypatch.setattr(census, "closed_coefficients", lambda A, m: flipped(real(A, m), m))
    assert_every_w4_matrix_flagged("w4-expansion-mismatch", 0)


def test_a_lying_w4_vanishing_verdict_is_flagged(monkeypatch):
    real = census.w4_vanishes_big
    monkeypatch.setattr(census, "w4_vanishes_big", lambda A: not real(A))
    assert_every_w4_matrix_flagged("w4-vanish-mismatch", 31)


def test_sw_without_a_mode_flag_compares_both():
    both = run_cli(["sw", "-m", "2", "--both", path("torus.txt")])
    plain = run_cli(["sw", "-m", "2", path("torus.txt")])
    assert plain.exit_code == both.exit_code == 0
    assert plain.output == both.output
    assert plain.output.endswith("agreement (post-reduction): yes\n")


@pytest.mark.parametrize("degree", [["-m2"], ["--degree=2"], ["--degree", "2"]])
def test_every_spelling_of_the_degree_is_read(degree):
    spelled = run_cli(["sw", *degree, path("torus.txt")])
    plain = run_cli(["sw", "-m", "2", path("torus.txt")])
    assert (spelled.exit_code, spelled.output) == (0, plain.output)


USAGE_ERRORS = [
    ([], "required: COMMAND"),
    (["--json"], "required: COMMAND"),
    (["frobnicate", path("rp2.txt")], "invalid choice: 'frobnicate'"),
    # a long option is never abbreviated, and it is named before the missing
    # --degree and the file '2'
    (["sw", "--deg", "2", path("rp2.txt")], "unrecognized arguments: --deg\n"),
    (["check", "-h"], "unrecognized arguments: -h\n"),
    (["check", str(DATA)], f"argument matrix_file: {str(DATA)!r} is not an existing file"),
    (["check", "missing.txt"], "argument matrix_file: 'missing.txt' is not an existing file"),
    (["convert", path("rp2.txt")], "required: --to"),
    # named before the missing file too
    (["sw", "-m", "2", "--deg", "missing.txt"], "unrecognized arguments: --deg\n"),
]


@pytest.mark.parametrize(
    "args, named", USAGE_ERRORS, ids=[f"args{i}" for i in range(len(USAGE_ERRORS))]
)
def test_a_usage_error_exits_2_with_the_usage_line(args, named):
    result = run_cli(args)
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr.startswith("usage: spincover")
    assert named in result.stderr


@pytest.mark.parametrize("command", [[], *([name] for name in main.commands)])
def test_help_exits_0_on_stdout(command):
    result = run_cli([*command, "--help"])
    assert (result.exit_code, result.stderr) == (0, "")
    assert result.stdout.startswith(f"usage: {' '.join(['spincover', *command])} [--help]")


def test_sw_both_exits_4_on_a_lying_oracle(monkeypatch):
    real = cli.sw_oracle
    monkeypatch.setattr(cli, "sw_oracle", lambda A, m: flipped(real(A, m), m))
    result = run_cli(["sw", "-m", "2", "--both", path("rp2.txt")])
    assert result.exit_code == 4
    assert result.output == (
        "closed w2: x1^2\n"
        "oracle w2: 0\n"
        "agreement (pre-reduction): no\n"
    )


def test_conjecture_shifted_clean():
    result = run_cli(["conjecture", "--omega", "2,2", "--t", "1"])
    assert result.exit_code == 0
    assert result.output == (
        "valid: 7, oracle-vanish: 0, predicate: 0, discrepancies: 0\n"
    )


def test_conjecture_written_reading_flags_divergence():
    result = run_cli(
        ["conjecture", "--omega", "2,3", "--t", "1", "--reading", "as-written"],
    )
    assert result.exit_code == 4
    lines = result.output.splitlines()
    assert len(lines) == 4
    assert all(
        line.startswith("  conjecture-t1-as-written-mismatch: ")
        for line in lines[1:]
    )


def test_conjecture_level_guard():
    result = run_cli(["conjecture", "--omega", "2,2", "--t", "3"])
    assert result.exit_code == 2


def test_query_stream_responses_match_the_golden_digest(tmp_path):
    # The first requests of the benchmark's query stream, replayed in this
    # process as the benchmark worker runs them (stdout only), hash to the
    # digest the benchmark checks: every output byte of check, sw --both and
    # convert on 2- to 7-factor shapes is pinned here too.
    common = perfbench_common()
    golden = common.GOLDEN["query-mix"]
    stream = common.query_stream(golden["seed"])
    path = tmp_path / "query.txt"
    lines = []
    for _ in range(golden["responses"]):
        cmd, deg, dims, rows = next(stream)
        path.write_text(common.matrix_text(dims, rows), encoding="utf-8")
        argv = common.query_argv(cmd, deg, str(path))
        out, code = io.StringIO(), 0
        with contextlib.redirect_stdout(out):
            try:
                main(argv, standalone_mode=False)
            except SystemExit as exc:
                code = exc.code
        assert common.check_query(cmd, dims, rows, code, out.getvalue())
        lines.append(common.response_line(argv, code, out.getvalue()))
    assert common.sha256_lines(lines) == golden["digest"]
