import importlib.util
import shlex
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_diff.py"


@pytest.fixture(scope="module")
def cli_diff():
    spec = importlib.util.spec_from_file_location("cli_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_corpus_line_parses_and_names_inputs_that_exist(cli_diff, tmp_path):
    cli_diff.write_inputs(tmp_path)
    lines = cli_diff.read_corpus()
    assert len(lines) == len(set(lines)) > 1000
    commands = set()
    for line in lines:
        argv = shlex.split(line)
        commands.add(argv[0])
        for name in cli_diff.input_paths(argv):
            assert (tmp_path / name).is_file(), line
    # the six commands, then no command, an unknown one, and the top-level help
    assert commands == {
        "check", "sw", "convert", "enumerate", "verify", "conjecture",
        "--json", "frobnicate", "--help",
    }
    # every seeded and copied input is read by some line
    named = {name for line in lines for name in cli_diff.input_paths(shlex.split(line))}
    written = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()}
    assert named == written


def test_the_seeded_inputs_are_the_same_on_every_write(cli_diff, tmp_path):
    cli_diff.write_inputs(tmp_path / "a")
    cli_diff.write_inputs(tmp_path / "b")
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    assert files and all(
        (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes() for f in files
    )
