import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "census_calls.py"


@pytest.fixture(scope="module")
def census_calls():
    spec = importlib.util.spec_from_file_location("census_calls", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_calls_are_counted_per_python_function(census_calls):
    records, calls = census_calls.calls_per_record((1, 1, 2))
    assert records == 69
    by_name = {key.rpartition("(")[2]: n for key, n in calls.items()}
    assert by_name["build_record)"] == by_name["has_spin_digraph)"] == records
    assert all(not key.startswith("~") and n > 0 for key, n in calls.items())


def test_the_tool_prints_each_function_and_a_total(census_calls, capsys):
    census_calls.main(["--omega", "1,1,2"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("function (69 records)")
    assert lines[-1].endswith("  total")
    per_function = [float(line.split()[0]) for line in lines[1:-1]]
    assert per_function == sorted(per_function, reverse=True)
    assert sum(per_function) == pytest.approx(float(lines[-1].split()[0]), abs=0.01 * len(per_function))
