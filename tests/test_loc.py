import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "loc.py"

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps the line


# a comment line
def f(x):
    """One-line docstring."""
    y = (x +
         1)
    """A string statement that is not a docstring."""
    return y


class C:
    """Class docstring."""

    text = """a multi-line
    string value"""
'''


@pytest.fixture(scope="module")
def loc():
    spec = importlib.util.spec_from_file_location("loc", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_leave_out_docstrings_comments_and_blank_lines(loc):
    # Code: import, def, the two lines of y, the string statement, return,
    # class, and the two lines of text.
    assert loc.count(SOURCE) == (20, 9)
    assert loc.count("") == (0, 0)


def test_the_tool_prints_each_file_and_a_total(loc, tmp_path, capsys):
    for name, text in (("a.py", SOURCE), ("b.py", "x = 1\n\n# c\n")):
        (tmp_path / name).write_text(text, encoding="utf-8")
    loc.main([str(tmp_path / "a.py"), str(tmp_path / "b.py")])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines[1:]] == [["20", "9"], ["3", "1"], ["23", "10"]]
    assert lines[-1].endswith("total")
