"""Physical lines and code lines of Python source files.

    python3 tools/loc.py [FILE ...]

With no FILE, counts `src/spincover/*.py`.  Prints one line per file and a
total.  A code line is a line that holds part of a token other than a
comment, where the lines of docstrings (the string that opens a module,
class or function body) do not count: so blank lines, comment lines and
docstrings are left out, and every line of any other statement counts.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(physical lines, code lines) of one source text."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(ast.parse(text)))


def main(argv: list[str]) -> None:
    paths = [Path(a) for a in argv] or sorted((ROOT / "src" / "spincover").glob("*.py"))
    total_physical = total_code = 0
    print(f"{'physical':>8} {'code':>6}  file")
    for path in paths:
        physical, code = count(path.read_text(encoding="utf-8"))
        total_physical += physical
        total_code += code
        shown = path.resolve().relative_to(ROOT) if path.resolve().is_relative_to(ROOT) else path
        print(f"{physical:>8} {code:>6}  {shown}")
    print(f"{total_physical:>8} {total_code:>6}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
