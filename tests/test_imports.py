"""The three deciders stay independent in the import graph: the digraph
decider and the ring oracle read only the model, and the closed forms read
the model plus the oracle's polynomial type and monomial order.  Validity
stays owned by the model: a ReducedMatrix is valid by construction, so no
other module checks it or reads the masks its constructor keeps, and no
other module reads the model's private spellings of offsets, row names or
cached counts.  Every run stays in one process: no module imports a
process or thread pool.  Nothing outside the standard library is imported."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "spincover"


def package_imports(text: str) -> set[tuple[str, str]]:
    """(module, name) for every import of the package in a module's source;
    the name is "*" when a whole module is imported."""
    found = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module or ""
            elif (node.module or "").split(".")[0] == "spincover":
                module = node.module.partition(".")[2]
            else:
                continue
            for alias in node.names:
                found.add((module, alias.name) if module else (alias.name, "*"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "spincover":
                    found.add((alias.name.partition(".")[2], "*"))
    return found


def imports_of(module: str) -> set[tuple[str, str]]:
    return package_imports((SRC / f"{module}.py").read_text(encoding="utf-8"))


def test_package_imports_reads_every_form():
    text = (
        "import json\nfrom typing import Optional\n"
        "from .model import ReducedMatrix, SpinReport\nfrom . import oracle\n"
        "import spincover.census\nfrom spincover.closedform import has_spin\n"
        "def f():\n    from .digraph import from_matrix\n"
    )
    assert package_imports(text) == {
        ("model", "ReducedMatrix"),
        ("model", "SpinReport"),
        ("oracle", "*"),
        ("census", "*"),
        ("closedform", "has_spin"),
        ("digraph", "from_matrix"),
    }


@pytest.mark.parametrize("module", ["digraph", "oracle"])
def test_digraph_and_oracle_import_only_the_model(module):
    found = imports_of(module)
    assert found and {m for m, _ in found} == {"model"}


def test_closedform_imports_the_model_and_only_two_oracle_names():
    found = imports_of("closedform")
    assert {m for m, _ in found} == {"model", "oracle"}
    assert {n for m, n in found if m == "oracle"} <= {"GradedPolynomial", "monomials_of_degree"}


# The model's validity checks, the guard that validation once was, and the
# successor masks that the constructor keeps.
VALIDITY_NAMES = {"is_valid", "validate", "require_valid", "_succ"}
# Imports that only hold a name: the package re-exports the two checks, and
# cli and census bind `validate` unused because perfbench's tracer test reads
# it there.
HELD = {"__init__": {"is_valid", "validate"}, "cli": {"validate"}, "census": {"validate"}}


def named(text: str) -> tuple[set[str], set[str]]:
    """The names a module's source uses (as a variable, an attribute, a
    definition or an exact string) and the names it imports, under any
    alias."""
    used, imported = set(), set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            used.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
        elif isinstance(node, ast.alias):
            imported.add(node.name)
    return used, imported


def test_named_reads_every_form():
    text = (
        "from .model import validate as check, is_valid\n"
        "x = A._succ\ny = getattr(A, 'require_valid')\n"
        "def f(A):\n    return check(A)\n"
    )
    used, imported = named(text)
    assert {"_succ", "require_valid", "check", "f", "getattr"} <= used
    assert imported == {"validate", "is_valid"}


def test_only_the_model_checks_validity():
    modules = sorted(SRC.glob("*.py"))
    assert {p.stem for p in modules} >= {"model", "census", "cli", "closedform", "digraph"}
    for path in modules:
        if path.stem == "model":
            continue
        used, imported = named(path.read_text(encoding="utf-8"))
        assert not used & VALIDITY_NAMES, (path.stem, used & VALIDITY_NAMES)
        assert imported & VALIDITY_NAMES <= HELD.get(path.stem, set()), path.stem


# The model's own spellings: the block offsets and the row-name table as they
# were once read from outside it, and the lazy fields of a ReducedMatrix.
# Other modules read `omega.offsets`, `omega.dims`, `row_strings(rows, k)`
# and the matrix's methods.
MODEL_PRIVATE = {
    "_block_offsets", "offset", "_row_names", "ROW_NAME_BITS", "_cols", "_single", "_dots",
}


def test_only_the_model_reads_its_private_spellings():
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "model":
            continue
        used, imported = named(path.read_text(encoding="utf-8"))
        found = (used | imported) & MODEL_PRIVATE
        assert not found, (path.stem, found)


# Standard modules that start processes or threads.
CONCURRENCY = {"multiprocessing", "concurrent", "threading"}


def top_level_imports(text: str) -> set[str]:
    """The top-level name of every absolute import in a module's source, at
    any depth of the tree, a function body included."""
    found = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
    return found


def test_top_level_imports_reads_every_form():
    text = (
        "import os.path\nfrom typing import Optional\nfrom .model import ReducedMatrix\n"
        "def Pool(n):\n    from multiprocessing import Pool\n    return Pool(n)\n"
        "class C:\n    def f(self):\n        import concurrent.futures as cf\n"
    )
    assert top_level_imports(text) == {"os", "typing", "multiprocessing", "concurrent"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.stem)
def test_no_module_imports_a_process_or_thread_pool(path):
    assert not top_level_imports(path.read_text(encoding="utf-8")) & CONCURRENCY


def test_every_import_is_the_package_or_the_standard_library():
    # spincover runs on a bare interpreter: no third-party module, at any depth
    for path in sorted(SRC.glob("*.py")):
        found = top_level_imports(path.read_text(encoding="utf-8"))
        assert found <= sys.stdlib_module_names | {"spincover"}, (path.stem, found)
