"""The three deciders stay independent in the import graph: the digraph
decider and the ring oracle read only the model, and the closed forms read
the model plus the oracle's polynomial type and monomial order."""

import ast
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
