"""The package's module structure: every import at module level, and the
package-internal import graph acyclic, with the ingredient builders of
`constructions` below the composition that uses them."""

import ast
from graphlib import TopologicalSorter
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "trisys").glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def internal_imports(path) -> set[str]:
    """The package modules a module imports (`from .x import`, `from . import x`)."""
    names = set()
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                names.update(alias.name for alias in node.names)
            else:
                names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_only_at_module_level(path):
    tree = parse(path)
    top = {id(node) for node in tree.body}
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
    ]
    assert not lines, f"{path.name}: import below module level on lines {lines}"


def test_internal_import_graph_is_acyclic():
    graph = {p.stem: internal_imports(p) for p in SOURCES}
    assert set().union(*graph.values()) <= set(graph), graph
    tuple(TopologicalSorter(graph).static_order())  # raises CycleError on a cycle


def test_constructions_imports_nothing_from_composition():
    path = next(p for p in SOURCES if p.name == "constructions.py")
    assert "composition" not in internal_imports(path)


def test_only_the_cli_prints():
    """Library code reports through return values and exceptions; only the
    command line writes to stdout."""
    calls = {
        path.name: [node.lineno for node in ast.walk(parse(path))
                    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"]
        for path in SOURCES
        if path.name != "cli.py"
    }
    assert not any(calls.values()), calls
