"""No certificate in the library is a bare `assert`, which `python -O`
drops, and no library module prints: only the CLI writes to the terminal."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "trisys").glob("*.py"))
LIBRARY = [p for p in SOURCES if p.name != "cli.py"]


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_statements(path):
    lines = [node.lineno for node in ast.walk(parse(path)) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: bare assert on lines {lines}"


@pytest.mark.parametrize("path", LIBRARY, ids=[p.name for p in LIBRARY])
def test_library_never_prints(path):
    lines = [
        node.lineno
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "print"
    ]
    assert not lines, f"{path.name}: print call on lines {lines}"
