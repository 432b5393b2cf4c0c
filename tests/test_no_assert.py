"""No ``assert`` statement in the package: ``python -O`` removes them.

A cross-check that must hold raises ``EngineInconsistencyError`` (or another
real exception) instead, so it still runs under ``-O``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "folgerm"
SOURCES = sorted(PACKAGE.glob("*.py"))


def test_package_sources_are_found():
    assert PACKAGE / "localalg.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statement(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at line(s) {lines}"
