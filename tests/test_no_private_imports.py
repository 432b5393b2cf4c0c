"""No private name crosses a module of the package.

A name that another module imports is part of the package's interface, so it
gets a public name: ``from .module import _name`` (or the same import from
``folgerm``) is refused.  Attribute access such as ``poly._t`` is not an
import and is not checked here.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "folgerm"
SOURCES = sorted(PACKAGE.glob("*.py"))


def test_package_sources_are_found():
    assert PACKAGE / "dense.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_name_is_imported(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "folgerm")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not found, f"{path.name} imports private names: {found}"
