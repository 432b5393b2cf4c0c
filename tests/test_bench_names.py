"""The benchmark reads folgerm by name: every name it reads must exist.

``bench/tracing.py`` wraps the callables its ``TRACED`` table names, and the
benchmark scripts import folgerm names inside functions that run only in a
benchmark run.  Their source is read here with ``ast``, not imported, so a
name deleted from ``src/`` fails this suite and not only a benchmark run.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _assigned(tree, name):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(name)


def _imported_names(tree):
    """(module, attribute or None) of every folgerm import, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((a.name, None) for a in node.names if a.name.split(".")[0] == "folgerm")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "folgerm":
            yield from ((node.module, a.name) for a in node.names)


def _resolves(module, dotted):
    value = importlib.import_module(module)
    for part in dotted.split(".") if dotted else ():
        value = getattr(value, part)
    return value


TRACING = ast.parse((BENCH / "tracing.py").read_text(encoding="utf-8"))
IMPORTS = sorted(
    {pair for path in sorted(BENCH.glob("*.py"))
     for pair in _imported_names(ast.parse(path.read_text(encoding="utf-8")))},
    key=str,
)


@pytest.mark.parametrize("module, attr", _assigned(TRACING, "TRACED"))
def test_traced_names_resolve(module, attr):
    assert module in _assigned(TRACING, "MODULES")
    assert callable(_resolves(f"folgerm.{module}", attr))


@pytest.mark.parametrize("module, attr", IMPORTS)
def test_imported_names_resolve(module, attr):
    _resolves(module, attr)


def test_worker_imports_are_read():
    # both sit inside functions of bench/worker.py
    assert ("folgerm.documents", "parse_document") in IMPORTS
    assert any(module == "folgerm.localalg" for module, _ in IMPORTS)
