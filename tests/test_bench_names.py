"""The benchmark reads folgerm by name: every name it reads must exist.

``bench/tracing.py`` wraps the callables its ``TRACED`` table names, and the
benchmark scripts import folgerm names inside functions that run only in a
benchmark run.  Their source is read here with ``ast``, not imported, so a
name deleted from ``src/`` fails this suite and not only a benchmark run.

The tracer rebinds a traced callable only in the modules its ``MODULES``
lists, so a call of a traced name from any other package module would run
unwrapped and drop out of the per-layer counters; no such call may exist.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
PACKAGE = BENCH.parent / "src" / "folgerm"


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


def _called_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                yield func.id
            elif isinstance(func, ast.Attribute):
                yield func.attr


# ``__main__`` is the ``python -m folgerm`` entry, which the benchmark never
# imports: it calls ``cli.main`` in process.
UNTRACED = sorted(
    path for path in PACKAGE.glob("*.py")
    if path.stem not in _assigned(TRACING, "MODULES") + ("__main__",)
)


def test_untraced_modules_are_found():
    assert PACKAGE / "__init__.py" in UNTRACED


@pytest.mark.parametrize("path", UNTRACED, ids=lambda p: p.name)
def test_untraced_module_calls_no_traced_name(path):
    traced = {attr.split(".")[-1] for _, attr in _assigned(TRACING, "TRACED")}
    called = set(_called_names(ast.parse(path.read_text(encoding="utf-8"))))
    assert not called & traced, f"{path.name} calls traced names {sorted(called & traced)}"
