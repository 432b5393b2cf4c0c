"""folgerm in a fresh interpreter: what it imports, and the CLI as a process.

Each command starts one short process, so start-up is part of its cost.  The
interpreter runs with ``-S`` (no site hooks), so that only folgerm's own
imports land in ``sys.modules``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def _python(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-S", *args],
        capture_output=True, text=True, timeout=60, cwd=ROOT, env=env,
    )


def test_cli_import_loads_no_dataclass_machinery():
    done = _python(
        "-c",
        "import sys\n"
        "import folgerm, folgerm.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_dense_loads_no_other_folgerm_module():
    # ``import folgerm.dense`` would run the package's ``__init__``, which
    # imports every layer; so the file is loaded as ``folgerm.dense`` without
    # the package, and any import it made from folgerm would load the package
    done = _python(
        "-c",
        "import importlib.util, sys\n"
        "spec = importlib.util.spec_from_file_location('folgerm.dense', 'src/folgerm/dense.py')\n"
        "module = sys.modules['folgerm.dense'] = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(module)\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'folgerm'))\n",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "['folgerm.dense']\n"


@pytest.mark.parametrize("fixture, command", [
    ("fk5.fol", "check-bs"),
    ("omega_lambda.fol", "projective-global"),
])
def test_module_entry_prints_the_golden_report(fixture, command):
    done = _python("-m", "folgerm", command, f"fixtures/{fixture}", "--json")
    expected = (GOLDEN / fixture / f"{command}.json").read_text(encoding="utf-8")
    status = json.loads((GOLDEN / "status.json").read_text(encoding="utf-8"))
    assert done.stdout == expected
    assert {"exit": done.returncode, "stderr": done.stderr} == (
        status[f"{fixture} {command} json"]
    )
