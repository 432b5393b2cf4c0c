"""Every subcommand on every fixture, byte for byte against stored reports.

``tests/golden/<fixture>/<command>.txt`` and ``.json`` hold standard output
in text and ``--json`` mode; ``tests/golden/status.json`` holds the exit
code and standard error of each run.  After a deliberate change to a
report, rewrite them with ``PYTHONPATH=src python tests/test_golden.py``
and review the diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from folgerm.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
LOCAL_COMMANDS = (
    "invariants",
    "check-bs",
    "check-liu",
    "check-cota",
    "check-second-type",
    "reduce",
)
CASES = [
    (fixture, command, mode)
    for fixture, commands in (
        ("cusp.fol", LOCAL_COMMANDS),
        ("fk5.fol", LOCAL_COMMANDS),
        ("node.fol", LOCAL_COMMANDS),
        ("radial.fol", LOCAL_COMMANDS),
        ("omega_lambda.fol", ("projective-validate", "projective-global")),
        ("chain22.fol", ("invariants", "reduce")),
        ("cubic.fol", LOCAL_COMMANDS),
    )
    for command in commands
    for mode in ("txt", "json")
]


def _run(fixture, command, mode):
    argv = [command, str(ROOT / "fixtures" / fixture)]
    if mode == "json":
        argv.append("--json")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return out.getvalue(), {"exit": code, "stderr": err.getvalue()}


def _key(fixture, command, mode):
    return f"{fixture} {command} {mode}"


@pytest.mark.parametrize("fixture, command, mode", CASES)
def test_report_matches_golden(fixture, command, mode):
    out, status = _run(fixture, command, mode)
    stored = json.loads((GOLDEN / "status.json").read_text(encoding="utf-8"))
    expected = (GOLDEN / fixture / f"{command}.{mode}").read_bytes()
    assert out.encode("utf-8") == expected
    assert status == stored[_key(fixture, command, mode)]


if __name__ == "__main__":
    statuses = {}
    for fixture, command, mode in CASES:
        out, statuses[_key(fixture, command, mode)] = _run(fixture, command, mode)
        path = GOLDEN / fixture / f"{command}.{mode}"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(out.encode("utf-8"))
    (GOLDEN / "status.json").write_text(
        json.dumps(statuses, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
