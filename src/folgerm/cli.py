"""Command-line surface: read a problem document, run one report, render it.

``COMMANDS`` declares every subcommand once.  The local reports are built in
``theorems``, the projective ones in ``projective``; this module parses the
arguments, loads the document, runs the report, renders it (the sectioned
text format of the documents, or JSON with ``--json``) and picks the exit
code.  Identical input and flags give byte-identical output.  Exit status is
0 for a passing (or not-applicable) check, 1 for a failing one, 2 for any
input problem (unreadable file, malformed document, ill-posed germ), and 4
when two exact routes to one fact disagree (``EngineInconsistencyError``),
a fault of the engine rather than a verdict.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from .blowup import MAX_BLOWUPS_DEFAULT
from .documents import (
    DocumentError,
    load_local_problem,
    load_projective_problem,
    parse_document,
    parse_rational,
    render_document,
)
from .polynomials import EngineInconsistencyError
from .projective import check_form, check_global_bound, validate_form
from .theorems import (
    CheckReport,
    check_briancon_skoda,
    check_cota,
    check_liu,
    check_second_type,
    invariants_report,
    reduce_report,
)


class Command(NamedTuple):
    help: str
    run: Callable[..., CheckReport]  # on (problem, args)
    local: bool = True  # load_local_problem, else load_projective_problem
    needs: tuple[str, str] | None = None  # (problem field, error when it is None)
    blowups: bool = False  # takes --max-blowups


_DIVISOR = ("divisor", "this check needs a [divisor] section")

# The runners name the report functions in their bodies, so a function
# rebound on this module (by a tracer or a test) is the one that runs.
COMMANDS = {
    "invariants": Command(
        "table of local invariants of a foliation germ",
        lambda p, args: invariants_report(p.germ, p.divisor)),
    "check-bs": Command(
        "membership of the squared zero divisor in the germ ideal",
        lambda p, args: check_briancon_skoda(p.germ, p.divisor), needs=_DIVISOR),
    "check-liu": Command(
        "tau <= mu <= 2*tau sandwich for second-type germs",
        lambda p, args: check_liu(p.germ, p.divisor), needs=_DIVISOR),
    "check-cota": Command(
        "balanced-divisor lower bound for mu and 2*tau",
        lambda p, args: check_cota(p.germ, p.divisor), needs=_DIVISOR),
    "check-second-type": Command(
        "absence of tangent saddle-nodes",
        lambda p, args: check_second_type(p.germ, p.divisor, args.max_blowups),
        needs=_DIVISOR, blowups=True),
    "reduce": Command(
        "reduction of singularities by point blow-ups",
        lambda p, args: reduce_report(p.germ, args.max_blowups), blowups=True),
    "projective-validate": Command(
        "Euler relation, degree, and singular points",
        lambda p, args: check_form(*p.coefficients, curve=p.curve, points=p.points),
        local=False),
    "projective-global": Command(
        "global Tjurina bound for an invariant curve",
        lambda p, args: check_global_bound(validate_form(*p.coefficients), p.curve, p.points),
        local=False, needs=("curve", "projective-global needs a curve key")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="folgerm",
        description="exact local and projective invariants of plane foliations",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, command in COMMANDS.items():
        cmd = sub.add_parser(name, help=command.help)
        cmd.add_argument("document", help="problem description file")
        cmd.add_argument(
            "--param",
            action="append",
            default=[],
            metavar="NAME=VALUE",
            help="set a rational parameter (repeatable, overrides the file)",
        )
        cmd.add_argument(
            "--json", action="store_true", help="emit the report as JSON"
        )
        cmd.add_argument(
            "--out",
            metavar="PATH",
            help="write the report to PATH instead of standard output",
        )
        if command.blowups:
            cmd.add_argument(
                "--max-blowups",
                type=int,
                default=MAX_BLOWUPS_DEFAULT,
                metavar="N",
                help="abort reduction after N blow-ups (default %(default)s)",
            )
    return parser


def _parse_overrides(pairs: list[str]) -> dict[str, Fraction]:
    overrides = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        name = name.strip()
        if not sep or not name:
            raise DocumentError(f"--param needs NAME=VALUE, got {pair!r}")
        overrides[name] = parse_rational(value.strip(), f"--param {name}")
    return overrides


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, str)):
        return str(value)
    return json.dumps(value)


def render_text(report: CheckReport) -> str:
    sections = {"report": {"check": report.name, "verdict": report.verdict}}
    if report.data:
        sections["data"] = {
            key: _format_value(value) for key, value in report.data.items()
        }
    if report.notes:
        sections["notes"] = {
            str(i): note for i, note in enumerate(report.notes, start=1)
        }
    return render_document(sections)


def render_json(report: CheckReport) -> str:
    payload = {
        "check": report.name,
        "verdict": report.verdict,
        "data": report.data,
        "notes": report.notes,
    }
    return json.dumps(payload, indent=2) + "\n"


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        overrides = _parse_overrides(args.param)
        try:
            with open(args.document, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise DocumentError(f"cannot read {args.document}: {exc}") from exc
        sections = parse_document(text)
        load = load_local_problem if command.local else load_projective_problem
        problem = load(sections, overrides)
        if command.needs and getattr(problem, command.needs[0]) is None:
            raise DocumentError(command.needs[1])
        report = command.run(problem, args)
    except (DocumentError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EngineInconsistencyError as exc:
        print(f"error: engine inconsistency: {exc}", file=sys.stderr)
        return 4
    output = render_json(report) if args.json else render_text(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(output)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(output)
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
