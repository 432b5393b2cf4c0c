"""Command-line surface: read a problem document, run one check, report.

Every subcommand reads a sectioned key/value document, runs one
computation, and emits a single report — the same sectioned text format by
default, JSON with ``--json``.  Reports are deterministic: identical input
and flags give byte-identical output.  Exit status is 0 for a passing (or
not-applicable) check, 1 for a failing one, 2 for any input problem
(unreadable file, malformed document, ill-posed germ), and 4 when two exact
routes to one fact disagree (``EngineInconsistencyError``), a fault of the
engine rather than a verdict.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .blowup import (
    MAX_BLOWUPS_DEFAULT,
    BlowupLimitError,
    IrrationalSingularPointError,
    dicritical_report,
    reduce_germ,
)
from .documents import (
    DocumentError,
    load_local_problem,
    load_projective_problem,
    parse_document,
    parse_rational,
    render_document,
)
from .germs import divisor_invariants, milnor_foliation, multiplicity
from .polynomials import EngineInconsistencyError, intersection_at_origin
from .projective import check_form, check_global_bound, validate_form
from .theorems import (
    FAIL,
    PASS,
    CheckReport,
    check_briancon_skoda,
    check_cota,
    check_liu,
    check_second_type,
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="folgerm",
        description="exact local and projective invariants of plane foliations",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text)
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
        return cmd

    def add_blowups(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--max-blowups",
            type=int,
            default=MAX_BLOWUPS_DEFAULT,
            metavar="N",
            help="abort reduction after N blow-ups (default %(default)s)",
        )

    add("invariants", "table of local invariants of a foliation germ")
    add("check-bs", "membership of the squared zero divisor in the germ ideal")
    add("check-liu", "tau <= mu <= 2*tau sandwich for second-type germs")
    add("check-cota", "balanced-divisor lower bound for mu and 2*tau")
    add_blowups(add("check-second-type", "absence of tangent saddle-nodes"))
    add_blowups(add("reduce", "reduction of singularities by point blow-ups"))
    add("projective-validate", "Euler relation, degree, and singular points")
    add("projective-global", "global Tjurina bound for an invariant curve")
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


def _require_divisor(problem):
    if problem.divisor is None:
        raise DocumentError("this check needs a [divisor] section")
    return problem.divisor


def _cmd_invariants(problem) -> CheckReport:
    germ = problem.germ
    mu = milnor_foliation(germ)
    data = {"multiplicity": multiplicity(germ), "mu": mu}
    # i_0(P, Q) by a resultant: a route that shares no code with milnor_foliation
    oracle = intersection_at_origin(germ.P, germ.Q)
    if oracle != mu:
        raise EngineInconsistencyError(
            f"the resultant gives mu_oracle = {oracle} but the standard basis "
            f"gives mu = {mu}"
        )
    data["mu_oracle"] = oracle
    if problem.divisor is not None:
        b = problem.divisor
        inv = divisor_invariants(germ, b, mu)
        data["nu_zero"] = b.zero.order
        data["nu_pole"] = b.pole.order if b.pole is not None else 0
        data["nu_signed"] = b.signed_multiplicity
        data["tau"] = inv.tau
        data["polar_probe"] = list(inv.polar.probe)
        data["polar_certified"] = True
        if b.pole is not None:
            data["i_polar_pole"] = inv.polar.intersections[1]
            data["i_zero_pole"] = inv.i_zero_pole
        data["delta"] = inv.delta
        data["xi"] = inv.xi
        data["generalized_curve"] = inv.delta == 0
        data["second_type"] = inv.xi == 0
    return CheckReport("invariants", PASS, data)


def _cmd_reduce(problem, args) -> CheckReport:
    try:
        result = reduce_germ(problem.germ, max_blowups=args.max_blowups)
    except IrrationalSingularPointError as exc:
        # The root search is complete, so the residual is always certified;
        # bench/checks.py still requires the key.
        return CheckReport(
            "reduce",
            FAIL,
            {"residual": str(exc.residual), "certified": True},
            [str(exc)],
        )
    except BlowupLimitError as exc:
        return CheckReport("reduce", FAIL, {}, [str(exc)])
    singularities = []
    for sing in result.singularities:
        singularities.append(
            {
                "components": list(sing.components),
                "kind": sing.kind,
                "ratio": None if sing.ratio is None else str(sing.ratio),
                "weak_along_divisor": sing.weak_along_divisor,
            }
        )
    data = {
        "blowups": result.blowups,
        "components": [
            {"index": c.index, "dicritical": c.dicritical, "epsilon": c.epsilon}
            for c in result.components
        ],
        "edges": [list(edge) for edge in result.edges],
        "singularities": singularities,
        "dicritical": result.dicritical,
        "dicritical_budgets": dicritical_report(result),
        "second_type": result.second_type,
        "generalized_curve": result.generalized_curve,
    }
    return CheckReport("reduce", PASS, data)


def _dispatch(args, sections, overrides) -> CheckReport:
    if args.command in (
        "invariants",
        "check-bs",
        "check-liu",
        "check-cota",
        "check-second-type",
        "reduce",
    ):
        problem = load_local_problem(sections, overrides)
        if args.command == "invariants":
            return _cmd_invariants(problem)
        if args.command == "reduce":
            return _cmd_reduce(problem, args)
        divisor = _require_divisor(problem)
        if args.command == "check-bs":
            return check_briancon_skoda(problem.germ, divisor)
        if args.command == "check-liu":
            return check_liu(problem.germ, divisor)
        if args.command == "check-cota":
            return check_cota(problem.germ, divisor)
        return check_second_type(
            problem.germ, divisor, max_blowups=args.max_blowups
        )
    problem = load_projective_problem(sections, overrides)
    if args.command == "projective-validate":
        return check_form(
            *problem.coefficients, curve=problem.curve, points=problem.points
        )
    if problem.curve is None:
        raise DocumentError("projective-global needs a curve key")
    form = validate_form(*problem.coefficients)
    return check_global_bound(form, problem.curve, problem.points)


def _json_default(value):
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"not serializable: {value!r}")


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, str, Fraction)):
        return str(value)
    return json.dumps(value, default=_json_default)


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
    return json.dumps(payload, indent=2, default=_json_default) + "\n"


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = _parse_overrides(args.param)
        try:
            with open(args.document, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise DocumentError(f"cannot read {args.document}: {exc}") from exc
        sections = parse_document(text)
        report = _dispatch(args, sections, overrides)
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
