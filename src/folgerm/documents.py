"""Sectioned key/value documents describing local and projective problems.

The input format is line oriented: ``[section]`` headers followed by
``key = value`` lines, with blank lines and ``#`` comments ignored.  A
local problem uses a ``[foliation]`` section (keys P, Q) and an optional
``[divisor]`` section (key zero, optional pole); a projective problem uses
a ``[projective]`` section (keys A, B, C, optional curve, optional
points).  Either kind may carry a ``[parameters]`` section of named
rationals that are substituted into every polynomial; command-line
overrides take precedence.  Points are semicolon-separated triples of
rationals written ``x : y : z``.

A document must contain exactly one of the two problem sections, so each
file states unambiguously which kind of computation it feeds.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple

from .germs import BalancedEquation, CurveGerm, FoliationGerm
from .polynomials import MAX_POWER_DIGITS, VAR_NAMES, Poly, parse_poly
from .projective import ProjectivePoint

Sections = dict[str, dict[str, str]]

_LOCAL_SECTIONS = {"foliation", "divisor", "parameters"}
_PROJECTIVE_SECTIONS = {"projective", "parameters"}


class DocumentError(ValueError):
    """Malformed input document; messages carry line or key context."""


def parse_document(text: str) -> Sections:
    """Parse sectioned key/value text, preserving order and rejecting repeats."""
    sections: Sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise DocumentError(f"line {lineno}: empty section name")
            if name in sections:
                raise DocumentError(f"line {lineno}: duplicate section [{name}]")
            current = sections.setdefault(name, {})
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise DocumentError(
                f"line {lineno}: expected 'key = value', got {line!r}"
            )
        if current is None:
            raise DocumentError(f"line {lineno}: key/value before any section")
        key = key.strip()
        if not key:
            raise DocumentError(f"line {lineno}: empty key")
        if key in current:
            raise DocumentError(f"line {lineno}: duplicate key {key!r}")
        current[key] = value.strip()
    return sections


def render_document(sections: Mapping[str, Mapping[str, str]]) -> str:
    """Inverse of parse_document, one blank line between sections."""
    blocks = []
    for name, body in sections.items():
        lines = [f"[{name}]"]
        lines.extend(f"{key} = {value}" for key, value in body.items())
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def parse_rational(text: str, what: str) -> Fraction:
    """``Fraction(text)``, refused first when it is not ASCII or has too many digits.

    ``Fraction`` reads any Unicode digit, as in ``٣/٤``, which the polynomial
    parser refuses, so non-ASCII text is not a rational number here either.
    ``Fraction`` computes 10^|e| for an exponent e, so ``1e999999999`` would
    not end in practice.  The digits of the mantissa plus |e| are held to
    ``MAX_POWER_DIGITS``, as the parser holds ``10^e``.  ``what`` names the
    parameter or point in the ``DocumentError``.
    """
    if not text.isascii():
        raise DocumentError(f"{what}: {text!r} is not a rational number")
    mantissa, _, exponent = text.lower().partition("e")
    exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0") or "0"
    digits = sum(c.isdecimal() for c in mantissa)
    if exponent.isdecimal() and (len(exponent) > len(str(MAX_POWER_DIGITS))
                                 or digits + int(exponent) > MAX_POWER_DIGITS):
        raise DocumentError(f"{what}: {text!r} has more than {MAX_POWER_DIGITS} digits")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"{what}: {text!r} is not a rational number") from exc


def read_parameters(
    sections: Sections, overrides: Mapping[str, Fraction] | None = None
) -> dict[str, Fraction]:
    """The ``[parameters]`` section, updated by the overrides.

    A name the polynomial parser cannot read as a parameter is an error,
    not a silently unused value.
    """
    params = {key: parse_rational(value, f"parameter {key!r}")
              for key, value in sections.get("parameters", {}).items()}
    if overrides:
        params.update(overrides)
    for name in params:
        if name in VAR_NAMES:
            raise DocumentError(f"parameter {name!r} is a variable name")
        if not (name[:1].isalpha() or name[:1] == "_") or not all(
            c.isalnum() or c == "_" for c in name[1:]
        ):
            raise DocumentError(
                f"parameter {name!r} is not a name: a letter or '_', "
                "then letters, digits or '_'"
            )
    return params


def _require_kind(sections: Sections, kind: str, allowed: set[str]) -> None:
    if "foliation" in sections and "projective" in sections:
        raise DocumentError(
            "a document holds exactly one of [foliation] and [projective]"
        )
    if kind not in sections:
        raise DocumentError(f"document has no [{kind}] section")
    unknown = set(sections) - allowed
    if unknown:
        name = sorted(unknown)[0]
        raise DocumentError(f"unknown section [{name}]")


def _poly(
    sections: Sections,
    section: str,
    key: str,
    nvars: int,
    params: Mapping[str, Fraction],
    required: bool = True,
) -> Poly | None:
    body = sections.get(section, {})
    if key not in body:
        if required:
            raise DocumentError(f"section [{section}] needs the key {key!r}")
        return None
    try:
        return parse_poly(body[key], nvars, params)
    except ValueError as exc:
        raise DocumentError(f"[{section}] {key}: {exc}") from exc


def _parse_points(value: str) -> list[ProjectivePoint]:
    points = []
    for chunk in value.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(":")]
        if len(parts) != 3:
            raise DocumentError(f"point {chunk!r} is not a triple x : y : z")
        coords = [parse_rational(p, f"point {chunk!r}") for p in parts]
        try:
            points.append(ProjectivePoint.of(*coords))
        except ValueError as exc:
            raise DocumentError(f"point {chunk!r}: {exc}") from exc
    if not points:
        raise DocumentError("the points key lists no points")
    return points


class LocalProblem(NamedTuple):
    germ: FoliationGerm
    divisor: BalancedEquation | None


class ProjectiveProblem(NamedTuple):
    coefficients: tuple[Poly, Poly, Poly]
    curve: Poly | None
    points: list[ProjectivePoint] | None


def load_local_problem(
    sections: Sections, overrides: Mapping[str, Fraction] | None = None
) -> LocalProblem:
    """Build the germ (and divisor, when present) of a local document.

    Construction errors — components with a common factor, a divisor that
    fails reducedness — surface as DocumentError: they make the problem
    itself ill-posed, not merely a check fail.
    """
    _require_kind(sections, "foliation", _LOCAL_SECTIONS)
    params = read_parameters(sections, overrides)
    p = _poly(sections, "foliation", "P", 2, params)
    q = _poly(sections, "foliation", "Q", 2, params)
    try:
        germ = FoliationGerm(p, q)
    except ValueError as exc:
        raise DocumentError(f"[foliation]: {exc}") from exc
    divisor = None
    if "divisor" in sections:
        zero = _poly(sections, "divisor", "zero", 2, params)
        pole = _poly(sections, "divisor", "pole", 2, params, required=False)
        try:
            divisor = BalancedEquation(
                CurveGerm(zero), CurveGerm(pole) if pole is not None else None
            )
        except ValueError as exc:
            raise DocumentError(f"[divisor]: {exc}") from exc
    return LocalProblem(germ, divisor)


def load_projective_problem(
    sections: Sections, overrides: Mapping[str, Fraction] | None = None
) -> ProjectiveProblem:
    """Collect the raw coefficient triple of a projective document.

    The coefficients are deliberately not validated here: whether they pass
    the Euler relation is exactly what projective-validate reports on.
    """
    _require_kind(sections, "projective", _PROJECTIVE_SECTIONS)
    params = read_parameters(sections, overrides)
    a = _poly(sections, "projective", "A", 3, params)
    b = _poly(sections, "projective", "B", 3, params)
    c = _poly(sections, "projective", "C", 3, params)
    curve = _poly(sections, "projective", "curve", 3, params, required=False)
    points = None
    raw_points = sections["projective"].get("points")
    if raw_points is not None:
        points = _parse_points(raw_points)
    return ProjectiveProblem((a, b, c), curve, points)
