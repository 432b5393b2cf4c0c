"""Small exact polynomials for building inputs and checking reports.

A polynomial is a dict from exponent tuples to ``Fraction`` coefficients.
The benchmark keeps its own arithmetic so that generated inputs and the
values a report is checked against never come from folgerm itself.
"""

from __future__ import annotations

import re
from fractions import Fraction

LOCAL_VARS = ("x", "y")
PROJECTIVE_VARS = ("x", "y", "z")


def clean(terms):
    return {m: c for m, c in terms.items() if c}


def add(*polys):
    out = {}
    for p in polys:
        for m, c in p.items():
            out[m] = out.get(m, 0) + c
    return clean(out)


def scale(p, factor):
    return clean({m: c * factor for m, c in p.items()})


def mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            key = tuple(i + j for i, j in zip(ma, mb))
            out[key] = out.get(key, 0) + ca * cb
    return clean(out)


def product(polys, nvars):
    out = {(0,) * nvars: Fraction(1)}
    for p in polys:
        out = mul(out, p)
    return out


def diff(p, var):
    out = {}
    for m, c in p.items():
        if m[var]:
            key = tuple(e - (i == var) for i, e in enumerate(m))
            out[key] = c * m[var]
    return clean(out)


def order(p):
    return min(sum(m) for m in p)


def evaluate(p, point):
    total = Fraction(0)
    for m, c in p.items():
        term = c
        for value, e in zip(point, m):
            term *= value**e
        total += term
    return total


def render(p, names):
    """Folgerm's document syntax, for instance ``3/2*x^2*y - y^3``."""
    if not p:
        return "0"
    pieces = []
    for m in sorted(p, key=lambda m: (-sum(m), tuple(-e for e in m))):
        c = p[m]
        factors = [
            name if e == 1 else f"{name}^{e}" for name, e in zip(names, m) if e
        ]
        magnitude = abs(c)
        if not factors:
            body = str(magnitude)
        elif magnitude == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(magnitude)] + factors)
        sign = "-" if c < 0 else "+"
        pieces.append(f"{sign} {body}" if pieces else ("-" + body if c < 0 else body))
    return " ".join(pieces)


def to_json(p):
    return [[list(m), str(c)] for m, c in sorted(p.items())]


def from_json(rows):
    return {tuple(m): Fraction(c) for m, c in rows}


_POINT = re.compile(r"^\[\s*(\S+)\s*:\s*(\S+)\s*:\s*(\S+)\s*\]$")


def parse_point(text):
    """``[a : b : c]`` as a tuple of Fractions."""
    match = _POINT.match(text.strip())
    if match is None:
        raise ValueError(f"not a projective point: {text!r}")
    return tuple(Fraction(g) for g in match.groups())


def normalize_point(coords):
    """Scale so the last nonzero coordinate is 1, as folgerm reports points."""
    scale_by = next(c for c in reversed(coords) if c)
    return tuple(Fraction(c) / scale_by for c in coords)


def line_meet(a, b):
    """Intersection of two lines given by coefficient vectors (cross product)."""
    return normalize_point(
        (
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        )
    )
