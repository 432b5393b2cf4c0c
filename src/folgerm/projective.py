"""Foliations of the projective plane given by homogeneous 1-forms.

A 1-form ``A dx + B dy + C dz`` with homogeneous coefficients of a common
degree descends to the projective plane exactly when the Euler relation
``x*A + y*B + z*C = 0`` holds and the coefficients share no common factor.
The degree of the foliation is one less than the coefficient degree: a
degree-d foliation has coefficients of degree d + 1 and, counted with
multiplicity, ``d**2 + d + 1`` singular points.

Singular points are located by an integer resultant (the subresultant
sequence of ``dense``) and a complete rational root search, so every
rational one is found and no irrational one is.  The
sum of local Milnor numbers over the located points is compared against
``d**2 + d + 1``: when the two agree, every singular point has rational
coordinates and the list is provably complete.  Local work happens in the
affine chart of the last nonzero coordinate, with the chart 1-form read off
by discarding the differential of the chart variable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .blowup import rational_roots
from .dense import EngineInconsistencyError, horner, restrict_to_line, resultant, sheared
from .germs import (CurveGerm, FoliationGerm, milnor_foliation, multiplicity, refuse_assignment,
                    tjurina_curve, tjurina_foliation)
from .polynomials import Poly, dehomogenize, divides_wedge, is_squarefree, poly_gcd
from .theorems import FAIL, NOT_APPLICABLE, PASS, CheckReport


class EulerRelationError(ValueError):
    """Raised when x*A + y*B + z*C does not vanish; carries the residual."""

    def __init__(self, residual: Poly):
        super().__init__(f"Euler relation fails: x*A + y*B + z*C = {residual}")
        self.residual = residual


class ProjectiveFoliation:
    """Homogeneous 1-form A dx + B dy + C dz of projective degree d.

    Building one checks the Euler relation and coprimality and reads off the
    degree, so every instance defines a foliation (``singular_points``
    relies on gcd(A, B, C) = 1).  Raises ``EulerRelationError`` when the
    contraction with the radial vector field is nonzero, and a plain
    ``ValueError`` for inhomogeneous input or coefficients with a common
    factor (such forms do not define a foliation of the stated degree).
    """

    def __init__(self, A: Poly, B: Poly, C: Poly):
        for coeff in (A, B, C):
            if coeff.nvars != 3:
                raise ValueError("projective coefficients live in three variables")
        nonzero = [c for c in (A, B, C) if not c.is_zero]
        if not nonzero:
            raise ValueError("all three coefficients vanish")
        degrees = set()
        for coeff in nonzero:
            if not coeff.is_homogeneous():
                raise ValueError("coefficients must be homogeneous")
            degrees.add(coeff.total_degree())
        if len(degrees) != 1:
            raise ValueError("coefficients must share a common degree")
        residual = (
            Poly.variable(3, 0) * A
            + Poly.variable(3, 1) * B
            + Poly.variable(3, 2) * C
        )
        if not residual.is_zero:
            raise EulerRelationError(residual)
        # A common factor of the triple divides the first coefficient and the
        # sum of the others, a pair the modular certificate usually settles;
        # gcd(A, B) alone is often z (omega_F, line arrangements), which no
        # certificate settles and only the exact route over Z[x][y] finds.
        # The chain runs only to name a factor.
        common = poly_gcd(nonzero[0], sum(nonzero[1:], Poly.zero(3)))
        if common.total_degree() > 0:
            common = nonzero[0]
            for coeff in nonzero[1:]:
                common = poly_gcd(common, coeff)
        if common.total_degree() > 0:
            raise ValueError(f"coefficients share the common factor {common}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "degree", degrees.pop() - 1)

    __setattr__ = refuse_assignment

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProjectiveFoliation):
            return NotImplemented
        return (self.A, self.B, self.C) == (other.A, other.B, other.C)

    def __hash__(self) -> int:
        return hash((self.A, self.B, self.C))

    @cached_property
    def _charts(self) -> tuple[tuple[Poly, Poly], ...]:
        """The chart pair of each affine chart, indexed by its unit axis.

        The chart x_k = 1 drops dx_k and keeps the other two coefficients:
        (B, C) at x = 1, (A, C) at y = 1 and (A, B) at z = 1.  Built once per
        form, for ``singular_points`` and every ``chart_germ``.
        """
        A, B, C = self.A, self.B, self.C
        return (
            (dehomogenize(B, 0), dehomogenize(C, 0)),
            (dehomogenize(A, 1), dehomogenize(C, 1)),
            (dehomogenize(A, 2), dehomogenize(B, 2)),
        )

    def __str__(self) -> str:
        return f"({self.A}) dx + ({self.B}) dy + ({self.C}) dz"


def validate_form(A: Poly, B: Poly, C: Poly) -> ProjectiveFoliation:
    """The foliation of the 1-form; ``ProjectiveFoliation`` lists the checks."""
    return ProjectiveFoliation(A, B, C)


def is_invariant_curve(form: ProjectiveFoliation, curve: Poly) -> bool:
    """Whether the homogeneous curve is invariant for the foliation.

    The wedge of the form with the differential of the curve has three
    coefficients; the curve is invariant when it divides all of them.  They
    are formed over Z and each is decided by one exact division over Z
    (``polynomials.divides_wedge``).
    """
    if curve.nvars != 3 or curve.is_zero:
        raise ValueError("expected a nonzero polynomial in three variables")
    if not curve.is_homogeneous():
        raise ValueError("projective curves must be homogeneous")
    return divides_wedge(curve, (form.A, form.B, form.C))


class ProjectivePoint(NamedTuple):
    """Homogeneous coordinates scaled so the last nonzero entry is 1."""

    coords: tuple[Fraction, Fraction, Fraction]

    @classmethod
    def of(cls, x, y, z) -> ProjectivePoint:
        coords = (Fraction(x), Fraction(y), Fraction(z))
        scale = next((c for c in reversed(coords) if c), None)
        if scale is None:
            raise ValueError("(0 : 0 : 0) is not a projective point")
        return cls(tuple(c / scale for c in coords))

    def __str__(self) -> str:
        return "[" + " : ".join(str(c) for c in self.coords) + "]"


def _line_roots(first: list[int], second: list[int]) -> list[Fraction]:
    """Common rational roots of two univariate coefficient lists.

    One root search, on the first nonzero list; the other list is only
    evaluated at its roots.
    """
    if not any(first):
        first, second = second, first
    if not any(first):
        raise ValueError("singular locus contains a line")
    roots, _, _ = rational_roots(first)
    return [r for r in roots if horner(second, r) == 0]


def _affine_common_zeros(a: Poly, b: Poly) -> list[tuple[Fraction, Fraction]]:
    """All rational common zeros of a coprime pair in two variables.

    The caller guarantees coprimality (see ``singular_points``).  On the
    primitive integer maps, the eliminant is Res_y(a, b) in Z[x], from the
    subresultant sequence of ``dense``, or the x-polynomial of a member
    constant in y.  It vanishes at the x-coordinate of every common zero and
    is nonzero for a coprime pair.  Its rational roots are the candidates,
    confirmed by restricting both polynomials to the vertical line.  The root
    search is complete, so every rational zero is found; irrational zeros are
    not, and callers certify completeness through the Milnor-number budget.
    """
    if a.is_zero or b.is_zero:
        survivor = b if a.is_zero else a
        if survivor.is_zero or survivor.total_degree() > 0:
            raise ValueError("singular locus is not finite in a chart")
        return []
    f, g = sheared(a._t, 0), sheared(b._t, 0)
    if len(f) < len(g):
        f, g = g, f
    eliminant = g[0] if len(g) == 1 else resultant(f, g)
    if not eliminant:
        raise EngineInconsistencyError("a coprime pair left a zero eliminant")
    candidates, _, _ = rational_roots(eliminant)
    points = []
    for x0 in candidates:
        for y0 in _line_roots(*(restrict_to_line(p._t, (x0, None)) for p in (a, b))):
            points.append((x0, y0))
    return points


def singular_points(form: ProjectiveFoliation) -> list[ProjectivePoint]:
    """All singular points with rational coordinates, in sorted order.

    By the Euler relation two vanishing coefficients force the third, so the
    search solves A = B = 0 in the chart z = 1, then A = C = 0 on the line
    z = 0, and finally tests the single remaining point [1 : 0 : 0].

    The chart pair is coprime because the form is: gcd(A, B, C) = 1 was
    checked when the form was built, and in the chart z = 1 the Euler
    relation reads C(x, y, 1) = -x A(x, y, 1) - y B(x, y, 1), so a common
    factor h of A(x, y, 1) and B(x, y, 1) divides C(x, y, 1) as well; its
    homogenization then divides A, B and C, so h is constant.
    """
    points = []
    for x0, y0 in _affine_common_zeros(*form._charts[2]):
        points.append(ProjectivePoint.of(x0, y0, 1))
    for x0 in _line_roots(*(restrict_to_line(p._t, (None, 1, 0)) for p in (form.A, form.C))):
        points.append(ProjectivePoint.of(x0, 1, 0))
    origin = (Fraction(1), Fraction(0), Fraction(0))
    if form.B.evaluate(origin) == 0 and form.C.evaluate(origin) == 0:
        points.append(ProjectivePoint.of(1, 0, 0))
    return sorted(points, key=lambda pt: pt.coords)


def chart_germ(form: ProjectiveFoliation, point: ProjectivePoint) -> FoliationGerm:
    """Local 1-form germ at the point, in its affine chart coordinates.

    Restricting to the chart kills the differential of the chart variable;
    the form's chart pair there is translated so the point sits at the
    origin.  The pair is coprime because the form is (the proof is in
    ``FoliationGerm._of_coprime_chart_pair``), so no gcd runs.
    """
    x0, y0, z0 = point.coords
    if z0:
        axis, offsets = 2, (x0, y0)
    elif y0:
        axis, offsets = 1, (x0, 0)
    else:
        axis, offsets = 0, ()
    p, q = form._charts[axis]
    return FoliationGerm._of_coprime_chart_pair(p.shift(offsets), q.shift(offsets))


def chart_curve(curve: Poly, point: ProjectivePoint) -> CurveGerm:
    """Germ of a homogeneous curve at a point lying on it."""
    x0, y0, z0 = point.coords
    if z0:
        local = dehomogenize(curve, 2).shift((x0, y0))
    elif y0:
        local = dehomogenize(curve, 1).shift((x0, 0))
    else:
        local = dehomogenize(curve, 0)
    return CurveGerm(local)


class MilnorSumCertificate(NamedTuple):
    """Local Milnor numbers at chosen singular points of a foliation.

    Every singular point contributes at least 1 to the global count of
    ``degree**2 + degree + 1``, so ``total == expected`` proves that the
    points listed here are all the singular points there are; a positive
    deficit measures how much of the singular scheme is unaccounted for.
    ``germs`` holds the chart germ at each point, in the order of ``entries``.
    """

    entries: tuple[tuple[ProjectivePoint, int], ...]
    total: int
    expected: int
    germs: tuple[FoliationGerm, ...]

    @property
    def certified(self) -> bool:
        return self.total == self.expected

    @property
    def deficit(self) -> int:
        return self.expected - self.total


def milnor_sum_certificate(
    form: ProjectiveFoliation,
    points: list[ProjectivePoint] | None = None,
) -> MilnorSumCertificate:
    """Certify a singular-point list through the global Milnor count.

    With ``points=None`` the rational singular points are located by
    elimination; a supplied list is instead checked pointwise (each point
    must be singular, repeats are rejected) so that a caller-asserted locus
    can be certified complete by the same budget.
    """
    if points is None:
        points = singular_points(form)
    else:
        points = sorted(points, key=lambda pt: pt.coords)
        if len({pt.coords for pt in points}) != len(points):
            raise ValueError("singular points must be pairwise distinct")
    entries, germs = [], []
    for point in points:
        germ = chart_germ(form, point)
        if not germ.is_singular:
            raise ValueError(f"{point} is not a singular point")
        entries.append((point, milnor_foliation(germ)))
        germs.append(germ)
    total = sum(mu for _, mu in entries)
    d = form.degree
    return MilnorSumCertificate(tuple(entries), total, d * d + d + 1, tuple(germs))


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def check_form(
    A: Poly,
    B: Poly,
    C: Poly,
    curve: Poly | None = None,
    points: list[ProjectivePoint] | None = None,
) -> CheckReport:
    """Validation report for a would-be projective 1-form.

    Fails (rather than raising) on a broken Euler relation or a common
    factor, recording the obstruction; on success the report carries the
    degree, the singular points with their Milnor numbers, and the
    completeness certificate.  A supplied curve must be invariant, and a
    supplied point list must exhaust the Milnor budget, for the check to
    pass; with located points an uncertified budget is only noted, since
    irrational singular points are no fault of the form.
    """
    name = "projective-validate"
    try:
        form = validate_form(A, B, C)
    except EulerRelationError as exc:
        return CheckReport(
            name, FAIL, {"euler_residual": str(exc.residual)}, [str(exc)]
        )
    except ValueError as exc:
        return CheckReport(name, FAIL, {"reason": str(exc)}, [str(exc)])
    cert = milnor_sum_certificate(form, points)
    data = {
        "degree": form.degree,
        "points_supplied": points is not None,
        "singular_points": [
            {"point": str(pt), "mu": mu} for pt, mu in cert.entries
        ],
        "milnor_sum": cert.total,
        "milnor_expected": cert.expected,
        "milnor_deficit": cert.deficit,
        "milnor_certified": cert.certified,
    }
    notes = []
    verdict = PASS
    if not cert.certified:
        if points is not None:
            verdict = FAIL
            notes.append(
                f"the supplied singular points leave a Milnor-number "
                f"deficit of {cert.deficit}"
            )
        else:
            notes.append(
                "some singular points have irrational coordinates; "
                "the list covers only the rational ones"
            )
    if curve is not None:
        invariant = is_invariant_curve(form, curve)
        data["curve_invariant"] = invariant
        if not invariant:
            verdict = FAIL
            notes.append("the supplied curve is not invariant")
    return CheckReport(name, verdict, data, notes)


def check_global_bound(
    form: ProjectiveFoliation,
    curve: Poly,
    points: list[ProjectivePoint] | None = None,
) -> CheckReport:
    """Global Tjurina bound for a reduced invariant algebraic curve.

    Writing d for the foliation degree and n for the curve degree, the sum
    of GSV indices over the singular points on the curve equals
    (d + 2) n - n**2, and the total Tjurina number of the curve is bounded
    below by ceil((d**2 + d + 1 - 2 * sum GSV) / 2); the closed GSV form
    gives the equivalent bound ceil((d**2 + d + 1 - 2 (d+2) n + 2 n**2)/2).

    Hypotheses checked per point: every singular point of the foliation
    lies on the curve and is of second type for the curve germ there (zero
    tangency excess, with the curve germ as the zero divisor; pole parts
    are not synthesized, so dicritical points surface as violations).  The
    bound is still evaluated when hypotheses fail, but the verdict is then
    "not-applicable".  The Tjurina total is trustworthy because a reduced
    invariant curve is smooth wherever the foliation is regular, so its
    singular points all appear in the certified list.

    The curve is checked once, globally: reduced and invariant.  So the
    tangency excess at each point is multiplicity(germ) - order(f) + 1 for
    the chart germ f of the curve, with no per-point validation, because
    both facts pass to f.  In the chart x_k = 1, a squarefree homogeneous F
    keeps its factors other than x_k, with their multiplicities (the
    argument of ``poly_gcd``), and a translation is a ring automorphism.
    F divides each wedge coefficient A F_y - B F_x, A F_z - C F_x and
    B F_z - C F_y.  Setting the chart variable to 1 in the one without its
    differential gives the wedge of the chart pair (the pair of
    ``FoliationGerm._of_coprime_chart_pair``) with f, so f divides it too.
    """
    name = "projective-global"
    if not curve.is_homogeneous():
        raise ValueError("projective curves must be homogeneous")
    if not is_squarefree(curve):
        raise ValueError("the global bound concerns reduced curves")
    if not is_invariant_curve(form, curve):
        raise ValueError("the curve is not invariant for the foliation")
    cert = milnor_sum_certificate(form, points)
    d = form.degree
    n = curve.total_degree()
    data = {
        "degree": d,
        "curve_degree": n,
        "milnor_sum": cert.total,
        "milnor_expected": cert.expected,
    }
    if not cert.certified:
        return CheckReport(
            name,
            NOT_APPLICABLE,
            data,
            ["could not certify the full singular locus over the rationals"],
        )
    gsv_sum = 0
    tau_sum = 0
    rows = []
    violations = []
    for (point, mu), germ in zip(cert.entries, cert.germs):
        row = {"point": str(point), "mu": mu}
        on_curve = curve.evaluate(point.coords) == 0
        row["on_curve"] = on_curve
        if on_curve:
            local_curve = chart_curve(curve, point)
            tau = tjurina_curve(local_curve)
            # gsv_index, with the curve's Tjurina number computed once
            row["gsv"] = tjurina_foliation(germ, local_curve) - tau
            row["tau"] = tau
            gsv_sum += row["gsv"]
            tau_sum += row["tau"]
            # tangency_excess with no per-point validation: see the docstring
            xi = multiplicity(germ) - local_curve.order + 1
            row["xi"] = xi
            if xi != 0:
                violations.append(
                    f"{point} is not second type for the curve germ "
                    f"(tangency excess {xi})"
                )
        else:
            violations.append(f"singular point {point} does not lie on the curve")
        rows.append(row)
    gsv_closed = (d + 2) * n - n * n
    bound = ceil_div(d * d + d + 1 - 2 * gsv_sum, 2)
    bound_closed = ceil_div(d * d + d + 1 - 2 * (d + 2) * n + 2 * n * n, 2)
    data.update(
        {
            "points": rows,
            "gsv_sum": gsv_sum,
            "gsv_closed_form": gsv_closed,
            "tau_sum": tau_sum,
            "lower_bound": bound,
            "lower_bound_closed_form": bound_closed,
        }
    )
    notes = ["local zero divisors are the curve germs; balanced poles are user-asserted"]
    if violations:
        notes.extend(violations)
        notes.append("hypotheses not met; the bound was evaluated observationally")
        return CheckReport(name, NOT_APPLICABLE, data, notes)
    ok = gsv_sum == gsv_closed and bound <= tau_sum and bound_closed <= tau_sum
    return CheckReport(name, PASS if ok else FAIL, data, notes)
