"""The value classes: frozen fields, value equality, and no shared defaults."""

from fractions import Fraction

import pytest

from folgerm import germs
from folgerm.blowup import (
    BlowupResult,
    ExceptionalComponent,
    PointClassification,
    ReducedSingularity,
)
from folgerm.documents import LocalProblem, ProjectiveProblem
from folgerm.germs import (
    BalancedEquation,
    CurveGerm,
    DivisorInvariants,
    FoliationGerm,
    PolarCertificate,
)
from folgerm.polynomials import parse_poly
from folgerm.projective import (
    MilnorSumCertificate,
    ProjectiveFoliation,
    ProjectivePoint,
    chart_germ,
)
from folgerm.theorems import PASS, CheckReport


def P(text):
    return parse_poly(text, 2)


def P3(text):
    return parse_poly(text, 3)


def logarithmic_form():
    return ProjectiveFoliation(P3("y*z"), P3("2*x*z"), P3("-3*x*y"))


def frozen_fields():
    germ = FoliationGerm(P("-y"), P("x"))
    curve = CurveGerm(P("x*y"))
    point = ProjectivePoint.of(1, 0, 0)
    polar = PolarCertificate(curve, (1, 1), (2,))
    return [
        (germ, "P"),
        (germ, "Q"),
        (curve, "poly"),
        (logarithmic_form(), "A"),
        (logarithmic_form(), "degree"),
        (BalancedEquation(curve), "zero"),
        (polar, "probe"),
        (DivisorInvariants(0, 1, polar, 0, 0), "tau"),
        (BlowupResult(1, 1, 0, False, (P("x"), P("y")), (P("x"), P("y"))), "nu"),
        (PointClassification("smooth"), "kind"),
        (ExceptionalComponent(1, False, 0), "index"),
        (ReducedSingularity((1,), "nondegenerate", Fraction(1)), "ratio"),
        (LocalProblem(germ, None), "germ"),
        (ProjectiveProblem((P3("x"), P3("y"), P3("z")), None, None), "curve"),
        (point, "coords"),
        (MilnorSumCertificate(((point, 1),), 1, 1, (germ,)), "total"),
    ]


@pytest.mark.parametrize(
    "value, name", frozen_fields(),
    ids=lambda v: type(v).__name__ if not isinstance(v, str) else v,
)
def test_assigning_a_field_raises(value, name):
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        value.extra = None
    assert getattr(value, name) is before


def test_reports_do_not_share_data_or_notes():
    first, second = CheckReport("a", PASS), CheckReport("b", PASS)
    first.data["mu"] = 1
    first.notes.append("note")
    assert (second.data, second.notes) == ({}, [])
    assert first.data is not second.data and first.notes is not second.notes


def test_equal_germs_and_forms_compare_and_hash_equal():
    pairs = [
        (FoliationGerm(P("-y"), P("x + y^2")), FoliationGerm(P("-y"), P("y^2 + x"))),
        (CurveGerm(P("x*y - x^3")), CurveGerm(P("-x^3 + y*x"))),
        (logarithmic_form(), logarithmic_form()),
    ]
    for first, second in pairs:
        assert first is not second
        assert first == second and hash(first) == hash(second)
    germ = pairs[0][0]
    assert germ != FoliationGerm(P("x + y^2"), P("-y"))
    assert germ != (germ.P, germ.Q) and germ != CurveGerm(P("x"))
    assert CurveGerm(P("x")) != CurveGerm(P("y"))
    assert logarithmic_form() != ProjectiveFoliation(P3("y*z"), P3("x*z"), P3("-2*x*y"))


def test_chart_germs_run_no_gcd(monkeypatch):
    form = logarithmic_form()
    points = [ProjectivePoint.of(*c) for c in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    expected = [FoliationGerm(*chart_germ(form, p).components()) for p in points]

    def refuse(a, b):
        raise AssertionError("poly_gcd called")

    monkeypatch.setattr(germs, "poly_gcd", refuse)
    with pytest.raises(AssertionError, match="poly_gcd called"):
        FoliationGerm(P("y"), P("x"))
    assert [chart_germ(form, p) for p in points] == expected
