import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from folgerm import blowup, polynomials, projective
from folgerm.cli import main
from folgerm.germs import (
    BalancedEquation,
    FoliationGerm,
    milnor_foliation,
    multiplicity,
    tangency_excess,
    validate_balanced,
)
from folgerm.polynomials import (
    Poly,
    dehomogenize,
    is_squarefree,
    parse_poly,
    poly_gcd,
    try_exact_div,
)
from folgerm.projective import (
    EulerRelationError,
    ProjectiveFoliation,
    ProjectivePoint,
    ceil_div,
    chart_curve,
    chart_germ,
    check_form,
    check_global_bound,
    is_invariant_curve,
    milnor_sum_certificate,
    singular_points,
    validate_form,
)

from conftest import sympy_expr


def H(text, params=None):
    return parse_poly(text, 3, params)


def omega(lam):
    """y*z dx + lam*x*z dy - (lam+1)*x*y dz, the basic logarithmic family."""
    params = {"lam": Fraction(lam)}
    return (
        H("y*z"),
        H("lam*x*z", params),
        H("-(lam+1)*x*y", params),
    )


def pencil():
    return H("y-z"), H("z-x"), H("x-y")


def radial_zero():
    """Degree-zero form z dy - y dz: the lines through [1 : 0 : 0]."""
    return H("0"), H("z"), H("-y")


def log_form(lines, lambdas):
    """Logarithmic form prod(L) * sum(lambda_i dL_i / L_i) of linear forms.

    With the lambdas summing to 0 the Euler relation holds; each line is
    invariant and each pairwise intersection is a singular point.
    """
    forms = [H("a*x+b*y+c*z", dict(zip("abc", map(Fraction, line)))) for line in lines]
    coeffs = []
    for k in range(3):
        total = H("0")
        for i, (line, lam) in enumerate(zip(lines, lambdas)):
            term = H(str(lam * line[k]))
            for j, other in enumerate(forms):
                if j != i:
                    term = term * other
            total = total + term
        coeffs.append(total)
    curve = H("1")
    for f in forms:
        curve = curve * f
    return tuple(coeffs), curve


def omega_f(d):
    """omega_F for F = x^(d+1) + 2y^(d+1) - 3z^(d+1) + x*y^d."""
    F = H(f"x^{d + 1} + 2*y^{d + 1} - 3*z^{d + 1} + x*y^{d}")
    x, y, z = H("x"), H("y"), H("z")
    fx, fy, fz = (F.diff(i) for i in range(3))
    return y * fz - z * fy, z * fx - x * fz, x * fy - y * fx


def line_meet(u, v):
    """Intersection point of two lines, as the cross product of their coefficients."""
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


LINESFAULT = (
    ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (1, 3, 7)),
    (1, 2, 3, 4, 5, -15),
)


def irrational_pencil():
    """G dF - F dG for F = x^2 - 2*z^2, G = y*z; two singular points sit at
    x = ±sqrt(2) on the line y = 0 and are invisible to rational search."""
    f = H("x^2-2*z^2")
    g = H("y*z")
    a = g * f.diff(0) - f * g.diff(0)
    b = g * f.diff(1) - f * g.diff(1)
    c = g * f.diff(2) - f * g.diff(2)
    return a, b, c


class TestValidation:
    def test_log_family_validates(self):
        form = validate_form(*omega(2))
        assert form.degree == 1

    def test_euler_residual_reported(self):
        with pytest.raises(EulerRelationError) as info:
            validate_form(H("y*z"), H("x*z"), H("x*y"))
        assert info.value.residual == H("3*x*y*z")

    def test_degenerate_parameters_rejected(self):
        for lam in (0, -1):
            with pytest.raises(ValueError):
                validate_form(*omega(lam))

    def test_inhomogeneous_rejected(self):
        with pytest.raises(ValueError):
            validate_form(H("y*z+x"), H("x*z"), H("-2*x*y"))

    def test_mixed_degrees_rejected(self):
        with pytest.raises(ValueError):
            validate_form(H("z"), H("x*z"), H("-x*y-x"))

    def test_degree_zero(self):
        assert validate_form(*radial_zero()).degree == 0

    def test_constructor_checks_like_validate_form(self):
        assert ProjectiveFoliation(*omega(2)) == validate_form(*omega(2))
        # omega(0) is y*(z dx - x dz): its A and C share the factor y
        with pytest.raises(ValueError, match="common factor"):
            ProjectiveFoliation(*omega(0))
        with pytest.raises(EulerRelationError):
            ProjectiveFoliation(H("y*z"), H("x*z"), H("x*y"))

    def test_coprime_triple_with_common_pairwise_factors(self, monkeypatch):
        # gcd(A, B) = z, gcd(A, C) = y, gcd(B, C) = x, and gcd(A, B, C) = 1:
        # one gcd, of A and B + C, settles the triple.
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return poly_gcd(a, b)

        monkeypatch.setattr(projective, "poly_gcd", counted)
        form = ProjectiveFoliation(H("y*z"), H("x*z"), H("-2*x*y"))
        assert form.degree == 1
        assert len(calls) == 1

    def test_triple_common_factor_is_named(self):
        with pytest.raises(ValueError, match=r"share the common factor x \+ y"):
            ProjectiveFoliation(
                H("y*z*(x+y)"), H("x*z*(x+y)"), H("-2*x*y*(x+y)")
            )


class TestSingularPoints:
    def test_log_family_corners(self):
        form = validate_form(*omega(2))
        points = singular_points(form)
        assert [str(p) for p in points] == ["[0 : 0 : 1]", "[0 : 1 : 0]", "[1 : 0 : 0]"]

    def test_pencil_single_point(self):
        form = validate_form(*pencil())
        points = singular_points(form)
        assert [str(p) for p in points] == ["[1 : 1 : 1]"]

    def test_degree_zero_radial_point(self):
        form = validate_form(*radial_zero())
        points = singular_points(form)
        assert [str(p) for p in points] == ["[1 : 0 : 0]"]
        germ = chart_germ(form, points[0])
        assert milnor_foliation(germ) == 1

    def test_normalization(self):
        assert ProjectivePoint.of(2, 4, 2).coords == (1, 2, 1)
        assert ProjectivePoint.of(3, 0, 0).coords == (1, 0, 0)
        with pytest.raises(ValueError):
            ProjectivePoint.of(0, 0, 0)


class TestChartGerms:
    def test_pencil_chart_agreement(self):
        # [1 : 1 : 1] is visible in all three affine charts; the local germ
        # built in each must carry the same invariants.
        a, b, c = pencil()
        form = validate_form(a, b, c)
        point = ProjectivePoint.of(1, 1, 1)
        built = chart_germ(form, point)
        in_y = FoliationGerm(
            dehomogenize(a, 1).shift((1, 1)), dehomogenize(c, 1).shift((1, 1))
        )
        in_x = FoliationGerm(
            dehomogenize(b, 0).shift((1, 1)), dehomogenize(c, 0).shift((1, 1))
        )
        for germ in (built, in_y, in_x):
            assert multiplicity(germ) == 1
            assert milnor_foliation(germ) == 1

    def test_log_family_corner_germ(self):
        form = validate_form(*omega(2))
        origin = ProjectivePoint.of(0, 0, 1)
        germ = chart_germ(form, origin)
        assert germ.P == parse_poly("y", 2)
        assert germ.Q == parse_poly("2*x", 2)

    def test_chart_curve_translation(self):
        point = ProjectivePoint.of(1, 1, 1)
        local = chart_curve(H("x-y"), point)
        assert local.poly == parse_poly("x-y", 2)

    def test_chart_pairs_are_coprime(self):
        # singular_points relies on the chart pair being coprime; sympy
        # confirms it at every singular point, independently of poly_gcd.
        sympy = pytest.importorskip("sympy")
        x, y = sympy.symbols("x y")
        rng = random.Random(8)
        forms = [omega_f(d) for d in range(2, 7)]
        for n in (3, 4, 5):
            lines = set()
            while len(lines) < n:
                line = tuple(rng.randint(-5, 5) for _ in range(3))
                if any(line) and all(
                    sympy.Matrix([line, other]).rank() == 2 for other in lines
                ):
                    lines.add(line)
            lambdas = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n - 1)]
            if sum(lambdas) == 0:
                lambdas[0] += 1
            forms.append(log_form(sorted(lines), lambdas + [-sum(lambdas)])[0])
        checked = 0
        for coeffs in forms:
            form = validate_form(*coeffs)
            for point in singular_points(form):
                germ = chart_germ(form, point)
                p, q = (sympy_expr(c, (x, y)) for c in germ.components())
                assert sympy.gcd(p, q).is_number, point
                checked += 1
        assert checked >= 30


def _homogeneous(draw, degree):
    """A homogeneous polynomial of the given degree with small integer coefficients."""
    monomials = [(i, j, degree - i - j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    terms = draw(st.dictionaries(
        st.sampled_from(monomials), st.integers(-4, 4).filter(bool), min_size=1, max_size=5
    ))
    return Poly(3, terms)


@st.composite
def _valid_forms(draw):
    """Coefficient triples of projective foliations, of three kinds.

    omega_F-type forms (y F_z - z F_y, z F_x - x F_z, x F_y - y F_x) of a
    random F, logarithmic forms of seeded line arrangements, and random
    Euler-consistent triples (y R - z Q, z P - x R, x Q - y P).  Triples
    with a common factor are no foliation and are drawn again.
    """
    kind = draw(st.sampled_from(("omega_F", "lines", "euler")))
    if kind == "lines":
        (a, b, c), _ = log_form(*seeded_arrangement(
            draw(st.integers(3, 6)), draw(st.integers(0, 10**6))
        ))
    else:
        x, y, z = H("x"), H("y"), H("z")
        if kind == "omega_F":
            F = _homogeneous(draw, draw(st.integers(2, 4)))
            p, q, r = (F.diff(i) for i in range(3))
        else:
            degree = draw(st.integers(1, 3))
            p, q, r = (_homogeneous(draw, degree) for _ in range(3))
        a, b, c = y * r - z * q, z * p - x * r, x * q - y * p
    try:
        return validate_form(a, b, c)
    except ValueError:
        assume(False)


class TestChartCoprimality:
    """``chart_germ`` runs no gcd: the form's coprimality must carry over."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(_valid_forms(), st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 2)),
        min_size=3, max_size=3,
    ))
    def test_chart_pair_is_coprime_at_every_point(self, form, extra):
        points = singular_points(form)
        located = set(points)
        for u, v, chart in extra:
            point = ProjectivePoint.of(*((1, u, v), (u, 1, 0), (u, v, 1))[chart])
            if point not in located:
                points.append(point)
        for point in points:
            germ = chart_germ(form, point)
            assert germ.is_singular == (point in located), point
            assert poly_gcd(germ.P, germ.Q).total_degree() <= 0, point


class TestInvariance:
    def test_log_family_axes(self):
        form = validate_form(*omega(2))
        for curve in ("x", "y", "z", "x*y*z"):
            assert is_invariant_curve(form, H(curve))
        assert not is_invariant_curve(form, H("x+y"))

    def test_pencil_diagonal(self):
        form = validate_form(*pencil())
        assert is_invariant_curve(form, H("x-y"))

    def test_fiber_of_pencil_form(self):
        form = validate_form(*irrational_pencil())
        assert is_invariant_curve(form, H("y*z"))
        assert is_invariant_curve(form, H("x^2-2*z^2"))


class TestMilnorSum:
    def test_log_family_certified(self):
        cert = milnor_sum_certificate(validate_form(*omega(2)))
        assert cert.total == cert.expected == 3
        assert cert.certified
        assert [mu for _, mu in cert.entries] == [1, 1, 1]

    def test_pencil_certified(self):
        cert = milnor_sum_certificate(validate_form(*pencil()))
        assert cert.expected == 1
        assert cert.certified

    def test_irrational_points_leave_a_gap(self):
        form = validate_form(*irrational_pencil())
        assert form.degree == 2
        cert = milnor_sum_certificate(form)
        assert cert.expected == 7
        assert cert.total == 5
        assert cert.deficit == 2
        assert not cert.certified

    def test_supplied_points_certify(self):
        form = validate_form(*omega(2))
        points = [
            ProjectivePoint.of(1, 0, 0),
            ProjectivePoint.of(0, 1, 0),
            ProjectivePoint.of(0, 0, 1),
        ]
        cert = milnor_sum_certificate(form, points)
        assert cert.certified

    def test_omitted_point_leaves_deficit(self):
        form = validate_form(*omega(2))
        points = [ProjectivePoint.of(1, 0, 0), ProjectivePoint.of(0, 1, 0)]
        cert = milnor_sum_certificate(form, points)
        assert cert.total == 2
        assert cert.deficit == 1
        assert not cert.certified

    def test_nonsingular_point_rejected(self):
        form = validate_form(*omega(2))
        with pytest.raises(ValueError, match="not a singular point"):
            milnor_sum_certificate(form, [ProjectivePoint.of(1, 1, 1)])

    def test_repeated_points_rejected(self):
        form = validate_form(*omega(2))
        points = [ProjectivePoint.of(1, 0, 0), ProjectivePoint.of(2, 0, 0)]
        with pytest.raises(ValueError, match="distinct"):
            milnor_sum_certificate(form, points)


class TestCheckForm:
    def test_pass_with_curve(self):
        report = check_form(*omega(2), curve=H("x*y*z"))
        assert report.verdict == "pass"
        assert report.data["milnor_certified"]
        assert report.data["curve_invariant"]

    def test_supplied_points_must_be_complete(self):
        points = [ProjectivePoint.of(1, 0, 0), ProjectivePoint.of(0, 1, 0)]
        report = check_form(*omega(2), points=points)
        assert report.verdict == "fail"
        assert report.data["milnor_deficit"] == 1

    def test_irrational_locus_passes_with_note(self):
        report = check_form(*irrational_pencil())
        assert report.verdict == "pass"
        assert not report.data["milnor_certified"]
        assert any("irrational" in note for note in report.notes)

    def test_euler_failure(self):
        report = check_form(H("y*z"), H("x*z"), H("x*y"))
        assert report.verdict == "fail"
        assert report.data["euler_residual"] == "3*x*y*z"

    def test_common_factor_failure(self):
        report = check_form(*omega(0))
        assert report.verdict == "fail"
        assert "common factor" in report.data["reason"]

    def test_noninvariant_curve_fails(self):
        report = check_form(*omega(2), curve=H("x+y"))
        assert report.verdict == "fail"
        assert report.data["curve_invariant"] is False


class TestGlobalBound:
    def test_log_family_with_axes(self):
        form = validate_form(*omega(2))
        report = check_global_bound(form, H("x*y*z"))
        assert report.verdict == "pass"
        assert report.data["gsv_sum"] == 0
        assert report.data["gsv_closed_form"] == 0
        assert report.data["tau_sum"] == 3
        assert report.data["lower_bound"] == 2
        assert report.data["lower_bound_closed_form"] == 2
        rows = report.data["points"]
        assert [r["point"] for r in rows] == [
            "[0 : 0 : 1]", "[0 : 1 : 0]", "[1 : 0 : 0]"
        ]
        assert all(r["on_curve"] and r["xi"] == 0 for r in rows)

    def test_point_off_curve_blocks_hypotheses(self):
        form = validate_form(*omega(2))
        report = check_global_bound(form, H("x"))
        # [1 : 0 : 0] is singular but not on x = 0, so the hypotheses fail;
        # the numbers are still reported (gsv matches the closed form).
        assert report.verdict == "not-applicable"
        assert report.data["gsv_sum"] == 2
        assert report.data["gsv_closed_form"] == 2
        assert report.data["lower_bound"] == 0
        assert any("[1 : 0 : 0]" in note for note in report.notes)

    def test_degree_zero_observational(self):
        # Lines through [0 : 0 : 1]; the triple point makes the curve germ
        # too big for a pole-free balanced equation, so the verdict stays
        # not-applicable even though the bound itself holds with equality.
        form = validate_form(H("y"), H("-x"), H("0"))
        report = check_global_bound(form, H("x*y*(x-y)"))
        assert report.verdict == "not-applicable"
        assert report.data["gsv_sum"] == -3
        assert report.data["gsv_closed_form"] == -3
        assert report.data["tau_sum"] == 4
        assert report.data["lower_bound"] == 4
        assert report.data["lower_bound_closed_form"] == 4
        assert any("tangency excess" in note for note in report.notes)

    def test_requires_invariance(self):
        form = validate_form(*omega(2))
        with pytest.raises(ValueError):
            check_global_bound(form, H("x+y"))

    def test_requires_reduced(self):
        form = validate_form(*omega(2))
        with pytest.raises(ValueError):
            check_global_bound(form, H("x^2*y"))

    def test_uncertified_is_not_applicable(self):
        form = validate_form(*irrational_pencil())
        report = check_global_bound(form, H("y*z"))
        assert report.verdict == "not-applicable"


class TestLinesfault:
    """Six lines whose chart eliminant has a 39-bit trailing coefficient.

    A root search by trial division gave up on it and lost 6 of the 15
    rational intersection points; the other 6 of the Milnor budget of 21
    are irrational singular points.
    """

    def test_validate_lists_every_intersection(self):
        (a, b, c), curve = log_form(*LINESFAULT)
        report = check_form(a, b, c, curve=curve)
        assert report.verdict == "pass"
        listed = {row["point"] for row in report.data["singular_points"]}
        lines = LINESFAULT[0]
        for i, first in enumerate(lines):
            for second in lines[i + 1:]:
                meet = line_meet(first, second)
                assert str(ProjectivePoint.of(*meet)) in listed
        assert len(listed) == 15
        assert report.data["milnor_sum"] == 15
        assert report.data["milnor_deficit"] == 6

    def test_global_is_not_applicable(self):
        (a, b, c), curve = log_form(*LINESFAULT)
        report = check_global_bound(validate_form(a, b, c), curve)
        assert report.verdict == "not-applicable"
        assert report.data["milnor_sum"] == 15


def seeded_arrangement(n, seed=2):
    """x, y, z and n - 3 distinct lines with coefficients in [-5, 5], not in
    general position, with nonzero residues summing to 0."""
    rng = random.Random(seed)
    lines = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    while len(lines) < n:
        line = tuple(rng.randint(-5, 5) for _ in range(3))
        if all(any(line_meet(line, other)) for other in lines):
            lines.append(line)
    while True:
        lambdas = [rng.choice([v for v in range(-9, 10) if v]) for _ in range(n - 1)]
        if sum(lambdas):
            return lines, lambdas + [-sum(lambdas)]


class TestArrangements:
    def test_ten_lines_validate_within_five_seconds(self, capsys, tmp_path):
        # three lines meet in each of [1 : 0 : 0], [0 : 1 : 0] and [-1 : 0 : 1]
        lines, lambdas = seeded_arrangement(10)
        (a, b, c), curve = log_form(lines, lambdas)
        doc = tmp_path / "lines10.fol"
        doc.write_text(f"[projective]\nA = {a}\nB = {b}\nC = {c}\ncurve = {curve}\n")
        start = time.perf_counter()
        code = main(["projective-validate", str(doc), "--json"])
        elapsed = time.perf_counter() - start
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["verdict"] == "pass"
        assert report["data"]["curve_invariant"] is True
        listed = {row["point"] for row in report["data"]["singular_points"]}
        for i, first in enumerate(lines):
            for second in lines[i + 1:]:
                assert str(ProjectivePoint.of(*line_meet(first, second))) in listed
        assert elapsed < 5.0


@st.composite
def _forms_with_curves(draw):
    """A projective foliation with a reduced invariant curve, of two kinds.

    Logarithmic forms of seeded line arrangements, with the product of the
    lines as curve; and logarithmic forms F_1...F_k sum(l_i dF_i / F_i) of
    random lines and conics, sum(l_i deg F_i) = 0 for the Euler relation,
    with F_1...F_k as curve.  Each F_i is invariant.
    """
    if draw(st.booleans()):
        (a, b, c), curve = log_form(*seeded_arrangement(
            draw(st.integers(3, 6)), draw(st.integers(0, 10**6))
        ))
    else:
        degrees = draw(st.lists(st.integers(1, 2), min_size=2, max_size=3))
        factors = [_homogeneous(draw, d) for d in degrees]
        residues = [draw(st.integers(-3, 3).filter(bool)) for _ in degrees[1:]]
        balance = sum(l * d for l, d in zip(residues, degrees[1:]))
        assume(balance)
        residues.insert(0, Fraction(-balance, degrees[0]))
        curve = H("1")
        for f in factors:
            curve = curve * f
        assume(is_squarefree(curve))
        a, b, c = (
            sum(
                (l * f.diff(k) * try_exact_div(curve, f)
                 for l, f in zip(residues, factors)),
                H("0"),
            )
            for k in range(3)
        )
    try:
        return validate_form(a, b, c), curve
    except ValueError:
        assume(False)


class TestGlobalCurveCheck:
    """``check_global_bound`` checks the curve once, not at every point.

    A reduced invariant curve must give, at every singular point on it, a
    chart curve germ that passes ``validate_balanced`` against the chart
    germ, so the bare tangency-excess formula is the checked one.
    """

    @settings(derandomize=True, database=None, deadline=None, max_examples=30)
    @given(_forms_with_curves())
    def test_chart_curve_is_balanced_at_every_point(self, drawn):
        form, curve = drawn
        assert is_squarefree(curve) and is_invariant_curve(form, curve)
        xis = {}
        for point in singular_points(form):
            if curve.evaluate(point.coords) != 0:
                continue
            germ, local = chart_germ(form, point), chart_curve(curve, point)
            validate_balanced(germ, BalancedEquation(local))
            xis[str(point)] = tangency_excess(germ, BalancedEquation(local))
            assert xis[str(point)] == multiplicity(germ) - local.order + 1, point
        report = check_global_bound(form, curve)
        for row in report.data.get("points", []):
            assert row.get("xi") == xis.get(row["point"]), row


def _line_through(point, direction):
    """u*(x - px) + v*(y - py) for the point (px, py) and direction (u, v)."""
    (px, py), (u, v) = point, direction
    return Poly(2, {(1, 0): u, (0, 1): v, (0, 0): -u * px - v * py})


@st.composite
def _planted_pairs(draw):
    """Pairs of degree <= 4 through planted rational points.

    Each planted point puts one line through it into a and another into b,
    and a then gains q*b, which keeps the common zeros (and the gcd, which
    the test requires to be constant).  Coefficients are rational, so the
    eliminant clears denominators.  Up to three points
    share the vertical line x = c != 0, so the eliminant has a repeated
    root away from 0 and the squarefree gcd runs.
    """
    small = st.integers(-4, 4)
    rational = st.builds(Fraction, small, st.integers(1, 3))
    column = Fraction(draw(st.integers(1, 4)) * draw(st.sampled_from([-1, 1])))
    points = [(column, y0) for y0 in draw(st.lists(rational, max_size=3))]
    points += draw(st.lists(st.tuples(rational, rational), max_size=4 - len(points)))
    assume(points)
    direction = st.tuples(small, small).filter(any)
    a = b = Poly.constant(2, 1)
    for point in points:
        a = a * _line_through(point, draw(direction))
        b = b * _line_through(point, draw(direction))
    spare = 4 - len(points)
    q = Poly(2, {
        (i, j): draw(small)
        for i in range(spare + 1) for j in range(spare + 1 - i)
    })
    a = a + q * b
    return (a, b) if draw(st.booleans()) else (b, a)


def _sympy_rational_roots(expr, var):
    sympy = pytest.importorskip("sympy")
    roots = []
    for factor, _ in sympy.Poly(expr, var, domain="QQ").factor_list()[1]:
        if factor.degree() == 1:
            c1, c0 = factor.all_coeffs()
            roots.append(-c0 / c1)
    return roots


def _sympy_common_zeros(a, b):
    """Rational common zeros from sympy's lex Groebner basis, y > x."""
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    basis = sympy.groebner(
        [sympy_expr(a, (x, y)), sympy_expr(b, (x, y))], y, x, order="lex"
    ).exprs
    zeros = set()
    for x0 in _sympy_rational_roots(basis[-1], x):
        line = sympy.gcd_list([g.subs(x, x0) for g in basis])
        for y0 in _sympy_rational_roots(line, y):
            zeros.add((Fraction(int(x0.p), int(x0.q)), Fraction(int(y0.p), int(y0.q))))
    return zeros


class TestPointSearch:
    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(_planted_pairs())
    def test_common_zeros_match_sympy(self, pair):
        sympy = pytest.importorskip("sympy")
        a, b = pair
        x, y = sympy.symbols("x y")
        assume(sympy.gcd(sympy_expr(a, (x, y)), sympy_expr(b, (x, y))).is_number)
        zeros = projective._affine_common_zeros(a, b)
        assert len(set(zeros)) == len(zeros)
        assert set(zeros) == _sympy_common_zeros(a, b)

    def test_no_fraction_gcd_or_remainder(self, monkeypatch):
        forms = [validate_form(*omega_f(d)) for d in range(2, 6)]
        (a, b, c), _ = log_form(*LINESFAULT)
        forms.append(validate_form(a, b, c))
        expected = [singular_points(form) for form in forms]

        def forbidden(*args):
            raise AssertionError("the point search left integer arithmetic")

        for module in (polynomials, blowup, projective):
            for name in ("poly_gcd", "try_exact_div"):
                monkeypatch.setattr(module, name, forbidden, raising=False)
        assert [singular_points(form) for form in forms] == expected
        lines = LINESFAULT[0]
        assert set(expected[-1]) == {
            ProjectivePoint.of(*line_meet(u, v))
            for i, u in enumerate(lines) for v in lines[i + 1:]
        }


def test_ceil_div():
    assert ceil_div(3, 2) == 2
    assert ceil_div(4, 2) == 2
    assert ceil_div(-1, 2) == 0
    assert ceil_div(-3, 2) == -1
