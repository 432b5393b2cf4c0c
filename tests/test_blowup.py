import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from folgerm.blowup import (
    BlowupLimitError,
    IrrationalSingularPointError,
    blow_up,
    classify_point,
    dicritical_report,
    rational_roots,
    reduce_germ,
)
from folgerm.germs import FoliationGerm
from folgerm.polynomials import Poly, parse_poly

from conftest import h1_dimension, random_nonzero_poly, substitute, sympy_expr


def P(text):
    return parse_poly(text, 2)


def germ(p, q):
    return FoliationGerm(P(p), P(q))


def radial():
    return germ("-y", "x")


def cusp():
    return germ("-3*x^2", "2*y")


class TestSingleBlowup:
    def test_radial_is_dicritical(self):
        data = blow_up(*radial().components())
        assert data.nu == 1
        assert data.m == 2
        assert data.epsilon == 1
        assert data.dicritical
        assert data.chart1 == (P("0"), P("1"))
        assert data.chart2 == (P("-1"), P("0"))

    def test_cusp_first_chart(self):
        data = blow_up(*cusp().components())
        assert data.epsilon == 0
        assert not data.dicritical
        assert data.chart1 == (P("-3*x + 2*y^2"), P("2*x*y"))
        assert data.chart2 == (P("-3*x^2*y^2"), P("-3*x^3*y + 2"))

    def test_node_keeps_divisor_invariant(self):
        data = blow_up(P("-2*y"), P("x"))
        assert data.epsilon == 0
        assert data.chart1 == (P("-y"), P("x"))

    def test_exceptional_power_matches_multiplicity(self):
        rng = random.Random(411)
        for _ in range(40):
            p = random_nonzero_poly(rng, min_order=1)
            q = random_nonzero_poly(rng, min_order=1)
            data = blow_up(p, q)
            nu = min(h.order() for h in (p, q) if not h.is_zero)
            assert data.nu == nu
            assert data.m - nu in (0, 1)

    def test_charts_match_substitution(self):
        rng = random.Random(412)
        x, y = (Poly.variable(2, i) for i in range(2))
        dicritical = 0
        for i in range(60):
            p = random_nonzero_poly(rng, min_order=1)
            q = random_nonzero_poly(rng, min_order=1)
            if i % 3 == 0:
                # x*p + y*q has no term of degree nu + 1: a dicritical blow-up
                g = random_nonzero_poly(rng).lowest_form()
                shift = g.order() + 1
                p, q = y * g + p * x**shift, -x * g + q * y**shift
            data = blow_up(p, q)
            dicritical += data.dicritical
            charts = (
                (substitute(p, {1: x * y}) + y * substitute(q, {1: x * y}),
                 x * substitute(q, {1: x * y})),
                (y * substitute(p, {0: x * y}),
                 x * substitute(p, {0: x * y}) + substitute(q, {0: x * y})),
            )
            for var, found, pulled in zip((0, 1), (data.chart1, data.chart2), charts):
                power = Poly.variable(2, var) ** data.m
                assert tuple(h * power for h in found) == pulled
        assert dicritical >= 20


class TestClassification:
    def test_smooth(self):
        assert classify_point(P("1 + x"), P("y")).kind == "smooth"

    def test_radial_point_is_not_simple(self):
        # Equal eigenvalues: the ratio 1 sits in the positive rationals.
        assert classify_point(P("-y"), P("x")).kind == "non_simple"

    def test_saddle(self):
        cls = classify_point(P("-y"), P("-x"))
        assert cls.kind == "nondegenerate"
        assert cls.ratio == -1

    def test_resonant_node_needs_blowup(self):
        # Eigenvalues 1 and 2.
        assert classify_point(P("2*y"), P("-x")).kind == "non_simple"

    def test_irrational_ratio_is_simple(self):
        # Linear part [[1, 1], [1, 2]]: ratio (3 +- sqrt(5))/2, not rational.
        cls = classify_point(P("x + 2*y"), P("-x - y"))
        assert cls.kind == "nondegenerate"
        assert cls.ratio is None

    def test_saddle_node_weak_direction(self):
        # Dual field (x^2, y): weak separatrix along the x-axis.
        cls = classify_point(P("y"), P("-x^2"))
        assert cls.kind == "saddle_node"
        assert cls.weak_direction == (1, 0)

    def test_nilpotent(self):
        assert classify_point(P("-3*x + 2*y^2"), P("2*x*y")).kind == "non_simple"


def reference_classification(p, q):
    """classify_point written on ``Fraction`` coefficients, as a reference."""
    if p.constant_term() != 0 or q.constant_term() != 0:
        return ("smooth", None, None)
    a, b = -q.coefficient((1, 0)), -q.coefficient((0, 1))
    c, d = p.coefficient((1, 0)), p.coefficient((0, 1))
    tr, det = a + d, a * d - b * c
    if det == 0:
        if tr == 0:
            return ("non_simple", None, None)
        v0, v1 = (b, -a) if (a, b) != (0, 0) else (d, -c)
        weak = (Fraction(1), v1 / v0) if v0 != 0 else (Fraction(0), Fraction(1))
        return ("saddle_node", None, weak)
    bb = tr * tr - 2 * det
    disc = bb * bb - 4 * det * det
    num, den = disc.numerator, disc.denominator
    if disc < 0 or math.isqrt(num) ** 2 != num or math.isqrt(den) ** 2 != den:
        return ("nondegenerate", None, None)
    root = Fraction(math.isqrt(num), math.isqrt(den))
    r1, r2 = (bb + root) / (2 * det), (bb - root) / (2 * det)
    if r1 > 0 or r2 > 0:
        return ("non_simple", None, None)
    return ("nondegenerate", min(r1, r2), None)


HUGE = Fraction(2**400, 3**250)


class TestClassificationAgainstReference:
    CONTENTS = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-7, 3), HUGE, -1 / HUGE)

    def draw(self, rng, linear):
        terms = {m: rng.randint(-9, 9) for m in linear}
        if rng.random() < 0.1:
            terms[(0, 0)] = rng.randint(-3, 3)
        for _ in range(rng.randint(0, 3)):
            i = rng.randint(0, 4)
            terms[(i, rng.randint(max(0, 2 - i), 4 - i))] = rng.randint(-9, 9)
        return Poly(2, terms) * rng.choice(self.CONTENTS)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_and_ignores_a_common_scale(self, seed):
        rng = random.Random(9100 + seed)
        kinds = set()
        for _ in range(400):
            # small entries make square discriminants and zero determinants common
            linear = rng.sample([(1, 0), (0, 1)], rng.randint(0, 2))
            p, q = self.draw(rng, linear), self.draw(rng, rng.sample([(1, 0), (0, 1)], 2))
            cls = classify_point(p, q)
            assert tuple(cls) == reference_classification(p, q)
            scale = rng.choice(self.CONTENTS) * rng.choice((1, -3, Fraction(5, 11)))
            assert classify_point(p * scale, q * scale) == cls
            kinds.add(cls.kind)
        assert kinds == {"smooth", "nondegenerate", "saddle_node", "non_simple"}

    @pytest.mark.parametrize(
        "p, q, kind, ratio, weak",
        [
            # dual field (x + y, y): a defective node of ratio 1
            ("y", "-x - y", "non_simple", None, None),
            # (x, y^2): v0 = b = 0, the weak direction is the y-axis
            ("y^2", "-x", "saddle_node", None, (0, 1)),
            # (x + 2y, -x - 2y + ...): v = (b, -a) = (2, -1)
            ("-x - 2*y + x^3", "-x - 2*y", "saddle_node", None, (1, Fraction(-1, 2))),
            # (0, 3x + y): (a, b) = (0, 0), so v = (d, -c) = (1, -3)
            ("3*x + y", "y^2", "saddle_node", None, (1, -3)),
            # ratio (3 +- sqrt(5))/2
            ("x + 2*y", "-x - y", "nondegenerate", None, None),
            # eigenvalues 1 and 3: a positive rational ratio
            ("3*y", "-x", "non_simple", None, None),
            # eigenvalues 2 and -3 on a huge content
            ("-3*y + x^2", "-2*x", "nondegenerate", Fraction(-3, 2), None),
        ],
    )
    def test_explicit_cases(self, p, q, kind, ratio, weak):
        for scale in (1, HUGE, -1 / HUGE):
            cls = classify_point(P(p) * scale, P(q) * scale)
            assert (cls.kind, cls.ratio, cls.weak_direction) == (kind, ratio, weak)
            assert tuple(cls) == reference_classification(P(p) * scale, P(q) * scale)


class TestRationalRoots:
    def test_mixed(self):
        # 2*t*(t - 1)*(t + 3/2)
        coeffs = [Fraction(0), Fraction(-3), Fraction(1), Fraction(2)]
        roots, residual, certified = rational_roots(coeffs)
        assert roots == [Fraction(-3, 2), Fraction(0), Fraction(1)]
        assert residual.total_degree() == 0
        assert certified

    def test_residual(self):
        # t^3 - 2t = t*(t^2 - 2)
        coeffs = [Fraction(0), Fraction(-2), Fraction(0), Fraction(1)]
        roots, residual, certified = rational_roots(coeffs)
        assert roots == [Fraction(0)]
        assert residual == P("y^2 - 2")
        assert certified

    def test_linear_residual_beyond_trial_division(self):
        # the residual factor of the (P, Q) in test_cli's linear-root regression
        roots, residual, certified = rational_roots(
            [Fraction(-7917120512), Fraction(111964521321)]
        )
        assert roots == [Fraction(7917120512, 111964521321)]
        assert residual.total_degree() == 0
        assert certified

    def test_linear_after_zero_roots(self):
        roots, residual, certified = rational_roots([0, 0, Fraction(3, 4), 2])
        assert roots == [Fraction(-3, 8), Fraction(0)]
        assert residual.total_degree() == 0
        assert certified

    def test_linesfault_eliminant(self):
        # The last element of a primitive pseudo-remainder chain in y for
        # the six-line arrangement x, y, z, x+y+z, x+2y+3z, x+3y+7z
        # (lambda = 1, 2, 3, 4, 5, -15) in the chart z = 1:
        # x^12 (x-5)(x-2)(x-1)(x+1)(x+3)(x+7) times irrational factors, one
        # of them squared, so the integer squarefree part runs.  Trial
        # division of its 39-bit trailing coefficient found only 0.  The
        # point search eliminates y by Res_y instead, of degree 16 here.
        coeffs = [0] * 12 + [
            -521558396100, -2732571246510, 16744280855746, 42613585741765,
            672566657903, -55002630485876, -27426424714288, 16693925633971,
            12264983038481, -1646137777886, -1843797612214, 76730462123,
            112199571873, -2917463328, -2259024444, 15135741, 9623043,
        ]
        roots, residual, certified = rational_roots([Fraction(c) for c in coeffs])
        assert roots == [Fraction(r) for r in (-7, -3, -1, 0, 1, 2, 5)]
        assert residual.total_degree() == 28 - 12 - 6
        assert certified

    def test_low_degree_against_sympy(self):
        # linear inputs and quadratics with a nonzero discriminant skip the
        # squarefree gcd; squares of a linear factor take it
        rng = random.Random(8)
        for _ in range(200):
            coeffs = [rng.randint(-30, 30) for _ in range(rng.randint(2, 3))]
            if rng.random() < 0.3:
                a, b = rng.randint(-9, 9), rng.randint(1, 9)
                coeffs = [c * rng.randint(1, 5) for c in (a * a, -2 * a * b, b * b)]
            if coeffs[-1] == 0:
                continue
            expected = _sympy_rational_roots(coeffs)
            scale = Fraction(rng.randint(-7, 7) or 1, rng.randint(1, 7))
            roots, residual, _ = rational_roots([c * scale for c in coeffs])
            assert roots == sorted(expected), coeffs
            degree = len(coeffs) - 1 - sum(expected.values())
            assert residual.total_degree() == degree, coeffs


def _sympy_rational_roots(coeffs):
    """Rational roots with multiplicity, from sympy's factorization over Q."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    poly = sympy.Poly(list(reversed(coeffs)), t, domain="QQ")
    out = {}
    for factor, power in poly.factor_list()[1]:
        if factor.degree() == 1:
            c1, c0 = factor.all_coeffs()
            root = -c0 / c1
            out[Fraction(int(root.p), int(root.q))] = power
    return out


@st.composite
def _rooted_polys(draw):
    """Integer polynomials of degree <= 30 with planted rational roots.

    Zero and repeated roots are planted, and pairs of roots 210 apart, which
    collide mod 2, 3, 5 and 7 and so force the prime search past them.
    """
    small = st.integers(-40, 40)
    roots = draw(st.lists(st.tuples(small, st.integers(1, 12)), max_size=10))
    roots += [(a + 210 * b, b) for a, b in draw(st.lists(st.tuples(small, st.just(1)), max_size=2))]
    roots += roots[: draw(st.integers(0, 2))]
    cofactor = draw(st.lists(st.integers(-(2**60), 2**60), min_size=1, max_size=16))
    if not any(cofactor):
        cofactor[-1] = 1
    coeffs = [0] * draw(st.integers(0, 4)) + cofactor
    for a, b in roots:
        # multiply by (b*t - a)
        coeffs = [b * hi - a * lo for lo, hi in zip(coeffs + [0], [0] + coeffs)]
    while coeffs[-1] == 0:
        coeffs.pop()
    assume(len(coeffs) <= 31)
    return coeffs


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(_rooted_polys())
def test_rational_roots_match_sympy(coeffs):
    expected = _sympy_rational_roots(coeffs)
    roots, residual, certified = rational_roots([Fraction(c) for c in coeffs])
    assert certified
    assert roots == sorted(expected)
    assert residual.total_degree() == len(coeffs) - 1 - sum(expected.values())


@st.composite
def _repeated_fractional_roots(draw):
    """Integer polynomials of degree 3 to 8 with repeated roots a/b, b >= 2.

    Each planted factor (b*t - a)^e has e in 1..3; t^k and an irreducible
    quadratic t^2 - c (c = 2, 3 or 5) may join it.
    """
    factors = draw(st.lists(
        st.tuples(st.integers(-9, 9), st.integers(2, 7), st.integers(1, 3)),
        min_size=1, max_size=3,
    ))
    coeffs = [draw(st.integers(1, 6)) * draw(st.sampled_from((-1, 1)))]
    for a, b, e in factors:
        for _ in range(e):
            coeffs = [b * hi - a * lo for lo, hi in zip(coeffs + [0], [0] + coeffs)]
    if draw(st.booleans()):
        c = draw(st.sampled_from((2, 3, 5)))
        coeffs = [hi - c * lo for lo, hi in zip(coeffs + [0, 0], [0, 0] + coeffs)]
    coeffs = [0] * draw(st.integers(0, 2)) + coeffs
    assume(3 <= len(coeffs) - 1 <= 8)
    return coeffs


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(_repeated_fractional_roots(), st.sampled_from((1, Fraction(-3, 4), Fraction(5, 6))))
def test_repeated_fractional_roots_match_sympy(coeffs, scale):
    sympy = pytest.importorskip("sympy")
    expected = _sympy_rational_roots(coeffs)
    roots, residual, _ = rational_roots([c * scale for c in coeffs])
    assert roots == sorted(expected)
    assert residual.total_degree() == len(coeffs) - 1 - sum(expected.values())
    t = sympy.Symbol("t")
    rest = sympy.Mul(*(
        factor.as_expr() ** power
        for factor, power in sympy.Poly(list(reversed(coeffs)), t).factor_list()[1]
        if factor.degree() > 1
    ))
    found = sympy_expr(residual, sympy.symbols("x t"))
    assert sympy.cancel(found / rest).is_number


def test_repeated_fractional_roots_example():
    # (3t - 2)^3 (5t + 7) t^2 (t^2 - 2), of degree 8
    coeffs = [0, 0, 112, -424, 340, 374, -468, -81, 135]
    roots, residual, _ = rational_roots(coeffs)
    assert roots == [Fraction(-7, 5), Fraction(0), Fraction(2, 3)]
    assert residual == P("y^2 - 2")


class TestReduction:
    def test_radial(self):
        result = reduce_germ(radial())
        assert result.blowups == 1
        assert len(result.components) == 1
        assert result.components[0].dicritical
        assert result.singularities == []
        assert result.edges == ()
        assert result.valence(1) == 0
        assert dicritical_report(result) == [
            {"component": 1, "valence": 0, "budget": 2}
        ]
        assert result.generalized_curve
        assert result.second_type

    def test_node(self):
        result = reduce_germ(germ("-2*y", "x"))
        assert result.blowups == 2
        flags = [c.dicritical for c in result.components]
        assert flags == [False, True]
        assert result.edges == ((1, 2),)
        [sing] = result.singularities
        assert sing.components == (1,)
        assert sing.kind == "nondegenerate"
        assert sing.ratio == -2
        assert dicritical_report(result) == [
            {"component": 2, "valence": 1, "budget": 1}
        ]

    def test_cusp(self):
        result = reduce_germ(cusp())
        assert result.blowups == 3
        assert not result.dicritical
        got = [(s.components, s.ratio) for s in result.singularities]
        assert got == [((2, 3), -2), ((3,), -6), ((1, 3), -3)]
        assert all(s.kind == "nondegenerate" for s in result.singularities)
        assert result.edges == ((1, 3), (2, 3))
        assert [result.valence(i) for i in (1, 2, 3)] == [1, 1, 2]
        assert result.generalized_curve
        assert result.second_type

    def test_jordan_node_gives_tangent_saddle_node(self):
        result = reduce_germ(germ("-x - y", "x"))
        assert result.blowups == 1
        [sing] = result.singularities
        assert sing.kind == "saddle_node"
        assert sing.components == (1,)
        assert sing.weak_along_divisor
        assert not result.second_type
        assert not result.generalized_curve

    def test_already_simple(self):
        result = reduce_germ(germ("-y", "-x"))
        assert result.blowups == 0
        assert result.components == []
        [sing] = result.singularities
        assert sing.components == ()
        assert sing.ratio == -1

    def test_plain_saddle_node_input(self):
        result = reduce_germ(germ("y", "-x^2"))
        assert result.blowups == 0
        [sing] = result.singularities
        assert sing.kind == "saddle_node"
        assert not sing.weak_along_divisor
        assert result.second_type
        assert not result.generalized_curve

    def test_smooth_input(self):
        result = reduce_germ(germ("1", "x"))
        assert result.blowups == 0
        assert result.singularities == []

    def test_irrational_point_aborts(self):
        with pytest.raises(IrrationalSingularPointError) as info:
            reduce_germ(germ("y^2 - 4*x^2", "x*y"))
        assert info.value.residual == P("y^2 - 2")

    def test_budget(self):
        with pytest.raises(BlowupLimitError):
            reduce_germ(cusp(), max_blowups=2)

    def test_random_germs_reduce_or_abort_cleanly(self):
        rng = random.Random(1724)
        finished = 0
        for _ in range(60):
            p = random_nonzero_poly(rng, max_degree=3, max_terms=3, min_order=1)
            q = random_nonzero_poly(rng, max_degree=3, max_terms=3, min_order=1)
            try:
                f = FoliationGerm(p, q)
            except ValueError:
                continue
            try:
                result = reduce_germ(f)
            except (IrrationalSingularPointError, BlowupLimitError):
                continue
            finished += 1
            # The dual graph is a tree on the components 1..blowups, and a
            # corner singularity sits where its two components meet.
            indices = [c.index for c in result.components]
            assert indices == list(range(1, result.blowups + 1))
            if result.blowups:
                assert len(result.edges) == result.blowups - 1
            for sing in result.singularities:
                assert sing.kind in ("nondegenerate", "saddle_node")
                if len(sing.components) == 2:
                    assert sing.components in result.edges
            for i, j in result.edges:
                assert i in indices and j in indices
        assert finished >= 10


class TestFirstOrderData:
    def test_h1_small(self):
        assert h1_dimension(radial()) == 0
        assert h1_dimension(cusp()) == 0

    def test_h1_multiplicity_three(self):
        assert h1_dimension(germ("y^3", "x^3")) == 1

    def test_h1_dicritical_drop(self):
        # Multiplicity 3 but dicritical, so the count drops to zero.
        assert h1_dimension(germ("-y^3 - x^2*y + x^4", "x^3 + x*y^2")) == 0
