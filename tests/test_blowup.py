import random
from fractions import Fraction

import pytest

from folgerm.blowup import (
    BlowupLimitError,
    IrrationalSingularPointError,
    blow_up,
    classify_point,
    dicritical_report,
    h1_dimension,
    rational_roots,
    reduce_germ,
)
from folgerm.germs import FoliationGerm
from folgerm.polynomials import parse_poly

from conftest import random_nonzero_poly


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
            for sing in result.singularities:
                assert sing.kind in ("nondegenerate", "saddle_node")
            indices = {c.index for c in result.components}
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
