import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_nonzero_poly
from folgerm import germs, linalg, localalg
from folgerm.germs import (
    BalancedEquation,
    CurveGerm,
    FoliationGerm,
    InvalidBalancedEquationError,
    NonIsolatedSingularityError,
    divisor_invariants,
    generic_polar,
    gsv_index,
    intersection_multiplicity,
    invariance_test,
    is_second_type,
    is_semihomogeneous,
    milnor_curve,
    milnor_foliation,
    multiplicity,
    probe_pencil,
    tangency_excess,
    tjurina_curve,
    tjurina_foliation,
    validate_balanced,
)
from folgerm.localalg import EngineInconsistencyError, stabilized_macaulay_dim
from folgerm.polynomials import Poly, intersection_at_origin, parse_poly


def P(text, **params):
    return parse_poly(text, 2, {k: Fraction(v) for k, v in params.items()})


def radial():
    return FoliationGerm(P("-y"), P("x"))


def cusp():
    return FoliationGerm(P("-3*x^2"), P("2*y"))


def fk(k, lam=1):
    p = parse_poly(
        f"y*(2*x^{2 * k - 2}+2*(lambda+1)*x^2*y^{k - 2}-y^{k - 1})", 2,
        {"lambda": Fraction(lam)},
    )
    q = parse_poly(
        f"x*(y^{k - 1}-(lambda+1)*x^2*y^{k - 2}-x^{2 * k - 2})", 2,
        {"lambda": Fraction(lam)},
    )
    return FoliationGerm(p, q)


RADIAL_B = BalancedEquation(CurveGerm(P("x*y*(x-y)")), CurveGerm(P("x+y")))
CUSP_B = BalancedEquation(CurveGerm(P("y^2 - x^3")))


class TestGermTypes:
    def test_foliation_rejects_common_factor(self):
        with pytest.raises(ValueError, match="common factor"):
            FoliationGerm(P("x*y"), P("x^2"))
        with pytest.raises(ValueError):
            FoliationGerm(Poly.zero(2), Poly.zero(2))

    def test_one_zero_component_allowed(self):
        f = FoliationGerm(Poly.zero(2), P("1"))
        assert not f.is_singular
        assert multiplicity(f) == 0

    def test_curve_must_vanish_at_origin(self):
        with pytest.raises(ValueError, match="origin"):
            CurveGerm(P("x + y - 1"))
        with pytest.raises(ValueError):
            CurveGerm(Poly.zero(2))

    def test_singularity_flag(self):
        assert radial().is_singular
        assert not FoliationGerm(P("1 + x"), P("y")).is_singular


class TestMultiplicity:
    def test_examples(self):
        assert multiplicity(radial()) == 1
        assert multiplicity(cusp()) == 1
        assert multiplicity(fk(5)) == 5
        for k in range(3, 8):
            assert multiplicity(fk(k)) == k


class TestInvariance:
    def test_radial_lines(self):
        assert invariance_test(radial(), CurveGerm(P("x")))
        assert invariance_test(radial(), CurveGerm(P("x*y*(x-y)")))
        assert invariance_test(radial(), CurveGerm(P("x + y")))

    def test_cusp(self):
        assert invariance_test(cusp(), CurveGerm(P("y^2 - x^3")))
        assert not invariance_test(cusp(), CurveGerm(P("y - x^2")))

    def test_fk_axes(self):
        for k in (3, 5, 7):
            assert invariance_test(fk(k), CurveGerm(P("x*y")))

    def test_hamiltonian_curve_is_always_invariant(self):
        rng = random.Random(41)
        for _ in range(10):
            f = random_nonzero_poly(rng, max_degree=4, min_order=1)
            if f.is_zero or f.order() < 1:
                continue
            fol_p, fol_q = f.diff(0), f.diff(1)
            if fol_p.is_zero and fol_q.is_zero:
                continue
            try:
                fol = FoliationGerm(fol_p, fol_q)
            except ValueError:
                continue
            assert invariance_test(fol, CurveGerm(f))


class TestQuotientInvariants:
    def test_milnor_foliation(self):
        assert milnor_foliation(radial()) == 1
        assert milnor_foliation(cusp()) == 2

    def test_milnor_fk5_cross_checked(self):
        f = fk(5)
        value = milnor_foliation(f)
        assert value == 45
        assert stabilized_macaulay_dim([f.P, f.Q]) == 45

    def test_milnor_small_cases(self):
        f = FoliationGerm(P("x"), P("1 + y"))  # unit ideal, non-singular germ
        g = FoliationGerm(P("x"), P("x + y^2"))
        assert milnor_foliation(f) == 0
        assert milnor_foliation(g) == 2

    def test_curve_numbers(self):
        b0 = CurveGerm(P("x*y*(x-y)"))
        assert milnor_curve(b0) == 4
        assert tjurina_curve(b0) == 4
        assert tjurina_curve(CurveGerm(P("y^2 - x^3"))) == 2

    def test_non_isolated_curve_rejected(self):
        with pytest.raises(NonIsolatedSingularityError):
            milnor_curve(CurveGerm(P("y^2")))

    def test_tjurina_foliation(self):
        assert tjurina_foliation(radial(), RADIAL_B.zero) == 1
        assert tjurina_foliation(cusp(), CUSP_B.zero) == 2
        for k in (3, 5):
            assert tjurina_foliation(fk(k), CurveGerm(P("x*y"))) == 3 * k - 2


class TestIntersection:
    def test_runs_no_local_engine_code(self, monkeypatch):
        # The resultant route shares no code with the standard bases: with
        # both eliminations disabled, the mu oracle and a polar still run.
        def disabled(*args, **kwargs):
            raise AssertionError("the resultant route reached an elimination")

        for module, name in ((localalg, "_echelon"), (localalg, "sparse_int_echelon"),
                             (linalg, "sparse_int_echelon")):
            monkeypatch.setattr(module, name, disabled)
        assert intersection_at_origin(fk(4).P, fk(4).Q) == 4 * 7
        assert intersection_at_origin(cusp().P, cusp().Q) == 2
        # the probe (1, 1) shares the branch x - y with the zero divisor
        cert = generic_polar(radial(), against=[RADIAL_B.zero, RADIAL_B.pole])
        assert (cert.probe, cert.intersections) == ((1, 2), (3, 1))

    def test_examples(self):
        assert intersection_multiplicity(P("x"), P("y")) == 1
        assert intersection_multiplicity(P("x*y*(x-y)"), P("x+y")) == 3
        # y = x^2 turns y^2 - x^3 into x^3*(x - 1); the unit factor drops out.
        assert intersection_multiplicity(P("y^2 - x^3"), P("y - x^2")) == 3

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError, match="coprime"):
            intersection_multiplicity(P("x*y"), P("x"))

    def test_rejects_units(self):
        with pytest.raises(ValueError, match="origin"):
            intersection_multiplicity(P("x"), P("1 + y"))

    def test_common_factor_off_the_origin_is_a_unit(self):
        assert intersection_multiplicity(P("x*(1 + y)"), P("y*(1 + y)")) == 1

    def test_additive_in_products(self):
        rng = random.Random(43)
        done = 0
        while done < 8:
            f = random_nonzero_poly(rng, max_degree=3, min_order=1)
            g = random_nonzero_poly(rng, max_degree=3, min_order=1)
            h = random_nonzero_poly(rng, max_degree=2, min_order=1)
            try:
                total = intersection_multiplicity(f, g * h)
                parts = intersection_multiplicity(f, g) + intersection_multiplicity(
                    f, h
                )
            except ValueError:
                continue
            assert total == parts
            done += 1

    def test_transverse_pairs_multiply_orders(self):
        rng = random.Random(47)
        done = 0
        while done < 8:
            f = random_nonzero_poly(rng, max_degree=3, min_order=1)
            g = random_nonzero_poly(rng, max_degree=3, min_order=1)
            try:
                from folgerm.polynomials import poly_gcd

                if poly_gcd(f.lowest_form(), g.lowest_form()).total_degree() > 0:
                    continue
                value = intersection_multiplicity(f, g)
            except ValueError:
                continue
            assert value == f.order() * g.order()
            done += 1


def _direct_score(germ, probe, against):
    """(ord, i(polar, c) for c in against) of one probe; None if scored out."""
    a, b = probe
    polar = germ.P * a + germ.Q * b
    try:
        return (polar.order(),) + tuple(
            intersection_multiplicity(polar, c.poly) for c in against
        )
    except NonIsolatedSingularityError:
        return None


@st.composite
def _small_polys(draw, min_order, max_degree, max_terms):
    exponents = st.tuples(st.integers(0, max_degree), st.integers(0, max_degree))
    terms = draw(st.dictionaries(
        exponents.filter(lambda m: min_order <= sum(m) <= max_degree),
        st.integers(-5, 5).filter(bool),
        min_size=1,
        max_size=max_terms,
    ))
    return Poly(2, {m: Fraction(c) for m, c in terms.items()})


@st.composite
def _polar_cases(draw):
    """A germ and curves, often with one probe planted to be special.

    The planted probe (a, b) makes a*P + b*Q a multiple of a factor of a
    curve: a branch through the origin, or a unit factor 1 + y that a global
    gcd would also see.
    """
    branch = draw(_small_polys(1, 2, 3))
    unit = draw(st.sampled_from([P("1"), P("1 + y")]))
    curves = [CurveGerm(branch * unit)]
    if draw(st.booleans()):
        curves.append(CurveGerm(draw(_small_polys(1, 2, 2))))
    Q = draw(_small_polys(1, 3, 4))
    if draw(st.booleans()):
        a, b = draw(st.sampled_from(probe_pencil(6)))
        shared = draw(st.sampled_from([branch, unit]))
        planted = shared * draw(_small_polys(1, 2, 3))
        first = (planted - Q * b) * Fraction(1, a)
    else:
        first = draw(_small_polys(1, 3, 4))
    assume(not first.is_zero)
    try:
        germ = FoliationGerm(first, Q)
    except ValueError:
        assume(False)
    return germ, curves


class TestGenericPolar:
    def test_radial_table(self):
        against = [RADIAL_B.zero, RADIAL_B.pole]
        cert = generic_polar(radial(), against=against)
        assert cert.polar.order == 1
        # K = 3 + 1 + 3 probes.  Probe (1, 1) gives the polar x - y, a branch
        # of x*y*(x-y): scored out.
        scores = [_direct_score(radial(), probe, against) for probe in probe_pencil(7)]
        assert scores == [None] + [(1, 3, 1)] * 6
        assert cert.probe == (1, 2)
        assert cert.intersections == (3, 1)

    def test_cusp_polar(self):
        cert = generic_polar(cusp(), against=[CUSP_B.zero])
        # -3a x^2 + 2b y: smooth, meets the cusp with multiplicity 3.
        assert cert.polar.order == 1
        for probe in probe_pencil(5):
            assert _direct_score(cusp(), probe, [CUSP_B.zero]) == (1, 3)

    def test_certificate_intersections_match_direct_calls(self):
        # seeded corpus: df against f and a random curve through the origin
        rng = random.Random(61)
        done = 0
        while done < 12:
            f = random_nonzero_poly(rng, max_degree=4, max_terms=4, min_order=2)
            g = random_nonzero_poly(rng, max_degree=3, max_terms=3, min_order=1)
            try:
                germ = FoliationGerm(f.diff(0), f.diff(1))
                against = [CurveGerm(f), CurveGerm(g)]
                cert = generic_polar(germ, against=against)
            except ValueError:
                continue
            direct = tuple(
                intersection_multiplicity(cert.polar.poly, c.poly) for c in against
            )
            assert cert.intersections == direct
            assert _direct_score(germ, cert.probe, against)[1:] == direct
            done += 1

    def test_degenerate_probe_is_scored_out(self):
        # P + Q shares the line x - y with the zero divisor for probe (1, 1).
        f = FoliationGerm(P("-y"), P("x"))
        cert = generic_polar(f, against=[CurveGerm(P("x - y"))])
        assert cert.probe == (1, 2)

    def test_seven_parabolas_give_a_generalized_curve(self):
        # Each of the first seven probes is tangent to one parabola
        # y = t*x + x^2, so all seven are special; two of them tie.
        f = P("1")
        for t in ("1", "2", "1/2", "3", "1/3", "3/2", "2/3"):
            f = f * P(f"y - {t}*x - x^2")
        germ = FoliationGerm(f.diff(0), f.diff(1))
        inv = divisor_invariants(germ, BalancedEquation(CurveGerm(f)))
        assert inv.polar.probe == (1, 4)
        assert inv.delta == 0

    def test_seven_probe_lines(self):
        # Every polar b*x - a*y of the first seven probes is a branch.
        lines = CurveGerm(P("(x-y)*(2*x-y)*(x-2*y)*(3*x-y)*(x-3*y)*(3*x-2*y)*(2*x-3*y)"))
        cert = generic_polar(radial(), against=[lines])
        assert cert.probe == (1, 4)
        assert cert.intersections == (7,)

    def test_regular_germ_has_no_polar(self):
        f = FoliationGerm(Poly.zero(2), P("1"))
        with pytest.raises(ValueError, match="regular"):
            generic_polar(f, against=[CurveGerm(P("y"))])

    def test_non_isolated_germ_rejected(self):
        f = FoliationGerm(Poly.zero(2), P("x"))
        with pytest.raises(NonIsolatedSingularityError):
            generic_polar(f, against=[CurveGerm(P("x"))])

    def test_one_probe_is_an_engine_inconsistency(self, monkeypatch):
        # The count guarantees two probes at the lowest score; one probe
        # cannot show it, and the check raises under python -O as well.
        monkeypatch.setattr(germs, "probe_pencil", lambda count: ((1, 1),))
        with pytest.raises(EngineInconsistencyError, match="fewer than two"):
            generic_polar(cusp(), against=[CUSP_B.zero])

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(_polar_cases())
    def test_generic_score_is_the_pencil_minimum(self, case):
        germ, against = case
        cert = generic_polar(germ, against=against)
        count = sum(c.order for c in against) + 3
        scores = [_direct_score(germ, probe, against) for probe in probe_pencil(count + 6)]
        best = min(score for score in scores if score is not None)
        assert (cert.polar.order,) + cert.intersections == best
        assert scores[:count].count(best) >= 2
        assert cert.probe == probe_pencil(count)[scores.index(best)]


class TestExcessAndTangency:
    def test_polar_excess_vanishes_on_generalized_curves(self):
        assert divisor_invariants(radial(), RADIAL_B).delta == 0
        assert divisor_invariants(cusp(), CUSP_B).delta == 0

    def test_linear_log_example(self):
        # x dy - lambda*y dx with lambda outside the positive rationals.
        f = FoliationGerm(P("3*y"), P("x"))
        b = BalancedEquation(CurveGerm(P("x*y")))
        assert divisor_invariants(f, b).delta == 0
        assert tangency_excess(f, b) == 0

    def test_tangency_excess(self):
        assert tangency_excess(radial(), RADIAL_B) == 0
        assert tangency_excess(cusp(), CUSP_B) == 0
        assert tangency_excess(fk(5), BalancedEquation(CurveGerm(P("x*y")))) == 4
        for k in range(3, 8):
            b = BalancedEquation(CurveGerm(P("x*y")))
            assert tangency_excess(fk(k), b) == k - 1

    def test_second_type_flags(self):
        assert is_second_type(radial(), RADIAL_B)
        assert is_second_type(cusp(), CUSP_B)
        assert not is_second_type(fk(5), BalancedEquation(CurveGerm(P("x*y"))))

    def test_invariance_failures_rejected(self):
        with pytest.raises(InvalidBalancedEquationError, match="invariant"):
            tangency_excess(cusp(), BalancedEquation(CurveGerm(P("y - x^2"))))
        with pytest.raises(InvalidBalancedEquationError, match="squarefree"):
            validate_balanced(radial(), BalancedEquation(CurveGerm(P("x^2*y"))))
        with pytest.raises(InvalidBalancedEquationError, match="share"):
            validate_balanced(
                radial(),
                BalancedEquation(CurveGerm(P("x*y")), CurveGerm(P("x"))),
            )

    def test_polar_intersection_balance_on_second_type(self):
        # i(polar, zero) = i(polar, pole) + mu + nu on second-type germs.
        for f, b in [(radial(), RADIAL_B), (cusp(), CUSP_B)]:
            against = [b.zero] + ([b.pole] if b.pole else [])
            polar = generic_polar(f, against=against).polar
            left = intersection_multiplicity(polar.poly, b.zero.poly)
            right = milnor_foliation(f) + multiplicity(f)
            if b.pole is not None:
                right += intersection_multiplicity(polar.poly, b.pole.poly)
            assert left == right


class TestGsvAndSemihomogeneous:
    def test_gsv_examples(self):
        assert gsv_index(radial(), RADIAL_B.zero) == 1 - 4 == -3
        assert gsv_index(cusp(), CUSP_B.zero) == 0

    def test_gsv_vanishes_for_hamiltonian(self):
        rng = random.Random(53)
        done = 0
        while done < 6:
            f = random_nonzero_poly(rng, max_degree=4, min_order=2)
            try:
                fol = FoliationGerm(f.diff(0), f.diff(1))
                if not is_squarefree_safe(f):
                    continue
                value = gsv_index(fol, CurveGerm(f))
            except (ValueError, NonIsolatedSingularityError):
                continue
            assert value == 0
            done += 1

    def test_semihomogeneous(self):
        assert is_semihomogeneous(CurveGerm(P("x*y*(x-y)")))
        assert not is_semihomogeneous(CurveGerm(P("y^2 - x^3")))
        assert not is_semihomogeneous(CurveGerm(P("x^2*y + y^4")))

    def test_multiplicity_bound_for_curves(self):
        rng = random.Random(59)
        done = 0
        while done < 10:
            f = random_nonzero_poly(rng, max_degree=4, min_order=2)
            try:
                c = CurveGerm(f)
                mu = milnor_curve(c)
            except (ValueError, NonIsolatedSingularityError):
                continue
            assert (c.order - 1) ** 2 <= mu
            if is_semihomogeneous(c):
                assert mu == (c.order - 1) ** 2
            done += 1


def is_squarefree_safe(f):
    from folgerm.polynomials import is_squarefree

    try:
        return is_squarefree(f)
    except ValueError:
        return False
