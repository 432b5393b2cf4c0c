import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import is_second_type, random_nonzero_poly
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
from folgerm.localalg import EngineInconsistencyError
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
        assert intersection_at_origin(f.P, f.Q) == 45

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


def _tangent_cone_special(germ, probe, against):
    """Whether the tangent-cone rule calls the probe special."""
    a, b = probe
    P, Q = germ.P, germ.Q
    if P.order() == Q.order() and (P.lowest_form() * a + Q.lowest_form() * b).is_zero:
        return True
    return any(c.poly.lowest_form().evaluate((a, b)) == 0 for c in against)


@st.composite
def _polar_cases(draw):
    """A logarithmic form and its zero and pole curves, often with planted probes.

    The form is sum_i lambda_i (prod_{j != i} f_j) df_i, so every f_i is
    invariant.  A planted curve is the line b*x - a*y or the parabola
    b*x - a*y + x^2 of a probe (a, b) of ``probe_pencil(6)``: tangent to it.
    """
    curves = []
    for _ in range(draw(st.integers(2, 3))):
        if draw(st.booleans()):
            a, b = draw(st.sampled_from(probe_pencil(6)))
            curve = P(f"{b}*x - {a}*y") + draw(st.sampled_from([P("0"), P("x^2")]))
        else:
            curve = draw(_small_polys(1, 2, 3))
        curves.append(curve)
    lambdas = [draw(st.integers(-3, 3).filter(bool)) for _ in curves]
    components = []
    for var in (0, 1):
        total = Poly.zero(2)
        for i, (curve, lam) in enumerate(zip(curves, lambdas)):
            term = curve.diff(var) * lam
            for j, other in enumerate(curves):
                if j != i:
                    term = term * other
            total = total + term
        components.append(total)
    try:
        germ = FoliationGerm(*components)
        germs.require_isolated(germ)
    except ValueError:
        assume(False)
    pole = draw(st.lists(st.booleans(), min_size=len(curves), max_size=len(curves)))
    assume(not all(pole))
    zero, poles = P("1"), P("1")
    for curve, is_pole in zip(curves, pole):
        if is_pole:
            poles = poles * curve
        else:
            zero = zero * curve
    against = [CurveGerm(zero)] + ([CurveGerm(poles)] if any(pole) else [])
    return germ, against


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
        # seeded corpus: g*df + lambda*f*dg against its invariant curves f and g
        rng = random.Random(61)
        done = 0
        while done < 12:
            f = random_nonzero_poly(rng, max_degree=4, max_terms=4, min_order=1)
            g = random_nonzero_poly(rng, max_degree=3, max_terms=3, min_order=1)
            lam = rng.choice([-3, -2, -1, 1, 2, 3])
            try:
                germ = FoliationGerm(g * f.diff(0) + f * g.diff(0) * lam,
                                     g * f.diff(1) + f * g.diff(1) * lam)
                germs.require_isolated(germ)
            except ValueError:
                continue
            against = [CurveGerm(f), CurveGerm(g)]
            cert = generic_polar(germ, against=against)
            direct = tuple(
                intersection_multiplicity(cert.polar.poly, c.poly) for c in against
            )
            assert cert.intersections == direct
            assert _direct_score(germ, cert.probe, against)[1:] == direct
            done += 1

    def test_degenerate_probe_is_scored_out(self):
        # P + Q shares the line x - y with the zero divisor for probe (1, 1),
        # a tangent direction of x - y: special, so never scored.
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
        b = BalancedEquation(CurveGerm(f))
        inv = divisor_invariants(germ, b, milnor_foliation(germ))
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

    def test_non_invariant_curve_rejected(self):
        # y - x^2 is not a leaf of the cusp foliation: the lemma does not apply.
        with pytest.raises(InvalidBalancedEquationError, match="not invariant"):
            generic_polar(cusp(), against=[CurveGerm(P("y - x^2"))])

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

    def test_unequal_generic_scores_are_an_engine_inconsistency(self, monkeypatch):
        values = iter((3, 4))
        monkeypatch.setattr(germs, "intersection_multiplicity", lambda f, g: next(values))
        with pytest.raises(EngineInconsistencyError, match=r"\(1, 1\) and \(1, 2\)"):
            generic_polar(cusp(), against=[CUSP_B.zero])

    def test_common_branch_at_a_generic_probe_is_an_engine_inconsistency(
        self, monkeypatch
    ):
        def infinite(f, g):
            raise NonIsolatedSingularityError("infinite")

        monkeypatch.setattr(germs, "intersection_multiplicity", infinite)
        with pytest.raises(EngineInconsistencyError, match=r"\(1, 1\) is not special"):
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
        for probe, score in zip(probe_pencil(count + 6), scores):
            assert (score == best) == (not _tangent_cone_special(germ, probe, against))


class TestExcessAndTangency:
    def test_polar_excess_vanishes_on_generalized_curves(self):
        assert divisor_invariants(radial(), RADIAL_B, milnor_foliation(radial())).delta == 0
        assert divisor_invariants(cusp(), CUSP_B, milnor_foliation(cusp())).delta == 0

    def test_linear_log_example(self):
        # x dy - lambda*y dx with lambda outside the positive rationals.
        f = FoliationGerm(P("3*y"), P("x"))
        b = BalancedEquation(CurveGerm(P("x*y")))
        assert divisor_invariants(f, b, milnor_foliation(f)).delta == 0
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
