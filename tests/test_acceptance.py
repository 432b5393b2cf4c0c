"""Acceptance suite: the headline results, one criterion per test.

Each test prints a single ``acceptance N (...): pass`` line outside the
capture so the run log shows the scoreboard; a failing criterion prints
FAIL and the assertion details follow in the usual pytest report.  Time
limits are asserted with generous margins over the measured baselines.
"""

import contextlib
import random
import time
from fractions import Fraction

from conftest import is_second_type, random_nonzero_poly
from folgerm.blowup import reduce_germ
from folgerm.germs import (
    BalancedEquation,
    CurveGerm,
    FoliationGerm,
    generic_polar,
    intersection_multiplicity,
    is_semihomogeneous,
    milnor_curve,
    milnor_foliation,
    multiplicity,
    tjurina_foliation,
)
from folgerm.linalg import bareiss_rank
from folgerm.localalg import (
    mult_operator,
    stabilized_macaulay_dim,
    standard_basis,
)
from folgerm.polynomials import is_squarefree, parse_poly
from folgerm.projective import (
    ProjectivePoint,
    check_global_bound,
    milnor_sum_certificate,
    validate_form,
)
from folgerm.theorems import (
    PASS,
    check_briancon_skoda,
    check_cota,
    check_liu,
    check_second_type,
)


def P(text):
    return parse_poly(text, 2)


def H(text, params=None):
    return parse_poly(text, 3, params)


def radial():
    return FoliationGerm(P("-y"), P("x"))


def radial_divisor():
    return BalancedEquation(CurveGerm(P("x*y*(x-y)")), CurveGerm(P("x+y")))


def cusp():
    return FoliationGerm(P("-3*x^2"), P("2*y"))


def cusp_divisor():
    return BalancedEquation(CurveGerm(P("y^2-x^3")))


def fk(k, lam=1):
    params = {"lambda": Fraction(lam)}
    p = parse_poly(
        f"y*(2*x^{2 * k - 2}+2*(lambda+1)*x^2*y^{k - 2}-y^{k - 1})", 2, params
    )
    q = parse_poly(
        f"x*(y^{k - 1}-(lambda+1)*x^2*y^{k - 2}-x^{2 * k - 2})", 2, params
    )
    return FoliationGerm(p, q)


def hamiltonian_corpus(seed, count, tries=500):
    rng = random.Random(seed)
    out = []
    for _ in range(tries):
        f = random_nonzero_poly(rng, max_degree=5, max_terms=5, min_order=2)
        if not is_squarefree(f):
            continue
        try:
            germ = FoliationGerm(f.diff(0), f.diff(1))
            curve = CurveGerm(f)
        except ValueError:
            continue
        out.append((germ, BalancedEquation(curve)))
        if len(out) == count:
            break
    assert len(out) == count
    return out


@contextlib.contextmanager
def criterion(capsys, number, title):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"acceptance {number} ({title}): FAIL")
        raise
    with capsys.disabled():
        print(f"acceptance {number} ({title}): pass")


def test_criterion_1_radial_worked_example(capsys):
    with criterion(capsys, 1, "radial worked example"):
        start = time.perf_counter()
        f, b = radial(), radial_divisor()
        assert b.zero.order == 3
        assert b.pole.order == 1
        assert multiplicity(f) == 1
        assert milnor_foliation(f) == 1
        assert tjurina_foliation(f, b.zero) == 1
        cert = generic_polar(f, against=[b.zero, b.pole])
        assert intersection_multiplicity(cert.polar.poly, b.pole.poly) == 1
        assert intersection_multiplicity(b.zero.poly, b.pole.poly) == 3
        cota = check_cota(f, b)
        assert cota.verdict == PASS
        assert cota.data["lhs"] == cota.data["mu"] == 1
        assert cota.data["equality_expected"] is True
        second = check_second_type(f, b)
        assert second.verdict == PASS
        assert second.data["criterion"] is True
        assert second.data["reduction"] is True
        assert time.perf_counter() - start < 1.0


def test_criterion_2_briancon_skoda_failure(capsys):
    with criterion(capsys, 2, "squared divisor escapes the ideal for k = 5"):
        start = time.perf_counter()
        f = fk(5)
        b = BalancedEquation(CurveGerm(P("x*y")))
        assert multiplicity(f) == 5
        sb = standard_basis([f.P, f.Q])
        square = P("x*y") * P("x*y")
        assert not sb.normal_form(square).is_zero
        report = check_briancon_skoda(f, b)
        assert report.verdict == "fail"
        assert report.data["member_normal_form"] is False
        assert not is_second_type(f, b)
        assert time.perf_counter() - start < 10.0


def test_criterion_3_fk_family_tjurina(capsys):
    with criterion(capsys, 3, "tau = 3k-2 and nu^2 <= 2*tau iff k <= 5"):
        start = time.perf_counter()
        curve = CurveGerm(P("x*y"))
        for k in range(3, 8):
            f = fk(k)
            tau = tjurina_foliation(f, curve)
            assert tau == 3 * k - 2
            nu = multiplicity(f)
            assert nu == k
            assert (nu * nu <= 2 * tau) == (k <= 5)
        assert time.perf_counter() - start < 60.0


def test_criterion_4_global_bound(capsys):
    with criterion(capsys, 4, "projective bound for the coordinate triangle"):
        start = time.perf_counter()
        lam = Fraction(2)
        form = validate_form(
            H("y*z"),
            H("lam*x*z", {"lam": lam}),
            H("-(lam+1)*x*y", {"lam": lam}),
        )
        assert form.degree == 1
        points = [
            ProjectivePoint.of(1, 0, 0),
            ProjectivePoint.of(0, 1, 0),
            ProjectivePoint.of(0, 0, 1),
        ]
        cert = milnor_sum_certificate(form, points)
        assert cert.total == cert.expected == 3
        report = check_global_bound(form, H("x*y*z"), points)
        assert report.verdict == PASS
        assert report.data["tau_sum"] == 3
        assert report.data["lower_bound"] == 2
        assert report.data["gsv_sum"] == 0
        assert report.data["gsv_closed_form"] == 0
        assert time.perf_counter() - start < 5.0


def test_criterion_5_standard_basis_vs_series_oracle(capsys):
    with criterion(capsys, 5, "quotient dimensions match the series oracle"):
        rng = random.Random(20260823)
        checked = 0
        for _ in range(400):
            p = random_nonzero_poly(rng, max_degree=5, min_order=1)
            q = random_nonzero_poly(rng, max_degree=5, min_order=1)
            sb = standard_basis([p, q])
            dim = sb.quotient_dim()
            if dim is None:
                continue
            assert stabilized_macaulay_dim([p, q]) == dim
            checked += 1
            if checked == 25:
                break
        assert checked == 25


def test_criterion_6_operator_form(capsys):
    with criterion(capsys, 6, "multiplication operator squares to zero"):
        for germ, divisor in hamiltonian_corpus(1117, 10):
            sb = standard_basis([germ.P, germ.Q])
            mu = sb.quotient_dim()
            assert mu is not None
            op = mult_operator(sb, divisor.zero.poly)
            assert op.compose(op).is_zero()
            tau = tjurina_foliation(germ, divisor.zero)
            rank = bareiss_rank(op.columns)
            assert op.dimension - rank == tau
            assert rank == mu - tau


def test_criterion_7_cusp_reduction(capsys):
    with criterion(capsys, 7, "cusp reduces in three nondegenerate blow-ups"):
        f, b = cusp(), cusp_divisor()
        result = reduce_germ(f)
        assert result.blowups == 3
        assert all(s.kind == "nondegenerate" for s in result.singularities)
        assert result.second_type
        assert result.generalized_curve
        report = check_second_type(f, b)
        assert report.verdict == PASS
        assert report.data["criterion"] is True
        assert report.data["reduction"] is True


def test_criterion_8_semihomogeneous_equality(capsys):
    with criterion(capsys, 8, "(nu - 1)^2 bounds the curve Milnor number"):
        triple = CurveGerm(P("x*y*(x-y)"))
        assert milnor_curve(triple) == 4 == (triple.order - 1) ** 2
        assert is_semihomogeneous(triple)
        rng = random.Random(4049)
        checked = 0
        for _ in range(600):
            poly = random_nonzero_poly(rng, max_degree=5, min_order=2)
            if not is_squarefree(poly):
                continue
            curve = CurveGerm(poly)
            if is_semihomogeneous(curve):
                continue
            try:
                mu = milnor_curve(curve)
            except ValueError:
                continue
            assert (curve.order - 1) ** 2 <= mu
            checked += 1
            if checked == 10:
                break
        assert checked == 10


def test_criterion_9_liu_sandwich(capsys):
    with criterion(capsys, 9, "tau <= mu <= 2*tau on the second-type corpus"):
        corpus = [(radial(), radial_divisor()), (cusp(), cusp_divisor())]
        corpus.extend(hamiltonian_corpus(1117, 10))
        for germ, divisor in corpus:
            report = check_liu(germ, divisor)
            assert report.verdict == PASS
            mu = milnor_foliation(germ)
            tau = tjurina_foliation(germ, divisor.zero)
            assert tau <= mu <= 2 * tau
