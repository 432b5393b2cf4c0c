import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import random_nonzero_poly
from folgerm import theorems
from folgerm.germs import BalancedEquation, CurveGerm, FoliationGerm, milnor_quotient
from folgerm.linalg import bareiss_rank, kernel_basis
from folgerm.localalg import EngineInconsistencyError, StandardBasis, mult_operator
from folgerm.polynomials import Poly, is_squarefree, parse_poly
from folgerm.theorems import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    check_briancon_skoda,
    check_cota,
    check_liu,
    check_second_type,
)


def P(text):
    return parse_poly(text, 2)


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
FK_B = BalancedEquation(CurveGerm(P("x*y")))


def hamiltonian_corpus(seed, count, tries=400):
    rng = random.Random(seed)
    out = []
    for _ in range(tries):
        f = random_nonzero_poly(rng, max_degree=4, max_terms=5, min_order=2)
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


class TestBrianconSkoda:
    def test_radial(self):
        report = check_briancon_skoda(radial(), RADIAL_B)
        assert report.verdict == PASS
        assert report.data["member_normal_form"]
        assert report.data["member_operator_square"]
        assert report.data["member_image_in_kernel"]
        assert report.data["second_type"]
        assert report.notes == []

    def test_cusp(self):
        report = check_briancon_skoda(cusp(), CUSP_B)
        assert report.verdict == PASS
        assert report.data["mu"] == 2

    def test_fk5_membership_fails(self):
        report = check_briancon_skoda(fk(5), FK_B)
        assert report.verdict == FAIL
        assert not report.data["member_normal_form"]
        assert not report.data["second_type"]
        assert any("not of second type" in n for n in report.notes)

    def test_hamiltonian_corpus(self):
        for germ, b in hamiltonian_corpus(2203, 10):
            report = check_briancon_skoda(germ, b)
            assert report.verdict == PASS, str(b.zero)


    def test_disagreeing_routes_raise(self, monkeypatch):
        monkeypatch.setattr(
            StandardBasis, "normal_form", lambda self, p: Poly.constant(2, 1)
        )
        with pytest.raises(EngineInconsistencyError, match="routes disagree"):
            check_briancon_skoda(radial(), RADIAL_B)

    def test_disagreeing_routes_raise_under_optimize(self):
        script = (
            "import sys\n"
            "from folgerm import theorems\n"
            "from folgerm.germs import BalancedEquation, CurveGerm, FoliationGerm\n"
            "from folgerm.localalg import EngineInconsistencyError, StandardBasis\n"
            "from folgerm.polynomials import Poly, parse_poly\n"
            "P = lambda text: parse_poly(text, 2)\n"
            "StandardBasis.normal_form = lambda self, p: Poly.constant(2, 1)\n"
            "try:\n"
            "    theorems.check_briancon_skoda(FoliationGerm(P('-y'), P('x')),\n"
            "        BalancedEquation(CurveGerm(P('x*y*(x-y)'))))\n"
            "except EngineInconsistencyError:\n"
            "    print('raised', sys.flags.optimize)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, timeout=60,
            env={"PYTHONPATH": str(src)},
        )
        assert done.stdout == "raised 1\n", done.stderr


def kernel_and_rank(germ, curve):
    """(dim ker sigma, rank sigma) for multiplication by the curve on O/(P, Q)."""
    sigma = mult_operator(milnor_quotient(germ), curve.poly)
    kernel = kernel_basis(sigma.rows, ncols=sigma.dimension)
    return len(kernel), bareiss_rank(sigma.columns)


class TestKernelIdentity:
    """dim ker sigma = tau and rank sigma = mu - tau; check_liu raises otherwise."""

    def test_radial(self):
        report = check_liu(radial(), RADIAL_B)
        assert (report.data["mu"], report.data["tau"]) == (1, 1)
        assert kernel_and_rank(radial(), RADIAL_B.zero) == (1, 0)

    def test_fk5(self):
        report = check_liu(fk(5), FK_B)
        assert (report.data["mu"], report.data["tau"]) == (45, 13)
        assert kernel_and_rank(fk(5), FK_B.zero) == (13, 32)

    def test_hamiltonian_corpus(self):
        for germ, b in hamiltonian_corpus(404, 8):
            report = check_liu(germ, b)
            assert report.verdict == PASS, str(b.zero)
            mu, tau = report.data["mu"], report.data["tau"]
            assert kernel_and_rank(germ, b.zero) == (tau, mu - tau), str(b.zero)

    def test_kernel_not_tau_raises(self, monkeypatch):
        monkeypatch.setattr(theorems, "tjurina_foliation", lambda f, c: 2)
        with pytest.raises(EngineInconsistencyError, match="kernel of sigma"):
            check_liu(radial(), RADIAL_B)


class TestLiu:
    def test_radial(self):
        report = check_liu(radial(), RADIAL_B)
        assert report.verdict == PASS
        assert report.data["sandwich"]
        assert not report.data["mu_equals_2tau"]
        assert not report.data["kernel_equals_image"]

    def test_cusp(self):
        report = check_liu(cusp(), CUSP_B)
        assert report.verdict == PASS
        assert report.data["mu"] == 2
        assert report.data["tau"] == 2

    def test_fk5_not_applicable(self):
        report = check_liu(fk(5), FK_B)
        assert report.verdict == NOT_APPLICABLE
        assert report.data["xi"] == 4
        # The sandwich itself is violated here: mu = 45 > 2*tau = 26.
        assert report.data["mu"] > 2 * report.data["tau"]

    def test_hamiltonian_corpus(self):
        for germ, b in hamiltonian_corpus(871, 8):
            report = check_liu(germ, b)
            assert report.verdict == PASS, str(b.zero)
            assert report.data["second_type"]


class TestCota:
    def test_radial_attains_equality(self):
        report = check_cota(radial(), RADIAL_B)
        assert report.verdict == PASS
        assert report.data["lhs"] == 1
        assert report.data["mu"] == 1
        assert report.data["generalized_curve"]
        assert report.data["semihomogeneous"]
        assert report.data["equality_expected"]

    def test_cusp_strict(self):
        report = check_cota(cusp(), CUSP_B)
        assert report.verdict == PASS
        assert report.data["lhs"] == 1
        assert report.data["mu"] == 2
        assert report.data["generalized_curve"]
        assert not report.data["semihomogeneous"]
        assert "equality_expected" not in report.data
        assert report.data["nu_squared"] == 1

    def test_polar_gcd_with_rational_content(self):
        start = time.perf_counter()
        f = P("-5/3*x^4*y + 3*x*y^4 - 9/2*y^3 + 5/2*y^2")
        report = check_cota(
            FoliationGerm(f.diff(0), f.diff(1)), BalancedEquation(CurveGerm(f))
        )
        assert report.verdict == PASS
        assert time.perf_counter() - start < 2.0

    def test_fk5_not_applicable(self):
        report = check_cota(fk(5), FK_B)
        assert report.verdict == NOT_APPLICABLE


class TestSecondType:
    def test_cusp_both_routes(self):
        report = check_second_type(cusp(), CUSP_B)
        assert report.verdict == PASS
        assert report.data["xi"] == 0
        assert report.data["criterion"]
        assert report.data["reduction"]
        assert report.data["blowups"] == 3
        assert report.data["tangent_saddle_nodes"] == 0

    def test_fk5_criterion(self):
        report = check_second_type(fk(5), FK_B)
        assert report.verdict == FAIL
        assert report.data["xi"] == 4
        assert report.data["criterion"] is False
        assert report.data["reduction"] is False
        assert report.notes == []

    def test_tangent_saddle_node_germ(self):
        germ = FoliationGerm(P("-x - y"), P("x"))
        b = BalancedEquation(CurveGerm(P("x")))
        report = check_second_type(germ, b)
        assert report.verdict == FAIL
        assert report.data["xi"] == 1
        assert not report.data["reduction"]
        assert report.data["tangent_saddle_nodes"] == 1

    def test_irrational_degrades_to_criterion(self):
        germ = FoliationGerm(P("y^2 - 4*x^2"), P("x*y"))
        b = BalancedEquation(CurveGerm(P("x")))
        report = check_second_type(germ, b)
        assert report.verdict == FAIL
        assert report.data["xi"] == 2
        assert "reduction" not in report.data
        assert any("falling back" in n for n in report.notes)

    def test_stopped_reduction_degrades_to_criterion(self):
        report = check_second_type(cusp(), CUSP_B, max_blowups=0)
        assert report.verdict == PASS
        assert "reduction" not in report.data
        assert report.notes == [
            "reduction stopped: not reduced after 0 blow-ups; "
            "falling back to the multiplicity criterion"
        ]

    def test_hamiltonian_corpus_is_second_type(self):
        for germ, b in hamiltonian_corpus(99, 6):
            report = check_second_type(germ, b)
            assert report.verdict == PASS, str(b.zero)
