"""Verdict-producing checks tying the local invariants together.

Every check returns a CheckReport carrying a verdict, the quantities it
computed, and any caveats.  Verdicts are "pass", "fail", or
"not-applicable"; the last one is used when a hypothesis of the statement
under test is not satisfied, in which case the numbers are still reported
but prove nothing.

The central object is the multiplication operator sigma on the finite
quotient by the two germ components: its kernel computes the Tjurina number
of an invariant curve, its square detects Briancon-Skoda style membership of
the squared curve equation, and comparing its kernel and image settles when
the Milnor number reaches twice the Tjurina number.
"""

from __future__ import annotations

from .blowup import (
    MAX_BLOWUPS_DEFAULT,
    BlowupLimitError,
    IrrationalSingularPointError,
    reduce_germ,
)
from .germs import (
    BalancedEquation,
    FoliationGerm,
    divisor_invariants,
    is_semihomogeneous,
    milnor_foliation,
    milnor_quotient,
    multiplicity,
    require_isolated,
    tangency_excess,
    tjurina_foliation,
)
from .linalg import bareiss_rank, column_space_equal, kernel_basis
from .localalg import EngineInconsistencyError, mult_operator
from .localalg import standard_basis  # noqa: F401  (bench/tests reads this binding)

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"


class CheckReport:
    __slots__ = ("name", "verdict", "data", "notes")

    def __init__(
        self,
        name: str,
        verdict: str,
        data: dict | None = None,
        notes: list[str] | None = None,
    ):
        self.name = name
        self.verdict = verdict
        self.data = {} if data is None else data
        self.notes = [] if notes is None else notes

    @property
    def failed(self) -> bool:
        return self.verdict == FAIL


def _verdict(ok: bool) -> str:
    return PASS if ok else FAIL


def check_briancon_skoda(f: FoliationGerm, b: BalancedEquation) -> CheckReport:
    """Does the squared zero divisor lie in the ideal of the germ components?

    The membership is decided three independent ways: a local normal form of
    the square, vanishing of the squared multiplication operator, and
    containment of the image of that operator in its kernel.  All three must
    agree; the verdict reflects the membership itself.  The second-type flag
    is reported because the statement is only guaranteed under it.
    """
    xi = tangency_excess(f, b)
    sb = milnor_quotient(f)
    mu = sb.quotient_dim()
    g = b.zero.poly
    member_nf = sb.normal_form(g * g).is_zero
    sigma = mult_operator(sb, g)
    member_op = sigma.compose(sigma).is_zero()
    kernel = kernel_basis(sigma.rows, ncols=sigma.dimension)
    member_sub = bareiss_rank(kernel + list(sigma.columns)) == len(kernel)
    if not member_nf == member_op == member_sub:
        raise EngineInconsistencyError(
            f"membership routes disagree: normal form {member_nf}, "
            f"operator square {member_op}, image in kernel {member_sub}"
        )
    second = xi == 0
    report = CheckReport(
        name="check-bs",
        verdict=_verdict(member_nf),
        data={
            "mu": mu,
            "zero_divisor": str(g),
            "member_normal_form": member_nf,
            "member_operator_square": member_op,
            "member_image_in_kernel": member_sub,
            "second_type": second,
        },
    )
    if not second:
        report.notes.append(
            "germ is not of second type; membership is not guaranteed"
        )
    return report


def check_liu(f: FoliationGerm, b: BalancedEquation) -> CheckReport:
    """Sandwich tau <= mu <= 2*tau, with mu = 2*tau iff kernel equals image.

    Both statements assume the germ is of second type; otherwise the check
    is not applicable and only reports the numbers.  The kernel of sigma
    has dimension dim O/(P, Q, g), which is tau; any other value is an
    engine inconsistency.
    """
    xi = tangency_excess(f, b)
    sb = milnor_quotient(f)
    mu = sb.quotient_dim()
    tau = tjurina_foliation(f, b.zero)
    data = {"mu": mu, "tau": tau, "xi": xi, "second_type": xi == 0}
    if xi != 0:
        return CheckReport(
            name="check-liu",
            verdict=NOT_APPLICABLE,
            data=data,
            notes=["germ is not of second type"],
        )
    sigma = mult_operator(sb, b.zero.poly)
    kernel = kernel_basis(sigma.rows, ncols=sigma.dimension)
    if len(kernel) != tau:
        raise EngineInconsistencyError(
            f"kernel of sigma has dimension {len(kernel)}, tau is {tau}"
        )
    kernel_is_image = column_space_equal(kernel, sigma.columns)
    sandwich = tau <= mu <= 2 * tau
    equality = (mu == 2 * tau) == kernel_is_image
    data["sandwich"] = sandwich
    data["mu_equals_2tau"] = mu == 2 * tau
    data["kernel_equals_image"] = kernel_is_image
    return CheckReport(
        name="check-liu",
        verdict=_verdict(sandwich and equality),
        data=data,
    )


def check_cota(f: FoliationGerm, b: BalancedEquation) -> CheckReport:
    """Lower bound from the balanced divisor: lhs <= mu <= 2*tau.

    The left side is (nu0 - 1)^2 + nu_inf - i(polar, pole) - i(zero, pole)
    where nu0, nu_inf are the orders of the zero and pole divisors.  Under
    second type the chain must hold; when the germ has no saddle-node in its
    reduction and the zero divisor is semihomogeneous the first inequality
    must be an equality.  With an empty pole the bound specialises to
    nu^2 <= mu and nu^2 <= 2*tau.
    """
    mu = milnor_foliation(f)
    inv = divisor_invariants(f, b, mu)
    tau, cert = inv.tau, inv.polar
    lhs = (b.zero.order - 1) ** 2 - inv.i_zero_pole
    if b.pole is not None:
        lhs += b.pole.order - cert.intersections[1]
    semi = is_semihomogeneous(b.zero)
    data = {
        "lhs": lhs,
        "mu": mu,
        "two_tau": 2 * tau,
        "tau": tau,
        "xi": inv.xi,
        "second_type": inv.xi == 0,
        "generalized_curve": inv.delta == 0,
        "semihomogeneous": semi,
        "polar_probe": cert.probe,
        "polar_certified": True,
    }
    if inv.xi != 0:
        return CheckReport(
            name="check-cota",
            verdict=NOT_APPLICABLE,
            data=data,
            notes=["germ is not of second type"],
        )
    ok = lhs <= mu <= 2 * tau
    if inv.delta == 0 and semi:
        data["equality_expected"] = True
        ok = ok and lhs == mu
    if b.pole is None:
        nu = multiplicity(f)
        data["nu_squared"] = nu * nu
        ok = ok and nu * nu <= mu and nu * nu <= 2 * tau
    return CheckReport(name="check-cota", verdict=_verdict(ok), data=data)


def check_second_type(
    f: FoliationGerm,
    b: BalancedEquation,
    max_blowups: int = MAX_BLOWUPS_DEFAULT,
) -> CheckReport:
    """Decide second type by the multiplicity criterion, then by reduction.

    The criterion computes the tangency excess of the balanced equation;
    the reduction looks for saddle-nodes whose weak separatrix sits inside
    the exceptional divisor.  When the two routes disagree the verdict is
    "fail".  When reduction aborts on a singular point without rational
    coordinates, or runs out of blow-ups, the verdict is the criterion's
    and a note says so.
    """
    require_isolated(f)
    xi = tangency_excess(f, b)
    second = xi == 0
    data: dict = {"xi": xi, "criterion": second}
    notes: list[str] = []
    fallback = "falling back to the multiplicity criterion"
    try:
        result = reduce_germ(f, max_blowups=max_blowups)
    except BlowupLimitError as err:
        notes.append(f"reduction stopped: {err}; {fallback}")
    except IrrationalSingularPointError as err:
        notes.append(
            "reduction aborted on a singular point without rational "
            f"coordinates (residual {err.residual}); {fallback}"
        )
    else:
        data["blowups"] = result.blowups
        data["tangent_saddle_nodes"] = sum(
            1 for s in result.singularities if s.weak_along_divisor
        )
        data["reduction"] = result.second_type
        if result.second_type != second:
            notes.append("criterion and reduction disagree")
            second = False
    return CheckReport("check-second-type", _verdict(second), data, notes)
