"""
Reducing the cusp by blow-ups
=============================

The form -3x^2 dx + 2y dy has y^2 - x^3 as its only separatrix.  Three
quadratic transforms untangle it: after the third blow-up every
singular point on the exceptional divisor is simple and nondegenerate.
The reduction tree certifies two qualitative facts at once -- the germ
is a generalized curve (no saddle-nodes anywhere) and of second type
(no saddle-node weak separatrix inside the divisor) -- and both agree
with the purely numerical route through the tangency excess.
"""

from folgerm import (
    BalancedEquation,
    CurveGerm,
    FoliationGerm,
    check_second_type,
    dicritical_report,
    parse_poly,
    reduce_germ,
)


def P(text):
    return parse_poly(text, 2)


germ = FoliationGerm(P("-3*x^2"), P("2*y"))
result = reduce_germ(germ)

print("blow-ups performed:", result.blowups)
print("exceptional components:")
for comp in result.components:
    kind = "dicritical" if comp.dicritical else "invariant"
    print(
        "    E%d: %s, valence %d, epsilon %d"
        % (comp.index, kind, result.valence(comp.index), comp.epsilon)
    )

print("final singular points:")
for sing in result.singularities:
    where = "+".join("E%d" % i for i in sing.components)
    ratio = "" if sing.ratio is None else "  (ratio %s)" % sing.ratio
    print("    on %-6s %s%s" % (where, sing.kind, ratio))

print("\nsaddle-nodes present:      ", not result.generalized_curve)
print("weak separatrix in divisor:", not result.second_type)
print("generalized curve:         ", result.generalized_curve)
print("second type:               ", result.second_type)
print("dicritical budgets:        ", dicritical_report(result))

# --- cross-check against the multiplicity criterion --------------------
divisor = BalancedEquation(CurveGerm(P("y^2-x^3")))
report = check_second_type(germ, divisor)
print("\n[check-second-type] verdict:", report.verdict)
for key, value in report.data.items():
    print("    %-22s %s" % (key, value))
