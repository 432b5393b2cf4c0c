"""
A one-parameter family that crosses the inequality threshold
============================================================

For each k >= 3 the 1-form

    P = y*(2x^(2k-2) + 2(c+1)x^2 y^(k-2) - y^(k-1))
    Q = x*(y^(k-1) - (c+1)x^2 y^(k-2) - x^(2k-2))

leaves both axes invariant and has multiplicity k at the origin, while
its Tjurina number along x*y grows only linearly: tau = 3k - 2.  The
quadratic-vs-linear race means nu^2 <= 2*tau holds exactly up to k = 5.
At k = 5 something else snaps as well: the square of x*y falls out of
the ideal (P, Q), so the Briancon-Skoda style membership fails -- these
germs are not of second type, which is precisely the escape hatch.
"""

from fractions import Fraction

from folgerm import (
    BalancedEquation,
    CurveGerm,
    FoliationGerm,
    check_briancon_skoda,
    multiplicity,
    parse_poly,
    standard_basis,
    tjurina_foliation,
)


def member(k, c=Fraction(1)):
    params = {"c": c}
    p = parse_poly(f"y*(2*x^{2*k-2}+2*(c+1)*x^2*y^{k-2}-y^{k-1})", 2, params)
    q = parse_poly(f"x*(y^{k-1}-(c+1)*x^2*y^{k-2}-x^{2*k-2})", 2, params)
    return FoliationGerm(p, q)


xy = CurveGerm(parse_poly("x*y", 2))

print("k   nu   tau=3k-2   nu^2   2*tau   nu^2 <= 2*tau")
print("-" * 50)
for k in range(3, 8):
    f = member(k)
    nu = multiplicity(f)
    tau = tjurina_foliation(f, xy)
    verdict = "yes" if nu * nu <= 2 * tau else "NO"
    print("%d   %2d   %8d   %4d   %5d   %s" % (k, nu, tau, nu * nu, 2 * tau, verdict))

# --- the membership failure at k = 5 ----------------------------------
f5 = member(5)
sb = standard_basis([f5.P, f5.Q])
square = xy.poly * xy.poly
residue = sb.normal_form(square)
print("\nnormal form of (x*y)^2 modulo (P, Q) at k = 5, on the staircase of")
print("%d monomials below the certified degree N = %d (m^N lies in (P, Q)):"
      % (len(sb.quotient_basis), sb.truncation))
print("   ", residue)
print("zero?", residue.is_zero)

report = check_briancon_skoda(f5, BalancedEquation(xy))
print("\n[check-bs] verdict:", report.verdict)
for note in report.notes:
    print("note:", note)
