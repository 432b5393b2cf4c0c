"""Singular foliation germs in the plane and their local invariants.

A foliation germ is the kernel of ``omega = P dx + Q dy`` with coprime
polynomial coefficients; a curve germ is a polynomial vanishing at the
origin.  A balanced equation pairs an effective (zero) curve with an
optional pole curve; every branch must be invariant, which for squarefree
equations is certified by a single wedge-product divisibility test.

Milnor and Tjurina numbers are dimensions of local quotients, computed by
standard bases of the local ring; the intersection number of two curves is
the x-order of a resultant (``polynomials.intersection_at_origin``), which
shares no code with the standard bases.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice
from typing import NamedTuple, Sequence

from .localalg import EngineInconsistencyError, StandardBasis, standard_basis
from .polynomials import (
    Poly,
    divides_wedge,
    intersection_at_origin,
    is_squarefree,
    poly_gcd,
)


def probe_pencil(count: int) -> tuple[tuple[int, int], ...]:
    """First ``count`` coprime probe directions, enumerated by height.

    Pairs (a, b) with a, b >= 1 and gcd 1, ordered by a + b, then
    max(a, b), then a.  Distinct pairs give distinct slopes b/a.
    """
    if count < 1:
        raise ValueError("need at least one probe")
    probes: list[tuple[int, int]] = []
    total = 2
    while len(probes) < count:
        layer = [
            (a, total - a)
            for a in range(1, total)
            if math.gcd(a, total - a) == 1
        ]
        layer.sort(key=lambda pair: (max(pair), pair[0]))
        probes.extend(layer)
        total += 1
    return tuple(probes[:count])


class NonIsolatedSingularityError(ValueError):
    """A quotient expected to be finite-dimensional is not."""


class InvalidBalancedEquationError(ValueError):
    """The supplied divisor fails coprimality, reducedness, or invariance."""


def _refuse_assignment(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


class FoliationGerm:
    """Kernel of P dx + Q dy at the origin; P and Q share no factor."""

    __slots__ = ("P", "Q")

    def __init__(self, P: Poly, Q: Poly):
        if P.nvars != 2 or Q.nvars != 2:
            raise ValueError("foliation germs live in two variables")
        if P.is_zero and Q.is_zero:
            raise ValueError("both components vanish identically")
        if not P.is_zero and not Q.is_zero:
            if poly_gcd(P, Q).total_degree() > 0:
                raise ValueError("components share a common factor")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "Q", Q)

    __setattr__ = _refuse_assignment

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FoliationGerm):
            return NotImplemented
        return self.P == other.P and self.Q == other.Q

    def __hash__(self) -> int:
        return hash((self.P, self.Q))

    @classmethod
    def _of_coprime_chart_pair(cls, P: Poly, Q: Poly) -> FoliationGerm:
        """The germ of a projective chart pair, with no gcd: it is coprime.

        Only ``projective.chart_germ`` calls this, with the pair of a
        ``ProjectiveFoliation`` form A dx + B dy + C dz in one affine chart,
        translated to a point.  The pair is coprime.  gcd(A, B, C) = 1 was
        checked when the form was built.  In each chart the Euler relation
        writes the third coefficient through the pair: C = -xA - yB at
        z = 1, B = -xA - zC at y = 1, and A = -yB - zC at x = 1.  So a
        common factor h of the pair divides all three coefficients there;
        the homogenization of h then divides A, B and C, so h is constant.
        A translation is a ring automorphism and keeps the pair coprime.
        The pair is never both zero: the chart of a nonzero homogeneous
        coefficient is nonzero, and two vanishing coefficients force the
        third to vanish.  Every other path runs the gcd of ``__init__``.
        """
        germ = object.__new__(cls)
        object.__setattr__(germ, "P", P)
        object.__setattr__(germ, "Q", Q)
        return germ

    @property
    def is_singular(self) -> bool:
        return (0, 0) not in self.P._t and (0, 0) not in self.Q._t

    def components(self) -> tuple[Poly, Poly]:
        return (self.P, self.Q)

    def __str__(self) -> str:
        return f"({self.P}) dx + ({self.Q}) dy"


class CurveGerm:
    """A nonzero polynomial vanishing at the origin."""

    __slots__ = ("poly",)

    def __init__(self, poly: Poly):
        if poly.is_zero:
            raise ValueError("the zero polynomial does not define a curve")
        if (0,) * poly.nvars in poly._t:
            raise ValueError("curve germ must pass through the origin")
        object.__setattr__(self, "poly", poly)

    __setattr__ = _refuse_assignment

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CurveGerm):
            return NotImplemented
        return self.poly == other.poly

    def __hash__(self) -> int:
        return hash(self.poly)

    @property
    def order(self) -> int:
        return self.poly.order()

    @property
    def is_reduced(self) -> bool:
        return is_squarefree(self.poly)

    def __str__(self) -> str:
        return str(self.poly)


class BalancedEquation(NamedTuple):
    """Zero and pole parts of a balanced equation of separatrices."""

    zero: CurveGerm
    pole: CurveGerm | None = None

    @property
    def signed_multiplicity(self) -> int:
        """order(zero) - order(pole); the empty pole contributes 0."""
        pole = self.pole.order if self.pole is not None else 0
        return self.zero.order - pole


def multiplicity(f: FoliationGerm) -> int:
    """Algebraic multiplicity: minimal order among the two components."""
    orders = [c.order() for c in f.components() if not c.is_zero]
    return min(orders)


def invariance_test(f: FoliationGerm, curve: CurveGerm) -> bool:
    """Whether the curve divides the wedge of omega with d(curve).

    One exact division over Z (``polynomials.divides_wedge``).
    """
    return divides_wedge(curve.poly, (f.P, f.Q))


def validate_balanced(f: FoliationGerm, b: BalancedEquation) -> None:
    """Raise InvalidBalancedEquationError unless b is usable for f."""
    parts = [("zero", b.zero)] + ([("pole", b.pole)] if b.pole is not None else [])
    if b.pole is not None:
        if poly_gcd(b.zero.poly, b.pole.poly).total_degree() > 0:
            raise InvalidBalancedEquationError("zero and pole parts share a factor")
    for label, part in parts:
        if not part.is_reduced:
            raise InvalidBalancedEquationError(f"{label} divisor is not squarefree")
        if not invariance_test(f, part):
            raise InvalidBalancedEquationError(
                f"{label} divisor {part.poly} is not invariant"
            )


def _finite_quotient(gens: Sequence[Poly], what: str) -> int:
    dim = standard_basis(gens).quotient_dim()
    if dim is None:
        raise NonIsolatedSingularityError(f"{what} is infinite")
    return dim


def require_isolated(f: FoliationGerm) -> None:
    """Reject a singular germ with a component that vanishes identically.

    Nonzero components were certified coprime when the germ was built, so
    this is the one way O/(P, Q) can be infinite.
    """
    if f.is_singular and (f.P.is_zero or f.Q.is_zero):
        raise NonIsolatedSingularityError(
            "the Milnor number of the foliation is infinite"
        )


def milnor_quotient(f: FoliationGerm) -> StandardBasis:
    """The local quotient O/(P, Q) that mu and every check read."""
    require_isolated(f)
    sb = standard_basis([f.P, f.Q])
    if sb.quotient_basis is None:
        raise EngineInconsistencyError(
            "coprime components gave an infinite local quotient"
        )
    return sb


def milnor_foliation(f: FoliationGerm) -> int:
    """dim of the local ring modulo (P, Q)."""
    return milnor_quotient(f).quotient_dim()


def milnor_curve(c: CurveGerm) -> int:
    """dim modulo the Jacobian ideal of the curve."""
    g = c.poly
    return _finite_quotient([g.diff(0), g.diff(1)], "the Milnor number of the curve")


def tjurina_curve(c: CurveGerm) -> int:
    """dim modulo (curve, its partials)."""
    g = c.poly
    return _finite_quotient(
        [g, g.diff(0), g.diff(1)], "the Tjurina number of the curve"
    )


def tjurina_foliation(f: FoliationGerm, c: CurveGerm) -> int:
    """dim modulo (curve, P, Q)."""
    return _finite_quotient(
        [c.poly, f.P, f.Q], "the Tjurina number of the pair"
    )


def intersection_multiplicity(f: Poly, g: Poly) -> int:
    """dim of the local ring modulo (f, g) for curves through the origin.

    Computed by ``intersection_at_origin``.  A common factor that misses the
    origin is a unit there and changes nothing; a common branch through the
    origin raises NonIsolatedSingularityError.
    """
    if f.is_zero or g.is_zero:
        raise ValueError("intersection with the zero polynomial")
    if (0,) * f.nvars in f._t or (0,) * g.nvars in g._t:
        raise ValueError("both curves must pass through the origin")
    value = intersection_at_origin(f, g)
    if value is None:
        raise NonIsolatedSingularityError(
            "the intersection number of curves not coprime at the origin is infinite"
        )
    return value


class PolarCertificate(NamedTuple):
    """A generic polar and its intersection numbers with the scored curves."""

    polar: CurveGerm
    probe: tuple[int, int]
    intersections: tuple[int, ...]  # i(polar, c) for each curve c in ``against``


def _cancelling_probe(P: Poly, Q: Poly) -> tuple[int, int] | None:
    """The probe (a, b) with a*P_k + b*Q_k = 0 for leading forms of one order k."""
    if P.order() != Q.order():
        return None
    low_p, low_q = P.lowest_form(), Q.lowest_form()
    p, q = low_p._t, low_q._t
    if p.keys() != q.keys():
        return None
    m = next(iter(p))
    if p[m] * q[m] > 0 or any(p[n] * q[m] != q[n] * p[m] for n in p):
        return None
    t = low_p._c * -p[m] / (low_q._c * q[m])
    return (t.denominator, t.numerator)


def generic_polar(
    f: FoliationGerm, against: Sequence[CurveGerm] = ()
) -> PolarCertificate:
    """The first polar a*P + b*Q of ``probe_pencil(K)`` at the generic score.

    K = sum nu(c) + 3, and every curve c in ``against`` must be invariant.
    A probe scores (ord(a*P + b*Q), i(a*P + b*Q, c) for c in ``against``).
    It is special when a*P_k + b*Q_k = 0 for leading forms of one order k,
    or when c_low(a, b) = 0 for the lowest form c_low of some c (a tangent
    direction of c).  The first two probes that are not special are scored;
    both attain the generic score, the lexicographic minimum, and the first
    is returned, as the first probe of the pencil at the lowest score.

    Proof.  Write t = b/a > 0; distinct probes have distinct t.  P and Q are
    nonzero, so ord(P + tQ) = min(ord P, ord Q) unless ord P = ord Q = k and
    P_k + tQ_k = 0, which one t at most does, and then the order is larger.
    Let g(s) = (x(s), y(s)) parametrize a branch of c.  Invariance reads
    x'P(g) + y'Q(g) = 0.  If x(s) = 0, it gives Q(g) = 0, so (P + tQ)(g) =
    P(g) is the same for every t, and no probe is tangent to the axis x = 0.
    Otherwise x'(P + tQ)(g) = Q(g)(tx' - y'), where Q(g) != 0, since with
    it P(g) would vanish too and the singularity is isolated.  The order of
    tx' - y' is min(ord x', ord y') unless ord x = ord y and t cancels the
    leading coefficients, that is unless (a, b) is the tangent direction of
    the branch; then it is larger, perhaps infinite.  The tangent directions
    of the branches of c are the roots of c_low, so, summed over the
    branches, i(P + tQ, c) takes its generic value unless c_low(a, b) = 0,
    and then it is larger.  So every probe that is not special attains the
    generic score, which is finite, and a special probe scores above it in
    one coordinate and below it in none.  c_low has at most nu(c) roots in
    the projective line, so at most 1 + sum nu(c) probes are special and at
    least two of K are not.
    """
    for c in against:
        if not invariance_test(f, c):
            raise InvalidBalancedEquationError(f"curve {c.poly} is not invariant")
    return _generic_polar(f, against)


def _generic_polar(f: FoliationGerm, against: Sequence[CurveGerm]) -> PolarCertificate:
    """``generic_polar`` against curves already proven invariant."""
    if not f.is_singular:
        raise ValueError("the germ is regular: no polar passes through the origin")
    require_isolated(f)
    count = sum(c.order for c in against) + 3
    cancelling = _cancelling_probe(f.P, f.Q)
    cones = [c.poly.lowest_form()._t for c in against]

    def special(probe: tuple[int, int]) -> bool:
        a, b = probe
        return probe == cancelling or any(
            sum(v * a**i * b**j for (i, j), v in cone.items()) == 0
            for cone in cones
        )

    generic = list(islice(filter(lambda p: not special(p), probe_pencil(count)), 2))
    if len(generic) < 2:
        raise EngineInconsistencyError(
            f"fewer than two of {count} probes attain the lowest polar score"
        )
    scored = []
    for a, b in generic:
        candidate = f.P * a + f.Q * b
        try:
            intersections = tuple(
                intersection_multiplicity(candidate, c.poly) for c in against
            )
        except NonIsolatedSingularityError:
            raise EngineInconsistencyError(
                f"the probe {(a, b)} is not special but meets a scored curve"
                " in a common branch"
            ) from None
        scored.append(((candidate.order(),) + intersections, candidate))
    (score, candidate), (other, _) = scored
    if score != other:
        raise EngineInconsistencyError(
            f"the probes {generic[0]} and {generic[1]} are not special but score"
            f" {score} and {other}"
        )
    return PolarCertificate(CurveGerm(candidate), generic[0], score[1:])


def tangency_excess(f: FoliationGerm, b: BalancedEquation) -> int:
    """Excess of the multiplicity over the balanced-divisor prediction.

    nu(F) - (nu(zero) - nu(pole)) + 1; zero exactly for second-type germs.
    """
    validate_balanced(f, b)
    return multiplicity(f) - b.signed_multiplicity + 1


class DivisorInvariants(NamedTuple):
    """xi, tau, the polar, i(B0, Binf) and delta against a divisor B0 - Binf."""

    xi: int
    tau: int
    polar: PolarCertificate
    i_zero_pole: int
    delta: int


def divisor_invariants(f: FoliationGerm, b: BalancedEquation,
                       mu: int) -> DivisorInvariants:
    """The divisor quantities of ``check_cota`` and the invariants report, once.

    The polar is scored against B0 (and Binf); its certificate already holds
    i(polar, B0), which the polar excess delta reads; delta vanishes exactly
    on generalized curves.  i(B0, Binf) is 0 without a pole.  ``mu`` is the
    Milnor number of f, which the caller holds; for f = dg and B0 = g it is B0's.
    """
    xi = tangency_excess(f, b)
    tau = tjurina_foliation(f, b.zero)
    against = [b.zero] + ([b.pole] if b.pole is not None else [])
    cert = _generic_polar(f, against)
    i_zero_pole = 0
    if b.pole is not None:
        i_zero_pole = intersection_multiplicity(b.zero.poly, b.pole.poly)
    g = b.zero.poly
    mu_zero = mu if (g.diff(0), g.diff(1)) == (f.P, f.Q) else milnor_curve(b.zero)
    delta = cert.intersections[0] + i_zero_pole - mu_zero - b.zero.order + 1
    return DivisorInvariants(xi, tau, cert, i_zero_pole, delta)


def gsv_index(f: FoliationGerm, c: CurveGerm) -> int:
    """Tjurina of the pair minus Tjurina of the curve."""
    return tjurina_foliation(f, c) - tjurina_curve(c)


def is_semihomogeneous(c: CurveGerm) -> bool:
    """Whether the lowest homogeneous part is squarefree."""
    return is_squarefree(c.poly.lowest_form())
