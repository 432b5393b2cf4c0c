"""Point blow-ups and reduction of plane foliation germs.

A germ ``P dx + Q dy`` is pulled back under the quadratic map in two charts:

* chart 1, ``(x, y) = (x1, x1*y1)``: the form becomes
  ``(P + y1*Q) dx1 + (x1*Q) dy1`` with exceptional line ``x1 = 0``;
* chart 2, ``(x, y) = (x2*y2, y2)``: it becomes
  ``(y2*P) dx2 + (x2*P + Q) dy2`` with exceptional line ``y2 = 0``.

Both coefficient pairs share a power of the exceptional coordinate; dividing
it out gives the reduced transform.  The shared exponent ``m`` is either
``nu`` or ``nu + 1`` where ``nu`` is the multiplicity of the germ, and the
excess ``epsilon = m - nu`` is 1 exactly when the exceptional line is not
invariant (the dicritical case).

The reduction driver is one loop over a stack of points.  It visits them
depth first and blows each one up until every point of the total transform is
in one of the final positions: a nondegenerate singularity whose eigenvalue
ratio is not a positive rational, a saddle-node, a regular point crossing a
dicritical component transversally, or a clean corner.  These decisions read
the primitive integer maps of the pair (``classify_point`` reads the linear
part on one integer scale), and a ``Fraction`` is made only for a ratio or
direction that a report prints.  Nothing but the
blow-up budget (``--max-blowups``) bounds the length of a chain.  Singular
points are located as rational roots of a one-variable polynomial along the
exceptional line.  The root search lifts the roots modulo a small prime
p-adically (Loos's method) and has no budget, so it finds every rational
root; a root that is not rational cannot be carried further in exact
arithmetic and aborts the run with the offending residual factor.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .germs import require_isolated
from .localalg import EngineInconsistencyError
from .polynomials import Poly, _add_terms, _common_scale, _zx_div, _zx_gcd

MAX_BLOWUPS_DEFAULT = 24


class IrrationalSingularPointError(ValueError):
    """A point that must be blown up has an irrational coordinate.

    The root search along the exceptional line is complete (see
    ``rational_roots``), so the residual provably has no rational root.
    """

    def __init__(self, residual: Poly):
        self.residual = residual
        super().__init__(
            f"singular point with irrational coordinate; residual factor {residual}"
        )


class BlowupLimitError(RuntimeError):
    """The blow-up budget ran out before the germ was reduced."""


def _order_in(p: Poly, var: int) -> int:
    return min(m[var] for m in p._t)


def _chart(P: Poly, Q: Poly, var: int) -> tuple[Poly, Poly]:
    """The pull-back of ``P dx + Q dy`` to chart ``var + 1``, undivided.

    Both charts are monomial maps, so each term goes to one term: chart 1
    sends x^a y^b to x^(a+b) y^b, chart 2 sends it to x^a y^(a+b), and a
    primitive map stays primitive.  Only the coefficient that takes both P
    and Q can cancel; it is formed on one integer scale of the pair.
    """
    scale, (p, q) = _common_scale((P, Q))
    if var == 0:
        kept = Poly._raw(2, Q._c, {(a + b + 1, b): c for (a, b), c in Q._t.items()})
        shared = {(a + b, b): c for (a, b), c in p.items()}
        extra = (((a + b, b + 1), c) for (a, b), c in q.items())
    else:
        kept = Poly._raw(2, P._c, {(a, a + b + 1): c for (a, b), c in P._t.items()})
        shared = {(a + 1, a + b): c for (a, b), c in p.items()}
        extra = (((a, a + b), c) for (a, b), c in q.items())
    shared = Poly._of(2, _add_terms(shared, extra), 1, scale)
    return (shared, kept) if var == 0 else (kept, shared)


def _div_power(p: Poly, var: int, k: int) -> Poly:
    if k == 0 or p.is_zero:
        return p
    terms = {m[:var] + (m[var] - k,) + m[var + 1:]: c for m, c in p._t.items()}
    return Poly._raw(p.nvars, p._c, terms)


def _common_order(a: Poly, b: Poly, var: int) -> int:
    orders = [_order_in(p, var) for p in (a, b) if not p.is_zero]
    return min(orders)


class BlowupResult(NamedTuple):
    """One quadratic blow-up at the origin, both charts reduced."""

    nu: int
    m: int
    epsilon: int
    dicritical: bool
    chart1: tuple[Poly, Poly]
    chart2: tuple[Poly, Poly]


def blow_up(P: Poly, Q: Poly) -> BlowupResult:
    """Transform the pair of a germ ``P dx + Q dy`` under one blow-up."""
    if P.nvars != 2 or Q.nvars != 2:
        raise ValueError("blow-up is defined for plane germs")
    if P.is_zero and Q.is_zero:
        raise ValueError("zero form")
    nu = min(p.order() for p in (P, Q) if not p.is_zero)
    A1, B1 = _chart(P, Q, 0)
    m1 = _common_order(A1, B1, 0)
    A2, B2 = _chart(P, Q, 1)
    m2 = _common_order(A2, B2, 1)

    epsilon = m1 - nu
    if m1 != m2 or epsilon not in (0, 1):
        raise EngineInconsistencyError(
            f"exceptional multiplicities {m1} and {m2} for multiplicity {nu}"
        )
    return BlowupResult(
        nu=nu,
        m=m1,
        epsilon=epsilon,
        dicritical=epsilon == 1,
        chart1=(_div_power(A1, 0, m1), _div_power(B1, 0, m1)),
        chart2=(_div_power(A2, 1, m1), _div_power(B2, 1, m1)),
    )


# ---------------------------------------------------------------------------
# classification of a single point


class PointClassification(NamedTuple):
    kind: str  # "smooth" | "nondegenerate" | "saddle_node" | "non_simple"
    ratio: Fraction | None = None
    weak_direction: tuple[Fraction, Fraction] | None = None

    @property
    def simple(self) -> bool:
        return self.kind in ("nondegenerate", "saddle_node")


def classify_point(P: Poly, Q: Poly) -> PointClassification:
    """Classify the dual vector field ``(-Q, P)`` at the origin.

    Nondegenerate points report the eigenvalue ratio when it is rational,
    normalised so the absolute value is at least 1.  A ratio that lies in the
    positive rationals (including a defective ratio-1 node) is not simple and
    forces another blow-up.  The linear part is read from the integer maps on
    one positive scale, which keeps the ratio, the weak direction and the
    signs of det and trace; only a returned value is made a ``Fraction``.
    """
    if (0, 0) in P._t or (0, 0) in Q._t:
        return PointClassification("smooth")
    kp = P._c.numerator * Q._c.denominator
    kq = Q._c.numerator * P._c.denominator
    a, b = -kq * Q._t.get((1, 0), 0), -kq * Q._t.get((0, 1), 0)
    c, d = kp * P._t.get((1, 0), 0), kp * P._t.get((0, 1), 0)
    tr, det = a + d, a * d - b * c
    if det == 0:
        if tr == 0:
            return PointClassification("non_simple")
        v0, v1 = (b, -a) if (a, b) != (0, 0) else (d, -c)
        weak = (Fraction(1), Fraction(v1, v0)) if v0 else (Fraction(0), Fraction(1))
        return PointClassification("saddle_node", weak_direction=weak)
    # The ratios r of the two eigenvalues solve det*r^2 - bb*r + det = 0, so
    # they multiply to 1: both are positive exactly when bb/det is.
    bb = tr * tr - 2 * det
    disc = bb * bb - 4 * det * det
    if disc < 0 or (root := math.isqrt(disc)) ** 2 != disc:
        return PointClassification("nondegenerate", ratio=None)
    if bb * det > 0:
        return PointClassification("non_simple")
    low = bb - root if det > 0 else bb + root
    return PointClassification("nondegenerate", ratio=Fraction(low, 2 * det))


# ---------------------------------------------------------------------------
# rational roots along the exceptional line


def _section_in_y(p: Poly, x0: Fraction) -> list[int]:
    """Coefficients of p(x0, t) by power of t, times a nonzero rational.

    With x0 = n/d and D = deg_x p, the t^j coefficient is the integer
    sum_i c_ij n^i d^(D - i), over the primitive integer map c_ij of p.
    """
    n, d, top = x0.numerator, x0.denominator, max(p.degree_in(0), 0)
    coeffs = [0] * (max(p.degree_in(1), 0) + 1)
    for (i, j), c in p._t.items():
        coeffs[j] += c * n**i * d ** (top - i)
    return coeffs


def horner(coeffs: list[int], root: Fraction) -> int:
    """d^k f(n/d) for f = sum coeffs[i] t^i, k = len(coeffs) - 1 and root = n/d.

    The homogeneous value sum coeffs[i] n^i d^(k - i): an integer for integer
    coefficients, zero exactly when the root is a root of f.
    """
    n, d = root.numerator, root.denominator
    acc, power = 0, 1
    for c in reversed(coeffs):
        acc = acc * n + c * power
        power *= d
    return acc


def _eval_mod(coeffs: list[int], value: int, modulus: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * value + c) % modulus
    return acc


def rational_roots(coeffs: list[Fraction | int]) -> tuple[list[Fraction], Poly, bool]:
    """All rational roots (each listed once), the residual, and ``True``.

    The residual is the input with every rational root divided out to its
    full multiplicity, as a primitive polynomial in ``y``; it has no rational
    root.  The search is Loos's p-adic method (SIAM J. Comput. 12, 1983),
    complete and with no budget:

    * zero roots are stripped; s is the integer-primitive squarefree part of
      the rest, which is the rest itself when it is linear or a quadratic
      with nonzero discriminant, and else the rest over its gcd with its
      derivative, both over Z[t] (``_zx_gcd``, then the exact ``_zx_div``);
    * p is the first prime not dividing lc(s) at which every root of s mod p
      (s evaluated at 0, ..., p - 1) is simple; each is lifted by Newton
      iteration until ``p**k > 2*|lc(s)|*|s(0)|``, and u = lc(s)*r mod p**k,
      read in the symmetric range, gives u/lc(s) = n/d, kept if it is a root
      (``horner``); the rest, cleared to a primitive integer list, is divided
      by d*t - n over Z (``_zx_div``) while n/d is a root of it.

    No root is missed: a root a/b in lowest terms has b | lc(s) and
    |a| <= |s(0)|, its image mod p is a simple root with a unique lift, and
    the symmetric range recovers the integer lc(s)*a/b.  The prime loop ends:
    it skips only primes dividing lc(s) or disc(s), nonzero as s is
    squarefree.  The third item is always ``True`` (the benchmark reads it).
    """
    work = list(coeffs)
    while len(work) > 1 and work[-1] == 0:
        work.pop()
    roots = []
    while len(work) > 1 and work[0] == 0:
        roots = [Fraction(0)]
        work.pop(0)
    if len(work) > 1:
        scale = math.lcm(*(c.denominator for c in work))
        work = [c.numerator * (scale // c.denominator) for c in work]
        content = math.gcd(*work)
        s = work = [v // content for v in work]
        if len(s) > 3 or len(s) == 3 and s[1] ** 2 == 4 * s[0] * s[2]:
            s = _zx_div(s, _zx_gcd(s, [i * c for i, c in enumerate(s)][1:]))
        lead, ds = s[-1], [i * c for i, c in enumerate(s)][1:]
        for p in itertools.count(2):
            if lead % p and all(p % q for q in range(2, math.isqrt(p) + 1)):
                residues = [r for r in range(p) if _eval_mod(s, r, p) == 0]
                if all(_eval_mod(ds, r, p) for r in residues):
                    break
        for r in residues:
            modulus = p
            while modulus <= 2 * abs(lead * s[0]):
                modulus *= modulus
                inverse = pow(_eval_mod(ds, r, modulus), -1, modulus)
                r = (r - _eval_mod(s, r, modulus) * inverse) % modulus
            u = lead * r % modulus
            root = Fraction(u - modulus if 2 * u > modulus else u, lead)
            if horner(s, root) == 0:
                roots.append(root)
                while horner(work, root) == 0:
                    work = _zx_div(work, [-root.numerator, root.denominator])
    residual = Poly(2, {(0, i): c for i, c in enumerate(work)}).primitive()
    return sorted(roots), residual, True


# ---------------------------------------------------------------------------
# the reduction driver


class ExceptionalComponent(NamedTuple):
    index: int
    dicritical: bool
    epsilon: int


class ReducedSingularity(NamedTuple):
    """A simple singular point of the fully reduced foliation.

    ``components`` are the indices of the exceptional components through the
    point (empty for the original germ when it is already simple, two at a
    corner).  ``weak_along_divisor`` flags a saddle-node whose weak
    separatrix lies inside the exceptional divisor.
    """

    components: tuple[int, ...]
    kind: str
    ratio: Fraction | None = None
    weak_along_divisor: bool = False


class ReductionResult:
    __slots__ = ("blowups", "components", "singularities", "edges")

    def __init__(
        self,
        blowups: int,
        components: list[ExceptionalComponent],
        singularities: list[ReducedSingularity],
        edges: tuple[tuple[int, int], ...],
    ):
        self.blowups = blowups
        self.components = components
        self.singularities = singularities
        self.edges = edges

    def valence(self, index: int) -> int:
        return sum(1 for e in self.edges if index in e)

    @property
    def dicritical(self) -> bool:
        return any(c.dicritical for c in self.components)

    @property
    def generalized_curve(self) -> bool:
        """No saddle-nodes at all appear in the reduction."""
        return not any(s.kind == "saddle_node" for s in self.singularities)

    @property
    def second_type(self) -> bool:
        """No saddle-node has its weak separatrix inside the divisor."""
        return not any(s.weak_along_divisor for s in self.singularities)


def reduce_germ(germ, max_blowups: int = MAX_BLOWUPS_DEFAULT) -> ReductionResult:
    """Resolve the germ by blow-ups until every point is in final position.

    The points wait on a stack as (P, Q, t, cx, cy): the pair before its
    translation by (0, t), and the components along the local axes x = 0 and
    y = 0 (0 for none).  A blow-up pushes the origin of chart 2, then the
    chart-1 points in decreasing order of t, so the walk is depth first and
    components are indexed in the order they are made.  A negative budget is
    an input error, not a verdict.
    """
    if max_blowups < 0:
        raise ValueError(f"the blow-up budget must be at least 0, got {max_blowups}")
    require_isolated(germ)
    components: list[ExceptionalComponent] = []
    edges: set[tuple[int, int]] = set()
    singularities: list[ReducedSingularity] = []
    stack = [(germ.P, germ.Q, 0, 0, 0)]
    while stack:
        P, Q, t, cx, cy = stack.pop()
        if t:
            P, Q = P.shift((0, t)), Q.shift((0, t))
        singular = (0, 0) not in P._t and (0, 0) not in Q._t
        dx = cx > 0 and components[cx - 1].dicritical
        dy = cy > 0 and components[cy - 1].dicritical
        if dx or dy:
            # A regular point crossing one dicritical line is final unless it
            # is tangent: the velocity along the line's conormal vanishes.
            tangent = (0, 0) not in (Q if dx else P)._t
            if not (dx and dy or singular or tangent):
                continue
        elif not singular:
            continue
        else:
            cls = classify_point(P, Q)
            if cls.simple:
                weak = cls.kind == "saddle_node" and (
                    cx > 0 and cls.weak_direction == (0, 1)
                    or cy > 0 and cls.weak_direction == (1, 0)
                )
                singularities.append(
                    ReducedSingularity(
                        components=tuple(sorted(c for c in (cx, cy) if c)),
                        kind=cls.kind,
                        ratio=cls.ratio,
                        weak_along_divisor=weak,
                    )
                )
                continue
        if len(components) >= max_blowups:
            raise BlowupLimitError(f"not reduced after {max_blowups} blow-ups")
        data = blow_up(P, Q)
        index = len(components) + 1
        components.append(ExceptionalComponent(index, data.dicritical, data.epsilon))
        if cx and cy:
            # Blowing up a corner separates the two old components.
            edges.discard((min(cx, cy), max(cx, cy)))
        edges.update((c, index) for c in (cx, cy) if c)

        A1, B1 = data.chart1
        scan = B1 if data.dicritical else A1
        roots, residual, _ = rational_roots(_section_in_y(scan, Fraction(0)))
        if residual.total_degree() > 0:
            raise IrrationalSingularPointError(residual)
        if cy and Fraction(0) not in roots:
            roots = [Fraction(0)] + roots
        stack.append((*data.chart2, 0, cx, index))
        stack.extend((A1, B1, t, index, 0 if t else cy) for t in reversed(roots))
    return ReductionResult(
        blowups=len(components),
        components=components,
        singularities=singularities,
        edges=tuple(sorted(edges)),
    )


def dicritical_report(result: ReductionResult) -> list[dict]:
    """Valence and remaining contact budget of each dicritical component."""
    rows = []
    for comp in result.components:
        if not comp.dicritical:
            continue
        valence = result.valence(comp.index)
        rows.append(
            {"component": comp.index, "valence": valence, "budget": 2 - valence}
        )
    return rows
