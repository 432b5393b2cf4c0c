import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from folgerm.blowup import blow_up
from folgerm.germs import tangency_excess
from folgerm.polynomials import Poly


def random_poly(rng: random.Random, nvars: int = 2, max_degree: int = 4,
                max_terms: int = 6, min_order: int = 0) -> Poly:
    """Small random polynomial with single-digit rational coefficients."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        while True:
            exponents = tuple(rng.randint(0, max_degree) for _ in range(nvars))
            if min_order <= sum(exponents) <= max_degree:
                break
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        terms[exponents] = terms.get(exponents, 0) + coeff
    return Poly(nvars, terms)


def random_nonzero_poly(rng: random.Random, **kw) -> Poly:
    while True:
        p = random_poly(rng, **kw)
        if not p.is_zero:
            return p


def substitute(p: Poly, images) -> Poly:
    """p with ``images[i]`` put for variable i (identity if missing).

    A reference for the blow-up charts and ``Poly.shift``, by plain ``Poly``
    products, term by term.
    """
    nvars = next(iter(images.values())).nvars if images else p.nvars
    base = [images.get(i, Poly.variable(nvars, i)) for i in range(p.nvars)]
    total = Poly.zero(nvars)
    for monomial, coeff in p.items():
        term = Poly.constant(nvars, coeff)
        for image, e in zip(base, monomial):
            term = term * image**e
        total = total + term
    return total


def sympy_expr(p: Poly, symbols):
    """p as a sympy expression: a reference for tests, never for the package."""
    import sympy

    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*(s**e for s, e in zip(symbols, m)))
        for m, c in p.items()
    ))


def is_second_type(f, b) -> bool:
    """Whether the tangency excess xi of the germ against the divisor vanishes."""
    return tangency_excess(f, b) == 0


def h1_dimension(germ) -> int:
    """Dimension ``n(n-1)/2`` with ``n = nu - epsilon - 1`` after one blow-up."""
    data = blow_up(germ.P, germ.Q)
    n = data.nu - data.epsilon - 1
    if n <= 1:
        return 0
    return n * (n - 1) // 2
