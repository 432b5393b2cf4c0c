import random
import subprocess
import sys
import time
from fractions import Fraction
from math import comb, gcd, lcm
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_nonzero_poly, random_poly, substitute, sympy_expr
from folgerm import blowup, dense, polynomials, projective
from folgerm.localalg import EngineInconsistencyError, standard_basis
from folgerm.polynomials import (
    Poly,
    PolyParseError,
    dehomogenize,
    intersection_at_origin,
    is_squarefree,
    parse_poly,
    poly_gcd,
    try_exact_div,
)


def P(text, nvars=2, **params):
    return parse_poly(text, nvars, {k: Fraction(v) for k, v in params.items()})


LAMBDA = Fraction(-5, 3)


def _expression_trees(nvars):
    """Trees of sums, products and powers over rationals, lam and variables."""
    leaves = st.one_of(
        st.builds(Fraction, st.integers(0, 30), st.integers(1, 6)).map(lambda c: ("num", c)),
        st.integers(0, nvars - 1).map(lambda i: ("var", i)),
        st.just(("lam",)),
    )
    signs = st.sampled_from((1, -1))
    return st.recursive(leaves, lambda inner: st.one_of(
        st.tuples(st.just("pow"), inner, st.integers(0, 6)),
        st.tuples(st.just("mul"), st.lists(inner, min_size=2, max_size=3)),
        st.tuples(st.just("add"), st.lists(st.tuples(signs, inner), min_size=1, max_size=3)),
    ), max_leaves=8)


def _render(tree, level="expr", pad=lambda: ""):
    """Text of a tree in the parser's grammar; a group only where it must be.

    ``pad()`` gives the blanks put between tokens.
    """
    kind = tree[0]
    if level == "expr" and kind == "add":
        text = pad() + ("-" + pad() if tree[1][0][0] < 0 else "")
        for i, (sign, child) in enumerate(tree[1]):
            if i:
                text += pad() + ("-" if sign < 0 else "+") + pad()
            text += _render(child, "term", pad)
        return text + pad()
    if level in ("expr", "term") and kind == "mul":
        return (pad() + "*" + pad()).join(_render(child, "factor", pad) for child in tree[1])
    if level != "base" and kind == "pow":
        return f"{_render(tree[1], 'base', pad)}{pad()}^{pad()}{tree[2]}"
    if kind == "num":
        c = tree[1]
        return str(c) if c.denominator == 1 else f"{c.numerator}{pad()}/{pad()}{c.denominator}"
    if kind == "var":
        return "xyz"[tree[1]]
    if kind == "lam":
        return "lam"
    return f"({pad()}{_render(tree, 'expr', pad)}{pad()})"


def _evaluate(tree, nvars):
    """The same tree by Poly arithmetic."""
    kind = tree[0]
    if kind == "num":
        return Poly.constant(nvars, tree[1])
    if kind == "var":
        return Poly.variable(nvars, tree[1])
    if kind == "lam":
        return Poly.constant(nvars, LAMBDA)
    if kind == "pow":
        return _evaluate(tree[1], nvars) ** tree[2]
    if kind == "mul":
        product = Poly.constant(nvars, 1)
        for child in tree[1]:
            product = product * _evaluate(child, nvars)
        return product
    return sum((_evaluate(child, nvars) * sign for sign, child in tree[1]), Poly.zero(nvars))


# Malformed inputs, each with the message and the 0-based column it reports.
MALFORMED = [
    ("", 2, "unexpected end of input", 0),
    ("   ", 2, "unexpected end of input", 3),
    ("x +", 2, "unexpected end of input", 3),
    ("x + * y", 2, "unexpected character '*'", 4),
    ("x + z", 2, "variable 'z' not available with 2 variables", 4),
    ("mu*x", 2, "unknown parameter 'mu'", 0),
    ("x + y)", 2, "unexpected character ')'", 5),
    ("1/0", 2, "zero denominator", 3),
    ("1/ 0", 2, "zero denominator", 4),
    ("y^02 - 1/00", 2, "zero denominator", 11),
    ("(x + y", 2, "expected ')'", 6),
    ("x^", 2, "expected an exponent", 2),
    ("x^y", 2, "expected an exponent", 2),
    ("x ^ -1", 2, "expected an exponent", 4),
    ("(x+y)^", 2, "expected an exponent", 6),
    ("x + 1/", 2, "expected an exponent", 6),
    ("x**2", 2, "unexpected character '*'", 2),
    ("x^2^3", 2, "unexpected character '^'", 3),
    ("2 x", 2, "unexpected character 'x'", 2),
    ("x y", 2, "unexpected character 'y'", 2),
    ("x & y", 2, "unexpected character '&'", 2),
    ("()", 2, "unexpected character ')'", 1),
    ("x*(y+)", 2, "unexpected character ')'", 5),
    ("3.5*x", 2, "unexpected character '.'", 1),
    ("--x", 2, "unexpected character '-'", 1),
    ("x + lambda", 2, "unknown parameter 'lambda'", 4),
    ("_t*x", 2, "unknown parameter '_t'", 0),
    ("w", 3, "unknown parameter 'w'", 0),
    ("z*w", 3, "unknown parameter 'w'", 2),
    pytest.param("(" * 150 + "x" + ")" * 150, 2, "parentheses nested deeper than 100",
                 100, id="nested-parentheses"),
    ("y + 3^99999999999", 2, "numeric power has more than 4300 digits", 6),
    ("x*lam ^ 99999999999", 2, "numeric power has more than 4300 digits", 8),
    ("1/7^9999*x", 2, "numeric power has more than 4300 digits", 4),
    ("3^9000*3^9000*x*y", 2, "coefficient has more than 4300 digits", 0),
    ("x + (3^5000*y + 1)^2", 2, "coefficient has more than 4300 digits", 4),
    ("x - 1/3^5000*1/3^5000*y", 2, "coefficient has more than 4300 digits", 4),
    ("x*(y - 3^5000*3^5000)", 2, "coefficient has more than 4300 digits", 7),
    ("x^²", 2, "expected an exponent", 2),
    ("٣*x", 2, "unexpected character '٣'", 0),
    pytest.param("y + " + "1" * 4301 + "*x", 2, "number has more than 4300 digits", 4,
                 id="long-number"),
]


class TestParse:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(st.sampled_from((2, 3)).flatmap(
        lambda n: st.tuples(st.just(n), _expression_trees(n))),
        st.randoms(use_true_random=False))
    def test_text_of_a_tree_parses_to_its_value(self, case, rng):
        nvars, tree = case
        value = _evaluate(tree, nvars)
        text = _render(tree)
        assert parse_poly(text, nvars, {"lam": LAMBDA}) == value, text

        def pad():
            return "".join(rng.choice(" \t") for _ in range(rng.choice((0, 0, 1, 2, 3))))

        spaced = _render(tree, pad=pad)
        assert parse_poly(spaced, nvars, {"lam": LAMBDA}) == value, spaced

    @pytest.mark.parametrize("text, nvars, message, column", MALFORMED)
    def test_malformed_input_message_and_column(self, text, nvars, message, column):
        with pytest.raises(PolyParseError) as err:
            parse_poly(text, nvars, {"lam": LAMBDA})
        assert str(err.value) == f"{message} (at column {column + 1})"
        assert err.value.position == column

    def test_numeric_power_digit_bound(self):
        assert P("10^4299") == Poly.constant(2, 10**4299)
        assert P("0^99999999999 + 1^99999999999*x") == P("x")
        assert P("x^99999999999").terms == {(99999999999, 0): 1}
        with pytest.raises(PolyParseError, match="more than 4300 digits"):
            P("10^4300")

    def test_coefficient_digit_bound(self):
        # the bound is on the coefficients returned: 4,300 digits pass, a sum
        # that reaches 4,301 is refused at the term that reached it, and a
        # product that cancels is never returned
        nines = "9" * 4300
        assert P(f"{nines}*x").terms == {(1, 0): 10**4300 - 1}
        assert P(f"1/{nines}*x").content() == Fraction(1, 10**4300 - 1)
        with pytest.raises(PolyParseError) as err:
            P(f"{nines}*x + y + {nines}*x")
        assert err.value.position == 4309
        assert P("3^3000*3^3000*x + y - 3^3000*3^3000*x") == P("y")

    def test_basic_terms(self):
        p = P("x^2 + 3/4*x*y")
        assert p.terms == {(2, 0): Fraction(1), (1, 1): Fraction(3, 4)}

    def test_distribution(self):
        p = P("y*(2*x^8+4*x^2*y^3-y^4)")
        assert p.terms == {
            (8, 1): Fraction(2),
            (2, 4): Fraction(4),
            (0, 5): Fraction(-1),
        }

    def test_leading_minus(self):
        assert P("-y") == -Poly.variable(2, 1)
        assert P("-x + y") == P("y") - P("x")

    def test_parameters(self):
        p = P("y*(2*x^8+2*(lambda+1)*x^2*y^3-y^4)", **{"lambda": 1})
        assert p == P("y*(2*x^8+4*x^2*y^3-y^4)")
        half = P("lambda*x", **{"lambda": Fraction(1, 2)})
        assert half.terms == {(1, 0): Fraction(1, 2)}

    def test_three_variables(self):
        p = P("x*y*z - z^3", nvars=3)
        assert p.terms == {(1, 1, 1): Fraction(1), (0, 0, 3): Fraction(-1)}

    def test_syntax_error_carries_position(self):
        with pytest.raises(PolyParseError) as err:
            P("x + * y")
        assert err.value.position == 4

    def test_wrong_variable_for_arity(self):
        with pytest.raises(PolyParseError, match="variable 'z'"):
            P("x + z")

    def test_unknown_parameter(self):
        with pytest.raises(PolyParseError, match="unknown parameter 'mu'"):
            P("mu*x")

    def test_trailing_garbage(self):
        with pytest.raises(PolyParseError):
            P("x + y)")

    def test_rational_literals(self):
        assert P("5/2").terms.get((0, 0), 0) == Fraction(5, 2)
        with pytest.raises(PolyParseError, match="zero denominator"):
            P("1/0")

    def test_round_trip_examples(self):
        for text in ["x^2 + 3/4*x*y", "-y", "y*(2*x^8+4*x^2*y^3-y^4)", "0"]:
            p = P(text)
            assert P(str(p)) == p

    def test_round_trip_random(self):
        rng = random.Random(101)
        for _ in range(60):
            p = random_poly(rng, nvars=rng.choice([2, 3]))
            assert parse_poly(str(p), p.nvars) == p


class TestOrderAndDegree:
    def test_order_examples(self):
        assert P("x^2*y + x^5").order() == 3
        assert P("1 + x").order() == 0

    def test_order_of_zero_rejected(self):
        with pytest.raises(ValueError):
            Poly.zero(2).order()

    def test_order_is_multiplicative(self):
        rng = random.Random(7)
        for _ in range(40):
            p = random_nonzero_poly(rng)
            q = random_nonzero_poly(rng)
            assert (p * q).order() == p.order() + q.order()

    def test_total_degree(self):
        assert P("x^2*y + x^5").total_degree() == 5
        assert Poly.zero(2).total_degree() == -1


class TestArithmetic:
    def test_ring_axioms_random(self):
        rng = random.Random(13)
        for _ in range(30):
            p, q, r = (random_poly(rng) for _ in range(3))
            assert p + q == q + p
            assert (p + q) + r == p + (q + r)
            assert p * q == q * p
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            assert p - p == Poly.zero(2)

    def test_power(self):
        assert P("x + y") ** 2 == P("x^2 + 2*x*y + y^2")
        assert P("x") ** 0 == Poly.constant(2, 1)

    def test_diff(self):
        f = P("y^2 - x^3")
        assert f.diff(0) == P("-3*x^2")
        assert f.diff(1) == P("2*y")

    def test_substitute_blowup_chart(self):
        p = P("y^2 - x^3")
        x, y = Poly.variable(2, 0), Poly.variable(2, 1)
        pulled = substitute(p, {1: x * y})
        assert pulled == P("x^2*y^2 - x^3")

    def test_substitution_is_multiplicative(self):
        rng = random.Random(23)
        x = Poly.variable(2, 0)
        y = Poly.variable(2, 1)
        images = {0: x * y, 1: x - y}
        for _ in range(25):
            p = random_poly(rng)
            q = random_poly(rng)
            assert substitute(p * q, images) == substitute(p, images) * substitute(
                q, images
            )

    def test_shift(self):
        f = P("x^2 + y")
        assert f.shift([1, -2]) == P("x^2 + 2*x + y - 1")

    def test_shift_matches_substitution(self):
        rng = random.Random(29)
        for nvars in (2, 3):
            for _ in range(40):
                p = random_poly(rng, nvars=nvars, max_degree=6)
                offsets = [
                    Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(nvars)
                ]
                offsets[rng.randrange(nvars)] = 0
                images = {
                    i: Poly.variable(nvars, i) + value for i, value in enumerate(offsets)
                }
                shifted = p.shift(offsets)
                assert shifted == substitute(p, images)
                assert all(c for _, c in shifted.items())

    def test_evaluate(self):
        f = P("x^2 + 3/4*x*y")
        assert f.evaluate([2, 4]) == Fraction(10)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError, match="arity"):
            P("x") + P("x", nvars=3)


def _schoolbook_div(a, b):
    """The quotient and remainder of a by b over Q, lowest power first."""
    a, q = [Fraction(v) for v in a], [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in reversed(range(len(q))):
        q[k] = a[k + len(b) - 1] / b[-1]
        for j, v in enumerate(b):
            a[k + j] -= q[k] * v
    return q, a


class TestZxDiv:
    """Exact division in Z[x] against schoolbook division, with planted x-powers."""

    def test_matches_schoolbook_division(self):
        rng = random.Random(41)
        for _ in range(200):
            b = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))] + [rng.randint(1, 9)]
            q = [rng.randint(-9, 9) for _ in range(rng.randint(0, 6))] + [rng.randint(1, 9)]
            b = [0] * rng.randint(0, 40) + b
            q = [0] * rng.randint(0, 40) + q
            a = dense.zx_mul(b, q)
            quotient, remainder = _schoolbook_div(a, b)
            assert not any(remainder)
            assert dense.zx_div(a, b) == q == quotient

    def test_power_of_x(self):
        assert dense.zx_div([0] * 8847 + [6], [0] * 4287 + [-3]) == [0] * 4560 + [-2]

    def test_inexact_division_raises(self):
        rng = random.Random(43)
        for _ in range(100):
            b = [0] * rng.randint(0, 5) + [rng.randint(1, 9), rng.randint(-9, 9), 1]
            a = dense.zx_mul(b, [rng.randint(1, 9), rng.randint(-9, 9)])
            a[rng.randrange(len(a))] += rng.choice((-1, 1))
            if any(_schoolbook_div(a, b)[1]):
                with pytest.raises(EngineInconsistencyError, match="not exact"):
                    dense.zx_div(a, b)
        # a nonzero entry below the x-power of the divisor
        with pytest.raises(EngineInconsistencyError, match="not exact"):
            dense.zx_div([1, 0, 0, 5], [0, 0, 1])


@st.composite
def _zx_gcd_cases(draw):
    """(a, b) with a repeated nonlinear common factor of degree up to 20, or p | lc(a).

    A planted factor makes the images modulo the prime share it, and a lead
    divisible by the prime skips the modular exit; either way the remainder
    sequence runs.
    """
    def zx(low, high, lead):
        coeffs = draw(st.lists(st.integers(-9, 9), min_size=low, max_size=high))
        return coeffs + [draw(lead) * draw(st.sampled_from((1, -1)))]

    factor = zx(2, 5, st.integers(1, 4))
    prime_lead = draw(st.booleans())
    power = draw(st.integers(0 if prime_lead else 1, 20 // (len(factor) - 1)))
    common = dense.zx_pow(factor, power)
    lead = st.just(dense.CERT_PRIME) if prime_lead else st.integers(1, 9)
    return dense.zx_mul(common, zx(0, 4, lead)), dense.zx_mul(common, zx(0, 4, st.integers(1, 9)))


class TestZxGcd:
    """The gcd over Z[x] against sympy's, primitive and up to sign."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(_zx_gcd_cases())
    def test_against_sympy_gcd(self, case):
        sympy = pytest.importorskip("sympy")
        t = sympy.symbols("t")
        want = sympy.gcd(*(sympy.Poly(p[::-1], t, domain="ZZ") for p in case))
        want = want.primitive()[1].all_coeffs()
        got = dense.zx_gcd(*case)[::-1]
        assert got in (want, [-v for v in want])


_MODEL_COEFFS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 8))


def _model_terms(nvars):
    exponent = st.tuples(*[st.integers(0, 3)] * nvars)
    return st.dictionaries(exponent, _MODEL_COEFFS, max_size=5).map(
        lambda t: {m: c for m, c in t.items() if c})


def _model_add(a, b, sign=1):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def _model_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            key = tuple(i + j for i, j in zip(m1, m2))
            out[key] = out.get(key, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _model_shift(a, offsets):
    """Substitute x_i + offset_i, by the binomial theorem in every variable."""
    out = {}
    for m, c in a.items():
        partial = {(): c}
        for e, s in zip(m, offsets):
            partial = {key + (k,): value * comb(e, k) * s ** (e - k)
                       for key, value in partial.items() for k in range(e + 1)}
        out = _model_add(out, partial)
    return out


def _model_content(a):
    if not a:
        return Fraction(0)
    return Fraction(gcd(*(c.numerator for c in a.values())),
                    lcm(*(c.denominator for c in a.values())))


class TestReferenceModel:
    """Every operation of Poly against a plain dict-of-Fraction model.

    Each result must also be stored canonically: a positive content and a
    primitive integer term map (the zero polynomial as 0 and no terms).
    """

    @staticmethod
    def _canonical(p):
        if p.is_zero:
            assert p.content() == 0 and not p._t
        else:
            assert p._c > 0 and gcd(*p._t.values()) == 1
            assert all(type(v) is int and v for v in p._t.values())
        return p

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(st.sampled_from((2, 3)).flatmap(lambda n: st.tuples(
        st.just(n), _model_terms(n), _model_terms(n),
        st.lists(_MODEL_COEFFS, min_size=n, max_size=n))),
        _MODEL_COEFFS, st.integers(0, 3))
    def test_operations_match_the_model(self, case, scalar, power):
        nvars, a, b, offsets = case
        p, q = Poly(nvars, a), Poly(nvars, b)
        check = self._canonical
        assert check(p).terms == a
        assert check(p + q).terms == _model_add(a, b)
        assert check(p - q).terms == _model_add(a, b, -1)
        assert check(-p).terms == {m: -c for m, c in a.items()}
        assert check(p * q).terms == _model_mul(a, b)
        assert check(p * scalar).terms == {m: c * scalar for m, c in a.items() if scalar}
        assert check(scalar * p + 1).terms == _model_add(
            {m: c * scalar for m, c in a.items() if scalar}, {(0,) * nvars: Fraction(1)})
        expected = {(0,) * nvars: Fraction(1)}
        for _ in range(power):
            expected = _model_mul(expected, a)
        assert check(p**power).terms == expected
        for var in range(nvars):
            derivative = {}
            for m, c in a.items():
                if m[var]:
                    key = m[:var] + (m[var] - 1,) + m[var + 1:]
                    derivative[key] = c * m[var]
            assert check(p.diff(var)).terms == derivative
        assert check(p.shift(offsets)).terms == _model_shift(a, offsets)
        assert check(p.shift(offsets).shift([-s for s in offsets])) == p
        if a:
            low = min(map(sum, a))
            assert check(p.lowest_form()).terms == {
                m: c for m, c in a.items() if sum(m) == low}
        content = _model_content(a)
        assert p.content() == content
        if a:
            lead = min(a, key=lambda m: (-sum(m), tuple(-e for e in m)))
            sign = 1 if a[lead] > 0 else -1
            assert check(p.primitive()).terms == {m: c * sign / content for m, c in a.items()}
        if nvars == 3:
            for axis in range(3):
                rest = [k for k in range(3) if k != axis]
                flat = {}
                for m, c in a.items():
                    key = (m[rest[0]], m[rest[1]])
                    flat[key] = flat.get(key, 0) + c
                assert check(dehomogenize(p, axis)).terms == {
                    m: c for m, c in flat.items() if c}
        assert parse_poly(str(p), nvars) == p
        assert parse_poly(str(p * q - q), nvars) == p * q - q

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(_model_terms(2), _model_terms(2), _MODEL_COEFFS)
    def test_equal_polynomials_hash_equal(self, a, b, scalar):
        p, q = Poly(2, a), Poly(2, b)
        routes = [p, p + q - q, (p * scalar) * (1 / scalar) if scalar else p,
                  Poly(2, {m: c for m, c in (p * 2).terms.items()}) * Fraction(1, 2)]
        for other in routes:
            assert other == p and hash(other) == hash(p)
            assert (other._c, other._t) == (p._c, p._t)


class TestStructure:
    def test_lowest_form(self):
        f = P("y^2 - x^3 + x^4")
        assert f.lowest_form() == P("y^2")
        assert P("x*y + x^2 + y^2").is_homogeneous()
        assert not f.is_homogeneous()

    def test_primitive_and_content(self):
        f = P("2/3*x + 4/3*y")
        assert f.content() == Fraction(2, 3)
        assert f.primitive() == P("x + 2*y")
        assert (-f).primitive() == P("x + 2*y")

    def test_dehomogenize(self):
        f = P("x*y*z - z^3", nvars=3)
        assert dehomogenize(f, 2) == P("x*y - 1")
        assert dehomogenize(f, 0) == P("x*y - y^3")  # remaining vars are (y, z)


class TestDivisionAndGcd:
    def test_exact_division(self):
        f = P("x^2 - y^2")
        assert try_exact_div(f, P("x - y")) == P("x + y")
        assert try_exact_div(f, P("x + y")) == P("x - y")
        assert try_exact_div(f, P("x")) is None
        assert try_exact_div(P("x*y + y^2"), P("y")) is not None

    def test_division_by_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            try_exact_div(P("x"), Poly.zero(2))

    def test_gcd_basic(self):
        g = poly_gcd(P("x^2 - y^2"), P("x^2 + 2*x*y + y^2"))
        assert g == P("x + y")
        assert poly_gcd(P("x*y"), P("x^2")) == P("x")
        assert poly_gcd(P("x + 1"), P("y + 1")).total_degree() == 0

    def test_gcd_of_zero(self):
        assert poly_gcd(Poly.zero(2), P("2*x")) == P("x")
        with pytest.raises(ValueError):
            poly_gcd(Poly.zero(2), Poly.zero(2))

    def test_gcd_random_products(self):
        rng = random.Random(31)
        for _ in range(20):
            a = random_nonzero_poly(rng, max_degree=3, max_terms=3)
            b = random_nonzero_poly(rng, max_degree=3, max_terms=3)
            c = random_nonzero_poly(rng, max_degree=2, max_terms=3)
            g = poly_gcd(a * c, b * c)
            assert try_exact_div(g, c) is not None
            assert try_exact_div(a * c, g) is not None
            assert try_exact_div(b * c, g) is not None

    def test_gcd_properties_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        symbols = sympy.symbols("x y")
        rng = random.Random(7)
        # a polar of a corpus germ and the germ: rational contents that the
        # remainder sequence must take out at every level
        pairs = [(
            P("-5/3*x^4 - 40/3*x^3*y + 12*x*y^3 + 6*y^4 - 27/2*y^2 + 5*y"),
            P("-5/3*x^4*y + 3*x*y^4 - 9/2*y^3 + 5/2*y^2"),
        )]
        for degree in (5, 6, 7, 8):
            for _ in range(3):
                a, b, c = (
                    random_nonzero_poly(rng, max_degree=d, max_terms=8, min_order=1)
                    for d in (degree, degree, 2)
                )
                pairs.append((a, b))
                pairs.append((a * c, b * c))
        for a, b in pairs:
            start = time.perf_counter()
            g = poly_gcd(a, b)
            assert time.perf_counter() - start < 2.0
            u, v = try_exact_div(a, g), try_exact_div(b, g)
            assert u is not None and v is not None
            common = sympy.gcd(sympy_expr(u, symbols), sympy_expr(v, symbols))
            assert not common.free_symbols

    def test_squarefree(self):
        assert is_squarefree(P("x*y*(x-y)"))
        assert not is_squarefree(P("y^2"))
        assert not is_squarefree(P("(x+y)^2*(x-y)"))
        assert is_squarefree(P("y^2 - x^3"))


def _homogenized(p, extra=0):
    """The two-variable p as a form in x, y, z of degree deg p + extra."""
    top = p.total_degree() + extra
    return Poly(3, {(i, j, top - i - j): c for (i, j), c in p.items()})


@st.composite
def _squarefree_draws(draw):
    """p in 2 variables, or a form in 3, times the square of a nonconstant q
    when planted; three-variable draws reach degree 15."""
    nvars = draw(st.sampled_from((2, 3)))

    def poly(max_exponent, max_terms):
        exponent = st.tuples(*(st.integers(0, max_exponent) for _ in range(2)))
        coeff = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
        terms = draw(st.dictionaries(exponent, coeff, min_size=1, max_size=max_terms))
        p = Poly(2, terms)
        assume(not p.is_zero)
        return p if nvars == 2 else _homogenized(p, draw(st.integers(0, 1)))

    p = poly(4, 6)
    if draw(st.booleans()):
        q = poly(1, 3)
        assume(q.total_degree() > 0)
        p = p * q * q
    return p


class TestSquarefree:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(_squarefree_draws())
    def test_against_sympy(self, p):
        sympy = pytest.importorskip("sympy")
        symbols = sympy.symbols("x y z")[: p.nvars]
        reference = sympy.Poly(sympy_expr(p, symbols), *symbols, domain="QQ")
        assert is_squarefree(p) == reference.is_sqf

    def _gcd_calls(self, monkeypatch, p):
        """is_squarefree(p) and the second argument of each poly_gcd call."""
        calls = []

        def spy(a, b):
            calls.append(b)
            return poly_gcd(a, b)

        monkeypatch.setattr(polynomials, "poly_gcd", spy)
        return polynomials.is_squarefree(p), calls

    def test_certificate_settles_a_factor_through_a_coordinate_line(self, monkeypatch):
        # y divides p and p_x, so gcd(p, p_x) is not constant; c.grad p is
        # proved coprime to p without any gcd
        assert self._gcd_calls(monkeypatch, P("y*(y - x^2)")) == (True, [])
        assert self._gcd_calls(monkeypatch, P("x*y*(x - y)")) == (True, [])

    def test_combination_sharing_a_factor_goes_on_to_the_partials(self, monkeypatch):
        # with c = (1, 3): c.grad(x*(y - 3x)) = y - 3x, a factor of p; the
        # discriminant Res_y(p, p_y) decides, with no gcd
        p = P("x*(y - 3*x)")
        assert p.diff(0) + p.diff(1) * 3 == P("y - 3*x")
        assert self._gcd_calls(monkeypatch, p) == (True, [])

    def test_vanishing_combination_goes_on_to_the_partials(self, monkeypatch):
        # c.grad(y - 3x) = 0, so the discriminant decides, with no gcd
        assert self._gcd_calls(monkeypatch, P("y - 3*x")) == (True, [])
        assert self._gcd_calls(monkeypatch, P("(y - 3*x)^2")) == (False, [])

    def test_shear_to_a_constant_leading_coefficient(self):
        # the y-leading coefficient of x^2*y is x^2; x -> x + y makes it 1
        assert not is_squarefree(P("x^2*y"))
        assert is_squarefree(P("x*(x + y)*y"))
        assert not is_squarefree(P("(x^2*y + x^3)*z", nvars=3))

    def test_non_homogeneous_three_variable_input_is_rejected(self):
        with pytest.raises(ValueError, match="homogeneous"):
            is_squarefree(P("x*y + z", nvars=3))
        with pytest.raises(ValueError, match="homogeneous"):
            poly_gcd(P("x*y + z", nvars=3), P("x", nvars=3))
        with pytest.raises(ValueError, match="homogeneous"):
            poly_gcd(Poly.zero(3), P("x^2 + z", nvars=3))

    def test_three_variables(self):
        assert is_squarefree(P("x*y*z + z^3", nvars=3))
        assert not is_squarefree(P("x*(y - 3*x + 9*z)^2", nvars=3))
        assert is_squarefree(P("y - 3*x", nvars=3))
        assert not is_squarefree(P("(z - 9*x)^2*y", nvars=3))
        assert not is_squarefree(P("x*z^2", nvars=3))
        assert is_squarefree(P("x*z", nvars=3))


@st.composite
def _division_cases(draw):
    """(f, g) in 2 or 3 variables with rational coefficients.

    g is a random polynomial times k/m, so that with denominators cleared
    its content is k >= 2.  f is random, the product g*q, or g*q with one
    term changed.
    """
    nvars = draw(st.sampled_from((2, 3)))

    def poly():
        exponent = st.tuples(*(st.integers(0, 2) for _ in range(nvars)))
        coeff = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
        p = Poly(nvars, draw(st.dictionaries(exponent, coeff, min_size=1, max_size=4)))
        assume(not p.is_zero)
        return p

    scale = Fraction(draw(st.integers(2, 12)), draw(st.sampled_from((1, 13, 17))))
    g = poly().primitive() * scale
    kind = draw(st.sampled_from(("random", "planted", "perturbed")))
    if kind == "random":
        return poly(), g
    f = g * poly()
    if kind == "perturbed":
        monomial = draw(st.sampled_from(sorted(f.terms)))
        f = f + Poly(nvars, {monomial: draw(st.sampled_from((-1, 1, Fraction(1, 2))))})
    return f, g


class TestExactDivision:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(_division_cases())
    def test_against_sympy_div(self, case):
        sympy = pytest.importorskip("sympy")
        f, g = case
        symbols = sympy.symbols("x y z")[: f.nvars]
        quotient, remainder = sympy.div(
            sympy_expr(f, symbols), sympy_expr(g, symbols), *symbols, domain="QQ"
        )
        exact = remainder == 0
        assert (try_exact_div(f, g) is not None) is exact
        found = try_exact_div(f, g)
        if exact:
            assert sympy.expand(sympy_expr(found, symbols) - quotient) == 0
        else:
            assert found is None


@st.composite
def _gcd_pairs(draw):
    """Small pairs in 2 variables, or forms in 3, some built to share a factor.

    ``planted`` multiplies both by a common factor; ``skip`` multiplies a by
    x - 7, or by (26x - 7z)(50x - 7y) in three variables, so that its y- and
    z-leading coefficients vanish at the first certificate point; ``shared``
    keeps the terms of b free of one variable.
    """
    nvars = draw(st.sampled_from((2, 3)))

    def poly():
        exponent = st.tuples(st.integers(0, 2), st.integers(0, 2))
        coeff = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
        terms = draw(st.dictionaries(exponent, coeff, min_size=1, max_size=4))
        p = Poly(2, terms)
        assume(not p.is_zero)
        return p if nvars == 2 else _homogenized(p, draw(st.integers(0, 1)))

    kind = draw(st.sampled_from(("plain", "planted", "skip", "shared")))
    a = poly()
    if kind == "shared":
        var = draw(st.integers(0, nvars - 1))
        b = Poly(nvars, {m: c for m, c in poly().items() if not m[var]})
        assume(not b.is_zero)
        return a, b
    b = poly()
    if kind == "planted":
        c = poly()
        assume(c.total_degree() > 0)
        return a * c, b * c
    if kind == "skip":
        skip = P("x - 7") if nvars == 2 else P("(26*x - 7*z)*(50*x - 7*y)", nvars=3)
        return a * skip, b
    return a, b


@st.composite
def _planted_zero_pairs(draw):
    """Forms a, b with common zeros (s : 2 : 3), and a common factor c.

    Each zero lies on the line 2z = 3y, and (1 : 2 : 3) on y = 2x and z = 3x
    too: lines through all the points (t, 2t, 3t) that the certificate once
    used.  a and b are 3y - 2z times a form plus the product of the 2x - sy
    times another.  c is a form of degree 0 to 2.
    """
    slopes = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=3, unique=True))
    degree = draw(st.integers(len(slopes), 4))

    def form(d):
        exponents = [(i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)]
        coeffs = draw(st.lists(
            st.integers(-5, 5), min_size=len(exponents), max_size=len(exponents)
        ))
        return Poly(3, dict(zip(exponents, coeffs)))

    through = Poly.constant(3, 1)
    for s in slopes:
        through = through * P(f"2*x - ({s})*y", nvars=3)
    a, b = (P("3*y - 2*z", nvars=3) * form(degree - 1)
            + through * form(degree - len(slopes)) for _ in range(2))
    c = form(draw(st.integers(0, 2)))
    assume(not (a.is_zero or b.is_zero or c.is_zero))
    return a, b, c


class TestCoprimeCertificate:
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(_planted_zero_pairs())
    def test_common_zeros_on_one_ray_leave_the_certificate(self, case):
        sympy = pytest.importorskip("sympy")
        a, b, c = case
        symbols = sympy.symbols("x y z")
        assume(sympy.gcd(sympy_expr(a, symbols), sympy_expr(b, symbols)).is_number)
        assert polynomials._coprime_mod_p(a, b)
        reference = sympy.gcd(sympy_expr(a * c, symbols), sympy_expr(b * c, symbols))
        g = poly_gcd(a * c, b * c)
        assert sympy.cancel(sympy_expr(g, symbols) / reference).is_number

    @settings(derandomize=True, database=None, deadline=None, max_examples=120)
    @given(_gcd_pairs())
    def test_gcd_and_certificate_against_sympy(self, pair):
        sympy = pytest.importorskip("sympy")
        a, b = pair
        symbols = sympy.symbols("x y z")[: a.nvars]
        reference = sympy.gcd(*(sympy_expr(p, symbols) for p in pair))
        g = poly_gcd(a, b)
        assert sympy.cancel(sympy_expr(g, symbols) / reference).is_number
        if polynomials._coprime_mod_p(a, b):
            assert reference.is_number

    def test_skips_a_point_where_a_leading_coefficient_vanishes(self):
        # the y-leading coefficient x - 7 vanishes at the first point only
        assert polynomials._coprime_mod_p(P("(x - 7)*y + 1"), P("y^2 + x"))
        assert polynomials._coprime_mod_p(
            P("(x - 7)*y*z + 1", nvars=3), P("z^2 + y + x", nvars=3)
        )

    def test_forced_fallback_gives_the_same_gcds(self, monkeypatch):
        rng = random.Random(11)
        pairs = []
        for nvars in (2, 3):
            for _ in range(15):
                a, b, c = (
                    random_nonzero_poly(rng, max_degree=d, max_terms=4)
                    for d in (3, 3, 2)
                )
                if nvars == 3:
                    a, b, c = (_homogenized(p, rng.randint(0, 1)) for p in (a, b, c))
                pairs += [(a, b), (a * c, b * c)]
        certified = [poly_gcd(a, b) for a, b in pairs]
        coprime = [pair for pair, g in zip(pairs, certified) if g.total_degree() == 0]
        assert len(coprime) >= 20
        assert all(polynomials._coprime_mod_p(a, b) for a, b in coprime)
        monkeypatch.setattr(polynomials, "_coprime_mod_p", lambda a, b: False)
        assert [poly_gcd(a, b) for a, b in pairs] == certified


@st.composite
def _curve_pairs(draw):
    """Two curves through the origin and their colength, or None if infinite.

    Each feature is drawn on its own: a common zero (0, b) with b != 0 on
    the line x = 0, which forces a shear; an added x*y^m on top of each
    curve, so that neither has a constant y-leading coefficient at c = 0; a
    unit common factor 1 + y; and a common branch through the origin.
    """
    def small(min_order, max_degree, max_terms=3):
        exponents = st.tuples(st.integers(0, max_degree), st.integers(0, max_degree))
        terms = draw(st.dictionaries(
            exponents.filter(lambda m: min_order <= sum(m) <= max_degree),
            st.integers(-5, 5).filter(bool),
            min_size=1,
            max_size=max_terms,
        ))
        return Poly(2, {m: Fraction(c) for m, c in terms.items()})

    x, y = P("x"), P("y")
    if draw(st.booleans()):
        b = draw(st.sampled_from([-2, -1, 1, 3]))
        f, g = (x * small(0, 1) + y * (y - b) * small(0, 1) for _ in range(2))
    else:
        f, g = small(1, 3, 4), small(1, 3, 4)
    assume(not f.is_zero and not g.is_zero)
    if draw(st.booleans()):
        f, g = (p + x * y ** (p.degree_in(1) + 1) for p in (f, g))
    if draw(st.booleans()):
        f, g = f * (1 + y), g * (1 + y)
    if draw(st.booleans()):
        branch = small(1, 2)
        return f * branch, g * branch, None
    return f, g, standard_basis([f, g]).quotient_dim()


class TestIntersectionAtOrigin:
    def test_examples(self):
        assert intersection_at_origin(P("x"), P("y")) == 1
        assert intersection_at_origin(P("y^2 - x^3"), P("y - x^2")) == 3
        assert intersection_at_origin(P("x*(1 + y)"), P("y*(1 + y)")) == 1
        assert intersection_at_origin(P("x*y"), P("x")) is None
        # a unit gives 0 and the zero polynomial an infinite quotient
        assert intersection_at_origin(P("x"), P("1 + y")) == 0
        assert intersection_at_origin(Poly.zero(2), P("1")) == 0
        assert intersection_at_origin(Poly.zero(2), P("x")) is None
        with pytest.raises(ValueError, match="two variables"):
            intersection_at_origin(P("x", nvars=3), P("y", nvars=3))

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(_curve_pairs())
    def test_matches_the_local_engine(self, case):
        f, g, colength = case
        assert intersection_at_origin(f, g) == colength

    def test_matches_the_local_engine_on_a_seeded_corpus(self):
        rng = random.Random(29)
        checked = 0
        while checked < 8:
            f = random_nonzero_poly(rng, max_degree=3, min_order=1)
            g = random_nonzero_poly(rng, max_degree=3, min_order=1)
            dim = standard_basis([f, g]).quotient_dim()
            if dim is None:
                continue
            assert intersection_at_origin(f, g) == dim
            checked += 1

    def test_resultant_is_the_sylvester_determinant(self):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.subresultants_qq_zz import sylvester

        x, y = sympy.symbols("x y")
        rng = random.Random(19)
        for _ in range(25):
            a, b = (
                [[rng.randint(-4, 4) for _ in range(rng.randint(0, 2))]
                 for _ in range(rng.randint(1, 4))] + [[rng.randint(1, 3), 1]]
                for _ in range(2)
            )
            for c in a + b:
                while c and not c[-1]:
                    c.pop()
            res = dense.resultant(a, b)
            a_expr, b_expr = (
                sum(sum(v * x**i for i, v in enumerate(c)) * y**j for j, c in enumerate(p))
                for p in (a, b)
            )
            # sympy's resultant can differ in sign from the Sylvester
            # determinant; both sides have x-degree at most 8 here
            matrix = sylvester(a_expr, b_expr, y)
            for t in range(-4, 5):
                value = sum(v * t**i for i, v in enumerate(res))
                assert value == matrix.subs(x, t).det(method="bareiss")

    def test_common_zero_on_the_axis_forces_a_shear(self, monkeypatch):
        # x = 0 meets both curves at (0, 1) too; neither y-leading
        # coefficient of (y - x)^2 + x*y^2 and x*y^3 - y*(y - 1) is constant at
        # c = 0 in the second pair
        shears = []
        sheared = polynomials.sheared
        monkeypatch.setattr(
            polynomials, "sheared", lambda terms, c: shears.append(c) or sheared(terms, c)
        )
        for f, g in [(P("x + y*(y - 1)"), P("2*x - y*(y - 1)")),
                     (P("x*y^2 + x"), P("x*y^3 - y*(y - 1)"))]:
            shears.clear()
            assert intersection_at_origin(f, g) == standard_basis([f, g]).quotient_dim()
            assert shears[-1] == 1

    def test_no_good_shear_is_an_engine_inconsistency(self, monkeypatch):
        # a coprime pair of degrees 3 and 2 has at most 3*2 + 3 bad shears
        monkeypatch.setattr(polynomials, "on_axis_only_at_origin", lambda a, b: False)
        with pytest.raises(EngineInconsistencyError, match=r"x \+ 9\*y"):
            intersection_at_origin(P("y^2 - x^3"), P("x*y"))

    def test_one_gcd_per_pair(self, monkeypatch):
        # the shears x -> x and x -> x + y both fail on this germ-corpus
        # germ; the pair is proved coprime once, not after each failure
        calls = []
        original = polynomials.poly_gcd
        monkeypatch.setattr(
            polynomials, "poly_gcd", lambda f, g: calls.append(1) or original(f, g)
        )
        f = P("3/2*x^2*y + 5/2*y^3 - 2*y^2")
        g = P("1/2*x^3 + 15/2*x*y^2 - 4*x*y")
        assert intersection_at_origin(f, g) == 6
        assert len(calls) == 1


class TestEngineInconsistency:
    """Cross-checks inside the gcd, the eliminant and the squarefree part raise,
    also under -O.

    The gcd inputs are coprime pairs, which the modular certificate settles
    before the remainder sequence; the gcd tests turn it off so that the
    exact divisions of the remainder sequence still run.
    """

    def test_content_not_dividing_input(self, monkeypatch):
        # the contents of y^2 + x and y + 1 are gcds of x, 1 and of 1, 1
        monkeypatch.setattr(polynomials, "_coprime_mod_p", lambda a, b: False)
        monkeypatch.setattr(dense, "zx_gcd", lambda a, b: [2, 1])
        with pytest.raises(EngineInconsistencyError, match="not exact"):
            poly_gcd(P("y^2 + x"), P("y + 1"))

    def test_content_not_dividing_remainder(self, monkeypatch):
        # the pseudo-remainder of y^3 + x by y^2 + 1 is x - y, with content
        # gcd(x, -1); x + 2 divides neither
        monkeypatch.setattr(polynomials, "_coprime_mod_p", lambda a, b: False)
        original = dense.zx_gcd
        monkeypatch.setattr(
            dense,
            "zx_gcd",
            lambda a, b: [2, 1] if b == [-1] else original(a, b),
        )
        with pytest.raises(EngineInconsistencyError, match="not exact"):
            poly_gcd(P("y^3 + x"), P("y^2 + 1"))

    def test_zero_eliminant(self, monkeypatch):
        monkeypatch.setattr(projective, "resultant", lambda a, b: [])
        with pytest.raises(EngineInconsistencyError, match="zero eliminant"):
            projective._affine_common_zeros(P("y - x"), P("y + x"))

    def test_inexact_squarefree_division(self, monkeypatch):
        # (t - 1)^2 (t + 2) = t^3 - 3t + 2; t + 3 is no factor of it
        monkeypatch.setattr(dense, "zx_gcd", lambda a, b: [3, 1])
        with pytest.raises(EngineInconsistencyError, match="not exact"):
            blowup.rational_roots([2, -3, 0, 1])

    def test_raise_under_optimize(self):
        script = (
            "import sys\n"
            "from folgerm import blowup, dense, polynomials, projective\n"
            "from folgerm.localalg import EngineInconsistencyError\n"
            "from folgerm.polynomials import parse_poly\n"
            "P = lambda text: parse_poly(text, 2)\n"
            "content = dense.zx_gcd\n"
            "def attempt(call):\n"
            "    try:\n"
            "        call()\n"
            "    except EngineInconsistencyError:\n"
            "        print('raised', sys.flags.optimize)\n"
            "polynomials._coprime_mod_p = lambda a, b: False\n"
            "dense.zx_gcd = lambda a, b: [2, 1]\n"
            "attempt(lambda: polynomials.poly_gcd(P('y^2 + x'), P('y + 1')))\n"
            "dense.zx_gcd = lambda a, b: [2, 1] if b == [-1] else content(a, b)\n"
            "attempt(lambda: polynomials.poly_gcd(P('y^3 + x'), P('y^2 + 1')))\n"
            "dense.zx_gcd = content\n"
            "projective.resultant = lambda a, b: []\n"
            "attempt(lambda: projective._affine_common_zeros(P('y - x'), P('y + x')))\n"
            "dense.zx_gcd = lambda a, b: [3, 1]\n"
            "attempt(lambda: blowup.rational_roots([2, -3, 0, 1]))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, timeout=60,
            env={"PYTHONPATH": str(src)},
        )
        assert done.stdout == "raised 1\n" * 4, done.stderr
