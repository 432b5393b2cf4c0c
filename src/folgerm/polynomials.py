"""Exact multivariate polynomials over the rationals.

A polynomial in 2 or 3 variables is a pair (c, T): a positive ``Fraction``
content c times a primitive integer term map T (exponent tuples to nonzero
ints with gcd 1); zero is (0, {}).  The pair is unique, so equality and
hashing compare it.  By Gauss's lemma a product of primitive polynomials is
primitive, so a product is c1*c2 times T1*T2 with no gcd; a sum takes one
content gcd.  Every exact layer reads T directly.  Variables are named
``x, y`` (arity 2) or ``x, y, z`` (arity 3); nothing touches floating point.

Printing uses a fixed term order (total degree, then lexicographic with
``x > y > z``, highest first) so that ``str`` output is canonical and survives
a parse/print round trip.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import comb as _comb
from math import gcd as _int_gcd
from math import lcm as _lcm
from math import log10 as _log10
from operator import add as _add
from typing import Iterable, Mapping, Sequence

Monomial = tuple[int, ...]

VAR_NAMES = ("x", "y", "z")

class EngineInconsistencyError(RuntimeError):
    """An internal cross-check failed: two exact routes to one fact disagreed."""


class PolyParseError(ValueError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at column {position + 1})")
        self.position = position


def _print_key(monomial: Monomial) -> tuple:
    # Highest total degree first, ties by lex with x > y > z.
    return (-sum(monomial), tuple(-e for e in monomial))


class Poly:
    """Immutable sparse polynomial: ``_c`` times ``_t``, as in the module docstring."""

    __slots__ = ("nvars", "_c", "_t", "_hash")

    def __init__(self, nvars: int, terms: Mapping[Monomial, Fraction | int] | None = None):
        if nvars not in (2, 3):
            raise ValueError(f"unsupported arity {nvars}; expected 2 or 3")
        clean: dict[Monomial, Fraction] = {}
        for monomial, coeff in (terms or {}).items():
            if len(monomial) != nvars or any(e < 0 for e in monomial):
                raise ValueError(f"bad exponent tuple {monomial!r} for arity {nvars}")
            value = Fraction(coeff)
            if value:
                clean[tuple(monomial)] = value
        scale = _lcm(*(c.denominator for c in clean.values()))
        ints = {m: c.numerator * (scale // c.denominator) for m, c in clean.items()}
        canonical = Poly._of(nvars, ints, 1, scale)
        self.nvars, self._c, self._t, self._hash = nvars, canonical._c, canonical._t, None

    # -- constructors ------------------------------------------------------

    @classmethod
    def _raw(cls, nvars: int, content: Fraction, ints: dict[Monomial, int]) -> Poly:
        """Wrap a pair that is already canonical."""
        poly = object.__new__(cls)
        poly.nvars, poly._c, poly._t, poly._hash = nvars, content, ints, None
        return poly

    @classmethod
    def _of(cls, nvars: int, ints: dict[Monomial, int], num: int = 1, den: int = 1) -> Poly:
        """(num/den) * ints, for num/den > 0 and ints with no zero value."""
        g = _int_gcd(*ints.values())
        if g > 1:
            ints = {m: v // g for m, v in ints.items()}
        return cls._raw(nvars, Fraction(num * g, den), ints)

    @classmethod
    def zero(cls, nvars: int) -> Poly:
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value: Fraction | int) -> Poly:
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> Poly:
        return cls(nvars, {tuple(int(i == index) for i in range(nvars)): 1})

    @classmethod
    def monomial(cls, exponents: Monomial, coeff: Fraction | int = 1) -> Poly:
        return cls(len(exponents), {tuple(exponents): coeff})

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        c = self._c
        return {m: c * v for m, v in self._t.items()}

    def items(self):
        return self.terms.items()

    def __bool__(self) -> bool:
        return bool(self._t)

    @property
    def is_zero(self) -> bool:
        return not self._t

    def coefficient(self, monomial: Monomial) -> Fraction:
        """The rational coefficient, for callers that print it; decisions read ``_t``."""
        return self._c * self._t.get(tuple(monomial), 0)

    def constant_term(self) -> Fraction:
        """The rational value at the origin, for callers that print it."""
        return self._c * self._t.get((0,) * self.nvars, 0)

    def total_degree(self) -> int:
        """Maximal total degree of a term; -1 for the zero polynomial."""
        return max(map(sum, self._t), default=-1)

    def order(self) -> int:
        """Minimal total degree of a term (the multiplicity at the origin)."""
        if not self._t:
            raise ValueError("the zero polynomial has no order")
        return min(sum(m) for m in self._t)

    def degree_in(self, var: int) -> int:
        return max((m[var] for m in self._t), default=-1)

    # -- arithmetic --------------------------------------------------------

    def _check_arity(self, other: Poly) -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"arity mismatch: {self.nvars} vs {other.nvars}")

    def _plus(self, other: Poly | Fraction | int, sign: int) -> Poly:
        """self + sign * other, on the integer scale of both contents."""
        if not isinstance(other, Poly):
            other = Poly.constant(self.nvars, other)
        self._check_arity(other)
        if not other._t:
            return self
        if not self._t:
            return other if sign > 0 else -other
        scale, (a, b) = _common_scale((self, other))
        ints = _add_terms(dict(a), ((m, sign * v) for m, v in b.items()))
        return Poly._of(self.nvars, ints, 1, scale)

    def __add__(self, other: Poly | Fraction | int) -> Poly:
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly._raw(self.nvars, self._c, {m: -v for m, v in self._t.items()})

    def __sub__(self, other: Poly | Fraction | int) -> Poly:
        return self._plus(other, -1)

    def __rsub__(self, other: Fraction | int) -> Poly:
        return Poly.constant(self.nvars, other) - self

    def __mul__(self, other: Poly | Fraction | int) -> Poly:
        if not isinstance(other, Poly):
            value = other if isinstance(other, int) else Fraction(other)
            if not value or not self._t:
                return Poly.zero(self.nvars)
            ints = self._t if value > 0 else {m: -v for m, v in self._t.items()}
            return Poly._raw(self.nvars, self._c * abs(value), ints)
        self._check_arity(other)
        if not (self._t and other._t):
            return Poly.zero(self.nvars)
        return Poly._raw(self.nvars, self._c * other._c, _add_product({}, self._t, other._t))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Poly:
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.constant(self.nvars, 1)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self._c == other._c and self._t == other._t

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.nvars, self._c, frozenset(self._t.items())))
        return self._hash

    # -- calculus and structure -------------------------------------------

    def diff(self, var: int) -> Poly:
        return Poly._of(self.nvars, _diff(self._t, var), self._c.numerator, self._c.denominator)

    def shift(self, offsets: Iterable[Fraction | int]) -> Poly:
        """Translate: substitute ``x_i + offset_i`` for each variable.

        One variable v at a time, on the integer map.  With offset p/q, the
        terms that agree off v form f(v) = sum t_b v^b.  For the least e with
        q^(b-e) dividing every t_b of degree b > e, g(u) = sum t_b q^(e-b) u^b
        = q^e f(u/q) has integer coefficients and f(v + p/q) = g(qv + p) / q^e.
        So a Taylor shift of g by p gives h_k, the v^k coefficient is
        h_k q^k / q^e, and the content is divided by q^e.  After a translation
        of a reduction chain, e is well below the degree.  One gcd at the end
        makes the map primitive.
        """
        ints, scale = self._t, 1
        for var, value in enumerate(offsets):
            value = Fraction(value)
            if not value or not ints:
                continue
            p, q = value.numerator, value.denominator
            top = max(m[var] for m in ints)
            powers = [q**k for k in range(top + 1)]
            e, groups = 0, {}
            for monomial, v in ints.items():
                b = monomial[var]
                while e < b and v % powers[b - e]:
                    e += 1
                groups.setdefault(monomial[:var] + (0,) + monomial[var + 1:], {})[b] = v
            shifted: dict[Monomial, int] = {}
            for rest, column in groups.items():
                n = max(column)
                g = [0] * (n + 1)
                for b, v in column.items():
                    g[b] = v * powers[e - b] if b <= e else v // powers[b - e]
                for i in range(n):
                    for j in range(n - 1, i - 1, -1):
                        g[j] += p * g[j + 1]
                for k, h in enumerate(g):
                    if h:
                        shifted[rest[:var] + (k,) + rest[var + 1:]] = h * powers[k]
            ints, scale = shifted, scale * powers[e]
        if ints is self._t:
            return self
        return Poly._of(self.nvars, ints, self._c.numerator, self._c.denominator * scale)

    def evaluate(self, point: Iterable[Fraction | int]) -> Fraction:
        values = [Fraction(v) for v in point]
        if len(values) != self.nvars:
            raise ValueError("point arity mismatch")
        total = Fraction(0)
        for monomial, product in self._t.items():
            for value, e in zip(values, monomial):
                product *= value**e
            total += product
        return self._c * total

    def lowest_form(self) -> Poly:
        """Homogeneous part of minimal total degree (the initial form)."""
        low = self.order()
        ints = {m: v for m, v in self._t.items() if sum(m) == low}
        return Poly._of(self.nvars, ints, self._c.numerator, self._c.denominator)

    def is_homogeneous(self) -> bool:
        return len(set(map(sum, self._t))) <= 1

    # -- normalization -----------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational c with self/c integer-primitive; 0 for zero."""
        return self._c

    def primitive(self) -> Poly:
        """Integer-primitive scalar multiple with positive printed lead."""
        if not self._t:
            return self
        ints = self._t
        if ints[min(ints, key=_print_key)] < 0:
            ints = {m: -v for m, v in ints.items()}
        return Poly._raw(self.nvars, Fraction(1), ints)

    # -- printing ----------------------------------------------------------

    def to_string(self) -> str:
        if not self._t:
            return "0"
        names = VAR_NAMES[: self.nvars]
        pieces: list[str] = []
        for monomial in sorted(self._t, key=_print_key):
            v = self._t[monomial]
            factors = []
            for name, e in zip(names, monomial):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            magnitude = self._c * abs(v)
            if not factors:
                body = str(magnitude)
            elif magnitude == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(magnitude)] + factors)
            if not pieces:
                pieces.append(body if v > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if v > 0 else f"- {body}")
        return " ".join(pieces)

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"Poly({self.nvars}, {self.to_string()!r})"


def _diff(ints: dict[Monomial, int], var: int) -> dict[Monomial, int]:
    """The derivative of an integer term map in variable ``var``."""
    return {m[:var] + (m[var] - 1,) + m[var + 1:]: v * m[var] for m, v in ints.items() if m[var]}


def _common_scale(polys: Sequence[Poly]) -> tuple[int, list[dict[Monomial, int]]]:
    """(L, maps): the integer map of L*p for each p; L is the lcm of the contents' denominators."""
    scale = _lcm(*(p._c.denominator for p in polys))
    maps = []
    for p in polys:
        k = p._c.numerator * (scale // p._c.denominator)
        maps.append(p._t if k == 1 else {m: k * v for m, v in p._t.items()})
    return scale, maps


def _add_terms(result: dict[Monomial, int],
               pairs: Iterable[tuple[Monomial, int]]) -> dict[Monomial, int]:
    """Add the (monomial, coefficient) pairs into ``result``, in place."""
    for key, value in pairs:
        total = result.get(key, 0) + value
        if total:
            result[key] = total
        else:
            result.pop(key, None)
    return result


def _add_product(result: dict[Monomial, int], a: Mapping[Monomial, int],
                 b: Mapping[Monomial, int]) -> dict[Monomial, int]:
    """Add the product of the term maps a and b into ``result``, in place."""
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            key = tuple(map(_add, m1, m2))
            total = result.get(key, 0) + c1 * c2
            if total:
                result[key] = total
            else:
                result.pop(key, None)
    return result


# -- parsing ---------------------------------------------------------------
#
# expr   := ('+'|'-')? term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := base ('^' nat)?
# base   := var | rational | parameter | '(' expr ')'
#
# The leading sign extension admits inputs like "-y".  A parameter is any
# identifier other than a variable name; it must be bound to a rational in
# the ``parameters`` mapping and is substituted during parsing.  Blanks are
# spaces and tabs.  Groups nest at most MAX_NESTING deep, so that the descent
# stays far inside Python's recursion limit.  A number, a power of a number
# and each numerator and denominator of a coefficient has at most
# MAX_POWER_DIGITS digits, the most CPython (3.10.7 on) converts to text, so
# ``3^99999999999`` is refused at once and every report can print.

_BLANKS = re.compile(r"[ \t]*")
MAX_NESTING = 100
MAX_POWER_DIGITS = 4300
_DIGIT_LIMIT = 10**MAX_POWER_DIGITS


class _Parser:
    """Recursive descent over the grammar above, on integer atoms.

    An atom (a rational, parameter or variable) is an integer numerator,
    denominator and exponent list.  A term multiplies its atoms' integers,
    only a parenthesised group is a Poly, and an expression adds its terms
    over one common denominator.  ``pos`` always rests on a non-blank: each
    step past a token skips the blanks after it with one compiled pattern.
    An error reports the column of the offending character, the end of the
    digits for a zero denominator, or the start of the last term of a
    coefficient with too many digits.
    """

    def __init__(self, text: str, nvars: int, parameters: Mapping[str, Fraction]):
        self.text = text
        self.nvars = nvars
        self.parameters = parameters
        self.pos = _BLANKS.match(text).end()
        self.depth = 0

    def error(self, message: str) -> PolyParseError:
        return PolyParseError(message, self.pos)

    def peek(self) -> str:
        return self.text[self.pos:self.pos + 1]

    def advance(self, end: int) -> None:
        """Move to ``end``, the end of a token, and past the blanks after it."""
        self.pos = _BLANKS.match(self.text, end).end()

    def parse(self) -> Poly:
        value = self.parse_expr()
        if self.pos < len(self.text):
            raise self.error(f"unexpected character {self.peek()!r}")
        return value

    def parse_expr(self) -> Poly:
        terms: list[tuple[Monomial, int, int, int]] = []
        sign = 1
        if (ch := self.peek()) in ("+", "-"):
            sign = -1 if ch == "-" else 1
            self.advance(self.pos + 1)
        self.add_term(terms, sign)
        while (ch := self.peek()) in ("+", "-"):
            self.advance(self.pos + 1)
            self.add_term(terms, -1 if ch == "-" else 1)
        scale = _lcm(*(den for _, _, den, _ in terms))
        total = _add_terms({}, ((m, num * (scale // den)) for m, num, den, _ in terms))
        value = Poly._of(self.nvars, total, 1, scale)
        starts = {m: start for m, _, _, start in terms}
        n, d = value._c.numerator, value._c.denominator
        for monomial, v in value._t.items():
            # n*v/d in lowest terms is (n*v/g)/(d/g) for g = gcd(v, d)
            g = _int_gcd(v, d)
            if max(abs(n * v) // g, d // g) >= _DIGIT_LIMIT:
                raise PolyParseError(f"coefficient has more than {MAX_POWER_DIGITS} digits",
                                     starts[monomial])
        return value

    def add_term(self, terms: list[tuple[Monomial, int, int, int]], sign: int) -> None:
        """Append the next term as (monomial, numerator, denominator, start column)."""
        start = self.pos
        num, den, exponents, group = sign, 1, [0] * self.nvars, None
        while True:
            factor = self.parse_factor()
            if isinstance(factor, Poly):
                group = factor if group is None else group * factor
            else:
                num *= factor[0]
                den *= factor[1]
                for i, e in enumerate(factor[2]):
                    exponents[i] += e
            if self.peek() != "*":
                break
            self.advance(self.pos + 1)
        if group is None:
            terms.append((tuple(exponents), num, den, start))
        else:
            num, den = num * group._c.numerator, den * group._c.denominator
            terms.extend((tuple(map(_add, exponents, m)), num * v, den, start)
                         for m, v in group._t.items())

    def parse_factor(self) -> Poly | tuple[int, int, list[int]]:
        base = self.parse_base()
        if self.peek() != "^":
            return base
        self.advance(self.pos + 1)
        start = self.pos
        exponent = self.parse_nat()
        self.advance(self.pos)
        if isinstance(base, Poly):
            return base**exponent
        num, den, exponents = base
        largest = max(abs(num), den)
        if largest > 1 and exponent * _log10(largest) >= MAX_POWER_DIGITS:
            raise PolyParseError(
                f"numeric power has more than {MAX_POWER_DIGITS} digits", start
            )
        return num**exponent, den**exponent, [e * exponent for e in exponents]

    def parse_base(self) -> Poly | tuple[int, int, list[int]]:
        ch = self.peek()
        if ch == "(":
            if self.depth == MAX_NESTING:
                raise self.error(f"parentheses nested deeper than {MAX_NESTING}")
            self.depth += 1
            self.advance(self.pos + 1)
            inner = self.parse_expr()
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.advance(self.pos + 1)
            self.depth -= 1
            return inner
        exponents = [0] * self.nvars
        if "0" <= ch <= "9":
            numerator, denominator = self.parse_nat(), 1
            self.advance(self.pos)
            if self.peek() == "/":
                self.advance(self.pos + 1)
                denominator = self.parse_nat()
                if denominator == 0:
                    raise self.error("zero denominator")
                self.advance(self.pos)
            return numerator, denominator, exponents
        if ch.isalpha() or ch == "_":
            text, end = self.text, self.pos + 1
            while end < len(text) and (text[end].isalnum() or text[end] == "_"):
                end += 1
            name = text[self.pos:end]
            if name in VAR_NAMES:
                index = VAR_NAMES.index(name)
                if index >= self.nvars:
                    raise self.error(
                        f"variable {name!r} not available with {self.nvars} variables"
                    )
                exponents[index] = 1
                numerator = denominator = 1
            elif name in self.parameters:
                value = Fraction(self.parameters[name])
                numerator, denominator = value.numerator, value.denominator
            else:
                raise self.error(f"unknown parameter {name!r}")
            self.advance(end)
            return numerator, denominator, exponents
        if ch == "":
            raise self.error("unexpected end of input")
        raise self.error(f"unexpected character {ch!r}")

    def parse_nat(self) -> int:
        """The digits at ``pos``; leaves ``pos`` at their end."""
        text, start = self.text, self.pos
        end = start
        while end < len(text) and "0" <= text[end] <= "9":
            end += 1
        if start == end:
            raise self.error("expected an exponent")
        if end - start > MAX_POWER_DIGITS:
            raise self.error(f"number has more than {MAX_POWER_DIGITS} digits")
        self.pos = end
        return int(text[start:end])


def parse_poly(
    text: str, nvars: int, parameters: Mapping[str, Fraction] | None = None
) -> Poly:
    """Parse an expression into a polynomial; parameters become rationals."""
    return _Parser(text, nvars, parameters or {}).parse()


# -- divisibility and the coprimality certificate --------------------------


def _exact_quotient(numerator: dict[Monomial, int],
                    divisor: dict[Monomial, int]) -> dict[Monomial, int] | None:
    """numerator / divisor over Z, for a primitive divisor; None if it does not divide.

    Long division under the lexicographic order.  A single divisor is a
    Groebner basis of the ideal it generates, so the remainder vanishes
    exactly when it divides, and the quotient comes out term by term.  By Gauss's lemma
    contents multiply, so an exact quotient of an integer polynomial by a
    primitive one has integer content and integer coefficients: a step
    whose quotient coefficient is not an integer proves "does not divide".
    """
    lead = max(divisor)
    lead_coeff = divisor[lead]
    quotient: dict[Monomial, int] = {}
    rest = dict(numerator)
    while rest:
        top = max(rest)
        delta = tuple(a - b for a, b in zip(top, lead))
        factor, remainder = divmod(rest[top], lead_coeff)
        if remainder or any(e < 0 for e in delta):
            return None
        quotient[delta] = factor
        _add_product(rest, {delta: -factor}, divisor)
    return quotient


def try_exact_div(numerator: Poly, denominator: Poly) -> Poly | None:
    """Return ``numerator / denominator`` when the division is exact.

    The contents divide as rationals and the primitive maps over Z by
    ``_exact_quotient``, whose quotient is primitive by Gauss's lemma.
    """
    if denominator.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    numerator._check_arity(denominator)
    quotient = _exact_quotient(numerator._t, denominator._t)
    if quotient is None:
        return None
    return Poly._raw(numerator.nvars, numerator._c / denominator._c, quotient)


def divides(denominator: Poly, numerator: Poly) -> bool:
    return try_exact_div(numerator, denominator) is not None


def divides_wedge(curve: Poly, coefficients: tuple[Poly, ...]) -> bool:
    """Whether the curve divides omega ^ d(curve), for omega = sum c_i dx_i.

    The wedge has the coefficients c_i f_j - c_j f_i (i < j) for the partials
    f_i of the curve f.  They are formed over Z, with the c_i on one common
    integer scale and f primitive, which changes no divisibility, and each is
    decided by ``_exact_quotient``.
    """
    (_, rows), f = _common_scale(coefficients), curve._t
    grad = [_diff(f, v) for v in range(curve.nvars)]
    for i, j in combinations(range(len(rows)), 2):
        minor = _add_product({}, rows[i], grad[j])
        _add_product(minor, {m: -c for m, c in rows[j].items()}, grad[i])
        if _exact_quotient(minor, f) is None:
            return False
    return True


_CERT_PRIME = 2**31 - 1
_CERT_POINTS = (7, 1234567, 98765431)


def _image_mod_p(p: Poly) -> dict[Monomial, int]:
    """The primitive integer map of p, reduced mod the prime."""
    return {m: c % _CERT_PRIME for m, c in p._t.items()}


def _specialize(image: dict[Monomial, int], var: int, values: tuple[int, ...],
                degree: int) -> list[int]:
    """Coefficients by power of ``var`` once the other variables take ``values``."""
    coeffs = [0] * (degree + 1)
    for monomial, c in image.items():
        for i, e in enumerate(monomial):
            if e and i != var:
                c = c * pow(values[i], e, _CERT_PRIME) % _CERT_PRIME
        coeffs[monomial[var]] = (coeffs[monomial[var]] + c) % _CERT_PRIME
    return coeffs


def _euclid_mod_p(f: list[int], g: list[int]) -> list[int]:
    """gcd in F_p[v] of coefficient lists, lowest power first, nonzero leads."""
    while g:
        inverse = pow(g[-1], -1, _CERT_PRIME)
        while len(f) >= len(g):
            q = f[-1] * inverse % _CERT_PRIME
            shift = len(f) - len(g)
            for i, c in enumerate(g):
                f[shift + i] = (f[shift + i] - q * c) % _CERT_PRIME
            while f and not f[-1]:
                f.pop()
        f, g = g, f
    return f


def _coprime_mod_p(a: Poly, b: Poly) -> bool:
    """Whether the images of a and b modulo a prime prove them coprime.

    Take the primitive integer maps and let p = 2^31 - 1.  For each variable
    v in which both a and b have positive degree, give the other variables
    their slots of (t, t + 1) (two variables) or (t, t^2 + 1, 3t + 5)
    (three), for t in ``_CERT_POINTS`` in turn, until both v-leading coefficients are
    nonzero mod p and the two images have a constant gcd in F_p[v].  These
    points lie on no common ray, which for homogeneous input would be one
    projective line, sunk for every t by one common zero on it.

    Sound at each such point: let h be a common factor of positive v-degree.
    By Gauss's lemma h may be taken in Z[x, y, ...] dividing both integer
    multiples there, so lc_v(h) divides lc_v(a), which is nonzero at the
    point mod p.  So the image of h keeps its v-degree and divides both
    images, whose gcd is then not constant.  A nonconstant common factor has
    positive degree in some variable, in which a and b both have positive
    degree; so if every such variable passes, a and b are coprime.  False
    only means "not proved".
    """
    images = (_image_mod_p(a), _image_mod_p(b))
    for var in range(a.nvars):
        degrees = (a.degree_in(var), b.degree_in(var))
        if min(degrees) <= 0:
            continue
        for t in _CERT_POINTS:
            values = (t, t + 1) if a.nvars == 2 else (t, t * t + 1, 3 * t + 5)
            f, g = (
                _specialize(image, var, values, degree)
                for image, degree in zip(images, degrees)
            )
            if f[-1] and g[-1] and len(_euclid_mod_p(f, g)) == 1:
                break
        else:
            return False
    return True


def dehomogenize(p: Poly, axis: int) -> Poly:
    """Set variable ``axis`` to 1, returning a polynomial in the others.

    On homogeneous input no two monomials meet, so the term map is built
    directly; only inhomogeneous input, where they can, adds coefficients.
    """
    if p.nvars != 3:
        raise ValueError("dehomogenize expects a 3-variable polynomial")
    i, j = [k for k in range(3) if k != axis]
    terms = {(m[i], m[j]): v for m, v in p._t.items()}
    if len(terms) == len(p._t):
        return Poly._raw(2, p._c, terms)
    terms = _add_terms({}, (((m[i], m[j]), v) for m, v in p._t.items()))
    return Poly._of(2, terms, p._c.numerator, p._c.denominator)


# -- resultants and gcds over Z[x] and Z[x][y] -----------------------------
#
# Z[x] is a list of ints, lowest power first, without trailing zeros (the
# zero polynomial is []); Z[x][y] is a list of those, lowest power of y first,
# with a nonzero last entry.


def _zx_sub(a: list[int], b: list[int]) -> list[int]:
    out = a + [0] * (len(b) - len(a)) if len(a) < len(b) else list(a)
    for i, v in enumerate(b):
        out[i] -= v
    while out and not out[-1]:
        out.pop()
    return out


def _zx_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    if len(a) == 1:
        return [a[0] * v for v in b]
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                out[i + j] += u * v
    return out


def _zx_pow(a: list[int], n: int) -> list[int]:
    out = [1]
    for _ in range(n):
        out = _zx_mul(out, a)
    return out


def _zx_div(a: list[int], b: list[int]) -> list[int]:
    """The quotient a / b in Z[x], for a b that the caller knows divides a.

    The power of x that divides b must divide a; both are stripped of it
    first, so a power of x costs one pass and not a schoolbook division.
    """
    shift = next(i for i, v in enumerate(b) if v)
    if any(a[:shift]):
        raise EngineInconsistencyError("a division in Z[x] is not exact")
    a, b = a[shift:], b[shift:]
    q = [0] * max(len(a) - len(b) + 1, 0)
    for k in reversed(range(len(q))):
        q[k] = c = a[k + len(b) - 1] // b[-1]
        for j, v in enumerate(b):
            a[k + j] -= c * v
    if any(a):
        raise EngineInconsistencyError("a division in Z[x] is not exact")
    return q


def _zx_gcd(a: list[int], b: list[int]) -> list[int]:
    """gcd in Z[x] of nonzero a and b, primitive, up to sign.

    It is 1 when the images modulo ``_CERT_PRIME`` are coprime and the prime
    does not divide lc(a): the image of a common factor keeps its degree and
    divides both images.  Otherwise the primitive remainder sequence, whose
    reduction steps multiply r by lc(b) / gcd(lc(r), lc(b)), not by lc(b).
    """
    if a[-1] % _CERT_PRIME:
        g = [v % _CERT_PRIME for v in b]
        while g and not g[-1]:
            g.pop()
        if len(_euclid_mod_p([v % _CERT_PRIME for v in a], g)) == 1:
            return [1]
    if len(a) < len(b):
        a, b = b, a
    content = _int_gcd(*a)
    a = [v // content for v in a]
    while b:
        content = _int_gcd(*b)
        r, b = a, [v // content for v in b]
        while len(r) >= len(b):
            k = _int_gcd(r[-1], b[-1])
            u, t = b[-1] // k, r[-1] // k
            shift = len(r) - len(b)
            r = [u * v for v in r]
            for j, v in enumerate(b):
                r[shift + j] -= t * v
            while r and not r[-1]:
                r.pop()
        a, b = b, r
    return a


def _prem(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """lc(b)^(deg a - deg b + 1) * a modulo b, in Z[x][y]."""
    lead, r = b[-1], list(a)
    spare = len(a) - len(b) + 1
    while len(r) >= len(b):
        top, shift = r.pop(), len(r) + 1 - len(b)
        r = [_zx_mul(lead, c) for c in r]
        for j, c in enumerate(b[:-1]):
            r[shift + j] = _zx_sub(r[shift + j], _zx_mul(top, c))
        while r and not r[-1]:
            r.pop()
        spare -= 1
    scale = _zx_pow(lead, spare)
    return [_zx_mul(scale, c) for c in r]


def _resultant(a: list[list[int]], b: list[list[int]]) -> list[int]:
    """Res_y(a, b) in Z[x] for a, b in Z[x][y], not both constant in y.

    The subresultant pseudo-remainder sequence (Collins 1967; Brown and
    Traub 1971), as in Cohen, *A Course in Computational Algebraic Number
    Theory*, Algorithm 3.3.7, without taking contents.
    """
    sign = 1
    if len(a) < len(b):
        a, b = b, a
        sign = -1 if (len(a) - 1) * (len(b) - 1) % 2 else 1
    g = h = [1]
    while len(b) > 1:
        delta = len(a) - len(b)
        if (len(a) - 1) % 2 and (len(b) - 1) % 2:
            sign = -sign
        r = _prem(a, b)
        if not r:
            return []
        divisor = _zx_mul(g, _zx_pow(h, delta))
        a, b = b, [_zx_div(c, divisor) for c in r]
        g = a[-1]
        if delta:
            h = _zx_div(_zx_pow(g, delta), _zx_pow(h, delta - 1))
    n = len(a) - 1
    h = _zx_div(_zx_pow(b[0], n), _zx_pow(h, n - 1))
    return [sign * v for v in h]


def _sheared(p: Poly, c: int) -> list[list[int]]:
    """p(x + c*y, y) in Z[x][y], over the content of p."""
    rows: dict[int, dict[int, int]] = {}
    for (i, j), v in p._t.items():
        for k in range(i + 1) if c else (i,):
            row = rows.setdefault(j + i - k, {})
            row[k] = row.get(k, 0) + v * _comb(i, k) * c ** (i - k)
    out = []
    for e in range(max(rows) + 1):
        row = rows.get(e, {})
        coeffs = [row.get(k, 0) for k in range(max(row, default=-1) + 1)]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        out.append(coeffs)
    while not out[-1]:
        out.pop()
    return out


def _zxy_primitive(p: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """(c, q): c a gcd in Z[x] of the entries of p, q = p/c with no integer content."""
    content = reduce(_zx_gcd, filter(None, p))
    q = [_zx_div(c, content) for c in p]
    k = _int_gcd(*(v for c in q for v in c))
    return content, [[v // k for v in c] for c in q]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Greatest common divisor, normalized to an integer-primitive poly.

    A coprime pair, nearly every pair the callers pass, is settled by
    ``_coprime_mod_p`` in one modular pass; it returns only what the exact
    route returns for a coprime pair, the constant 1.  The exact route works
    in Z[x][y], on the primitive integer maps.  By Gauss's lemma a gcd there is
    the gcd in Z[x] of the contents (the gcds of the y-coefficients) times
    the gcd of the primitive parts f, g.  For deg_y f >= deg_y g the
    pseudo-remainder r = lc(g)^k f - q g leaves the primitive common
    divisors unchanged when f, g becomes g, pp(r): such a divisor of g and
    lc(g)^k f has no factor in x alone, so it divides f.  The last nonzero
    term of this primitive remainder sequence divides the one before it and
    is the gcd of the primitive parts (Brown and Traub 1971).

    Three-variable input must be homogeneous; every caller's is, and other
    input raises ``ValueError``.  Write a = z^i A with z not dividing A.
    Every factor of A is homogeneous and not divisible by z, so setting
    z = 1 keeps its degree and homogenizing to that degree gives it back:
    the chart a(x, y, 1) has the factors of A, with their multiplicities.
    So gcd(a, b) is z^min(i, j) times the homogenized gcd of the charts.
    """
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    a._check_arity(b)
    nvars = a.nvars
    if nvars == 3 and not (a.is_homogeneous() and b.is_homogeneous()):
        raise ValueError("three-variable gcds need homogeneous input")
    if a.is_zero or b.is_zero:
        return (b if a.is_zero else a).primitive()
    if _coprime_mod_p(a, b):
        return Poly.constant(nvars, 1)
    if nvars == 3:
        low = min(m[2] for p in (a, b) for m in p._t)
        a, b = dehomogenize(a, 2), dehomogenize(b, 2)
    (ca, f), (cb, g) = (_zxy_primitive(_sheared(p, 0)) for p in (a, b))
    if len(f) < len(g):
        f, g = g, f
    while g:
        r = _prem(f, g)
        f, g = g, (_zxy_primitive(r)[1] if r else [])
    content = _zx_gcd(ca, cb)
    terms = {(i, j): v for j, c in enumerate(f)
             for i, v in enumerate(_zx_mul(content, c)) if v}
    if nvars == 3:
        top = max(map(sum, terms)) + low
        terms = {(i, j, top - i - j): v for (i, j), v in terms.items()}
    return Poly._of(nvars, terms).primitive()


def is_squarefree(p: Poly) -> bool:
    """No repeated factors.

    With c = (1, 3) or (1, 3, 9), c.grad p lies in the span of the partials,
    so a proof that p and c.grad p are coprime settles it.  A factor y of p
    divides p_x but not c.grad p, so one mod-p certificate nearly always
    gives that proof.  Otherwise a discriminant decides, with no gcd.

    Three-variable input must be homogeneous.  With p = z^k P and z not
    dividing P, p is not squarefree for k >= 2, and otherwise exactly when
    the chart p(x, y, 1) is (see ``poly_gcd``).  In two variables, shear
    until a = p(x + c*y, y) has a constant y-leading coefficient: its y^d
    coefficient is p_d(c, 1), for the top form p_d, so at most d values of
    c fail.  A factor of a in x alone would divide that constant, so every
    irreducible factor h of a has positive y-degree.  If h^2 divides a, h
    divides a_y too, and Res_y(a, a_y) = 0.  Conversely, with lc_y(a) a
    nonzero constant, a zero resultant gives an irreducible h of positive
    y-degree dividing a = h*q and a_y = h_y*q + h*q_y; h does not divide
    h_y, which is nonzero and of lower y-degree, so h divides q.
    """
    if p.is_zero:
        raise ValueError("squarefreeness of the zero polynomial is undefined")
    if p.nvars == 3 and not p.is_homogeneous():
        raise ValueError("three-variable squarefreeness needs homogeneous input")
    combination: dict[Monomial, int] = {}
    for var, w in zip(range(p.nvars), (1, 3, 9)):
        _add_terms(combination, ((m, w * v) for m, v in _diff(p._t, var).items()))
    if combination and _coprime_mod_p(p, Poly._of(p.nvars, combination)):
        return True
    if p.nvars == 3:
        if min(m[2] for m in p._t) >= 2:
            return False
        p = dehomogenize(p, 2)
    if p.total_degree() == 0:
        return True
    c = 0
    while len((a := _sheared(p, c))[-1]) > 1:
        c += 1
    return bool(_resultant(a, [[j * v for v in row] for j, row in enumerate(a)][1:]))


def _on_axis_only_at_origin(a: list[list[int]], b: list[list[int]]) -> bool:
    """Whether gcd(a(0, y), b(0, y)) is a power of y; a(0, y) is nonzero."""
    images = []
    for p in (a, b):
        values = [c[0] if c else 0 for c in p]
        while values and not values[-1]:
            values.pop()
        while values and not values[0]:
            values.pop(0)
        images.append([[v] if v else [] for v in values])
    if not images[1]:
        return len(images[0]) == 1
    return min(map(len, images)) == 1 or bool(_resultant(*images))


def intersection_at_origin(f: Poly, g: Poly) -> int | None:
    """i_0(f, g) = dim O/(f, g) at the origin of the plane; None when infinite.

    0 when f or g is a unit there.  Otherwise shear x -> x + c*y for the
    first c = 0, 1, 2, ... at which f or g has a constant y-leading
    coefficient and gcd(f(0, y), g(0, y)) is a power of y; then i_0(f, g) is
    the x-order of Res_y(f, g) (Fulton, *Algebraic Curves*, ch. 1 and 3):
    the roots y(x) of the component with constant leading coefficient are
    Puiseux series, and each counts ord_x of the other component along it,
    which sums to the intersection numbers at the points (0, y(0)), and the
    gcd leaves the origin as the only such common zero.

    A coprime pair of degrees d, e misses the first condition for at most
    min(d, e) values of c (the roots of the top forms at (c, 1)) and the
    second for at most d*e (one per common zero off the origin, by Bezout),
    so past d*e + max(d, e) values the loop raises.  A zero resultant or a
    failed second condition runs ``poly_gcd``, whose mod-p certificate
    settles a coprime pair in one pass; the loop then tries the next shear.
    A common factor through the origin makes the quotient infinite; any
    other one is a unit there and is divided out.
    """
    if f.nvars != 2 or g.nvars != 2:
        raise ValueError("intersection numbers need two variables")
    if (0, 0) in f._t or (0, 0) in g._t:
        return 0
    if f.is_zero or g.is_zero:
        return None
    c = 0
    while True:
        degrees = (f.total_degree(), g.total_degree())
        if c > degrees[0] * degrees[1] + max(degrees):
            raise EngineInconsistencyError(
                f"no shear up to x + {c - 1}*y isolates the origin of a coprime pair"
            )
        a, b = _sheared(f, c), _sheared(g, c)
        if len(a[-1]) > 1:
            a, b = b, a
        c += 1
        if len(a[-1]) > 1:
            continue
        if _on_axis_only_at_origin(a, b):
            res = _resultant(a, b)
            if res:
                return next(i for i, v in enumerate(res) if v)
        common = poly_gcd(f, g)
        if common.total_degree() == 0:
            continue
        if (0, 0) not in common._t:
            return None
        f, g = try_exact_div(f, common), try_exact_div(g, common)
        c = 0
