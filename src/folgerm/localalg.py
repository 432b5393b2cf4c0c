"""Finite quotients of the local ring at the origin, by truncated linear algebra.

Every local dimension comes from one truncated Macaulay matrix.  Its columns
are the monomials of degree < M in the local column order: lower total
degree first, ties broken lexicographically with ``x > y``, so 1 leads.  Its
rows are the monomial multiples ``x^a * g_i`` of the generators, cut off at
degree M.  The rows span (I + m^M)/m^M, and after sparse integer elimination
the columns without a pivot ("free" columns) of degree d number
dim O/(I + m^(d+1)) - dim O/(I + m^d), for every d < M.  The rows enter by
lowest degree: all of degree d, generator by generator, then degree d + 1.
A row of lowest degree above d has no entry at degree <= d, and cancelling
it against a pivot row touches only columns at or after its first one, so
the pivots of degree <= d are final once the rows of degree <= d are in.

Certificate (Nakayama's lemma; Greuel-Pfister, *A Singular Introduction to
Commutative Algebra*, 1.6-1.7): a degree N < M without a free column gives
dim O/(I + m^N) = dim O/(I + m^(N+1)), hence m^N is inside I, and the
elimination stops there.  Then O/I is the space of polynomials of degree
< N modulo the pivot rows cut off at N: the free columns are its basis (the
staircase), and the reduced echelon form of those rows over Z rewrites every
other monomial on it.  Before they stabilize the dimensions rise strictly, and generators of
degree <= d have colength at most d^n when it is finite (Bezout), so a
quotient still rising at degree d^n is infinite.

The rows read only integer coefficients, orders and degrees, so each
generator enters as its primitive integer term map: its coefficients times
the lcm of their denominators, divided by their gcd, with no ``Fraction``
arithmetic.  A nonzero scale of a generator changes neither the row space
nor the staircase, so the coordinates of every class come out the same.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Iterable, Sequence

from .linalg import _reduced_echelon, sparse_int_echelon
from .polynomials import (  # noqa: F401
    EngineInconsistencyError,
    Monomial,
    Poly,
    _integer_terms,
)

Terms = dict[Monomial, int]

_MIN_TRUNCATION = 2


def column_key(monomial: Monomial) -> tuple:
    """Position in the local column order: smaller key, larger monomial."""
    return (sum(monomial), tuple(-e for e in monomial))


def _monomials_of_degree(nvars: int, degree: int) -> list[Monomial]:
    """The monomials of one degree, in the local column order."""
    if nvars == 2:
        return [(degree - j, j) for j in range(degree + 1)]
    return [(i, j, degree - i - j)
            for i in range(degree, -1, -1) for j in range(degree - i, -1, -1)]


def _monomials_below(nvars: int, degree: int) -> list[Monomial]:
    return [m for d in range(degree) for m in _monomials_of_degree(nvars, d)]


def _integer_generators(gens: Iterable[Poly]) -> tuple[int, list[Terms]]:
    """The arity and the primitive integer term map of each nonzero generator."""
    nonzero = [g for g in gens if not g.is_zero]
    if not nonzero:
        raise ValueError("need at least one nonzero generator")
    nvars = nonzero[0].nvars
    if any(g.nvars != nvars for g in nonzero):
        raise ValueError("generators disagree on arity")
    out = []
    for g in nonzero:
        terms = _integer_terms(g)
        content = gcd(*terms.values())
        out.append({m: c // content for m, c in terms.items()} if content > 1 else terms)
    return nvars, out


def _order(terms: Terms) -> int:
    return min(map(sum, terms))


def _echelon(
    gens: list[Terms], nvars: int, truncation: int
) -> tuple[list[Monomial], dict[int, dict[int, int]], int | None]:
    """The columns below N, the pivot rows, and N: rows added by lowest degree.

    The elimination stops at the first degree N whose columns are all
    pivots; without one below ``truncation``, N is None and every column is kept.
    """
    columns = _monomials_below(nvars, truncation)
    column_index = {m: i for i, m in enumerate(columns)}
    pivots: dict[int, dict[int, int]] = {}
    for d in range(truncation):
        rows = []
        for terms in gens:
            room = d - _order(terms)
            if room < 0:
                continue
            kept = [(m, c) for m, c in terms.items() if sum(m) + room < truncation]
            for shift in _monomials_of_degree(nvars, room):
                rows.append({column_index[tuple(map(add, m, shift))]: c for m, c in kept})
        sparse_int_echelon(rows, pivots)
        block = [column_index[m] for m in _monomials_of_degree(nvars, d)]
        if all(c in pivots for c in block):
            return columns[:block[0]], pivots, d
    return columns, pivots, None


class StandardBasis:
    """The local quotient O/I: its staircase and the rows that reduce onto it.

    ``truncation`` is the certified N with m^N inside I, or None when the
    quotient is infinite; ``quotient_basis`` is then None as well.
    """

    def __init__(self, nvars: int, columns: list[Monomial],
                 pivots: dict[int, dict[int, int]], truncation: int | None):
        self.nvars = nvars
        self.truncation = truncation
        self._columns = columns
        self._pivots = pivots
        free = tuple(m for i, m in enumerate(columns) if i not in pivots)
        self.quotient_basis = free if truncation is not None else None
        self._table: dict[Monomial, tuple[int, dict[int, int]]] | None = None

    def quotient_dim(self) -> int | None:
        """Dimension of the local quotient ring, or None when infinite."""
        if self.quotient_basis is None:
            return None
        return len(self.quotient_basis)

    def _coordinates(self) -> dict[Monomial, tuple[int, dict[int, int]]]:
        """Staircase coordinates of every monomial of degree < N, over Z.

        A monomial maps to (d, v): its coordinates are v[i] / d on the i-th
        basis monomial; a pivot monomial's d is the lead of its reduced row.
        """
        if self._table is None:
            columns, below = self._columns, len(self._columns)
            cut = {col: {c: v for c, v in row.items() if c < below}
                   for col, row in self._pivots.items() if col < below}
            index = {m: i for i, m in enumerate(self.quotient_basis)}
            table = {m: (1, {i: 1}) for m, i in index.items()}
            for col, row in _reduced_echelon(cut).items():
                table[columns[col]] = (row[col], {
                    index[columns[c]]: -v for c, v in row.items() if c != col})
            self._table = table
        return self._table

    def _scaled_coordinates(self, terms: Terms, shift: Monomial) -> tuple[int, dict[int, int]]:
        """(d, v): the coordinates of x^shift * sum(c * x^m) are v[i] / d."""
        table = self._coordinates()
        n = self.truncation - sum(shift)
        hits = [(table[tuple(map(add, m, shift))], c) for m, c in terms.items() if sum(m) < n]
        scale = lcm(*(d for (d, _), _ in hits))
        out: dict[int, int] = {}
        for (d, row), c in hits:
            c *= scale // d
            for i, v in row.items():
                out[i] = out.get(i, 0) + c * v
        return scale, out

    def reduce_to_coordinates(self, p: Poly) -> dict[Monomial, Fraction]:
        """Coordinates of the class of p on the quotient basis (exact)."""
        if p.nvars != self.nvars:
            raise ValueError("arity mismatch")
        if self.truncation is None:
            raise ValueError("canonical coordinates need a finite quotient")
        scale, terms = _scaled_terms(p)
        d, out = self._scaled_coordinates(terms, (0,) * self.nvars)
        basis = self.quotient_basis
        return {basis[i]: Fraction(v, d * scale) for i, v in out.items() if v}

    def normal_form(self, p: Poly) -> Poly:
        """Canonical representative on the staircase; zero exactly for members."""
        return Poly(self.nvars, self.reduce_to_coordinates(p))

    def contains(self, p: Poly) -> bool:
        return self.normal_form(p).is_zero


def _scaled_terms(p: Poly) -> tuple[int, Terms]:
    """(s, t): s * p has the integer term map t, s the lcm of p's denominators."""
    scale = lcm(*(c.denominator for _, c in p.items()))
    return scale, _integer_terms(p, scale)


def _first_truncation(gens: list[Terms]) -> int:
    """a + b for the two smallest generator orders a <= b, and at least 2.

    Two generic generators of orders a and b leave m^(a+b-1) inside I, so M =
    a + b is the first truncation that can certify them: M = 2 certifies
    independent linear parts (N = 1).  Not 1: the growth M + M // 2 stalls
    there.  Where M starts changes neither N nor the staircase.
    """
    return max(_MIN_TRUNCATION, sum(sorted(map(_order, gens))[:2]))


def standard_basis(gens: Iterable[Poly]) -> StandardBasis:
    """Certified local quotient by the ideal of ``gens``.

    Grows the truncation M by half, from ``_first_truncation``, until some
    degree N below M has no free column, where the elimination stops, or
    until the free columns reach the Bezout bound d^n (infinite quotient).
    The certified N and the staircase do not depend on where M stops.
    """
    nvars, gens = _integer_generators(gens)
    bezout = max(sum(m) for terms in gens for m in terms) ** nvars
    truncation = min(_first_truncation(gens), bezout + 1)
    while True:
        columns, pivots, n = _echelon(gens, nvars, truncation)
        if n is not None:
            return StandardBasis(nvars, columns, pivots, n)
        if truncation > bezout:
            return StandardBasis(nvars, columns, pivots, None)
        truncation = min(truncation + truncation // 2, bezout + 1)


class QuotientOperator:
    """Multiplication by a fixed element on the quotient basis, by columns.

    Column j maps i to the coefficient (an int or a Fraction) of ``basis[i]``
    in the canonical form of ``basis[j] * f``; zeros are absent.  These
    operators are mostly zero (61 nonzero entries of 66^2 for fk(6)), so
    products, ranks and kernels run on the columns.
    """

    def __init__(
        self, basis: Sequence[Monomial], columns: Sequence[dict[int, Fraction]]
    ):
        self.basis = tuple(basis)
        self.columns = tuple(columns)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def rows(self) -> list[dict[int, Fraction]]:
        """The sparse rows {j: entry (i, j)}, one per basis element."""
        rows: list[dict[int, Fraction]] = [{} for _ in self.basis]
        for j, column in enumerate(self.columns):
            for i, value in column.items():
                rows[i][j] = value
        return rows

    def compose(self, other: QuotientOperator) -> QuotientOperator:
        """self after other: column j is the sum of B[k, j] * A[:, k]."""
        if self.basis != other.basis:
            raise ValueError("operators live on different bases")
        product = []
        for column in other.columns:
            acc: dict[int, Fraction] = {}
            for k, b in column.items():
                for i, a in self.columns[k].items():
                    acc[i] = acc.get(i, 0) + a * b
            product.append({i: v for i, v in acc.items() if v})
        return QuotientOperator(self.basis, product)

    def is_zero(self) -> bool:
        return not any(self.columns)


def mult_operator(sb: StandardBasis, f: Poly) -> QuotientOperator:
    """Multiplication by f: each column shifts f's integer term map by a basis
    monomial; an entry is a ``Fraction`` only where it is not an integer."""
    if sb.quotient_dim() is None:
        raise ValueError("multiplication operator needs a finite quotient")
    scale, terms = _scaled_terms(f)
    columns = []
    for b in sb.quotient_basis:
        d, out = sb._scaled_coordinates(terms, b)
        d *= scale
        columns.append(
            {i: v // d if v % d == 0 else Fraction(v, d) for i, v in out.items() if v}
        )
    return QuotientOperator(sb.quotient_basis, columns)


# -- truncation oracle -----------------------------------------------------


def macaulay_dim(gens: Sequence[Poly], truncation: int) -> int:
    """dim O/(I + m^N) for N = ``truncation``: the free columns below N.

    Agrees with the local quotient dimension once N is large enough.  Past
    the certified degree there is no free column, so the count stops there.
    """
    nvars, gens = _integer_generators(gens)
    columns, pivots, _ = _echelon(gens, nvars, truncation)
    return sum(1 for c in range(len(columns)) if c not in pivots)


def stabilized_macaulay_dim(gens: Sequence[Poly]) -> int | None:
    """Run the truncation oracle until two consecutive values agree.

    Starts at max(4, 2*maxdeg + 2) and steps by 2.  Equal values at N and
    N + 2 put m^N inside I (Nakayama), so they are the colength.  A value
    above the Bezout bound d^n proves the quotient infinite: the result is
    then None, as from ``quotient_dim``.  This is a second truncation
    schedule over the same rows as ``standard_basis``, not an independent
    check; the package no longer calls it (the ``mu_oracle`` of
    ``invariants`` comes from ``polynomials.intersection_at_origin``), and
    it stays for the benchmark's closed-form checks.
    """
    degree = max(g.total_degree() for g in gens if not g.is_zero)
    bezout = degree ** gens[0].nvars
    n = max(4, 2 * degree + 2)
    previous = None
    while True:
        value = macaulay_dim(gens, n)
        if value > bezout:
            return None
        if value == previous:
            return value
        previous = value
        n += 2
