"""Finite quotients of the local ring at the origin, by one pass over Macaulay rows.

Every local dimension comes from one Macaulay matrix in x, y.  Its columns
are the monomials in the local column order: lower total degree first, ties
broken lexicographically with ``x > y``, so 1 leads and x^i * y^j is column
s(s+1)/2 + j for s = i + j.  Its rows are the monomial multiples
``x^a * g_i`` of the generators, every term kept.  The rows enter by lowest
degree: all of degree d, generator by generator, then degree d + 1.  A row of
lowest degree above d has no entry at degree <= d, and cancelling it against
a pivot row touches only columns at or after its first one, so the pivots of
degree <= d are final once the rows of degree <= d are in.  The columns
without a pivot ("free" columns) of degree d then number
dim O/(I + m^(d+1)) - dim O/(I + m^d).

Certificate (Nakayama's lemma; Greuel-Pfister, *A Singular Introduction to
Commutative Algebra*, 1.6-1.7): a degree N without a free column gives
dim O/(I + m^N) = dim O/(I + m^(N+1)), hence m^N is inside I, and the
elimination stops there.  Then O/I is the space of polynomials of degree
< N modulo the pivot rows cut off at N: the free columns are its basis (the
staircase), and the reduced echelon form of those rows over Z rewrites every
other monomial on it.  Before they stabilize the dimensions rise strictly,
and generators of degree <= d have colength at most d^2 when it is finite
(Bezout), so a quotient still rising at degree d^2 is infinite.

Cutting the rows off at a degree M, as a truncated Macaulay matrix does, is
the projection onto the columns below M.  The pivot columns of a row space
are the first columns of its vectors, and a vector and its projection have
the same first column below M, so the pivot columns below M, the certified N
and the staircase are those of the cut rows.  The reduced echelon rows of a
row space are unique up to scale, so the pivot rows cut off at N give the
same coordinates as any elimination of the rows cut off at N.

The rows read only integer coefficients, orders and degrees, so each
generator enters as the primitive integer term map that ``Poly`` stores.  A
nonzero scale of a generator changes neither the row space nor the
staircase, so a class is read on the map of its polynomial and scaled by
its content once.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterable, Sequence

from .linalg import _reduced_echelon, sparse_int_echelon
from .polynomials import EngineInconsistencyError, Monomial, Poly  # noqa: F401

Terms = dict[Monomial, int]


def _column(i: int, j: int) -> int:
    """The column of x^i * y^j in the local order."""
    s = i + j
    return s * (s + 1) // 2 + j


def _monomials_below(degree: int) -> list[Monomial]:
    """The monomials of degree < ``degree``, in the local column order."""
    return [(d - j, j) for d in range(degree) for j in range(d + 1)]


def _integer_generators(gens: Iterable[Poly]) -> list[Terms]:
    """The primitive integer term map of each nonzero generator in x, y."""
    nonzero = [g for g in gens if not g.is_zero]
    if not nonzero:
        raise ValueError("need at least one nonzero generator")
    if any(g.nvars != 2 for g in nonzero):
        raise ValueError("local quotients need generators in two variables")
    return [g._t for g in nonzero]


def _echelon(gens: list[Terms], degrees: int) -> tuple[dict[int, dict[int, int]], int | None]:
    """The pivot rows and N, from the uncut rows of lowest degree < ``degrees``.

    The rows enter by lowest degree, every term kept, and the elimination
    stops at the first degree N whose columns are all pivots; without one
    below ``degrees``, N is None.  Below any degree M the pivot columns are
    those of the rows cut off at M (the projection argument above), so no
    truncation is chosen.
    """
    orders = [min(map(sum, terms)) for terms in gens]
    pivots: dict[int, dict[int, int]] = {}
    for d in range(degrees):
        rows = []
        for terms, order in zip(gens, orders):
            room = d - order
            if room < 0:
                continue
            base = [(_column(a + room, b), c) for (a, b), c in terms.items()]
            rows.extend({col + j: c for col, c in base} for j in range(room + 1))
        sparse_int_echelon(rows, pivots)
        if all(c in pivots for c in range(_column(d, 0), _column(d + 1, 0))):
            return pivots, d
    return pivots, None


class StandardBasis:
    """The local quotient O/I: its staircase and the rows that reduce onto it.

    ``truncation`` is the certified N with m^N inside I, or None when the
    quotient is infinite; ``quotient_basis`` is then None as well.
    """

    nvars = 2

    def __init__(self, pivots: dict[int, dict[int, int]], truncation: int | None):
        self.truncation = truncation
        self._pivots = pivots
        self._columns: list[Monomial] = []
        self.quotient_basis: tuple[Monomial, ...] | None = None
        if truncation is not None:
            self._columns = _monomials_below(truncation)
            self.quotient_basis = tuple(
                m for i, m in enumerate(self._columns) if i not in pivots)
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
        d, out = self._scaled_coordinates(p._t, (0,) * self.nvars)
        num, den, basis = p._c.numerator, p._c.denominator * d, self.quotient_basis
        return {basis[i]: Fraction(num * v, den) for i, v in out.items() if v}

    def normal_form(self, p: Poly) -> Poly:
        """Canonical representative on the staircase; zero exactly for members."""
        return Poly(self.nvars, self.reduce_to_coordinates(p))

    def contains(self, p: Poly) -> bool:
        return self.normal_form(p).is_zero


def standard_basis(gens: Iterable[Poly]) -> StandardBasis:
    """Certified local quotient by the ideal of ``gens``.

    One elimination of the uncut Macaulay rows, by lowest degree, which stops
    at the first degree N with no free column, or past the Bezout bound d^2
    with a quotient still rising (infinite quotient).
    """
    gens = _integer_generators(gens)
    bezout = max(sum(m) for terms in gens for m in terms) ** 2
    return StandardBasis(*_echelon(gens, bezout + 1))


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
    num, den = f._c.numerator, f._c.denominator
    columns = []
    for b in sb.quotient_basis:
        d, out = sb._scaled_coordinates(f._t, b)
        d *= den
        columns.append({i: v // d if v % d == 0 else Fraction(v, d)
                        for i, v in ((i, num * v) for i, v in out.items() if v)})
    return QuotientOperator(sb.quotient_basis, columns)


# -- truncation oracle -----------------------------------------------------


def macaulay_dim(gens: Sequence[Poly], truncation: int) -> int:
    """dim O/(I + m^N) for N = ``truncation``: the free columns below N.

    Agrees with the local quotient dimension once N is large enough.  Past
    the certified degree there is no free column, so the count stops there.
    """
    pivots, n = _echelon(_integer_generators(gens), truncation)
    below = _column(truncation if n is None else n, 0)
    return sum(1 for c in range(below) if c not in pivots)


def stabilized_macaulay_dim(gens: Sequence[Poly]) -> int | None:
    """Run the truncation oracle until two consecutive values agree.

    Starts at max(4, 2*maxdeg + 2) and steps by 2.  Equal values at N and
    N + 2 put m^N inside I (Nakayama), so they are the colength.  A value
    above the Bezout bound d^2 proves the quotient infinite: the result is
    then None, as from ``quotient_dim``.  This is a second truncation
    schedule over the same rows as ``standard_basis``, not an independent
    check; the package no longer calls it (the ``mu_oracle`` of
    ``invariants`` comes from ``polynomials.intersection_at_origin``), and
    it stays for the benchmark's closed-form checks.
    """
    degree = max(g.total_degree() for g in gens if not g.is_zero)
    bezout = degree ** 2
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
