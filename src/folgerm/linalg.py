"""Exact linear algebra over the rationals, on sparse integer rows.

A vector is a sparse mapping {column index: entry}, with int or
``Fraction`` entries; a matrix is a list of row vectors.  Every routine
clears the denominators of each row and runs the one elimination here,
``sparse_int_echelon``: fraction-free cross-multiplication in the spirit
of Bareiss (Math. Comp. 1968), with the content of every new pivot row
divided out.  Ranks count its pivot rows; kernels back-substitute from
them.  Multiplication operators on local quotients and truncated Macaulay
matrices are both mostly zero, so the elimination only ever holds nonzero
entries.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

Entry = Fraction | int
Vector = Mapping[int, Entry]
Matrix = Sequence[Vector]


def _integer_row(row: Vector) -> dict[int, int]:
    """The nonzero entries of ``row`` times the lcm of their denominators."""
    entries = [(c, v) for c, v in row.items() if v]
    scale = lcm(*(v.denominator for _, v in entries))
    return {c: int(v * scale) for c, v in entries}


def _cancel(row: dict[int, int], pivot_row: dict[int, int], col: int) -> dict[int, int]:
    """pivot_row[col] * row - row[col] * pivot_row: column ``col`` drops out."""
    a, b = pivot_row[col], row[col]
    merged = {c: a * v for c, v in row.items()}
    for c, v in pivot_row.items():
        value = merged.get(c, 0) - b * v
        if value:
            merged[c] = value
        else:
            merged.pop(c, None)
    return merged


def _primitive(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
    return {c: v // g for c, v in row.items()}


def sparse_int_echelon(
    rows: list[dict[int, int]], pivots: dict[int, dict[int, int]] | None = None
) -> dict[int, dict[int, int]]:
    """Echelon form of sparse integer rows (column index -> entry).

    Returns the pivot rows keyed by their pivot, their smallest column, and
    extends ``pivots`` in place when given.  Cross-multiplication elimination
    with the content of every new pivot row divided out, which keeps entries
    bounded on the structured matrices the truncated local quotients produce.
    """
    pivots = {} if pivots is None else pivots
    for row in rows:
        current = row
        while current:
            col = min(current)
            if col not in pivots:
                pivots[col] = _primitive(current)
                break
            current = _cancel(current, pivots[col], col)
    return pivots


def sparse_int_rank(rows: list[dict[int, int]]) -> int:
    """Rank of sparse integer rows (column index -> entry)."""
    return len(sparse_int_echelon(rows))


def bareiss_rank(matrix: Matrix) -> int:
    """Rank of the rows of ``matrix``, by fraction-free sparse elimination."""
    return sparse_int_rank([_integer_row(row) for row in matrix])


def reduced_echelon(pivots: dict[int, dict[int, int]]) -> dict[int, dict[int, int]]:
    """Clear every pivot column from the other pivot rows, fraction-free.

    A reduced row is nonzero only at its own pivot and at non-pivot columns,
    so clearing one pivot column never brings another one back.
    """
    reduced: dict[int, dict[int, int]] = {}
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        for p in [c for c in row if c != col and c in reduced]:
            row = _cancel(row, reduced[p], p)
        reduced[col] = _primitive(row)
    return reduced


def kernel_basis(matrix: Matrix, ncols: int) -> list[dict[int, Fraction]]:
    """Basis of the right kernel {v : M v = 0}, deterministic order.

    One vector per non-pivot column f, in increasing f: 1 at f, 0 at the
    other non-pivot columns, and the pivot coordinates back-substituted from
    the reduced echelon rows.  The pivot columns of a row space do not depend
    on how it is eliminated, so this is the basis that reduced row echelon
    form over ``Fraction`` gives, as sparse vectors {column: entry}.
    """
    reduced = reduced_echelon(sparse_int_echelon([_integer_row(r) for r in matrix]))
    vectors = {f: {f: Fraction(1)} for f in range(ncols) if f not in reduced}
    for p, row in reduced.items():
        lead = row[p]
        for c, v in row.items():
            if c != p:
                vectors[c][p] = Fraction(-v, lead)
    return list(vectors.values())


def column_space_equal(a: Matrix, b: Matrix) -> bool:
    """Whether two lists of vectors span the same space."""
    ra = bareiss_rank(a)
    if ra != bareiss_rank(b):
        return False
    return bareiss_rank(list(a) + list(b)) == ra
