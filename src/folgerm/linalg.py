"""Exact linear algebra over the rationals.

Two elimination routes, kept deliberately separate: a dense fraction-free
(Bareiss) rank for operator matrices, and a sparse integer elimination with
row-content removal for the large truncated-monomial matrices.  Kernels are
computed by plain Gauss-Jordan over ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

Matrix = Sequence[Sequence[Fraction | int]]


def _integer_rows(matrix: Matrix) -> list[list[int]]:
    rows = []
    for row in matrix:
        scale = 1
        for entry in row:
            d = Fraction(entry).denominator
            scale = scale * d // gcd(scale, d)
        rows.append([int(Fraction(entry) * scale) for entry in row])
    return rows


def bareiss_rank(matrix: Matrix) -> int:
    """Rank via fraction-free Gaussian elimination on integer rows."""
    rows = [r for r in _integer_rows(matrix) if any(r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    prev = 1
    col = 0
    while rank < len(rows) and col < ncols:
        pivot_row = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot_row is None:
            col += 1
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank][col]
        for i in range(rank + 1, len(rows)):
            head = rows[i][col]
            row = rows[i]
            # the exact division by the previous pivot is what keeps entries small
            for j in range(col, ncols):
                row[j] = (pivot * row[j] - head * rows[rank][j]) // prev
        prev = pivot
        rank += 1
        col += 1
    return rank


def sparse_int_echelon(rows: list[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Echelon form of sparse integer rows (column index -> entry).

    Returns the pivot rows keyed by their pivot, which is their smallest
    column.  Cross-multiplication elimination with the content of every new
    pivot row divided out, which keeps entries bounded on the structured
    matrices the truncated local quotients produce.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        current = dict(row)
        while current:
            col = min(current)
            if col not in pivots:
                g = 0
                for value in current.values():
                    g = gcd(g, value)
                pivots[col] = {c: v // g for c, v in current.items()}
                break
            pivot_row = pivots[col]
            a = pivot_row[col]
            b = current[col]
            merged: dict[int, int] = {}
            for c, v in current.items():
                merged[c] = a * v
            for c, v in pivot_row.items():
                value = merged.get(c, 0) - b * v
                if value:
                    merged[c] = value
                else:
                    merged.pop(c, None)
            current = merged
    return pivots


def sparse_int_rank(rows: list[dict[int, int]]) -> int:
    """Rank of sparse integer rows (column index -> entry)."""
    return len(sparse_int_echelon(rows))


def rref(matrix: Matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    rows = [[Fraction(e) for e in row] for row in matrix]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots: list[int] = []
    lead = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(lead, len(rows)) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[lead], rows[pivot_row] = rows[pivot_row], rows[lead]
        scale = rows[lead][col]
        rows[lead] = [e / scale for e in rows[lead]]
        for i in range(len(rows)):
            if i != lead and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [e - factor * p for e, p in zip(rows[i], rows[lead])]
        pivots.append(col)
        lead += 1
        if lead == len(rows):
            break
    return rows, pivots


def kernel_basis(matrix: Matrix, ncols: int | None = None) -> list[list[Fraction]]:
    """Basis of the right kernel {v : M v = 0}, deterministic order."""
    rows = [list(row) for row in matrix]
    if ncols is None:
        if not rows:
            raise ValueError("cannot infer the number of columns")
        ncols = len(rows[0])
    reduced, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vector = [Fraction(0)] * ncols
        vector[f] = Fraction(1)
        for row_index, p in enumerate(pivots):
            vector[p] = -reduced[row_index][f]
        basis.append(vector)
    return basis


def column_space_equal(a: Matrix, b: Matrix) -> bool:
    """Whether two sets of columns (as row-lists of columns) span the same space.

    Both arguments are lists of vectors (each vector a list of entries).
    """
    va = [list(v) for v in a]
    vb = [list(v) for v in b]
    ra = bareiss_rank(va) if va else 0
    rb = bareiss_rank(vb) if vb else 0
    if ra != rb:
        return False
    stacked = va + vb
    return (bareiss_rank(stacked) if stacked else 0) == ra
