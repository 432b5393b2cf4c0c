import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folgerm.linalg import (
    bareiss_rank,
    column_space_equal,
    kernel_basis,
    sparse_int_rank,
)
from folgerm.localalg import QuotientOperator

# Seeded and bounded: the same examples on every run, nothing stored.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def dense_bareiss_rank(matrix):
    """Reference rank: dense one-step Bareiss elimination on integer rows."""
    rows = []
    for row in matrix:
        scale = lcm(*(Fraction(e).denominator for e in row))
        rows.append([int(Fraction(e) * scale) for e in row])
    rows = [r for r in rows if any(r)]
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
            for j in range(col, ncols):
                row[j] = (pivot * row[j] - head * rows[rank][j]) // prev
        prev = pivot
        rank += 1
        col += 1
    return rank


def dense(rows, ncols):
    return [[row.get(j, Fraction(0)) for j in range(ncols)] for row in rows]


def sparse(matrix):
    """The sparse rows {column: entry} of dense rows, as ``linalg`` reads them."""
    return [{j: e for j, e in enumerate(row) if e} for row in matrix]


@st.composite
def sparse_matrices(draw, size=None):
    """Sparse rational rows {column: entry}, at most a third of a row nonzero.

    Up to 7 x 7, or ``size`` x ``size`` when given.
    """
    nrows = size or draw(st.integers(1, 7))
    ncols = size or draw(st.integers(1, 7))
    entry = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    rows = []
    for _ in range(nrows):
        columns = draw(st.sets(st.integers(0, ncols - 1), max_size=max(1, ncols // 3)))
        row = {c: draw(entry) for c in sorted(columns)}
        rows.append({c: v for c, v in row.items() if v})
    return rows, ncols


def test_rank_hand_cases():
    assert bareiss_rank(sparse([[1, 2], [2, 4]])) == 1
    assert bareiss_rank(sparse([[1, 0], [0, 1]])) == 2
    assert bareiss_rank(sparse([[0, 0], [0, 0]])) == 0
    assert bareiss_rank([]) == 0
    assert bareiss_rank(sparse([[Fraction(1, 2), 1], [1, 2]])) == 1


def test_rank_rectangular():
    assert bareiss_rank(sparse([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == 2
    assert bareiss_rank(sparse([[1, 2, 3], [2, 4, 6]])) == 1
    assert bareiss_rank(sparse([[1], [2], [4]])) == 1


def test_sparse_rank_matches_dense():
    rng = random.Random(5)
    for _ in range(30):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        matrix = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)]
        rows = sparse(matrix)
        reference = dense_bareiss_rank(matrix)
        assert sparse_int_rank(rows) == reference
        assert bareiss_rank(rows) == reference


def test_rank_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    for _ in range(20):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        matrix = [
            [Fraction(rng.choice([0, 0, 0, rng.randint(-5, 5)]), rng.randint(1, 3))
             for _ in range(m)]
            for _ in range(n)
        ]
        reference = sympy.Matrix(
            [[sympy.Rational(e.numerator, e.denominator) for e in row] for row in matrix]
        ).rank()
        assert bareiss_rank(sparse(matrix)) == reference


def test_kernel_basis():
    kernel = kernel_basis(sparse([[1, 2], [2, 4]]), ncols=2)
    assert len(kernel) == 1
    assert kernel[0] == {0: Fraction(-2), 1: Fraction(1)}
    assert kernel_basis(sparse([[1, 0], [0, 1]]), ncols=2) == []
    assert len(kernel_basis(sparse([[0, 0], [0, 0]]), ncols=2)) == 2


def test_kernel_basis_sparse_rows_give_sparse_vectors():
    kernel = kernel_basis([{0: 1, 1: 2}, {0: 2, 1: 4}, {}], ncols=3)
    assert kernel == [{1: Fraction(1), 0: Fraction(-2)}, {2: Fraction(1)}]
    assert kernel_basis([], ncols=0) == []
    with pytest.raises(TypeError):
        kernel_basis([{0: 1}])


def test_kernel_basis_is_the_rref_basis():
    # pivots 0 and 2; the free columns 1 and 3 give one vector each
    matrix = [[2, 4, 1, 3], [1, 2, 1, 1], [3, 6, 2, 4]]
    kernel = kernel_basis(sparse(matrix), ncols=4)
    assert dense(kernel, 4) == [[-2, 1, 0, 0], [-2, 0, 1, 1]]


def test_rank_nullity_random():
    rng = random.Random(17)
    for _ in range(25):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        matrix = [[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(m)]
                  for _ in range(n)]
        rank = bareiss_rank(sparse(matrix))
        kernel = dense(kernel_basis(sparse(matrix), ncols=m), m)
        assert rank + len(kernel) == m
        for vector in kernel:
            assert all(sum(a * v for a, v in zip(row, vector)) == 0 for row in matrix)


def test_column_space_equal():
    assert column_space_equal(sparse([[1, 0], [0, 1]]), sparse([[1, 1], [1, -1]]))
    assert not column_space_equal(sparse([[1, 0]]), sparse([[0, 1]]))
    assert column_space_equal([], [])
    assert not column_space_equal(sparse([[1, 0]]), [])
    assert column_space_equal([{0: 1}, {1: 1}], [{0: 1, 1: 1}, {0: 1, 1: -1}])
    assert not column_space_equal([{0: Fraction(1, 2)}], [{1: 3}])


@PROPERTY
@given(sparse_matrices())
def test_property_kernel_vectors_are_annihilated(case):
    rows, ncols = case
    for vector in kernel_basis(rows, ncols=ncols):
        assert vector
        for row in rows:
            assert sum(a * vector.get(c, 0) for c, a in row.items()) == 0


@PROPERTY
@given(sparse_matrices())
def test_property_rank_plus_nullity_is_column_count(case):
    rows, ncols = case
    rank = bareiss_rank(rows)
    assert rank == dense_bareiss_rank(dense(rows, ncols))
    assert rank + len(kernel_basis(rows, ncols=ncols)) == ncols


@PROPERTY
@given(sparse_matrices())
def test_property_kernel_is_the_sympy_nullspace(case):
    sympy = pytest.importorskip("sympy")
    rows, ncols = case
    matrix = sympy.Matrix(
        [[sympy.Rational(e.numerator, e.denominator) for e in row]
         for row in dense(rows, ncols)]
    )
    reference = [[Fraction(int(e.p), int(e.q)) for e in v] for v in matrix.nullspace()]
    assert dense(kernel_basis(rows, ncols=ncols), ncols) == reference


@PROPERTY
@given(st.integers(1, 7), st.data())
def test_property_compose_is_the_matrix_product(n, data):
    basis = tuple((i, 0) for i in range(n))
    a = QuotientOperator(basis, data.draw(sparse_matrices(n))[0])
    b = QuotientOperator(basis, data.draw(sparse_matrices(n))[0])
    a_matrix, b_matrix = dense(a.rows, n), dense(b.rows, n)
    reference = [
        [sum((a_matrix[i][k] * b_matrix[k][j] for k in range(n)), Fraction(0))
         for j in range(n)]
        for i in range(n)
    ]
    product = a.compose(b)
    assert dense(product.rows, n) == reference
    assert product.is_zero() == all(not e for row in reference for e in row)
