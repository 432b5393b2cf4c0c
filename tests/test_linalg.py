import random
from fractions import Fraction

from folgerm.linalg import (
    bareiss_rank,
    column_space_equal,
    kernel_basis,
    rref,
    sparse_int_rank,
)


def test_rank_hand_cases():
    assert bareiss_rank([[1, 2], [2, 4]]) == 1
    assert bareiss_rank([[1, 0], [0, 1]]) == 2
    assert bareiss_rank([[0, 0], [0, 0]]) == 0
    assert bareiss_rank([]) == 0
    assert bareiss_rank([[Fraction(1, 2), 1], [1, 2]]) == 1


def test_rank_rectangular():
    assert bareiss_rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2
    assert bareiss_rank([[1, 2, 3], [2, 4, 6]]) == 1
    assert bareiss_rank([[1], [2], [4]]) == 1


def test_sparse_rank_matches_dense():
    rng = random.Random(5)
    for _ in range(30):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        dense = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)]
        sparse = [{j: e for j, e in enumerate(row) if e} for row in dense]
        assert sparse_int_rank(sparse) == bareiss_rank(dense)


def test_kernel_basis():
    kernel = kernel_basis([[1, 2], [2, 4]])
    assert len(kernel) == 1
    assert kernel[0] == [Fraction(-2), Fraction(1)]
    assert kernel_basis([[1, 0], [0, 1]]) == []
    assert len(kernel_basis([[0, 0], [0, 0]])) == 2


def test_rank_nullity_random():
    rng = random.Random(17)
    for _ in range(25):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        matrix = [[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(m)]
                  for _ in range(n)]
        rank = bareiss_rank(matrix)
        kernel = kernel_basis(matrix)
        assert rank + len(kernel) == m
        for vector in kernel:
            assert all(sum(a * v for a, v in zip(row, vector)) == 0 for row in matrix)


def test_rref_pivots():
    reduced, pivots = rref([[2, 4], [1, 3]])
    assert pivots == [0, 1]
    assert reduced[0][:2] == [Fraction(1), Fraction(0)]


def test_column_space_equal():
    assert column_space_equal([[1, 0], [0, 1]], [[1, 1], [1, -1]])
    assert not column_space_equal([[1, 0]], [[0, 1]])
    assert column_space_equal([], [])
    assert not column_space_equal([[1, 0]], [])
