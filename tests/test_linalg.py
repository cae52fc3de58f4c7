import random
from fractions import Fraction

import pytest

from diagdeform.linalg import rref

F = Fraction


def random_matrix(rng, nrows, ncols, rank=None):
    """Seeded rational matrix; with rank given, a product of two random factors."""
    def entry():
        return F(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.7 else F(0)

    if rank is None:
        return [[entry() for _ in range(ncols)] for _ in range(nrows)]
    left = [[entry() for _ in range(rank)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(rank)]
    return [[sum((left[i][k] * right[k][j] for k in range(rank)), F(0))
             for j in range(ncols)] for i in range(nrows)]


def cases():
    rng = random.Random(20120823)
    out = [[[F(0)] * 4 for _ in range(3)],          # all zero
           [[F(0), F(1), F(0)], [F(0), F(2), F(3)]],  # zero column first
           [[F(0), F(0)], [F(0), F(0)], [F(1), F(0)]]]
    for _ in range(25):
        out.append(random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6)))
    for _ in range(15):
        nrows, ncols = rng.randint(2, 7), rng.randint(2, 7)
        out.append(random_matrix(rng, nrows, ncols, rng.randint(0, min(nrows, ncols) - 1)))
    return out


def test_rref_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for A in cases():
        pivots, R = rref(A, len(A[0]))
        expected, cols = sympy.Matrix(A).rref()
        assert [c for _, c in pivots] == list(cols)
        assert [r for r, _ in pivots] == list(range(len(pivots)))
        assert R == [[F(int(expected[i, j].p), int(expected[i, j].q))
                      for j in range(len(A[0]))] for i in range(len(A))]


def test_rref_leaves_input_untouched():
    A = [[F(2), F(4)], [F(1), F(3)]]
    rref(A, 2)
    assert A == [[F(2), F(4)], [F(1), F(3)]]


def test_identity_block_records_the_row_transform():
    # With rows [A | I], the identity block T of the result satisfies
    # T A = R[:, :ncols] exactly, including when A is rank deficient.
    for A in cases():
        n, m = len(A), len(A[0])
        block = [row + [F(int(i == k)) for k in range(n)] for i, row in enumerate(A)]
        _, R = rref(block, m)
        T = [row[m:] for row in R]
        TA = [[sum((T[i][k] * A[k][j] for k in range(n)), F(0)) for j in range(m)]
              for i in range(n)]
        assert TA == [row[:m] for row in R]


def test_pivots_ignore_columns_past_ncols():
    # the appended column is transformed but never chosen as a pivot
    pivots, R = rref([[F(0), F(1)], [F(0), F(2)]], 1)
    assert pivots == []
    assert R == [[F(0), F(1)], [F(0), F(2)]]
    pivots, R = rref([[F(2), F(4)], [F(1), F(3)]], 1)
    assert pivots == [(0, 0)]
    assert R == [[F(1), F(2)], [F(0), F(1)]]
