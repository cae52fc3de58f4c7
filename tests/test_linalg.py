import ast
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from diagdeform.linalg import IntRows, identity, mat_eq, mat_mul, mat_vec, rref, sparse_mat_mul
from diagdeform.scalars import QVAR, RatFunc, UniPoly

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


# ------------------------------------------------- dense products and IntRows


def to_sympy_matrix(M, entry):
    sympy = pytest.importorskip("sympy")
    return sympy.Matrix(len(M), len(M[0]) if M else 0,
                        lambda i, j: entry(M[i][j]))


def rational(c):
    import sympy
    return sympy.Rational(c.numerator, c.denominator)


def test_dense_products_over_qq_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(4104)
    for _ in range(20):
        n, m, p = (rng.randint(1, 5) for _ in range(3))
        A, B = random_matrix(rng, n, m), random_matrix(rng, m, p)
        v = [row[0] for row in random_matrix(rng, m, 1)]
        SA, SB = to_sympy_matrix(A, rational), to_sympy_matrix(B, rational)
        assert to_sympy_matrix(mat_mul(A, B), rational) == SA * SB
        assert [rational(c) for c in mat_vec(A, v)] == list(SA * sympy.Matrix([rational(c) for c in v]))


def test_dense_products_over_qq_q_match_sympy():
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")

    def ratfunc(r):
        num = sum(rational(c) * q ** k for k, c in enumerate(r.num.coeffs))
        den = sum(rational(c) * q ** k for k, c in enumerate(r.den.coeffs))
        return num / den

    rng = random.Random(1988)

    def entry():
        num = UniPoly(QVAR, [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))])
        den = UniPoly(QVAR, [rng.randint(1, 3), rng.randint(-2, 2)])
        return RatFunc(num, den)

    for _ in range(4):
        n, m, p = (rng.randint(1, 3) for _ in range(3))
        A = [[entry() for _ in range(m)] for _ in range(n)]
        B = [[entry() for _ in range(p)] for _ in range(m)]
        rows = sparse_mat_mul(*([{j: c for j, c in enumerate(r) if c} for r in M] for M in (A, B)))
        assert all(all(r.values()) for r in rows)  # no zero entry is kept
        want = to_sympy_matrix(A, ratfunc) * to_sympy_matrix(B, ratfunc)
        for C in (mat_mul(A, B), [[r.get(j, RatFunc.zero(QVAR)) for j in range(p)] for r in rows]):
            got = to_sympy_matrix(C, ratfunc)
            assert (got - want).applyfunc(sympy.cancel) == sympy.zeros(n, p)
        assert mat_eq(mat_mul(identity(n), A), A) and mat_eq(mat_mul(A, identity(m)), A)


def test_int_rows_apply_matches_the_dense_fraction_product():
    rng = random.Random(2012)
    for A in cases():
        M = IntRows.from_rational(A)
        assert all(c for _, coefs in M.rows for c in coefs)
        for _ in range(3):
            x = [row[0] for row in random_matrix(rng, len(A[0]), 1)]
            vals, den = M.apply(x)
            assert [F(v, den) for v in vals] == mat_vec(A, x)
    # a row with no entries reads zero; the input's own denominators count
    M = IntRows([((), ()), ((0, 2), (3, -1))], 2)
    assert M.apply([F(1, 3), 5, F(1, 4)]) == ([0, 3 * 4 - 3], 24)


def test_int_rows_combine_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1815)
    for A in cases():
        M = IntRows.from_rational(A)
        SA = to_sympy_matrix(A, rational)
        for _ in range(3):
            picked = rng.sample(range(len(A)), rng.randint(0, len(A)))
            weights = [(i, rng.randint(-6, 6)) for i in picked]
            got = M.combine(weights)
            w = dict(weights)
            want = sympy.Matrix(1, len(A), lambda _, i: w.get(i, 0)) * SA
            assert [rational(F(got.get(j, 0), M.denominator))
                    for j in range(len(A[0]))] == list(want)
            # only the named rows are read
            assert set(got) == {j for i in picked for j in M.rows[i][0]}


# ------------------------------------------------------- one core, one format


SRC = Path(__file__).resolve().parents[1] / "src" / "diagdeform"
DENSE_HELPER = re.compile(r"_?(mat|vec)_\w+|_?(zeros|identity|dot|rref|sparse_row)")


def test_only_linalg_defines_matrix_and_vector_helpers():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if path.stem != "linalg" and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                assert not DENSE_HELPER.fullmatch(node.name), f"{path.name}: {node.name}"
                if isinstance(node, ast.ClassDef):
                    methods = {n.name for n in node.body if isinstance(n, ast.FunctionDef)}
                    assert "apply" not in methods, f"{path.name}: {node.name} applies rows"


def test_coboundary_matrices_and_the_gauge_transform_are_int_rows():
    from diagdeform import w1diagram
    from diagdeform.acceptance import sample_arrow_diagram, sample_cospan_diagram
    from diagdeform.diagram import coboundary_matrix

    for D in (sample_arrow_diagram(), sample_cospan_diagram()):
        for n in range(3):
            M = coboundary_matrix(D, n)
            assert isinstance(M, IntRows) and type(M).apply is IntRows.apply
    for cutoff in (0, 5, 8):
        T = w1diagram._gauge_factor(cutoff).transform
        assert type(T) is IntRows
        assert T.denominator > 0 and all(cols == tuple(sorted(cols)) for cols, _ in T.rows)
