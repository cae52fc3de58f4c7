"""The exact linear-algebra core; no other module defines a matrix helper.

Dense helpers take vectors as lists and matrices as lists of rows and use
only + and * of the entries, which must commute; they serve the Fraction
matrices of diagram.  sparse_mat_mul multiplies matrices whose rows are
{column: entry} dicts of nonzero entries of any commutative ring, such as
the triangular QQ[q] Stirling matrices of qweyl.  rref is exact
Gauss-Jordan elimination over QQ, for nerve cohomology and the W_1 gauge
membership oracle.  IntRows is the one sparse integer row format: the
coboundary matrices (apply), the gauge transform by columns and the gauge
generators by slot (combine, column).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, islice, repeat
from operator import contains, itemgetter, mul

from .scalars import _numerators

_ZERO = Fraction(0)


# ------------------------------------------------------------ dense helpers


def zeros(n):
    return [_ZERO] * n

def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def vec_add(u, v):
    return [a + b for a, b in zip(u, v)]

def vec_sub(u, v):
    return [a - b for a, b in zip(u, v)]

def vec_scale(c, u):
    return [c * a for a in u]

def vec_is_zero(u):
    return all(a == 0 for a in u)


def mat_vec(M, v):
    # each sum starts from its first product, so that no rational zero meets
    # the entries of another ring; Fraction 0 when there is no product
    return [sum(terms, next(terms, _ZERO)) for terms in (map(mul, row, v) for row in M)]

def mat_mul(A, B):
    cols = list(zip(*B))
    return [mat_vec(cols, row) for row in A]

def mat_eq(A, B):
    return len(A) == len(B) and all(ra == rb for ra, rb in zip(A, B))


# ----------------------------------------------------------- sparse rows


def sparse_mat_mul(A, B):
    """The product of two sparse matrices as a list of {column: entry} rows.

    A is an iterable of rows and B is indexed by A's column keys, each row a
    dict of its nonzero entries.  Only products of nonzero entries are
    formed, each sum starts from its first product, and entries that cancel
    are dropped, so equal products have equal rows.
    """
    out = []
    for row in A:
        acc = {}
        for k, a in row.items():
            for j, b in B[k].items():
                acc[j] = acc[j] + a * b if j in acc else a * b
        out.append({j: v for j, v in acc.items() if v})
    return out


# -------------------------------------------------------------- elimination


def rref(rows, ncols: int):
    """Reduced row echelon form of a copy of rows; the input is not modified.

    Pivots are searched only in the first ncols columns, but every row
    operation acts on whole rows, so columns appended past ncols (a right-hand
    side, an identity block recording the row transform) come out transformed
    alongside.  Each column's pivot is the first nonzero row at or below the
    current rank, swapped into place; that rule fixes which dual functional a
    caller reads off an identity block.  Zero entries are skipped when scaling
    and eliminating, which matters for the sparse rows of the gauge oracle.

    Returns (pivots, reduced rows), pivots being (row, column) pairs in column
    order; the rank is len(pivots).
    """
    m = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = Fraction(1) / m[r][c]
        row = m[r] = [inv * v if v else v for v in m[r]]
        for i, other in enumerate(m):
            f = other[c]
            if f and i != r:
                m[i] = [u - f * v if v else u for u, v in zip(other, row)]
        pivots.append((r, c))
    return pivots, m


# ------------------------------------------------------ sparse integer rows


def sparse_row(pairs):
    """(column, integer) pairs as a row (cols, coefs), zeros dropped."""
    pairs = sorted((j, c) for j, c in pairs if c)
    return tuple(j for j, _ in pairs), tuple(c for _, c in pairs)


class IntRows:
    """A sparse matrix as integer rows over one positive denominator.

    rows[i] is a pair (cols, coefs) of tuples, cols increasing: row i holds
    coefs[k] / denominator in column cols[k] and zero elsewhere.
    """

    def __init__(self, rows, denominator: int):
        self.rows = rows
        self.denominator = denominator

    @classmethod
    def from_rational(cls, rows) -> "IntRows":
        """Dense rational rows over the lcm of all their denominators."""
        nums, den = _numerators([v for row in rows for v in row])
        it = iter(nums)
        return cls([sparse_row(enumerate(islice(it, len(row)))) for row in rows], den)

    def apply(self, x):
        """This matrix times the rational vector x, a list of ints and
        Fractions, on integers: (values, denominator), unreduced, with entry
        i of the product values[i] / denominator."""
        nums, den = _numerators(x)
        get = nums.__getitem__
        return ([sum(map(mul, coefs, map(get, cols))) for cols, coefs in self.rows],
                den * self.denominator)

    def combine(self, weights):
        """The sum of w times row i over the (i, w) pairs of integer weights,
        read off those rows alone: {column: integer} over this denominator,
        a column whose terms cancel keeping its zero."""
        out = {}
        for i, w in weights:
            cols, coefs = self.rows[i]
            for j, c in zip(cols, coefs):
                out[j] = out.get(j, 0) + w * c
        return out

    def column(self, j):
        """Column j as the (row, integer) pairs of its nonzero entries, in row
        order, over this denominator; each row is tested once, at C speed."""
        rows = self.rows
        hits = compress(range(len(rows)), map(contains, map(itemgetter(0), rows), repeat(j)))
        return [(i, rows[i][1][rows[i][0].index(j)]) for i in hits]
