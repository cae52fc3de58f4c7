"""Exact Gauss-Jordan elimination over QQ, shared by every module that solves
or ranks: nerve cohomology in diagram and the gauge membership oracle in
w1diagram."""

from __future__ import annotations

from fractions import Fraction


def rref(rows, ncols: int):
    """Reduced row echelon form of a copy of rows; the input is not modified.

    Pivots are searched only in the first ncols columns, but every row
    operation acts on whole rows, so columns appended past ncols (a right-hand
    side, an identity block recording the row transform) come out transformed
    alongside.  Each column's pivot is the first nonzero row at or below the
    current rank, swapped into place; that rule fixes which dual functional a
    caller reads off an identity block.  Zero entries are skipped when scaling
    and eliminating, which matters for the sparse rows the gauge span has.

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
