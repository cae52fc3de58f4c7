"""Truncated series over QQ against a plain Fraction convolution written
here, series_expand against sympy, and hash against == for series and for
constant algebra elements.  hypothesis and sympy are test-only
dependencies; without them these skip."""

from fractions import Fraction

import pytest

from diagdeform.qweyl import classical, deformed, symbolic
from diagdeform.scalars import (
    HBAR,
    LAMBDA,
    QQ,
    QVAR,
    RatFunc,
    SeriesRing,
    TruncSeries,
    UniPoly,
    series_div_valuation,
    series_expand,
)
from diagdeform.sphere import SphereElement
from diagdeform.star import Poly2

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)

rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
nonzero_rationals = rationals.filter(bool)
# about half zeros, so that sparse series (the common case in the Weyl
# deformation) are drawn as often as dense ones
sparse_rationals = st.one_of(st.just(Fraction(0)), rationals)


@st.composite
def coefficient_lists(draw, max_order=8, lead=sparse_rationals):
    n = draw(st.integers(0, max_order))
    return [draw(lead)] + draw(st.lists(sparse_rationals, min_size=n, max_size=n))


# the zero and the unit series of any order, which arithmetic returns
# without computing, as often as general ones
special_lists = st.builds(lambda lead, n: [lead] + [Fraction(0)] * n,
                          st.sampled_from([Fraction(0), Fraction(1)]), st.integers(0, 8))
operands = st.one_of(coefficient_lists(), special_lists)


def convolve(a, b, n):
    """The first n + 1 coefficients of the product, by the textbook sum."""
    return [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0)) for k in range(n + 1)]


def series(cs):
    return TruncSeries(QQ, len(cs) - 1, cs)


@PROPERTY
@given(operands, operands, rationals)
def test_qq_series_arithmetic_matches_fraction_lists(a, b, c):
    n = min(len(a), len(b)) - 1  # mixed orders truncate to the smaller one
    sa, sb = series(a), series(b)
    assert (sa + sb).coeffs == (sb + sa).coeffs == tuple(x + y for x, y in zip(a, b))
    assert (sa - sb).coeffs == tuple(x - y for x, y in zip(a, b))
    assert (sb - sa).coeffs == tuple(y - x for x, y in zip(a, b))
    assert (sa * sb).coeffs == (sb * sa).coeffs == tuple(convolve(a, b, n))
    assert (sa * sb).order == (sb * sa).order == n
    assert sa.scale(c).coeffs == tuple(c * x for x in a)
    assert (sa * c).coeffs == (c * sa).coeffs == tuple(c * x for x in a)
    assert (sa + c).coeffs == (a[0] + c,) + tuple(a[1:])
    assert (c - sa).coeffs == (c - a[0],) + tuple(-x for x in a[1:])
    for s in (sa + sb, sb + sa, sa - sb, sb - sa, sa * sb, sb * sa, sa.scale(c)):
        assert all(type(x) is Fraction for x in s.coeffs)
        assert [s.coefficient(k) for k in range(s.order + 1)] == list(s.coeffs)
        assert s == series(list(s.coeffs))


@PROPERTY
@given(coefficient_lists(lead=nonzero_rationals), st.integers(0, 8))
def test_qq_series_inverse_multiplies_back_to_one(b, order):
    inv = SeriesRing(QQ, order).inv(series(b))
    n = min(order, len(b) - 1)
    assert inv.order == n
    assert convolve(list(inv.coeffs), b, n) == [Fraction(1)] + [Fraction(0)] * n


@PROPERTY
@given(coefficient_lists(), coefficient_lists(lead=nonzero_rationals), st.integers(0, 3))
def test_qq_series_division_multiplies_back(a, b, v):
    num, den = [Fraction(0)] * v + a, [Fraction(0)] * v + b
    if not a[0]:
        num[v] = Fraction(1)
    q = series_div_valuation(series(num), series(den))
    n = min(len(num), len(den)) - 1 - v
    assert q.order == n
    assert convolve(list(q.coeffs), b, n) == num[v:v + n + 1]


@PROPERTY
@given(coefficient_lists(), coefficient_lists(), st.integers(0, 8))
def test_equal_qq_series_hash_alike(a, b, m):
    sa, sb = series(a), series(b)
    n = min(sa.order, sb.order)
    m = min(m, sa.order)
    pairs = [
        (sa * sb, sb * sa),
        (sa + sb - sb, sa.truncate(n)),
        (sa.truncate(m), TruncSeries(QQ, m, a + [Fraction(0)] * 3)),
        (sa - sa, TruncSeries.zero(QQ, sa.order)),
        (sa - (sa - a[0]), TruncSeries.const(QQ, sa.order, a[0])),
    ]
    for x, y in pairs:
        assert x == y
        assert hash(x) == hash(y)
    if sa == sb:
        assert hash(sa) == hash(sb)


def ratfuncs(var, maxdeg=3):
    polys = st.lists(rationals, max_size=maxdeg + 1).map(lambda cs: UniPoly(var, cs))
    return st.builds(RatFunc, polys, polys.filter(bool))


@PROPERTY
@given(rationals, ratfuncs(LAMBDA), ratfuncs(QVAR), coefficient_lists(max_order=4))
def test_constant_elements_hash_as_their_scalars(c, lam_f, q_f, cs):
    D = deformed(4)
    s = TruncSeries.const(QQ, 4, c)
    pairs = [
        (Poly2.const(c), c),
        (classical().coerce(c), c),
        (SphereElement.const(lam_f), lam_f),
        (SphereElement.const(c), c),
        (symbolic().coerce(q_f), q_f),
        (symbolic().coerce(c), c),
        (D.coerce(c), c),
        (D.coerce(s), s),
        (D.coerce(TruncSeries(QQ, 4, cs)), TruncSeries(QQ, 4, cs)),
    ]
    for element, scalar in pairs:
        assert element == scalar
        assert hash(element) == hash(scalar), (element, scalar)
    assert RatFunc.const(QVAR, c) == c and hash(RatFunc.const(QVAR, c)) == hash(c)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(rationals, max_size=4), st.lists(rationals, max_size=4),
       nonzero_rationals, st.integers(0, 2), st.integers(0, 7))
def test_series_expand_matches_sympy(num, den_tail, den0, v, order):
    sympy = pytest.importorskip("sympy")
    h = sympy.Symbol(HBAR)
    # the denominator has hbar-valuation v, and the numerator at least v,
    # so the function is regular at 0
    num = [Fraction(0)] * v + num
    den = [Fraction(0)] * v + [den0] + den_tail
    f = RatFunc(UniPoly(HBAR, num), UniPoly(HBAR, den))

    def expr(cs):
        return sum((sympy.Rational(c.numerator, c.denominator) * h ** k
                    for k, c in enumerate(cs)), sympy.Integer(0))

    taylor = sympy.series(expr(num) / expr(den), h, 0, order + 1).removeO()
    poly = sympy.Poly(taylor, h) if taylor != 0 else sympy.Poly(0, h)
    expected = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    expected += [Fraction(0)] * (order + 1 - len(expected))
    assert series_expand(f, order).coeffs == tuple(expected[:order + 1])
