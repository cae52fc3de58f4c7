"""Ring axioms of UniPoly and field axioms of RatFunc as hypothesis
properties.  hypothesis is a test-only dependency; without it these skip."""

from fractions import Fraction
from math import gcd

import pytest

from diagdeform.scalars import QVAR, RatFunc, UniPoly, poly_gcd

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)

rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
nonzero_rationals = rationals.filter(bool)


def polys(maxdeg=4):
    return st.lists(rationals, max_size=maxdeg + 1).map(lambda cs: UniPoly(QVAR, cs))


monomials = st.builds(lambda c, k: UniPoly(QVAR, [0] * k + [c]),
                      nonzero_rationals, st.integers(0, 5))
denominators = st.one_of(monomials, polys(3).filter(bool))
ratfuncs = st.builds(RatFunc, polys(3), denominators)


def assert_canonical(p: UniPoly):
    assert p.denom > 0
    assert not p.ints or (p.ints[-1] != 0 and gcd(p.denom, *p.ints) == 1)
    assert p == UniPoly(QVAR, p.coeffs)


@PROPERTY
@given(polys(), polys(), polys(), rationals)
def test_unipoly_ring_axioms(a, b, c, x):
    zero, one = UniPoly.zero(QVAR), UniPoly.one(QVAR)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and (a - a).is_zero()
    assert hash(a * b) == hash(b * a)
    # evaluation at a rational point is a ring homomorphism into Fraction
    assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)
    assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)
    for p in (a + b, a - b, a * b, -a, a ** 2):
        assert_canonical(p)


@PROPERTY
@given(polys(6), polys(3).filter(bool))
def test_unipoly_division_identity(a, b):
    quot, rem = divmod(a, b)
    assert quot * b + rem == a
    assert rem.degree < b.degree
    assert_canonical(quot)
    assert_canonical(rem)


@PROPERTY
@given(ratfuncs, ratfuncs, ratfuncs)
def test_ratfunc_field_axioms(a, b, c):
    zero, one = RatFunc.zero(QVAR), RatFunc.one(QVAR)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a
    assert a + (-a) == zero
    if not a.is_zero():
        assert a * a.inverse() == one
        assert (b / a) * a == b
    for f in (a, a + b, a * b):
        assert f.den.leading() == 1
        assert_canonical(f.num)
        assert_canonical(f.den)


# Rational functions whose numerators and denominators are products from a
# small pool of factors, so that two of them often have equal, coprime,
# partly shared or constant denominators, and sums and products cancel.
_q = UniPoly.gen(QVAR)
FACTORS = (_q, _q - 1, _q + 1, _q * _q + _q + 1, 2 * _q + 3)
factor_lists = st.lists(st.sampled_from(range(len(FACTORS))), max_size=3)


def _product(c, idx, extra=None):
    p = UniPoly.const(QVAR, c)
    for i in idx:
        p = p * FACTORS[i]
    return p if extra is None else p * extra


# (constant, numerator factors, numerator cofactor, denominator constant,
# denominator factors)
raw_parts = st.tuples(rationals, factor_lists, st.one_of(st.none(), polys(1).filter(bool)),
                      nonzero_rationals, factor_lists)


def _from_parts(parts):
    c, num, extra, d, den = parts
    return RatFunc(_product(c, num, extra), _product(d, den))


def _pair(b_choice, parts):
    """a from parts and b by kind: from other parts, over a's raw
    denominator, -a, s - a for an s over part of a's denominator (so the sum
    cancels to s), or p / a (so the product cancels to p).  Differences and
    quotients go through the validating constructor only."""
    c, num, extra, d, den = parts
    kind, other = b_choice
    a = _from_parts(parts)
    if kind == "negated":
        return a, _from_parts((-c, num, extra, d, den))
    if kind == "same_den":
        return a, _from_parts(other[:3] + (d, den))
    if kind == "sum_to":
        s = _from_parts(other[:3] + (d, den[1:]))
        return a, RatFunc(s.num * a.den - a.num * s.den, s.den * a.den)
    if kind == "product_to" and a:
        p = _from_parts(other)
        return a, RatFunc(p.num * a.den, p.den * a.num)
    if kind == "unit":
        return a, RatFunc.one(QVAR)
    if kind == "zero":
        return a, RatFunc.zero(QVAR)
    return a, _from_parts(other)


KINDS = ("independent", "same_den", "negated", "sum_to", "product_to", "unit", "zero")
pooled_pairs = st.builds(_pair, st.tuples(st.sampled_from(KINDS), raw_parts), raw_parts)


def assert_reduced_and_equal(got, expect):
    assert (got.num, got.den) == (expect.num, expect.den)
    assert poly_gcd(got.num, got.den) == UniPoly.one(QVAR)
    assert got.den.leading() == 1


_one = UniPoly.one(QVAR)
_a = RatFunc(_one, _q * (_q - 1))
_b = RatFunc(_one, _q * (_q + 1))
_c = RatFunc(_q * (_q - 1), _one)


@PROPERTY
@given(pooled_pairs, st.integers(-3, 3))
@example((_a, _b), 2)              # shared q, sum 2q / (q (q-1) q (q+1)) cancels q
@example((_a, _c), -1)             # each numerator cancels the other denominator
def test_ratfunc_arithmetic_matches_schoolbook_formulas(pair, n):
    """Every operation equals the validating constructor applied to the
    unreduced schoolbook result, field by field, in lowest terms with a
    monic denominator."""
    a, b = pair
    an, ad, bn, bd = a.num, a.den, b.num, b.den
    assert_reduced_and_equal(a + b, RatFunc(an * bd + bn * ad, ad * bd))
    assert_reduced_and_equal(a - b, RatFunc(an * bd - bn * ad, ad * bd))
    assert_reduced_and_equal(a * b, RatFunc(an * bn, ad * bd))
    assert_reduced_and_equal(b * a, RatFunc(bn * an, bd * ad))
    assert_reduced_and_equal(-a, RatFunc(-an, ad))
    if not b.is_zero():
        assert_reduced_and_equal(a / b, RatFunc(an * bd, ad * bn))
        assert_reduced_and_equal(b.inverse(), RatFunc(bd, bn))
    if n >= 0:
        assert_reduced_and_equal(a ** n, RatFunc(an ** n, ad ** n))
    elif not a.is_zero():
        assert_reduced_and_equal(a ** n, RatFunc(ad ** -n, an ** -n))
