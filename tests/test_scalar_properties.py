"""Ring axioms of UniPoly and field axioms of RatFunc as hypothesis
properties.  hypothesis is a test-only dependency; without it these skip."""

from fractions import Fraction
from math import gcd

import pytest

from diagdeform.scalars import QVAR, RatFunc, UniPoly

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

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
