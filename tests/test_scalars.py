import random
from fractions import Fraction

import pytest

from diagdeform.qweyl import deformed
from diagdeform.scalars import (
    HBAR,
    LAMBDA,
    QQ,
    QVAR,
    NonInvertibleLeadingCoefficient,
    PoleAtPoint,
    PoleAtZero,
    RatFunc,
    RatFuncRing,
    SeriesRing,
    TagMismatch,
    TruncSeries,
    UniPoly,
    ValuationMismatch,
    exp_hbar,
    one_plus_hbar,
    parse_rational,
    poly_gcd,
    series_div_valuation,
    series_expand,
    specialize,
)
from diagdeform.sphere import SPHERE


def rand_poly(rng, var, maxdeg=4):
    return UniPoly(
        var,
        [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(0, maxdeg + 1))],
    )


# ---------------------------------------------------------------- polynomials


def test_unipoly_basic_arithmetic():
    t = UniPoly.gen(HBAR)
    p = (t + 1) * (t - 1)
    assert p == UniPoly(HBAR, [-1, 0, 1])
    assert (t ** 3).degree == 3
    assert UniPoly.zero(HBAR).degree == -1
    assert p.evaluate(3) == 8


def test_poly_gcd_is_common_divisor():
    rng = random.Random(5)
    for _ in range(30):
        g = rand_poly(rng, LAMBDA, 2)
        a = rand_poly(rng, LAMBDA, 3) * g
        b = rand_poly(rng, LAMBDA, 3) * g
        d = poly_gcd(a, b)
        if a.is_zero() and b.is_zero():
            assert d.is_zero()
            continue
        assert (a % d).is_zero() if not a.is_zero() else True
        assert (b % d).is_zero() if not b.is_zero() else True


def test_cross_tag_arithmetic_raises():
    with pytest.raises(TagMismatch):
        UniPoly.gen(LAMBDA) + UniPoly.gen(QVAR)
    with pytest.raises(TagMismatch):
        RatFunc.gen(LAMBDA) * RatFunc.gen(HBAR)


# ----------------------------------------------------------- rational functions


def test_ratfunc_canonical_form():
    t = UniPoly.gen(LAMBDA)
    f = RatFunc(t * t - 1, (t - 1) * UniPoly.const(LAMBDA, 2))
    # (t^2-1)/(2t-2) reduces to (t+1)/2 with monic denominator 1
    assert f.num == UniPoly(LAMBDA, [Fraction(1, 2), Fraction(1, 2)])
    assert f.den == UniPoly.one(LAMBDA)
    z = RatFunc(UniPoly.zero(LAMBDA), t ** 3)
    assert z.is_zero() and z.den == UniPoly.one(LAMBDA)


def test_ratfunc_equals_a_rational_exactly_when_it_is_that_constant():
    q = RatFunc.gen(QVAR)
    for c in (0, 1, -3, Fraction(2, 3), Fraction(-5, 7)):
        f = RatFunc.const(QVAR, c)
        assert f == c and c == f and f != c + 1 and f != Fraction(c) / 2 + 1
        assert q != c and 1 / (q + 1) != c and (q + c) / q != c
    assert RatFunc(UniPoly.const(QVAR, 4), UniPoly.const(QVAR, 6)) == Fraction(2, 3)
    assert (q * q + q) / (q + 1) - q == 0 and q / q == 1


def test_specialize():
    lam = RatFunc.gen(LAMBDA)
    f = lam / (lam - 1)
    assert specialize(f, 2) == 2
    assert specialize(f, Fraction(1, 2)) == -1
    with pytest.raises(PoleAtPoint):
        specialize(f, 1)


# ------------------------------------------------------------------- series


def test_series_expand_frozen_values():
    h = UniPoly.gen(HBAR)
    f = RatFunc(h, h + 2)  # hbar / (2 + hbar)
    s = series_expand(f, 3)
    assert s.coeffs == (Fraction(0), Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8))
    assert series_expand(RatFunc.one(HBAR), 5).coeffs == (1, 0, 0, 0, 0, 0)


def test_series_expand_pole_detected():
    h = UniPoly.gen(HBAR)
    with pytest.raises(PoleAtZero):
        series_expand(RatFunc(UniPoly.one(HBAR), h), 4)
    # a removable zero at the origin is fine
    s = series_expand(RatFunc(h * h, h), 2)
    assert s.coeffs == (0, 1, 0)


def test_series_expand_against_remultiplication():
    # oracle: q is the expansion of num/den iff q*den == num mod hbar^(N+1)
    rng = random.Random(77)
    N = 8
    for _ in range(40):
        num = rand_poly(rng, HBAR, 5)
        den = rand_poly(rng, HBAR, 5)
        if den.is_zero() or den.coefficient(0) == 0:
            continue
        s = series_expand(RatFunc(num, den), N)
        prod = [Fraction(0)] * (N + 1)
        for i, c in enumerate(s.coeffs):
            for j in range(N + 1 - i):
                prod[i + j] += c * den.coefficient(j)
        assert prod == [num.coefficient(k) for k in range(N + 1)]


def test_truncseries_ring_axioms():
    rng = random.Random(31)
    ring = SeriesRing(QQ, 6)
    for _ in range(30):
        a = TruncSeries(QQ, 6, [Fraction(rng.randint(-5, 5)) for _ in range(7)])
        b = TruncSeries(QQ, 6, [Fraction(rng.randint(-5, 5)) for _ in range(7)])
        c = TruncSeries(QQ, 6, [Fraction(rng.randint(-5, 5)) for _ in range(7)])
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a.coeffs[0] != 0:
            assert ring.inv(a) * a == TruncSeries.one(QQ, 6)


def test_truncseries_mixed_orders_take_minimum():
    a = TruncSeries(QQ, 5, [1, 1])
    b = TruncSeries(QQ, 3, [1, -1])
    assert (a * b).order == 3
    assert (a + b).order == 3


def test_series_inverse_takes_the_smaller_order():
    a = TruncSeries(QQ, 3, [1, 1])
    assert SeriesRing(QQ, 6).inv(a) == TruncSeries(QQ, 3, [1, -1, 1, -1])
    assert SeriesRing(QQ, 2).inv(a) == TruncSeries(QQ, 2, [1, -1, 1])


def test_series_over_two_rings_do_not_combine():
    from diagdeform.star import P2

    q = TruncSeries.one(QQ, 3)
    p = TruncSeries.hbar(P2, 3)
    lam = TruncSeries.one(RatFuncRing(LAMBDA), 3)
    for a, b in ((q, p), (p, q), (q, lam), (lam, p)):
        for op in (lambda: a + b, lambda: a - b, lambda: a * b):
            with pytest.raises(TagMismatch):
                op()
        assert a != b
    # one ring at two orders still truncates to the smaller order
    assert (q + TruncSeries.hbar(QQ, 2)).coeffs == (1, 1, 0)
    assert TruncSeries.one(RatFuncRing(LAMBDA), 2) * lam == TruncSeries.one(RatFuncRing(LAMBDA), 2)


def test_series_over_qq_keep_their_reported_form():
    """Series over QQ run on integer numerators; every reader still sees
    Fractions, and equal series hash alike whichever way they were built."""
    a = TruncSeries(QQ, 3, [2, Fraction(1, 2), Fraction(-1, 3)])
    assert a.coeffs == (2, Fraction(1, 2), Fraction(-1, 3), 0)
    assert all(type(c) is Fraction for c in a.coeffs)
    assert [a.coefficient(k) for k in range(4)] == list(a.coeffs)
    assert str(a) == "2 + (1/2)*hbar + (-1/3)*hbar^2 + O(hbar^4)"
    assert a.to_json() == {"order": 3, "coefficients": ["2", "1/2", "-1/3", "0"]}
    assert (a - a).coeffs == (0, 0, 0, 0) and not (a - a) and (a - a).valuation() is None
    assert a.scale(Fraction(6, 5)) == TruncSeries(QQ, 3, [Fraction(12, 5), Fraction(3, 5),
                                                          Fraction(-2, 5)])
    assert a.truncate(1) == TruncSeries(QQ, 1, [2, Fraction(1, 2)])
    b = TruncSeries(QQ, 3, [Fraction(1, 3), 0, 0, 3])
    assert a * b == b * a and hash(a * b) == hash(b * a)
    assert a + b - b == a and hash(a + b - b) == hash(a)
    # a constant series hashes as its constant term
    assert hash(TruncSeries.const(QQ, 4, Fraction(3, 2))) == hash(Fraction(3, 2))
    assert hash(TruncSeries.zero(QQ, 2)) == hash(0)


def test_constant_series_equals_its_scalar():
    for ring in (QQ, SPHERE):
        one = TruncSeries.one(ring, 3)
        assert one == 1 and 1 == one and not one != 1
        assert one != 2 and one != Fraction(1, 2)
        assert TruncSeries.const(ring, 3, Fraction(1, 2)) == Fraction(1, 2)
        assert TruncSeries.zero(ring, 2) == 0 and not TruncSeries.zero(ring, 2) != 0
        assert TruncSeries.hbar(ring, 3) != 0 and TruncSeries(ring, 3, [1, 1]) != 1
        # one key in a set or dict, since they hash alike
        assert len({one, 1}) == 1 and {one: "series"}[1] == "series"
        assert len({TruncSeries.const(ring, 2, Fraction(3, 2)), Fraction(3, 2)}) == 1
    # equality is transitive through the constant element of an algebra
    assert deformed(3).one == TruncSeries.one(QQ, 3) == 1 == deformed(3).one


def test_constant_series_equals_a_constant_of_its_coefficient_ring():
    from diagdeform.sphere import SphereElement
    from diagdeform.star import P2, Poly2

    lam, q = RatFunc.gen(LAMBDA), RatFunc.gen(QVAR)
    cases = [  # (ring, the ring's one, a constant that is not rational)
        (SPHERE, SphereElement.const(1), SphereElement.const(lam)),
        (RatFuncRing(QVAR), RatFunc.const(QVAR, 1), q),
        (P2, Poly2.const(1), Poly2.x()),
    ]
    for ring, one, c in cases:
        series = TruncSeries.const(ring, 3, c)
        assert TruncSeries.one(ring, 3) == one and one == TruncSeries.one(ring, 3)
        assert series == c and c == series and not series != c
        assert series != one and TruncSeries(ring, 3, [c, c]) != c
        # one key in a set or dict, since they hash alike
        assert len({TruncSeries.one(ring, 3), one}) == 1
        assert len({series, c}) == 1 and {series: "series"}[c] == "series"
        # arithmetic still takes only rational scalars
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
            with pytest.raises(TypeError):
                op(series, c)
            with pytest.raises(TypeError):
                op(c, series)
    # the sphere's lambda is a constant of its ring too
    assert TruncSeries.const(SPHERE, 2, SphereElement.const(lam)) == lam
    # a coefficient in another variable is unequal, as for RatFunc itself
    assert TruncSeries.const(RatFuncRing(QVAR), 2, q) != lam
    assert TruncSeries.const(SPHERE, 2, SphereElement.const(lam)) != q


def test_series_expand_refuses_other_variables():
    for var in (LAMBDA, QVAR):
        with pytest.raises(TagMismatch):
            series_expand(RatFunc.gen(var), 3)
        with pytest.raises(TagMismatch):
            series_expand(UniPoly.gen(var), 3)


def test_series_div_valuation():
    h = TruncSeries.hbar(QQ, 4)
    num = h + h * h  # hbar + hbar^2
    q = series_div_valuation(num, h)
    assert q.order == 3
    assert q.coeffs == (1, 1, 0, 0)
    with pytest.raises(ValuationMismatch):
        series_div_valuation(h * h, h * h * h)
    with pytest.raises(NonInvertibleLeadingCoefficient):
        ring = SeriesRing(QQ, 3)
        ring.inv(TruncSeries.hbar(QQ, 3))


def test_series_div_against_remultiplication():
    rng = random.Random(13)
    for _ in range(30):
        v = rng.randint(0, 2)
        n = 7
        num_c = [Fraction(0)] * v + [Fraction(rng.randint(-4, 4)) for _ in range(n + 1 - v)]
        den_c = [Fraction(0)] * v + [Fraction(rng.randint(1, 4))] + [
            Fraction(rng.randint(-4, 4)) for _ in range(n - v)
        ]
        num = TruncSeries(QQ, n, num_c)
        den = TruncSeries(QQ, n, den_c)
        if num.valuation() != v:
            continue
        q = series_div_valuation(num, den)
        assert q.order == n - v
        prod = q * den.truncate(n - v)
        assert prod == num.truncate(n - v)


def test_named_series_helpers():
    assert one_plus_hbar(3).coeffs == (1, 1, 0, 0)
    e = exp_hbar(4)
    assert e.coeffs == (1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24))
    em = exp_hbar(3, scale=-1)
    assert (e.truncate(3) * em).coeffs == (1, 0, 0, 0)


def test_series_over_ratfunc_ring():
    ring = RatFuncRing(LAMBDA)
    lam = RatFunc.gen(LAMBDA)
    s = TruncSeries(ring, 2, [ring.one, lam])
    t = TruncSeries(ring, 2, [lam, ring.one])
    assert (s * t).coeffs == (lam, lam * lam + 1, lam)


def test_every_ring_adapter_inverts_units_and_refuses_non_units():
    from diagdeform.qweyl import classical
    from diagdeform.sphere import SPHERE, SphereElement
    from diagdeform.star import P2, Poly2

    q = RatFunc.gen(QVAR)
    series = SeriesRing(QQ, 3)
    w1 = classical()
    lam = RatFunc.gen(LAMBDA)
    cases = [
        (QQ, Fraction(-2, 3), []),
        (RatFuncRing(QVAR), q + 1, []),
        (series, TruncSeries(QQ, 3, [2, 1]), [TruncSeries(QQ, 3, [0, 1])]),
        (w1, w1.from_rational(5), [w1.x, w1.one + w1.y]),
        (P2, Poly2.const(Fraction(3, 4)), [Poly2.const(1) + Poly2({(1, 0): 1})]),
        # x - 2 and (x + 1)/x vanish off the punctures, so neither is a unit
        (SPHERE, SphereElement.const(lam), [SphereElement(poly={0: -2, 1: 1}),
                                            SphereElement(poly={0: 1}, poles={"0": {1: 1}})]),
    ]
    for ring, unit, others in cases:
        assert unit * ring.inv(unit) == ring.one, ring
        for a in [ring.zero] + others:
            with pytest.raises(NonInvertibleLeadingCoefficient):
                ring.inv(a)


def test_parse_rational_bounds_digits_before_parsing():
    assert parse_rational("-2/7") == Fraction(-2, 7)
    assert parse_rational(" 1.5e-3 ") == Fraction(3, 2000)
    assert parse_rational(3) == 3
    assert parse_rational("1e999") == 10 ** 999
    # the exponent is refused before Fraction would build the integer,
    # also when it is written with the underscores Fraction accepts
    for text in ["1e1001", "1e-5000", "1e1_001", "1e999_999_999", "1e1000"]:
        with pytest.raises(ValueError):
            parse_rational(text)
    with pytest.raises(ValueError):
        parse_rational("1" * 1001)
    with pytest.raises(ZeroDivisionError):
        parse_rational("1/0")
    for bad in ["x", "", None, "nan", "inf", [1]]:
        with pytest.raises(ValueError):
            parse_rational(bad)
