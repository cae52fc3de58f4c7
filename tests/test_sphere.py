import random
from fractions import Fraction

import pytest

from diagdeform.scalars import LAMBDA, RatFunc, TruncSeries
from diagdeform.sphere import (
    P0,
    P1,
    PL,
    POLY,
    SPHERE,
    NotInSubalgebra,
    SphereElement,
    derivation_apply,
    geometric_series_check,
)

lam = RatFunc.gen(LAMBDA)
one = RatFunc.one(LAMBDA)


# ---------------------------------------------------------------- oracle
# A sphere element is a single fraction N(x) / (x^a (x-1)^b (x-lambda)^c)
# with N a polynomial in x over QQ(lambda).  Multiplying fractions needs no
# partial-fraction knowledge at all, which makes this a genuinely
# independent check of the normal-form product: frac(u*v) == frac(u)*frac(v)
# as rational functions, compared by cross-multiplication.


def padd(u, v):
    n = max(len(u), len(v))
    u = u + [RatFunc.zero(LAMBDA)] * (n - len(u))
    v = v + [RatFunc.zero(LAMBDA)] * (n - len(v))
    return [a + b for a, b in zip(u, v)]


def pmul(u, v):
    out = [RatFunc.zero(LAMBDA)] * (len(u) + len(v) - 1) if u and v else []
    for i, a in enumerate(u):
        if not a.is_zero():
            for j, b in enumerate(v):
                out[i + j] = out[i + j] + a * b
    return out


def ppow(u, n):
    r = [one]
    for _ in range(n):
        r = pmul(r, u)
    return r


X = [RatFunc.zero(LAMBDA), one]
X1 = [-one, one]          # x - 1
XL = [-lam, one]          # x - lambda


def to_fraction(e):
    a = max(e.part(P0), default=0)
    b = max(e.part(P1), default=0)
    c = max(e.part(PL), default=0)
    num = []
    for k, w in e.part(POLY).items():
        term = pmul(pmul(ppow(X, k + a), ppow(X1, b)), ppow(XL, c))
        num = padd(num, [w * t for t in term])
    for m, w in e.part(P0).items():
        term = pmul(pmul(ppow(X, a - m), ppow(X1, b)), ppow(XL, c))
        num = padd(num, [w * t for t in term])
    for m, w in e.part(P1).items():
        term = pmul(pmul(ppow(X, a), ppow(X1, b - m)), ppow(XL, c))
        num = padd(num, [w * t for t in term])
    for m, w in e.part(PL).items():
        term = pmul(pmul(ppow(X, a), ppow(X1, b)), ppow(XL, c - m))
        num = padd(num, [w * t for t in term])
    den = pmul(pmul(ppow(X, a), ppow(X1, b)), ppow(XL, c))
    return num, den


def fractions_equal(f1, f2):
    n1, d1 = f1
    n2, d2 = f2
    lhs = pmul(n1, d2)
    rhs = pmul(n2, d1)
    n = max(len(lhs), len(rhs))
    lhs = lhs + [RatFunc.zero(LAMBDA)] * (n - len(lhs))
    rhs = rhs + [RatFunc.zero(LAMBDA)] * (n - len(rhs))
    return all(a == b for a, b in zip(lhs, rhs))


def rand_element(rng, small=False):
    e = SphereElement.zero()
    top = 1 if small else 2
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(["poly", P0, P1, PL])
        coeff = RatFunc.const(LAMBDA, Fraction(rng.randint(-3, 3)))
        if rng.random() < 0.4:
            coeff = coeff * lam
        if coeff.is_zero():
            continue
        if kind == "poly":
            e = e + SphereElement.x_power(rng.randint(0, top + 1), coeff)
        else:
            e = e + SphereElement.pole(kind, rng.randint(1, top), coeff)
    return e


def drop_lambda_poles(e):
    """e without its principal part at lambda, so that it lies in B."""
    for m, c in e.part(PL).items():
        e = e - SphereElement.pole(PL, m, c)
    return e


# ---------------------------------------------------------------- normal form


def test_normal_form_drops_zeros_and_validates():
    e = SphereElement(poly={2: 0}, poles={P1: {1: 0}})
    assert e.is_zero()
    with pytest.raises(ValueError):
        SphereElement(poly={-1: 1})
    with pytest.raises(ValueError):
        SphereElement(poles={"2": {1: 1}})
    assert SphereElement.x_power(-2).part(P0) == {2: one}


def test_product_x_with_inverse():
    x = SphereElement.x_power(1)
    invx = SphereElement.pole(P0, 1)
    assert x * invx == SphereElement.one()


def test_product_two_simple_poles():
    invx = SphereElement.pole(P0, 1)
    inv1 = SphereElement.pole(P1, 1)
    expect = SphereElement(poles={P1: {1: one}, P0: {1: -one}})
    assert invx * inv1 == expect


def test_product_poles_at_one_and_lambda():
    inv1 = SphereElement.pole(P1, 1)
    invL = SphereElement.pole(PL, 1)
    c = (lam - 1).inverse()
    expect = SphereElement(poles={PL: {1: c}, P1: {1: -c}})
    assert inv1 * invL == expect


def test_product_against_fraction_oracle():
    rng = random.Random(614)
    for _ in range(40):
        u = rand_element(rng, small=True)
        v = rand_element(rng, small=True)
        w = u * v
        fu, du = to_fraction(u)
        fv, dv = to_fraction(v)
        prod = (pmul(fu, fv), pmul(du, dv))
        assert fractions_equal(to_fraction(w), prod)


def test_ring_axioms_randomized():
    rng = random.Random(2831)
    for _ in range(20):
        a, b, c = (rand_element(rng, small=True) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    e = rand_element(rng)
    assert e * SphereElement.one() == e


def test_higher_order_cross_pole_products():
    # (x-1)^-2 * (x-lambda)^-1 against the fraction oracle, plus exactness
    # of the recurrence under repeated squaring
    a = SphereElement.pole(P1, 2)
    b = SphereElement.pole(PL, 1)
    w = a * b
    fa, da = to_fraction(a)
    fb, db = to_fraction(b)
    assert fractions_equal(to_fraction(w), (pmul(fa, fb), pmul(da, db)))
    sq = (a + b) * (a + b)
    fs, ds = to_fraction(a + b)
    assert fractions_equal(to_fraction(sq), (pmul(fs, fs), pmul(ds, ds)))


# ---------------------------------------------------------------- derivations


def test_derivative_term_rules():
    assert SphereElement.x_power(3).derivative() == SphereElement.x_power(2, 3)
    assert SphereElement.pole(P1, 2).derivative() == SphereElement.pole(P1, 3, -2)
    assert SphereElement.const(5).derivative().is_zero()


def test_derivation_apply_example():
    x = SphereElement.x_power(1)
    invx = SphereElement.pole(P0, 1)
    assert derivation_apply(x, invx) == SphereElement.pole(P0, 1, -1)


def test_derivation_leibniz_randomized():
    rng = random.Random(99)
    for _ in range(15):
        v = rand_element(rng, small=True)
        a = rand_element(rng, small=True)
        b = rand_element(rng, small=True)
        lhs = derivation_apply(v, a * b)
        rhs = derivation_apply(v, a) * b + a * derivation_apply(v, b)
        assert lhs == rhs


# ------------------------------------------------------------- substitution


def test_substitute_scale_generators():
    assert SphereElement.x_power(2).substitute_scale() == SphereElement.x_power(
        2, lam ** -2
    )
    assert SphereElement.pole(P0, 1).substitute_scale() == SphereElement.pole(P0, 1, lam)
    assert SphereElement.pole(P1, 1).substitute_scale() == SphereElement.pole(PL, 1, lam)
    assert SphereElement.pole(P1, 3).substitute_scale() == SphereElement.pole(
        PL, 3, lam ** 3
    )


def test_substitute_scale_is_multiplicative():
    rng = random.Random(42)
    for _ in range(20):
        a = drop_lambda_poles(rand_element(rng, small=True))
        b = drop_lambda_poles(rand_element(rng, small=True))
        assert (a * b).substitute_scale() == a.substitute_scale() * b.substitute_scale()


def test_substitute_scale_rejects_lambda_pole():
    with pytest.raises(NotInSubalgebra):
        SphereElement.pole(PL, 1).substitute_scale()


# ---------------------------------------------------------- geometric series


def test_geometric_series_identity_small():
    rep = geometric_series_check(0)
    assert rep["ok"]
    rep = geometric_series_check(3)
    assert rep["ok"]
    assert rep["residual"].is_zero()


def test_geometric_series_truncation_is_sharp():
    # dropping the last term of the series breaks the identity at top order
    order = 3
    x = SphereElement.x_power(1)
    linear = TruncSeries(
        SPHERE, order, [x - SphereElement.const(lam), SphereElement.const(-lam)]
    )
    short = TruncSeries(
        SPHERE, order, [SphereElement.pole(PL, n + 1, lam ** n) for n in range(order)]
    )
    product = linear * short
    residual = product - TruncSeries.one(SPHERE, order)
    assert not residual.is_zero()
    assert all(residual.coeffs[k].is_zero() for k in range(order))
