"""UniPoly and RatFunc against sympy, an implementation that shares no code
with diagdeform.  sympy is a test-only dependency; without it these skip."""

import random
from fractions import Fraction

import pytest

from diagdeform.scalars import QVAR, RatFunc, UniPoly, poly_gcd

sympy = pytest.importorskip("sympy")

q = sympy.Symbol("q")


def to_sympy(p: UniPoly):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs or [0], q, domain="QQ")


def from_sympy(P) -> UniPoly:
    return UniPoly(QVAR, [Fraction(int(c.p), int(c.q)) for c in reversed(P.all_coeffs())])


def rand_poly(rng, maxdeg, integral):
    if integral:
        cs = [rng.randint(-6, 6) for _ in range(rng.randint(0, maxdeg + 1))]
    else:
        cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
              for _ in range(rng.randint(0, maxdeg + 1))]
    return UniPoly(QVAR, cs)


def rand_nonzero(rng, kind):
    """A nonzero constant, a monomial c q^k, or a general polynomial."""
    c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
    if kind == "constant":
        return UniPoly.const(QVAR, c)
    if kind == "monomial":
        return UniPoly(QVAR, [0] * rng.randint(1, 5) + [c])
    p = UniPoly.zero(QVAR)
    while p.is_const():
        p = rand_poly(rng, 4, rng.random() < 0.5)
    return p


KINDS = ["constant", "monomial", "general"]


def cases(seed, n=60):
    rng = random.Random(seed)
    for i in range(n):
        kind = KINDS[i % 3]
        yield rng, kind, rand_poly(rng, 6, i % 2 == 0), rand_nonzero(rng, kind)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_poly_gcd_matches_sympy(seed):
    for rng, kind, a, b in cases(seed):
        g = rand_nonzero(rng, KINDS[rng.randrange(3)])
        for x, y in ((a, b), (a * g, b * g), (b, a * b), (a, UniPoly.zero(QVAR))):
            expect = sympy.gcd(to_sympy(x), to_sympy(y))
            if not expect.is_zero:
                expect = expect.monic()
            assert poly_gcd(x, y) == from_sympy(expect), (kind, x, y)


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_divmod_matches_sympy(seed):
    for _, kind, a, b in cases(seed):
        quot, rem = divmod(a, b)
        squot, srem = sympy.div(to_sympy(a), to_sympy(b))
        assert (quot, rem) == (from_sympy(squot), from_sympy(srem)), (kind, a, b)


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_ratfunc_normal_form_matches_sympy_cancel(seed):
    for rng, kind, a, b in cases(seed):
        # a shared factor that the normal form has to cancel
        g = rand_nonzero(rng, KINDS[rng.randrange(3)])
        f = RatFunc(a * g, b * g)
        num, den = sympy.fraction(sympy.cancel(to_sympy(a).as_expr() / to_sympy(b).as_expr()))
        snum = sympy.Poly(num, q, domain="QQ")
        sden = sympy.Poly(den, q, domain="QQ")
        lead = sden.LC()
        assert f.num == from_sympy(snum.quo_ground(lead)), (kind, a, b)
        assert f.den == from_sympy(sden.quo_ground(lead)), (kind, a, b)
