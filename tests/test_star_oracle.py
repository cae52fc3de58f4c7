"""Star coefficients against an independent sympy expansion.

When the phi_i commute with one another, and so do the psi_i, the k-th
coefficient of a * b is

    (1/k!) sum_{|alpha| = k} multinomial(k; alpha)
           (prod_i phi_i^alpha_i a) (prod_i psi_i^alpha_i b),

computed here with sympy.diff on the derivations written out by hand, not
with anything from diagdeform.star but the inputs and the result.
"""

import random
from fractions import Fraction
from math import factorial, prod

import pytest

from diagdeform.scalars import TruncSeries
from diagdeform.star import P2, Derivation, Poly2, StarSpec, star, star_series

sympy = pytest.importorskip("sympy")

x, y = sympy.symbols("x y")
HALF = sympy.Rational(1, 2)

PAIRS = {
    "normal": [(lambda f: f.diff(x), lambda f: f.diff(y))],
    "moyal": [(lambda f: HALF * f.diff(x), lambda f: f.diff(y)),
              (lambda f: -HALF * f.diff(y), lambda f: f.diff(x))],
    "qplane": [(lambda f: x * f.diff(x), lambda f: y * f.diff(y))],
    # pairs over different denominators (1/3 * 2 and -5/7 * 1)
    "mixed": [(lambda f: f.diff(x) / 3, lambda f: 2 * f.diff(y)),
              (lambda f: -sympy.Rational(5, 7) * f.diff(y), lambda f: f.diff(x))],
    # phi_1 = y dx and psi_2 = dy do not commute, but the phis commute and so
    # do the psis, which is all the expansion above needs
    "cross": [(lambda f: y * f.diff(x), lambda f: f.diff(x)),
              (lambda f: f.diff(x), lambda f: f.diff(y))],
}


def make_spec(kind):
    if kind == "mixed":
        return StarSpec.custom([
            (Derivation(Fraction(1, 3), 0), Derivation(0, 2)),
            (Derivation(0, Fraction(-5, 7)), Derivation(1, 0)),
        ])
    if kind == "cross":
        return StarSpec("cross", [
            (Derivation(Poly2.y(), 0), Derivation(1, 0)),
            (Derivation(1, 0), Derivation(0, 1)),
        ])
    return StarSpec.named(kind)


def to_sympy(p: Poly2):
    return sum((sympy.Rational(c.numerator, c.denominator) * x**i * y**j
                for (i, j), c in p.terms.items()), sympy.Integer(0))


def from_sympy(expr) -> Poly2:
    poly = sympy.Poly(sympy.expand(expr), x, y)
    return Poly2({m: Fraction(int(c.p), int(c.q)) for m, c in poly.terms() if c})


def compositions(k, parts):
    if parts == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in compositions(k - first, parts - 1):
            yield (first,) + rest


def apply_powers(ops, alpha, f):
    for op, e in zip(ops, alpha):
        for _ in range(e):
            f = op(f)
    return f


def oracle_coefficient(a, b, pairs, k):
    phis = [phi for phi, _ in pairs]
    psis = [psi for _, psi in pairs]
    total = sympy.Integer(0)
    for alpha in compositions(k, len(pairs)):
        weight = factorial(k) // prod(factorial(e) for e in alpha)
        total += weight * apply_powers(phis, alpha, a) * apply_powers(psis, alpha, b)
    return from_sympy(total / factorial(k))


def random_poly(rng, scale=Fraction(1)):
    terms = {}
    for i in range(4):
        for j in range(4 - i):
            if rng.random() < 0.4:
                terms[(i, j)] = scale * Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3, 5]))
    return Poly2(terms)


@pytest.mark.parametrize("kind", sorted(PAIRS))
def test_star_coefficients_match_sympy_expansion(kind):
    spec = make_spec(kind)
    rng = random.Random(f"star-oracle-{kind}")
    for order in range(8):
        for _ in range(2):
            # one factor carries the 1/k! that star_series passes into star
            a = random_poly(rng)
            b = random_poly(rng, Fraction(1, factorial(rng.randint(0, 4))))
            series, exact = star(a, b, spec, order)
            sa, sb = to_sympy(a), to_sympy(b)
            for k in range(order + 1):
                assert series.coeffs[k] == oracle_coefficient(sa, sb, PAIRS[kind], k)
            if exact:
                # D^(order+1)(a (x) b) = 0, so the next coefficient vanishes
                assert oracle_coefficient(sa, sb, PAIRS[kind], order + 1).is_zero()


@pytest.mark.parametrize("kind", sorted(PAIRS))
def test_star_series_matches_sympy_expansion(kind):
    spec = make_spec(kind)
    rng = random.Random(f"star-series-oracle-{kind}")
    order = 4
    A = [random_poly(rng) for _ in range(2)]
    B = [random_poly(rng) for _ in range(2)]
    got = star_series(TruncSeries(P2, order, A), TruncSeries(P2, order, B), spec, order)
    want = [Poly2.zero() for _ in range(order + 1)]
    for m, u in enumerate(A):
        for n, v in enumerate(B):
            for k in range(order + 1 - m - n):
                want[m + n + k] = want[m + n + k] + oracle_coefficient(
                    to_sympy(u), to_sympy(v), PAIRS[kind], k)
    assert got == TruncSeries(P2, order, want)
