"""Second cohomology of the two-route diagram on the punctured sphere.

The diagram has two algebra maps B -> A, the inclusion f and the scaling
map g: x -> x/lambda.  A 2-cocycle is a pair (gammaF, gammaG) of elements
of A, one obstruction per route, and the coboundaries are governed by the
single operator

    L(b) = b - lambda * g(b)        for b in B.

solve_L splits any a in A as L(b) + r with r supported on the canonical
complement: a multiple of x plus principal parts at 1.  The splitting is
componentwise because L is diagonal in the normal-form basis; each
component is divided by an explicit unit of QQ(lambda), and the two poles
at 1 and lambda are paired off through the relation

    L((x-1)^-m) = (x-1)^-m - lambda^(m+1) (x-lambda)^-m.

No linear algebra, no choices: the residual is canonical, which is what
makes canonical_class well defined on cocycles modulo coboundaries.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import random

from .scalars import LAMBDA, RatFunc, TruncSeries, _fr
from .sphere import (
    P0,
    P1,
    PL,
    POLY,
    SPHERE,
    SphereElement,
    derivation_apply,
)

lam = RatFunc.gen(LAMBDA)


class RegularityViolation(ValueError):
    """A cocycle declared regular carries a pole at 1 or lambda."""


class ZeroMultiplier(ValueError):
    """The descent picture needs a nonzero scaling parameter."""


class SphereClassRep:
    """Canonical representative of an H^2 class: c * x plus poles at 1."""

    __slots__ = ("x_coeff", "pole_one")

    def __init__(self, x_coeff=None, pole_one=None):
        self.x_coeff = x_coeff if x_coeff is not None else RatFunc.zero(LAMBDA)
        self.pole_one = {
            m: c for m, c in (pole_one or {}).items() if not c.is_zero()
        }

    def is_zero(self) -> bool:
        return self.x_coeff.is_zero() and not self.pole_one

    def embed(self) -> SphereElement:
        e = SphereElement.x_power(1, self.x_coeff)
        for m, c in self.pole_one.items():
            e = e + SphereElement.pole(P1, m, c)
        return e

    def __eq__(self, other):
        if not isinstance(other, SphereClassRep):
            return NotImplemented
        return self.x_coeff == other.x_coeff and self.pole_one == other.pole_one

    def to_json(self):
        return {
            "x": self.x_coeff.to_json(),
            "pole_one": [[m, self.pole_one[m].to_json()] for m in sorted(self.pole_one)],
        }

    def __str__(self):
        return str(self.embed()) if not self.is_zero() else "0"

    __repr__ = __str__


def l_operator(b: SphereElement) -> SphereElement:
    """L(b) = b - lambda * g(b), defined on the subalgebra B."""
    return b - b.substitute_scale().scale(lam)


def solve_L(c: SphereElement):
    """Split c = L(b) + r with r canonical; returns (b, r).

    The x-component of c is untouchable since L(x) = 0, and the poles at 1
    can only be hit together with lambda-pole shadows, so what survives is
    exactly c_x * x plus the pole-at-1 parts after the shadow at lambda has
    been cancelled at cost lambda^-(m+1) per order.
    """
    b = SphereElement.zero()
    x_coeff = RatFunc.zero(LAMBDA)
    pole_one = {}
    for k, ck in c.part(POLY).items():
        if k == 1:
            x_coeff = ck
        else:
            factor = 1 - lam ** (1 - k)
            b = b + SphereElement.x_power(k, ck / factor)
    for m, cm in c.part(P0).items():
        b = b + SphereElement.pole(P0, m, cm / (1 - lam ** (m + 1)))
    u_parts = c.part(P1)
    v_parts = c.part(PL)
    for m in sorted(set(u_parts) | set(v_parts)):
        u = u_parts.get(m, RatFunc.zero(LAMBDA))
        v = v_parts.get(m, RatFunc.zero(LAMBDA))
        t = -v * lam ** (-(m + 1))
        if not t.is_zero():
            b = b + SphereElement.pole(P1, m, t)
        r = u - t
        if not r.is_zero():
            pole_one[m] = r
    return b, SphereClassRep(x_coeff, pole_one)


def canonical_class(gamma_f: SphereElement, gamma_g: SphereElement, regular=False):
    """Canonical representative of the class of the cocycle (gammaF, gammaG).

    With regular=True the inputs must be regular at 1 and lambda, mirroring
    deformations that do not move those punctures; the representative is
    then a pure multiple of x.
    """
    if regular:
        for which, e in (("gammaF", gamma_f), ("gammaG", gamma_g)):
            for tag in (P1, PL):
                if not e.is_regular_at(tag):
                    raise RegularityViolation(f"{which} has a pole at {tag}")
    combined = gamma_f - gamma_g.scale(lam)
    _, rep = solve_L(combined)
    return rep


def h2_basis(cutoff: int, regular=False):
    """Basis of canonical representatives up to the given pole order."""
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    reps = [SphereClassRep(x_coeff=RatFunc.one(LAMBDA))]
    if not regular:
        for m in range(1, cutoff + 1):
            reps.append(SphereClassRep(pole_one={m: RatFunc.one(LAMBDA)}))
    return reps


def _base_map(name: str):
    if name == "f":
        return lambda b: b
    if name == "g":
        return lambda b: b.substitute_scale()
    raise ValueError(f"unknown base morphism {name!r}; expected 'f' or 'g'")


def _random_b_element(rng) -> SphereElement:
    e = SphereElement.zero()
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(["poly", P0, P1])
        c = Fraction(rng.randint(-3, 3))
        if c == 0:
            continue
        coeff = RatFunc.const(LAMBDA, c)
        if rng.random() < 0.3:
            coeff = coeff * lam
        if kind == "poly":
            e = e + SphereElement.x_power(rng.randint(0, 2), coeff)
        else:
            e = e + SphereElement.pole(kind, rng.randint(1, 2), coeff)
    return e


B_GENERATORS = (
    ("x", SphereElement.x_power(1)),
    ("1/x", SphereElement.pole(P0, 1)),
    ("1/(x-1)", SphereElement.pole(P1, 1)),
)


def exp_deform_morphism(v: SphereElement, base="f", order=4, trials=20, seed=7):
    """Exponentiate the derivation D(x) = v against a base morphism B -> A.

    Builds Phi(b) = sum hbar^n D^n(base(b)) / n! truncated at the given
    order and verifies it is multiplicative: on all pairs of the standard
    generators of B, and on seeded random products.  Returns the generator
    images and the verdict; a derivation always exponentiates to a
    morphism, so a failure here means the arithmetic is wrong, not the
    input.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    base_fn = _base_map(base)

    def phi(b: SphereElement) -> TruncSeries:
        coeffs = []
        cur = base_fn(b)
        for n in range(order + 1):
            coeffs.append(cur.scale(Fraction(1, factorial(n))))
            cur = derivation_apply(v, cur)
        return TruncSeries(SPHERE, order, coeffs)

    checks = []
    ok = phi(SphereElement.one()) == TruncSeries.one(SPHERE, order)
    checks.append(("unit", ok))
    for n1, g1 in B_GENERATORS:
        for n2, g2 in B_GENERATORS:
            good = phi(g1 * g2) == phi(g1) * phi(g2)
            checks.append((f"{n1}*{n2}", good))
            ok = ok and good
    rng = random.Random(seed)
    failures = 0
    for _ in range(trials):
        a = _random_b_element(rng)
        b = _random_b_element(rng)
        if phi(a * b) != phi(a) * phi(b):
            failures += 1
    ok = ok and failures == 0
    return {
        "base": base,
        "order": order,
        "multiplicative": ok,
        "generator_checks": checks,
        "random_trials": trials,
        "random_failures": failures,
        "images": {name: phi(g) for name, g in B_GENERATORS},
    }


def descended_pole_set(t) -> list:
    """Pole locations after rescaling the sphere coordinate by t.

    The punctures 0 and lambda are fixed as a set while 1 moves to 1/t;
    t = 0 would collapse the picture and is refused.  t is an integer or a
    fraction; text goes through parse_rational first.
    """
    t = _fr(t)
    if t == 0:
        raise ZeroMultiplier("scaling parameter must be nonzero")
    return [str(Fraction(0)), str(1 / t), "lambda"]
