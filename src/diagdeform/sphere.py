"""The function algebra of a four-punctured sphere, in exact normal form.

A = k[x, 1/x, 1/(x-1), 1/(x-lambda)] over k = QQ(lambda), functions on a
projective line with poles allowed at 0, 1, lambda and infinity only.  Every
element is written uniquely as

    polynomial part   sum_k  c_k x^k
  + principal parts   sum_m  a_m / (x - p)^m   at each finite pole p.

SphereElement is a SparsePoly whose terms map one key per basis atom:
(POLY, k) = ("", k) for x^k with k >= 0, and (tag, m) for 1/(x - p)^m with
tag "0", "1" or "lambda" and m >= 1.  The empty tag sorts first, so the
sorted keys are the printing order.

Addition is componentwise.  Multiplication needs two rewriting moves to
return to normal form: a polynomial times a principal part is expanded
binomially around the pole, and a product of principal parts at two
different poles is split by iterating the two-pole identity

    1/((x-p)(x-p')) = (1/(p-p')) (1/(x-p) - 1/(x-p'))

which stays exact because the pairwise differences of 0, 1, lambda are
units in QQ(lambda).  No linear solves anywhere.

The subalgebra B = k[x, 1/x, 1/(x-1)] consists of the elements with no
principal part at lambda.  substitute_scale is the algebra map B -> A
induced by x -> x/lambda, which drags the pole at 1 to the pole at lambda
and is the reason the fourth puncture moves.
"""

from __future__ import annotations

from math import comb

from .scalars import (
    LAMBDA,
    QQ_LAMBDA,
    RatFunc,
    SparsePoly,
    SparsePolyRing,
    TruncSeries,
    _coerced_terms,
)

POLY, P0, P1, PL = "", "0", "1", "lambda"
POLE_TAGS = (P0, P1, PL)

_lam = RatFunc.gen(LAMBDA)
_POLE_VALUE = {P0: RatFunc.zero(LAMBDA), P1: RatFunc.one(LAMBDA), PL: _lam}


class NotInSubalgebra(ValueError):
    """An operation restricted to B = k[x, 1/x, 1/(x-1)] got a lambda pole."""


_cross_cache = {}


def _cross(tag1: str, m: int, tag2: str, n: int):
    """Principal-part decomposition of 1/((x-p1)^m (x-p2)^n), p1 != p2.

    Returns a dict {(tag, order): coefficient}.  Pure recurrence on the
    two-pole identity, memoized globally; the cache is sound because the
    three pole values are fixed once and for all.
    """
    if m == 0:
        return {(tag2, n): QQ_LAMBDA.one}
    if n == 0:
        return {(tag1, m): QQ_LAMBDA.one}
    key = (tag1, m, tag2, n)
    hit = _cross_cache.get(key)
    if hit is not None:
        return hit
    inv = (_POLE_VALUE[tag1] - _POLE_VALUE[tag2]).inverse()
    out = {}
    for part, sign in ((_cross(tag1, m, tag2, n - 1), 1), (_cross(tag1, m - 1, tag2, n), -1)):
        for k, c in part.items():
            out[k] = out.get(k, QQ_LAMBDA.zero) + (inv * c if sign > 0 else -(inv * c))
    out = {k: c for k, c in out.items() if not c.is_zero()}
    _cross_cache[key] = out
    return out


class SphereElement(SparsePoly):
    """Normal-form element of A: polynomial part plus principal parts."""

    __slots__ = ()

    ring = QQ_LAMBDA
    _one_key = (POLY, 0)

    def __init__(self, poly=None, poles=None):
        atoms = [((POLY, k), c) for k, c in (poly or {}).items()]
        for tag, parts in (poles or {}).items():
            if tag not in POLE_TAGS:
                raise ValueError(f"unknown pole tag {tag!r}")
            atoms += [((tag, m), c) for m, c in parts.items()]
        for (tag, n), _ in atoms:
            if tag and n < 1:
                raise ValueError("principal part orders start at 1")
            if n < 0:
                raise ValueError("negative x-powers belong in the pole at 0")
        self.terms = _coerced_terms(QQ_LAMBDA, atoms)

    # ------------------------------------------------------------ constructors

    @classmethod
    def zero(cls) -> "SphereElement":
        return cls()

    @classmethod
    def one(cls) -> "SphereElement":
        return cls(poly={0: 1})

    @classmethod
    def const(cls, c) -> "SphereElement":
        return cls(poly={0: c})

    @classmethod
    def x_power(cls, k: int, c=1) -> "SphereElement":
        if k < 0:
            return cls.pole(P0, -k, c)
        return cls(poly={k: c})

    @classmethod
    def pole(cls, tag: str, m: int, c=1) -> "SphereElement":
        return cls(poles={tag: {m: c}})

    # ------------------------------------------------------------- predicates

    def part(self, tag: str) -> dict:
        """{order: coefficient} of one tag: the x-powers of the polynomial
        part for POLY, the pole orders of the principal part for a pole."""
        return {n: c for (t, n), c in self.terms.items() if t == tag}

    def is_regular_at(self, tag: str) -> bool:
        return all(t != tag for t, _ in self.terms)

    def in_subalgebra(self) -> bool:
        """Membership in B: no principal part at the moving pole."""
        return self.is_regular_at(PL)

    # ------------------------------------------------------------- arithmetic

    def __mul__(self, other):
        if not isinstance(other, SphereElement):
            return self.scale(other)
        out = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                c = ca * cb
                for key, w in _atom_product(a, b).items():
                    w = c * w
                    out[key] = out[key] + w if key in out else w
        return self._like({k: c for k, c in out.items() if not c.is_zero()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("general sphere elements are not invertible")
        result = SphereElement.one()
        for _ in range(n):
            result = result * self
        return result

    # ------------------------------------------------------------ derivations

    def derivative(self) -> "SphereElement":
        """d/dx, computed term by term; A is closed under it."""
        out = {}
        for (tag, n), c in self.terms.items():
            if tag:
                out[tag, n + 1] = c * (-n)
            elif n:
                out[tag, n - 1] = c * n
        return self._like(out)

    def substitute_scale(self) -> "SphereElement":
        """The map B -> A induced by x -> x/lambda.

        x^k -> lambda^(-k) x^k, x^(-m) -> lambda^m x^(-m), and the pole at 1
        moves: (x-1)^(-m) -> lambda^m (x-lambda)^(-m).  Refuses elements
        outside B since the image of a lambda pole would be a pole at
        lambda^2, which is not a point of the sphere we model.
        """
        if not self.in_subalgebra():
            raise NotInSubalgebra("substitute_scale is defined on B only")
        return self._like({(PL if tag == P1 else tag, n): c * _lam ** (n if tag else -n)
                           for (tag, n), c in self.terms.items()})

    def to_json(self):
        out = {"poly": [], "poles": {}}
        for tag, n in sorted(self.terms):
            item = [n, self.terms[tag, n].to_json()]
            if tag:
                out["poles"].setdefault(tag, []).append(item)
            else:
                out["poly"].append(item)
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for tag, n in sorted(self.terms):
            if tag:
                base = "x" if tag == P0 else f"(x-{tag})"
                atom = "/" + (base if n == 1 else f"{base}^{n}")
            else:
                atom = "" if n == 0 else "*x" if n == 1 else f"*x^{n}"
            bits.append(f"({self.terms[tag, n]}){atom}")
        return " + ".join(bits)


def _binom_to_x(p: RatFunc, j: int):
    """(x - p)^j expanded in x-powers, as a dict {k: coefficient}."""
    return {t: (-p) ** (j - t) * comb(j, t) for t in range(j + 1)}


def _atom_product(a, b) -> dict:
    """Normal form of the product of two basis atoms, as {atom: coefficient}."""
    (tag_a, n_a), (tag_b, n_b) = a, b
    if tag_a == tag_b:
        return {(tag_a, n_a + n_b): QQ_LAMBDA.one}
    if tag_a and tag_b:
        return _cross(tag_a, n_a, tag_b, n_b)
    (tag, m), k = (a, n_b) if tag_a else (b, n_a)
    p = _POLE_VALUE[tag]
    out = {}
    for i in range(k + 1):
        w = p ** (k - i) * comb(k, i)
        if w.is_zero():
            continue
        if i < m:
            out[tag, m - i] = w
        else:
            for t, bc in _binom_to_x(p, i - m).items():
                key = (POLY, t)
                out[key] = out[key] + w * bc if key in out else w * bc
    return out


def derivation_apply(v: SphereElement, e: SphereElement) -> SphereElement:
    """The derivation D with D(x) = v, applied to e: D(e) = v * de/dx."""
    return v * e.derivative()


SPHERE = SparsePolyRing(SphereElement.zero(), "A(sphere)")


def geometric_series_check(order: int):
    """Multiply (x - lambda(1+hbar)) by the truncated geometric series

        sum_n hbar^n lambda^n / (x - lambda)^(n+1)

    and report the residual against 1 modulo hbar^(order+1).  This is the
    expansion that converts the moving pole into a formal series of
    principal parts at the frozen pole; exactness of the normal form makes
    the telescoping literal.
    """
    x = SphereElement.x_power(1)
    linear = TruncSeries(
        SPHERE,
        order,
        [x - SphereElement.const(_lam), SphereElement.const(-_lam)],
    )
    tail = TruncSeries(
        SPHERE,
        order,
        [SphereElement.pole(PL, n + 1, _lam ** n) for n in range(order + 1)],
    )
    product = linear * tail
    residual = product - TruncSeries.one(SPHERE, order)
    return {
        "order": order,
        "ok": residual.is_zero(),
        "residual": residual,
        "product": product,
    }
