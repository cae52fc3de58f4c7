"""The function algebra of a four-punctured sphere, in exact normal form.

A = k[x, 1/x, 1/(x-1), 1/(x-lambda)] over k = QQ(lambda), functions on a
projective line with poles allowed at 0, 1, lambda and infinity only.  Every
element is written uniquely as

    polynomial part   sum_k  c_k x^k
  + principal parts   sum_m  a_m / (x - p)^m   at each finite pole p.

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

from fractions import Fraction
from math import comb

from .scalars import (
    LAMBDA,
    NonInvertibleLeadingCoefficient,
    RatFunc,
    RatFuncRing,
    TruncSeries,
    UniPoly,
    as_ratfunc,
)

LAM = RatFuncRing(LAMBDA)

P0, P1, PL = "0", "1", "lambda"
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
        return {(tag2, n): LAM.one}
    if n == 0:
        return {(tag1, m): LAM.one}
    key = (tag1, m, tag2, n)
    hit = _cross_cache.get(key)
    if hit is not None:
        return hit
    inv = (_POLE_VALUE[tag1] - _POLE_VALUE[tag2]).inverse()
    out = {}
    for part, sign in ((_cross(tag1, m, tag2, n - 1), 1), (_cross(tag1, m - 1, tag2, n), -1)):
        for k, c in part.items():
            out[k] = out.get(k, LAM.zero) + (inv * c if sign > 0 else -(inv * c))
    out = {k: c for k, c in out.items() if not c.is_zero()}
    _cross_cache[key] = out
    return out


class SphereElement:
    """Normal-form element of A: polynomial part plus principal parts."""

    __slots__ = ("poly", "poles")

    def __init__(self, poly=None, poles=None):
        self.poly = {}
        for k, c in (poly or {}).items():
            c = as_ratfunc(c, LAMBDA)
            if not c.is_zero():
                if k < 0:
                    raise ValueError("negative x-powers belong in the pole at 0")
                self.poly[k] = c
        self.poles = {}
        for tag, parts in (poles or {}).items():
            if tag not in POLE_TAGS:
                raise ValueError(f"unknown pole tag {tag!r}")
            clean = {}
            for m, c in parts.items():
                c = as_ratfunc(c, LAMBDA)
                if m < 1:
                    raise ValueError("principal part orders start at 1")
                if not c.is_zero():
                    clean[m] = c
            if clean:
                self.poles[tag] = clean

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

    def is_zero(self) -> bool:
        return not self.poly and not self.poles

    def pole_part(self, tag: str):
        return dict(self.poles.get(tag, {}))

    def is_regular_at(self, tag: str) -> bool:
        return tag not in self.poles

    def in_subalgebra(self) -> bool:
        """Membership in B: no principal part at the moving pole."""
        return self.is_regular_at(PL)

    def __eq__(self, other):
        if not isinstance(other, SphereElement):
            return NotImplemented
        return self.poly == other.poly and self.poles == other.poles

    def __hash__(self):
        return hash(
            (
                tuple(sorted(self.poly.items(), key=lambda kv: kv[0])),
                tuple(
                    (tag, tuple(sorted(parts.items())))
                    for tag, parts in sorted(self.poles.items())
                ),
            )
        )

    # ------------------------------------------------------------- arithmetic

    def __neg__(self):
        return SphereElement(
            poly={k: -c for k, c in self.poly.items()},
            poles={t: {m: -c for m, c in p.items()} for t, p in self.poles.items()},
        )

    def __add__(self, other):
        if not isinstance(other, (SphereElement, RatFunc, UniPoly, int, Fraction)):
            return NotImplemented
        other = _as_element(other)
        poly = dict(self.poly)
        for k, c in other.poly.items():
            poly[k] = poly.get(k, LAM.zero) + c
        poles = {t: dict(p) for t, p in self.poles.items()}
        for t, parts in other.poles.items():
            dst = poles.setdefault(t, {})
            for m, c in parts.items():
                dst[m] = dst.get(m, LAM.zero) + c
        return SphereElement(poly, poles)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (SphereElement, RatFunc, UniPoly, int, Fraction)):
            return NotImplemented
        return self + (-_as_element(other))

    def __rsub__(self, other):
        return _as_element(other) - self

    def scale(self, c) -> "SphereElement":
        c = as_ratfunc(c, LAMBDA)
        return SphereElement(
            poly={k: c * v for k, v in self.poly.items()},
            poles={t: {m: c * v for m, v in p.items()} for t, p in self.poles.items()},
        )

    def __mul__(self, other):
        if isinstance(other, (RatFunc, UniPoly, int, Fraction)):
            return self.scale(other)
        if not isinstance(other, SphereElement):
            return NotImplemented
        out = SphereElement.zero()
        for a in self._atoms():
            for b in other._atoms():
                out = out + _atom_product(a, b)
        return out

    def __rmul__(self, other):
        if isinstance(other, (RatFunc, UniPoly, int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("general sphere elements are not invertible")
        result = SphereElement.one()
        for _ in range(n):
            result = result * self
        return result

    def _atoms(self):
        for k, c in self.poly.items():
            yield ("poly", k, c)
        for tag, parts in self.poles.items():
            for m, c in parts.items():
                yield ("pole", (tag, m), c)

    # ------------------------------------------------------------ derivations

    def derivative(self) -> "SphereElement":
        """d/dx, computed term by term; A is closed under it."""
        poly = {}
        for k, c in self.poly.items():
            if k > 0:
                poly[k - 1] = c * k
        poles = {}
        for tag, parts in self.poles.items():
            poles[tag] = {m + 1: c * (-m) for m, c in parts.items()}
        return SphereElement(poly, poles)

    def substitute_scale(self) -> "SphereElement":
        """The map B -> A induced by x -> x/lambda.

        x^k -> lambda^(-k) x^k, x^(-m) -> lambda^m x^(-m), and the pole at 1
        moves: (x-1)^(-m) -> lambda^m (x-lambda)^(-m).  Refuses elements
        outside B since the image of a lambda pole would be a pole at
        lambda^2, which is not a point of the sphere we model.
        """
        if not self.in_subalgebra():
            raise NotInSubalgebra("substitute_scale is defined on B only")
        out = SphereElement.zero()
        for k, c in self.poly.items():
            out = out + SphereElement.x_power(k, c * _lam ** (-k))
        for m, c in self.pole_part(P0).items():
            out = out + SphereElement.pole(P0, m, c * _lam ** m)
        for m, c in self.pole_part(P1).items():
            out = out + SphereElement.pole(PL, m, c * _lam ** m)
        return out

    def to_json(self):
        return {
            "poly": [[k, self.poly[k].to_json()] for k in sorted(self.poly)],
            "poles": {
                tag: [[m, parts[m].to_json()] for m in sorted(parts)]
                for tag, parts in sorted(self.poles.items())
            },
        }

    def __str__(self):
        if self.is_zero():
            return "0"
        bits = []
        for k in sorted(self.poly):
            c = self.poly[k]
            if k == 0:
                bits.append(f"({c})")
            elif k == 1:
                bits.append(f"({c})*x")
            else:
                bits.append(f"({c})*x^{k}")
        for tag in POLE_TAGS:
            for m in sorted(self.poles.get(tag, {})):
                c = self.poles[tag][m]
                base = "x" if tag == P0 else f"(x-{tag})"
                pw = base if m == 1 else f"{base}^{m}"
                bits.append(f"({c})/{pw}")
        return " + ".join(bits)

    __repr__ = __str__


def _as_element(v) -> SphereElement:
    if isinstance(v, SphereElement):
        return v
    return SphereElement.const(as_ratfunc(v, LAMBDA))


def _binom_to_x(p: RatFunc, j: int):
    """(x - p)^j expanded in x-powers, as a dict {k: coefficient}."""
    return {t: as_ratfunc(comb(j, t), LAMBDA) * (-p) ** (j - t) for t in range(j + 1)}


def _atom_product(a, b) -> SphereElement:
    kind_a, data_a, ca = a
    kind_b, data_b, cb = b
    c = ca * cb
    if kind_a == "poly" and kind_b == "poly":
        return SphereElement(poly={data_a + data_b: c})
    if kind_a == "poly" or kind_b == "poly":
        if kind_a == "poly":
            k, (tag, m) = data_a, data_b
        else:
            k, (tag, m) = data_b, data_a
        p = _POLE_VALUE[tag]
        out = SphereElement.zero()
        for i in range(k + 1):
            w = c * as_ratfunc(comb(k, i), LAMBDA) * p ** (k - i)
            if w.is_zero():
                continue
            if i < m:
                out = out + SphereElement.pole(tag, m - i, w)
            else:
                for t, bc in _binom_to_x(p, i - m).items():
                    out = out + SphereElement.x_power(t, w * bc)
        return out
    (tag1, m1), (tag2, m2) = data_a, data_b
    if tag1 == tag2:
        return SphereElement.pole(tag1, m1 + m2, c)
    parts = {}
    for (tag, order), w in _cross(tag1, m1, tag2, m2).items():
        parts.setdefault(tag, {})[order] = c * w
    return SphereElement(poles=parts)


def derivation_apply(v: SphereElement, e: SphereElement) -> SphereElement:
    """The derivation D with D(x) = v, applied to e: D(e) = v * de/dx."""
    return v * e.derivative()


class SphereRing:
    """Ring adapter so TruncSeries can carry SphereElement coefficients."""

    zero = SphereElement.zero()
    one = SphereElement.one()

    def from_rational(self, c) -> SphereElement:
        return SphereElement.const(c)

    def is_zero(self, a) -> bool:
        return a.is_zero()

    def inv(self, a: SphereElement) -> SphereElement:
        """Inverse of a nonzero constant.  The other units, such as x or
        x - 1, are not inverted here and raise like a non-unit."""
        c = a.poly.get(0)
        if c is None or a.poles or len(a.poly) > 1:
            raise NonInvertibleLeadingCoefficient(
                "only nonzero constants are inverted in A(sphere)")
        return SphereElement.const(c.inverse())

    def __repr__(self):
        return "A(sphere)"


SPHERE = SphereRing()


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
