"""Exact scalar tower: rationals, tagged polynomials, rational functions,
truncated power series.

Every computation in this package bottoms out here.  The tower is

    Fraction  <  UniPoly (one tagged variable)  <  RatFunc  <  TruncSeries

with three variable tags in play: "lambda" for the moving puncture, "q" for
the quantum parameter, "hbar" for the formal deformation parameter.  Tags are
kept apart on purpose; adding a q-polynomial to a lambda-polynomial is a bug
in the caller, so it raises TagMismatch instead of guessing.

TruncSeries is generic over its coefficient ring, so the same container
carries rational coefficients, rational-function coefficients, or whole
algebra elements.  Every coefficient ring is a Ring: its zero, its one, the
embedding of the rationals, coerce (the one way a value becomes a
coefficient) and, for SeriesRing and SparsePolyRing, its own inverse.  The
elements answer the other questions themselves: bool(c) says c != 0.
SparsePoly, the sparse-polynomial core of the algebras built on this tower,
sits next to the rings.  All equality is structural and exact; nothing here
ever rounds, and hash agrees with == (a constant hashes as the scalar it
equals).

The rational layers run on integers.  UniPoly and TruncSeries over QQ store
integer numerators over one positive denominator, reduced once per result;
both multiply with the one convolution _convolve.  For a series the ring
alone picks this form (ring is QQ); over any other ring the coefficients
are ring elements, which the validating constructor takes through
ring.coerce.  Series arithmetic builds its results, in either form, with
the one trusted constructor TruncSeries._make.  TruncSeries.__mul__ is the
one function behind every series product, over QQ too, because the
benchmark tracer counts series products under that name.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import add


LAMBDA = "lambda"
QVAR = "q"
HBAR = "hbar"


class ScalarError(ArithmeticError):
    pass


class TagMismatch(ScalarError):
    """Arithmetic tried to mix two distinct variable tags."""


class ContextMismatch(TagMismatch, ValueError):
    """Arithmetic tried to mix elements of two algebra contexts."""


class PoleAtZero(ScalarError):
    """A series expansion was requested for a function with a pole at 0."""


class PoleAtPoint(ScalarError):
    """Evaluation hit a zero of the denominator."""


class ValuationMismatch(ScalarError):
    """Series division needs numerator and denominator of equal valuation."""


class NonInvertibleLeadingCoefficient(ScalarError):
    pass


def _fr(v) -> Fraction:
    """An integer or a fraction as a Fraction; text goes through
    parse_rational, which bounds its size."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"cannot coerce {v!r} to a rational")


# Parsed input stays far below the 4300 digits Python will convert between
# int and str, so every value a report prints stays printable.  The decimal
# exponent is bounded before parsing, because Fraction("1e999999999") builds
# a billion-digit integer before any size check could see it; the pattern
# takes the underscores that Fraction allows between exponent digits.
_MAX_DIGITS = 1000
_RATIONAL_BOUND = 10 ** _MAX_DIGITS
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)")


def parse_rational(value) -> Fraction:
    """The rational spelled by str(value), such as "3", "-2/7" or "1.5e-3".

    Raises ValueError for text that is not a rational or that has more
    than _MAX_DIGITS digits in its exponent, numerator or denominator, and
    ZeroDivisionError for a zero denominator.
    """
    text = str(value)
    exponent = _EXPONENT.search(text)
    if exponent and abs(int(exponent.group(1))) > _MAX_DIGITS:
        raise ValueError(f"exponent beyond {_MAX_DIGITS}: {text[:40]!r}")
    v = Fraction(text)
    if max(abs(v.numerator), v.denominator) >= _RATIONAL_BOUND:
        raise ValueError(f"rational with more than {_MAX_DIGITS} digits")
    return v


def _check_tags(a: str, b: str) -> None:
    if a != b:
        raise TagMismatch(f"cannot mix variables {a!r} and {b!r}")


def _numerators(values) -> tuple:
    """Integers and fractions as (integer numerators, common denominator).

    The denominator is the lcm of theirs, so the numerators n * denom / d of
    the c = n/d share no factor with it.  values is read once and not
    type-checked: outside input goes through _fr first.
    """
    pairs = [c.as_integer_ratio() for c in values]
    denom = lcm(*[d for _, d in pairs])
    return [n * (denom // d) for n, d in pairs], denom


def _fractions(nums, denom) -> dict:
    """{key: integer numerator} over denom as {key: Fraction}, zeros dropped."""
    return {k: Fraction(n, denom) for k, n in nums.items() if n}


def _convolve(a, b, n: int) -> list:
    """The integer coefficients through degree n of the product of two
    integer coefficient sequences, lowest degree first.  Zeros of a, the
    outer loop, are skipped."""
    out = [0] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j, y in enumerate(b[: n + 1 - i], i):
                out[j] += x * y
    return out


class UniPoly:
    """Dense univariate polynomial over QQ with a variable tag.

    The coefficients are stored as integer numerators ``ints``, lowest
    degree first and trimmed, over one positive common denominator
    ``denom`` that shares no factor with all of them.  The form is
    canonical, so equal polynomials have equal fields; the zero polynomial
    has ``ints == ()``, ``denom == 1`` and degree -1.  All arithmetic runs
    on the integers and reduces each result once; ``coeffs`` rebuilds the
    rational coefficients for readers that want them.
    """

    __slots__ = ("var", "ints", "denom")

    def __init__(self, var: str, coeffs):
        ints, denom = _numerators([_fr(c) for c in coeffs])
        while ints and not ints[-1]:
            ints.pop()
        self.var = var
        self.ints = tuple(ints)
        self.denom = denom

    @classmethod
    def _from_ints(cls, var: str, ints: list, denom: int = 1) -> "UniPoly":
        """Trusted constructor for kernel results: a list of integer
        numerators over a positive denominator, trimmed and reduced here."""
        while ints and not ints[-1]:
            ints.pop()
        if not ints:
            denom = 1
        elif denom != 1:
            g = gcd(denom, *ints)
            if g != 1:
                ints = [c // g for c in ints]
                denom //= g
        p = object.__new__(cls)
        p.var = var
        p.ints = tuple(ints)
        p.denom = denom
        return p

    @classmethod
    def const(cls, var: str, value) -> "UniPoly":
        value = _fr(value)
        return cls._from_ints(var, [value.numerator], value.denominator)

    @classmethod
    def zero(cls, var: str) -> "UniPoly":
        return cls._from_ints(var, [])

    @classmethod
    def one(cls, var: str) -> "UniPoly":
        return cls._from_ints(var, [1])

    @classmethod
    def gen(cls, var: str) -> "UniPoly":
        return cls._from_ints(var, [0, 1])

    @property
    def coeffs(self) -> tuple:
        """The rational coefficients, lowest degree first and trimmed."""
        return tuple(Fraction(c, self.denom) for c in self.ints)

    @property
    def degree(self) -> int:
        return len(self.ints) - 1

    def is_zero(self) -> bool:
        return not self.ints

    def is_const(self) -> bool:
        return len(self.ints) <= 1

    def const_value(self) -> Fraction:
        if not self.is_const():
            raise ValueError(f"{self} is not constant")
        return self.coefficient(0)

    def leading(self) -> Fraction:
        if not self.ints:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.ints[-1], self.denom)

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.ints):
            return Fraction(self.ints[k], self.denom)
        return Fraction(0)

    def __bool__(self):
        return bool(self.ints)

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return (self.var == other.var and self.ints == other.ints
                and self.denom == other.denom)

    def __hash__(self):
        return hash((self.var, self.ints, self.denom))

    def __neg__(self):
        return UniPoly._from_ints(self.var, [-c for c in self.ints], self.denom)

    def __add__(self, other):
        if not isinstance(other, (UniPoly, int, Fraction)):
            return NotImplemented
        other = self._coerce(other)
        _check_tags(self.var, other.var)
        a, b = self.ints, other.ints
        da, db = self.denom, other.denom
        if da != db:
            d = lcm(da, db)
            a = [c * (d // da) for c in a]
            b = [c * (d // db) for c in b]
            da = d
        if len(a) < len(b):
            a, b = b, a
        out = [x + y for x, y in zip(a, b)]
        out.extend(a[len(b):])
        return UniPoly._from_ints(self.var, out, da)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (UniPoly, int, Fraction)):
            return NotImplemented
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, (UniPoly, int, Fraction)):
            return NotImplemented
        other = self._coerce(other)
        _check_tags(self.var, other.var)
        a, b = self.ints, other.ints
        if not a or not b:
            return UniPoly.zero(self.var)
        if len(a) < len(b):
            a, b = b, a
        out = _convolve(b, a, len(a) + len(b) - 2)
        return UniPoly._from_ints(self.var, out, self.denom * other.denom)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = UniPoly.one(self.var)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def _coerce(self, other) -> "UniPoly":
        if isinstance(other, UniPoly):
            return other
        return UniPoly.const(self.var, other)

    def _times(self, n: int, d: int) -> "UniPoly":
        """self * (n/d) for integers n and d != 0."""
        if d < 0:
            n, d = -n, -d
        return UniPoly._from_ints(self.var, [c * n for c in self.ints], self.denom * d)

    def __divmod__(self, other):
        other = self._coerce(other)
        _check_tags(self.var, other.var)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if len(self.ints) < len(other.ints):
            return UniPoly.zero(self.var), self
        if len(other.ints) == 1:
            return self._times(other.denom, other.ints[0]), UniPoly.zero(self.var)
        # self = a/da and other = b/db with s * a == quot * b + rem, so
        # self == (quot * db / (s * da)) * other + rem / (s * da).
        quot, rem, s = _pseudo_divmod(self.ints, other.ints)
        d = s * self.denom
        return (UniPoly._from_ints(self.var, [c * other.denom for c in quot], d),
                UniPoly._from_ints(self.var, rem, d))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        return self._times(self.denom, self.ints[-1])

    def evaluate(self, value) -> Fraction:
        # sum c_k (p/s)^k over denom, as one integer over denom * s^degree
        value = _fr(value)
        if not self.ints:
            return Fraction(0)
        p, s = value.numerator, value.denominator
        acc = 0
        scale = 1
        for c in reversed(self.ints):
            acc = acc * p + c * scale
            scale *= s
        return Fraction(acc, self.denom * scale // s)

    def valuation(self):
        """Index of the lowest nonzero coefficient, or None for zero."""
        for i, c in enumerate(self.ints):
            if c:
                return i
        return None

    def shift_down(self, v: int) -> "UniPoly":
        """Divide by var**v, assuming the valuation allows it."""
        if v == 0:
            return self
        assert not any(self.ints[:v])
        return UniPoly._from_ints(self.var, list(self.ints[v:]), self.denom)

    def to_json(self):
        return [str(c) for c in self.coeffs]

    def __str__(self):
        if not self.ints:
            return "0"
        parts = []
        coeffs = self.coeffs
        for k in range(len(coeffs) - 1, -1, -1):
            c = coeffs[k]
            if c == 0:
                continue
            if k == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                pw = self.var if k == 1 else f"{self.var}^{k}"
                term = mag + pw
            if not parts:
                parts.append(term if c > 0 else "-" + term)
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        return " ".join(parts)

    def __repr__(self):
        return f"UniPoly({self.var!r}, {list(self.coeffs)!r})"


def _pseudo_divmod(a, b):
    """Division of integer coefficient lists, len(a) >= len(b) >= 2.

    Returns (quot, rem, s) with s * a == quot * b + rem, len(rem) < len(b)
    and s > 0.  The running remainder is scaled up only when its leading
    entry is not divisible by the leading entry of b, so s stays 1 for a
    monic divisor.
    """
    n = len(b) - 1
    lead = b[-1]
    lower = [(j, c) for j, c in enumerate(b[:-1]) if c]
    rem = list(a)
    quot = [0] * (len(a) - n)
    s = 1
    for i in range(len(a) - 1, n - 1, -1):
        r = rem[i]
        if not r:
            continue
        f = abs(lead) // gcd(r, lead)
        if f != 1:
            rem = [c * f for c in rem[: i + 1]]
            quot = [c * f for c in quot]
            s *= f
            r = rem[i]
        c = r // lead
        quot[i - n] = c
        base = i - n
        for j, bj in lower:
            rem[base + j] -= c * bj
    return quot, rem[:n], s


def _primitive(c: list) -> list:
    """Trimmed integer list divided by its content."""
    while c and not c[-1]:
        c.pop()
    g = gcd(*c)
    return [x // g for x in c] if g > 1 else c


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd (zero only when both are zero).

    A nonzero constant operand makes it 1 and a monomial c * v^k makes it
    v^min(k, valuation of the other); otherwise Euclid runs on primitive
    integer parts (the primitive PRS of Collins, JACM 14, 1967).
    """
    _check_tags(a.var, b.var)
    if not b.ints:
        return a.monic()
    if not a.ints:
        return b.monic()
    x, y = a.ints, b.ints
    if len(x) == 1 or len(y) == 1:
        return UniPoly.one(a.var)
    vx, vy = a.valuation(), b.valuation()
    if vx == len(x) - 1 or vy == len(y) - 1:
        return UniPoly._from_ints(a.var, [0] * min(vx, vy) + [1])
    x, y = _primitive(list(x)), _primitive(list(y))
    if len(x) < len(y):
        x, y = y, x
    while len(y) > 1:
        x, y = y, _primitive(_pseudo_divmod(x, y)[1])
    if y:
        return UniPoly.one(a.var)
    return UniPoly._from_ints(a.var, x).monic()


class RatFunc:
    """Quotient of tagged polynomials in lowest terms with monic denominator.

    ``RatFunc(num, den)`` is the one validating entry: it reduces by
    ``poly_gcd(num, den)`` and makes the denominator monic.  Arithmetic
    keeps that canonical form without a gcd of its unreduced result.  It
    reduces only by gcds of parts already known to be coprime (Henrici,
    JACM 3, 1956; Knuth, TAOCP vol. 2, section 4.5.1): ``+`` by the gcd of
    the denominators and ``*`` by cross-cancelling each numerator against
    the other denominator.  Unary minus, ``**`` and ``inverse`` run no gcd,
    and ``*`` by 0 or 1 returns an operand as it is.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: UniPoly, den: UniPoly):
        _check_tags(num.var, den.var)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            den = UniPoly.one(num.var)
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num // g
                den = den // g
            # the leading coefficient of den is lead / den.denom
            lead = den.ints[-1]
            if lead != den.denom:
                num = num._times(den.denom, lead)
                den = den.monic()
        self.num = num
        self.den = den

    @classmethod
    def _make(cls, num: UniPoly, den: UniPoly) -> "RatFunc":
        """Trusted constructor for arithmetic results: num and den already
        coprime, den monic, and den == 1 when num is zero."""
        f = object.__new__(cls)
        f.num = num
        f.den = den
        return f

    @classmethod
    def from_poly(cls, p: UniPoly) -> "RatFunc":
        return cls._make(p, UniPoly.one(p.var))

    @classmethod
    def const(cls, var: str, value) -> "RatFunc":
        return cls.from_poly(UniPoly.const(var, value))

    @classmethod
    def zero(cls, var: str) -> "RatFunc":
        return cls.const(var, 0)

    @classmethod
    def one(cls, var: str) -> "RatFunc":
        return cls.const(var, 1)

    @classmethod
    def gen(cls, var: str) -> "RatFunc":
        return cls.from_poly(UniPoly.gen(var))

    @property
    def var(self) -> str:
        return self.num.var

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return self.den.degree == 0

    def is_const(self) -> bool:
        return self.num.is_const() and self.den.is_const()

    def const_value(self) -> Fraction:
        return self.num.const_value() / self.den.const_value()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):  # canonically, n/d is (n,) over d, den 1
            n = other.numerator
            return (self.den.ints == (1,) and self.num.ints == ((n,) if n else ())
                    and self.num.denom == other.denominator)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.var == other.var and self.num == other.num and self.den == other.den

    def __hash__(self):
        if self.is_const():
            return hash(self.num.coefficient(0))  # equal to that rational
        return hash((self.num, self.den))

    def __neg__(self):
        return RatFunc._make(-self.num, self.den)

    def __add__(self, other):
        if not isinstance(other, (RatFunc, UniPoly, int, Fraction)):
            return NotImplemented
        other = as_ratfunc(other, self.var)
        _check_tags(self.var, other.var)
        a, b, c, d = self.num, self.den, other.num, other.den
        if not c.ints:
            return self
        if not a.ints:
            return other
        if b == d:
            t = a + c
            if not t.ints:
                return RatFunc.from_poly(t)
            if len(b.ints) > 1:
                g = poly_gcd(t, b)
                if g.degree > 0:
                    t, b = t // g, b // g
            return RatFunc._make(t, b)
        # a constant monic denominator is 1
        if len(b.ints) == 1:
            return RatFunc._make(a * d + c, d)
        if len(d.ints) == 1:
            return RatFunc._make(a + c * b, b)
        g = poly_gcd(b, d)
        if g.degree == 0:
            return RatFunc._make(a * d + c * b, b * d)
        # Henrici: t is coprime to b/g and d/g, so only gcd(t, g) can
        # cancel; t != 0, as a reduced a/b == -c/d would have b == d
        b1 = b // g
        t = a * (d // g) + c * b1
        g2 = poly_gcd(t, g)
        if g2.degree > 0:
            t, d = t // g2, d // g2
        return RatFunc._make(t, b1 * d)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (RatFunc, UniPoly, int, Fraction)):
            return NotImplemented
        return self + (-as_ratfunc(other, self.var))

    def __rsub__(self, other):
        return as_ratfunc(other, self.var) - self

    def __mul__(self, other):
        if not isinstance(other, (RatFunc, UniPoly, int, Fraction)):
            return NotImplemented
        other = as_ratfunc(other, self.var)
        _check_tags(self.var, other.var)
        a, b, c, d = self.num, self.den, other.num, other.den
        if not a.ints:
            return self
        if not c.ints:
            return other
        # a unit factor, (1,) over 1 with denominator 1, leaves the other
        if c.ints == (1,) and c.denom == 1 and len(d.ints) == 1:
            return self
        if a.ints == (1,) and a.denom == 1 and len(b.ints) == 1:
            return other
        # cross-cancel: a/b and c/d are reduced, so only gcd(a, d) and
        # gcd(c, b) can cancel from (a c) / (b d)
        if len(a.ints) > 1 and len(d.ints) > 1:
            g = poly_gcd(a, d)
            if g.degree > 0:
                a, d = a // g, d // g
        if len(c.ints) > 1 and len(b.ints) > 1:
            g = poly_gcd(c, b)
            if g.degree > 0:
                c, b = c // g, b // g
        if len(b.ints) == 1:  # b == 1
            return RatFunc._make(a * c, d)
        if len(d.ints) == 1:
            return RatFunc._make(a * c, b)
        return RatFunc._make(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (RatFunc, UniPoly, int, Fraction)):
            return NotImplemented
        other = as_ratfunc(other, self.var)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return as_ratfunc(other, self.var) / self

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return RatFunc._make(self.num ** n, self.den ** n)

    def inverse(self) -> "RatFunc":
        num = self.num
        if not num.ints:
            raise ZeroDivisionError("inverse of zero rational function")
        # divide both by the leading coefficient lead / num.denom of num
        return RatFunc._make(self.den._times(num.denom, num.ints[-1]), num.monic())

    def evaluate(self, value) -> Fraction:
        value = _fr(value)
        d = self.den.evaluate(value)
        if d == 0:
            raise PoleAtPoint(f"denominator {self.den} vanishes at {value}")
        return self.num.evaluate(value) / d

    def to_json(self):
        if self.is_const():
            return str(self.const_value())
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    def __str__(self):
        if self.den.degree == 0:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"


def as_ratfunc(v, var: str) -> RatFunc:
    """v as a rational function: a RatFunc as it is, a UniPoly over 1, and
    an integer or rational as a constant in the variable var."""
    if isinstance(v, RatFunc):
        return v
    if isinstance(v, UniPoly):
        return RatFunc.from_poly(v)
    return RatFunc.const(var, v)


def specialize(f, value) -> Fraction:
    """Evaluate a UniPoly or RatFunc at an exact rational point."""
    if isinstance(f, UniPoly):
        return f.evaluate(value)
    if isinstance(f, RatFunc):
        return f.evaluate(value)
    return _fr(f)


# ---------------------------------------------------------------------------
# coefficient rings


class Ring:
    """A coefficient ring for TruncSeries and the sparse algebras, given by
    its zero.  Its elements answer the other questions themselves: bool(c)
    says c != 0 and zero + c embeds an integer or a fraction c.

    Rings compare by identity; a subclass whose instances are built more
    than once for the same ring says otherwise.
    """

    def __init__(self, zero, name: str):
        self.zero = zero
        self.one = zero + 1
        self.name = name

    def from_rational(self, c):
        return self.zero + _fr(c)

    def coerce(self, v):
        """v as a coefficient: an element (here, a value of the type of zero)
        as it is, any other integer or fraction through from_rational, and
        TypeError for anything else.  A ring whose elements need more than
        their type to belong overrides this; a value of another variable or
        ring raises TagMismatch there.
        """
        if type(v) is type(self.zero):
            return v
        if isinstance(v, (int, Fraction)):
            return self.from_rational(v)
        raise TypeError(f"cannot coerce {v!r} into {self!r}")

    def inv(self, a):
        """The inverse of a, for a ring that is a field."""
        if not a:
            raise NonInvertibleLeadingCoefficient(f"zero does not invert in {self!r}")
        return self.one / a

    def __repr__(self):
        return self.name


QQ = Ring(Fraction(0), "QQ")


class RatFuncRing(Ring):
    """The field of rational functions in one tagged variable."""

    def __init__(self, var: str):
        super().__init__(RatFunc.zero(var), f"QQ({var})")
        self.var = var

    def coerce(self, v):
        """As Ring.coerce; a RatFunc or UniPoly in this variable belongs."""
        if isinstance(v, (RatFunc, UniPoly)):
            _check_tags(self.var, v.var)
            return as_ratfunc(v, self.var)
        return super().coerce(v)

    def __eq__(self, other):
        return isinstance(other, RatFuncRing) and self.name == other.name

    def __hash__(self):
        return hash(self.name)


QQ_LAMBDA = RatFuncRing(LAMBDA)  # the scalars of the sphere and its ideal


def _to_json(c):
    """The JSON form of a coefficient: its own to_json, else its str."""
    return c.to_json() if hasattr(c, "to_json") else str(c)


def _coerced_terms(ring, terms) -> dict:
    """The terms of a sparse element from a mapping or from (key, value)
    pairs: each value through ring.coerce, the values of one key summed,
    zeros dropped."""
    out = {}
    for k, c in terms.items() if isinstance(terms, dict) else terms:
        c = ring.coerce(c)
        out[k] = out[k] + c if k in out else c
    return {k: c for k, c in out.items() if c}


class SparsePoly:
    """Sparse polynomial sum c_m X^m over a coefficient Ring.

    ``terms`` maps exponent tuples to nonzero coefficients.  This class
    holds the structure shared by every such algebra.  A subclass supplies
    its coefficient ring as ``ring`` and a constructor that takes each
    coefficient through ``ring.coerce`` (_coerced_terms).  Arithmetic builds
    its results with ``_like(terms)``, the one trusted constructor: it
    stores nonzero coefficients already in the ring as given, so the caller
    drops zeros first.  Scalars coerce to constants, and scale on either
    side of ``*``.  The core's product adds exponent tuples, the commutative
    product of Poly2 and MultiPoly; PseudoPoly and SphereElement bring their
    own.

    ``algebra`` is the context that products are taken in: None where the
    class alone fixes the product, a QWeyl for its pseudopolynomials.
    Elements of different contexts compare unequal and refuse to add.

    Printing, ``to_json`` and the grading deg x = 1, deg y = -1 read the
    exponents as those of two variables x and y.  MultiPoly, in four
    variables, and SphereElement, keyed by basis atoms, bring their own
    ``to_json`` and ``__str__``; ``degrees`` and ``is_homogeneous`` do not
    apply to either.
    """

    __slots__ = ("terms",)

    algebra = None
    _one_key = (0, 0)  # the exponent tuple of the constant monomial

    def _like(self, terms: dict):
        p = object.__new__(type(self))
        p.terms = terms
        return p

    def _coerce(self, other):
        """other as an element of this algebra, or NotImplemented.

        An element of another context raises ContextMismatch.  Whatever
        ring.coerce takes becomes the constant it gives, so a coefficient
        in another variable raises TagMismatch.
        """
        if type(other) is type(self):
            if other.algebra is not self.algebra:
                raise ContextMismatch("element belongs to a different algebra context")
            return other
        try:
            c = self.ring.coerce(other)
        except TypeError:
            return NotImplemented
        return self._like({self._one_key: c} if c else {})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def coefficient(self, *exponents):
        return self.terms.get(exponents, self.ring.zero)

    def __eq__(self, other):
        if type(other) is not type(self):
            try:
                other = self._coerce(other)
            except TagMismatch:  # a coefficient in another variable
                return NotImplemented
            if other is NotImplemented:
                return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    def __hash__(self):
        # An element equal to a scalar (no term but the constant one) hashes
        # as that scalar does, so that == and hash agree.
        terms = self.terms
        if not terms:
            return hash(0)
        if len(terms) == 1 and self._one_key in terms:
            return hash(terms[self._one_key])
        return hash(frozenset(terms.items()))

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            if k in out:
                c = out[k] + c
                if not c:
                    del out[k]
                    continue
            out[k] = c
        return self._like(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        """c * self, for c anything ring.coerce takes."""
        c = self.ring.coerce(c)
        return self._like({k: u for k, v in self.terms.items() if (u := c * v)})

    def __mul__(self, other):
        if type(other) is not type(self):
            return self.scale(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(add, m1, m2))
                out[m] = out[m] + c1 * c2 if m in out else c1 * c2
        return self._like({m: c for m, c in out.items() if c})

    def __rmul__(self, other):
        return self.scale(other)

    def degrees(self) -> set:
        """Set of graded degrees i - j present (deg x = 1, deg y = -1)."""
        return {i - j for (i, j) in self.terms}

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def to_json(self):
        return [[i, j, _to_json(c)] for (i, j), c in sorted(self.terms.items())]

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (i, j), c in sorted(self.terms.items()):
            mon = ("x" if i == 1 else f"x^{i}" if i else "") + (
                "y" if j == 1 else f"y^{j}" if j else ""
            )
            parts.append(f"({c})*{mon}" if mon else f"({c})")
        return " + ".join(parts)

    def __repr__(self):
        return str(self)


class SparsePolyRing(Ring):
    """The ring of a SparsePoly algebra, so that TruncSeries can carry its
    elements.

    Only the nonzero constants are inverted.  Anything else raises
    NonInvertibleLeadingCoefficient, also a unit such as x in the sphere
    algebra: no caller needs those inverses.
    """

    def coerce(self, v):
        """As Ring.coerce; an element of this context belongs and a
        coefficient becomes a constant."""
        p = self.zero._coerce(v)
        if p is NotImplemented:
            raise TypeError(f"cannot coerce {v!r} into {self!r}")
        return p

    def inv(self, a):
        c = a.terms.get(a._one_key)
        if c is None or len(a.terms) > 1:
            raise NonInvertibleLeadingCoefficient(f"only nonzero constants invert in {self!r}")
        return a._like({a._one_key: a.ring.inv(c)})


class TruncSeries:
    """Truncated power series in hbar over a declared coefficient ring.

    A value of order N represents an element of R[[hbar]]/(hbar^(N+1)); it
    always has N+1 coefficients.  Binary operations between series of
    different orders truncate to the smaller order, which is the only sound
    option once high coefficients have been discarded; series over two
    different rings do not combine (TagMismatch).

    The ring alone chooses the storage.  Over QQ, ``_data`` holds integer
    numerators over one positive denominator ``denom`` that shares no
    factor with all of them, the form UniPoly has, so products are integer
    convolutions and sums integer loops, each reduced once.  Over any other
    ring ``denom`` is None and ``_data`` holds the coefficients themselves,
    each taken through ``ring.coerce`` here; arithmetic, whose results are
    in the ring already, builds them with ``_make``.
    ``coeffs`` is the coefficient tuple either way (Fractions over QQ, rebuilt
    on each read); ``coefficient(k)`` reads one of them.
    """

    __slots__ = ("ring", "order", "denom", "_data")

    def __init__(self, ring, order: int, coeffs):
        if order < 0:
            raise ValueError("series order must be nonnegative")
        cs = list(coeffs)[: order + 1]
        self.ring = ring
        self.order = order
        if ring is QQ:
            cs, self.denom = _numerators([_fr(c) for c in cs])
            cs.extend([0] * (order + 1 - len(cs)))
        else:
            cs = [ring.coerce(c) for c in cs]
            cs.extend([ring.zero] * (order + 1 - len(cs)))
            self.denom = None
        self._data = tuple(cs)

    @staticmethod
    def _make(ring, order: int, data, denom=None) -> "TruncSeries":
        """The one trusted constructor: order + 1 coefficients already in
        ring, stored as given, or over QQ order + 1 integer numerators over
        a positive denominator, reduced here."""
        if denom is not None and denom != 1:
            g = gcd(denom, *data)
            if g != 1:
                data = [c // g for c in data]
                denom //= g
        s = object.__new__(TruncSeries)
        s.ring = ring
        s.order = order
        s.denom = denom
        s._data = tuple(data)
        return s

    @classmethod
    def const(cls, ring, order: int, value) -> "TruncSeries":
        return cls(ring, order, [value])

    @classmethod
    def zero(cls, ring, order: int) -> "TruncSeries":
        return cls(ring, order, [])

    @classmethod
    def one(cls, ring, order: int) -> "TruncSeries":
        return cls(ring, order, [ring.one])

    @classmethod
    def hbar(cls, ring, order: int) -> "TruncSeries":
        return cls(ring, order, [ring.zero, ring.one])

    @property
    def coeffs(self) -> tuple:
        """The coefficients from hbar^0 to hbar^order."""
        if self.denom is None:
            return self._data
        return tuple(Fraction(c, self.denom) for c in self._data)

    def coefficient(self, k: int):
        if 0 <= k <= self.order:
            if self.denom is None:
                return self._data[k]
            return Fraction(self._data[k], self.denom)
        raise IndexError(f"coefficient {k} beyond truncation order {self.order}")

    def is_zero(self) -> bool:
        return not any(self._data)

    def __bool__(self):
        return any(self._data)

    def valuation(self):
        """Index of the first nonzero coefficient, or None if all vanish."""
        for i, c in enumerate(self._data):
            if c:
                return i
        return None

    def truncate(self, order: int) -> "TruncSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncSeries(self.ring, order, self.coeffs[: order + 1])

    def _coerce(self, other) -> "TruncSeries":
        if isinstance(other, TruncSeries):
            if other.ring is not self.ring and other.ring != self.ring:
                raise TagMismatch(f"cannot mix series over {self.ring!r} and {other.ring!r}")
            return other
        return TruncSeries.const(self.ring, self.order, self.ring.from_rational(other))

    def __eq__(self, other):
        # any coefficient is the constant series; +, - and * take rationals
        if not isinstance(other, TruncSeries):
            try:
                other = TruncSeries.const(self.ring, self.order, self.ring.coerce(other))
            except (TypeError, TagMismatch):
                return NotImplemented
        return (
            self.ring == other.ring
            and self.order == other.order
            and self.denom == other.denom
            and self._data == other._data
        )

    def __hash__(self):
        # A constant series hashes as its constant term, so that a constant
        # element of an algebra over series, which equals its scalar and
        # hashes as its coefficient, hashes as that scalar too.
        if not any(self._data[1:]):
            return hash(self.coefficient(0))
        return hash((self.order, self.denom, self._data))

    def __neg__(self):
        return TruncSeries._make(self.ring, self.order, [-c for c in self._data], self.denom)

    def _plus(self, other, sign: int) -> "TruncSeries":
        """self + sign * other for sign 1 or -1, to the smaller order; at
        equal orders a zero term leaves the other as it is."""
        n = min(self.order, other.order)
        a, b = self._data, other._data
        if self.order == other.order:
            if not any(b):
                return self
            if sign > 0 and not any(a):
                return other
        if self.denom is None:
            return TruncSeries._make(self.ring, n, [x + y for x, y in zip(a, b)] if sign > 0
                                     else [x - y for x, y in zip(a, b)])
        da, db = self.denom, other.denom
        d = da if da == db else lcm(da, db)
        fa, fb = d // da, sign * (d // db)
        return TruncSeries._make(QQ, n, [x * fa + y * fb for x, y in zip(a, b)], d)

    def __add__(self, other):
        if not isinstance(other, (TruncSeries, int, Fraction)):
            return NotImplemented
        return self._plus(self._coerce(other), 1)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (TruncSeries, int, Fraction)):
            return NotImplemented
        return self._plus(self._coerce(other), -1)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, (TruncSeries, int, Fraction)):
            return NotImplemented
        other = self._coerce(other)
        n = min(self.order, other.order)
        a, b = self._data, other._data
        if self.denom is not None:
            # a unit factor, 1 over 1, leaves the other truncated to order n
            if a[0] == 1 and self.denom == 1 and a.count(0) == self.order:
                return TruncSeries._make(QQ, n, b[: n + 1], other.denom)
            if b[0] == 1 and other.denom == 1 and b.count(0) == other.order:
                return TruncSeries._make(QQ, n, a[: n + 1], self.denom)
            if a.count(0) < b.count(0):
                a, b = b, a  # the sparser operand drives the outer loop
            return TruncSeries._make(QQ, n, _convolve(a, b, n), self.denom * other.denom)
        out = [self.ring.zero for _ in range(n + 1)]
        for i in range(n + 1):
            x = a[i]
            if not x:
                continue
            for j in range(n + 1 - i):
                y = b[j]
                if y:
                    out[i + j] = out[i + j] + x * y
        return TruncSeries._make(self.ring, n, out)

    __rmul__ = __mul__

    def scale(self, scalar) -> "TruncSeries":
        if self.denom is None:
            scalar = self.ring.coerce(scalar)
            return TruncSeries._make(self.ring, self.order, [scalar * c for c in self._data])
        scalar = _fr(scalar)
        return TruncSeries._make(QQ, self.order, [c * scalar.numerator for c in self._data],
                                 self.denom * scalar.denominator)

    def map_coeffs(self, fn, ring=None) -> "TruncSeries":
        return TruncSeries(ring or self.ring, self.order, [fn(c) for c in self.coeffs])

    def to_json(self):
        return {"order": self.order, "coefficients": [_to_json(c) for c in self.coeffs]}

    def __str__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                terms.append(f"{c}")
            elif k == 1:
                terms.append(f"({c})*hbar")
            else:
                terms.append(f"({c})*hbar^{k}")
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O(hbar^{self.order + 1})"

    __repr__ = __str__


class SeriesRing(Ring):
    """The ring of TruncSeries of one order over a base ring."""

    def __init__(self, base, order: int):
        super().__init__(TruncSeries.zero(base, order),
                         f"{base!r}[[hbar]]/(hbar^{order + 1})")
        self.base = base
        self.order = order

    def coerce(self, v):
        """As Ring.coerce; a series of this order over the base belongs."""
        if isinstance(v, TruncSeries):
            if v.order != self.order or v.ring != self.base:
                raise TagMismatch(f"a series of order {v.order} over {v.ring!r} "
                                  f"is not in {self!r}")
            return v
        return super().coerce(v)

    def inv(self, a: TruncSeries) -> TruncSeries:
        """Multiplicative inverse, defined when the constant term is a unit
        of the base ring; of the smaller order of a and this ring."""
        return _quotient([self.base.one], a.coeffs, self.base, min(self.order, a.order))

    def __eq__(self, other):
        return (
            isinstance(other, SeriesRing)
            and self.base == other.base
            and self.order == other.order
        )

    def __hash__(self):
        return hash(("SeriesRing", self.base, self.order))


def _quotient(a, b, ring, n: int) -> TruncSeries:
    """The series q of order n over ring with q * b = a to that order.

    a and b list coefficients from hbar^0 on; missing ones are zero.  The
    triangular recurrence q_k = b_0^(-1) (a_k - sum_(i>=1) q_(k-i) b_i)
    needs b_0 to be a unit of ring, and ring.inv raises
    NonInvertibleLeadingCoefficient when it is not.  Over QQ it runs on
    integers: with a = A/da and b = B/db, q_k = db P_k / (da B_0^(k+1)) for
    the integers P_k = A_k B_0^k - sum_(i>=1) P_(k-i) B_i B_0^(i-1).
    """
    b0i = ring.inv(b[0])
    if ring is QQ:
        A, da = _numerators(a[: n + 1])
        B, db = _numerators(b[: n + 1])
        pw = [B[0] ** e for e in range(n + 2)]
        P = []
        for k in range(n + 1):
            acc = A[k] * pw[k] if k < len(A) else 0
            for i in range(1, min(k + 1, len(B))):
                acc -= P[k - i] * B[i] * pw[i - 1]
            P.append(acc)
        s = -1 if B[0] < 0 and n % 2 == 0 else 1  # the sign of B_0^(n+1)
        return TruncSeries._make(
            QQ, n, [s * db * p * pw[n - k] for k, p in enumerate(P)], s * da * pw[n + 1])
    out = []
    for k in range(n + 1):
        acc = a[k] if k < len(a) else ring.zero
        for i in range(1, min(k + 1, len(b))):
            acc = acc - out[k - i] * b[i]
        out.append(b0i * acc)
    return TruncSeries._make(ring, n, out)


def series_expand(f: RatFunc, order: int) -> TruncSeries:
    """Taylor coefficients of a rational function of hbar at hbar = 0.

    Raises PoleAtZero when the function genuinely has a pole there, i.e.
    when the hbar-adic valuation of the numerator is smaller than that of
    the denominator, and TagMismatch for a function of another variable.
    """
    f = as_ratfunc(f, HBAR)
    _check_tags(f.var, HBAR)
    num, den = f.num, f.den
    vd = den.valuation()
    if vd:
        vn = num.valuation()
        if vn < vd:
            raise PoleAtZero(f"{f} has a pole of order {vd - vn} at {f.var} = 0")
        num, den = num.shift_down(vd), den.shift_down(vd)
    return _quotient(num.coeffs, den.coeffs, QQ, order)


def series_div_valuation(num: TruncSeries, den: TruncSeries) -> TruncSeries:
    """Divide two series of equal hbar-valuation v, returning a series of
    order (min order - v) whose product with den reproduces num to that order.

    The denominator may live over a scalar subring of the numerator's ring;
    its coefficients are embedded before dividing.
    """
    if den.ring != num.ring:
        den = den.map_coeffs(num.ring.from_rational, ring=num.ring)
    vn = num.valuation()
    vd = den.valuation()
    if vd is None:
        raise ZeroDivisionError("series division by zero")
    if vn != vd:
        raise ValuationMismatch(f"valuations differ: {vn} vs {vd}")
    n = min(num.order, den.order) - vd
    return _quotient(num.coeffs[vd:], den.coeffs[vd:], num.ring, n)


def one_plus_hbar(order: int) -> TruncSeries:
    """The series 1 + hbar, the standard value of q along the deformation."""
    return TruncSeries(QQ, order, [Fraction(1), Fraction(1)])


def exp_hbar(order: int, scale=1) -> TruncSeries:
    """exp(scale * hbar) truncated at the given order."""
    scale = _fr(scale)
    coeffs = []
    acc = Fraction(1)
    for n in range(order + 1):
        coeffs.append(acc)
        acc = acc * scale / (n + 1)
    return TruncSeries(QQ, order, coeffs)
