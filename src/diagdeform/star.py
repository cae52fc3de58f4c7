"""Star products on the polynomial plane from commuting derivation pairs.

Given derivations phi_1, psi_1, ..., phi_m, psi_m of k[x,y] that all commute
with one another, the prescription

    a * b = mu . exp(hbar * sum_i phi_i (x) psi_i) (a (x) b)

deforms the commutative product (mu is plain multiplication, (x) the tensor
product).  Three specs are built in:

    normal  dx (x) dy                  a*b = ab + hbar dx(a) dy(b) + ...
    moyal   (dx ^ dy) = (dx (x) dy - dy (x) dx)/2
    qplane  x dx (x) y dy              the quantum-plane deformation

and custom lists of derivation pairs are accepted after a symbolic check
that they pairwise commute (it is the commuting that makes the exponential
associative).

On polynomials the normal and Moyal series terminate, because each step
lowers degree on one side of the tensor.  The qplane operator preserves
degree and need not terminate, so star always returns a truncated series
together with an exactness flag saying whether the operator had annihilated
the tensor by the requested order.

The operator sum_i phi_i (x) psi_i is compiled once per spec into integer
terms over one denominator.  star and star_series share one integer kernel:
every input coefficient is put over one common denominator, and the pairs
A_m (x) B_n go into a single tensor keyed by (s, i1, j1, i2, j2), where
s = m + n is the hbar level the pair starts at; star is the one-term case
A_0 (x) B_0.  Each step applies the operator once to the whole tensor and
drops the keys whose level would pass the truncation order.  After each
step the tensor is contracted into one integer accumulator per output level
l, over den * spec._den^l * l!, and a Fraction is built once per output
monomial, at the end.  The arithmetic is exact and Fraction(n, d) is
canonical, so the coefficients are the same values, and print the same
bytes, as a sum of star products taken pair by pair.

Degrees here are graded with deg x = +1, deg y = -1; all three built-in
specs preserve that grading, which grading_check exercises on random
homogeneous inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial, lcm

from .scalars import (
    QQ,
    SparsePoly,
    SparsePolyRing,
    TruncSeries,
    _fr,
    exp_hbar,
)


class NonCommutingDerivations(ValueError):
    """A custom spec listed derivations that fail to commute."""


class Poly2(SparsePoly):
    """Commutative polynomials in x and y with rational coefficients."""

    __slots__ = ()

    ring = QQ

    def __init__(self, terms):
        clean = {}
        for (i, j), c in dict(terms).items():
            c = _fr(c)
            if c:
                clean[(i, j)] = c
        self.terms = clean

    @classmethod
    def _from_clean(cls, terms: dict) -> "Poly2":
        """Trusted constructor for kernel results: a dict of nonzero
        Fraction coefficients, stored as given."""
        p = object.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def zero(cls) -> "Poly2":
        return cls({})

    @classmethod
    def const(cls, c) -> "Poly2":
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, i: int, j: int, c=1) -> "Poly2":
        return cls({(i, j): c})

    @classmethod
    def x(cls) -> "Poly2":
        return cls({(1, 0): 1})

    @classmethod
    def y(cls) -> "Poly2":
        return cls({(0, 1): 1})

    def __add__(self, other):
        # A function of Poly2's own, so that per-layer traces tell its
        # additions apart from those of the other sparse algebras.
        return SparsePoly.__add__(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly2):
            return NotImplemented
        out = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                if k in out:
                    out[k] += c1 * c2
                else:
                    out[k] = c1 * c2
        return Poly2._from_clean({k: c for k, c in out.items() if c})

    __rmul__ = __mul__

    def dx(self) -> "Poly2":
        return Poly2._from_clean(
            {(i - 1, j): c * i for (i, j), c in self.terms.items() if i})

    def dy(self) -> "Poly2":
        return Poly2._from_clean(
            {(i, j - 1): c * j for (i, j), c in self.terms.items() if j})


P2 = SparsePolyRing(Poly2.zero(), "QQ[x,y]")


def _integer_form(*polys):
    """Integer numerators of each poly, by monomial, over their common
    denominator: returns ([dict per poly], denominator)."""
    den = lcm(*(c.denominator for p in polys for c in p.terms.values()))
    return [{k: c.numerator * (den // c.denominator) for k, c in p.terms.items()}
            for p in polys], den


class Derivation:
    """A derivation of k[x,y], determined by its values on x and y."""

    __slots__ = ("px", "py")

    def __init__(self, px, py):
        self.px = px if isinstance(px, Poly2) else Poly2.const(px)
        self.py = py if isinstance(py, Poly2) else Poly2.const(py)

    def __call__(self, p: Poly2) -> Poly2:
        return self.px * p.dx() + self.py * p.dy()

    def _integer_action(self):
        """The action on x^i y^j as integer terms over one denominator.

        A term (di, dj, s, n) contributes n * (i, j)[s] x^(i+di) y^(j+dj);
        the derivation is the sum of its terms over the returned denominator.
        """
        (px, py), den = _integer_form(self.px, self.py)
        return ([(a - 1, b, 0, n) for (a, b), n in px.items()]
                + [(a, b - 1, 1, n) for (a, b), n in py.items()]), den

    def commutes_with(self, other: "Derivation") -> bool:
        """Whether [self, other] = 0, checked on the generators.

        The bracket of two derivations is again a derivation, so vanishing
        on x and y is vanishing everywhere.
        """
        on_x = self(other.px) - other(self.px)
        on_y = self(other.py) - other(self.py)
        return on_x.is_zero() and on_y.is_zero()

    def __repr__(self):
        return f"({self.px})*dx + ({self.py})*dy"


class StarSpec:
    """A named list of derivation pairs defining the exponential product."""

    __slots__ = ("kind", "pairs", "_ops", "_den")

    def __init__(self, kind: str, pairs):
        self.kind = kind
        self.pairs = tuple(pairs)
        self._compile()

    def _compile(self):
        """Compile sum_i phi_i (x) psi_i into integer terms over self._den.

        A term (di1, dj1, s1, di2, dj2, s2, w) sends the tensor key
        k = (s, i1, j1, i2, j2) to (s, i1+di1, j1+dj1, i2+di2, j2+dj2) with
        weight w * k[s1] * k[s2]; terms with the same shift and slots are
        merged.
        """
        actions = [(phi._integer_action(), psi._integer_action())
                   for phi, psi in self.pairs]
        den = lcm(*(d1 * d2 for (_, d1), (_, d2) in actions))
        ops = {}
        for (terms1, d1), (terms2, d2) in actions:
            scale = den // (d1 * d2)
            for di1, dj1, s1, n1 in terms1:
                for di2, dj2, s2, n2 in terms2:
                    key = (di1, dj1, s1 + 1, di2, dj2, s2 + 3)
                    ops[key] = ops.get(key, 0) + n1 * n2 * scale
        self._ops = tuple(key + (w,) for key, w in ops.items() if w)
        self._den = den

    def _apply(self, tensor: dict, top: int) -> dict:
        """The operator on the keys of level at most top of an integer
        tensor {(s, i1, j1, i2, j2): n}; the result is over one more factor
        self._den, equal keys merged and zeros dropped."""
        out = {}
        for key, v in tensor.items():
            s, i1, j1, i2, j2 = key
            if s > top:
                continue
            for di1, dj1, s1, di2, dj2, s2, w in self._ops:
                m = key[s1] * key[s2]
                if m:
                    k = (s, i1 + di1, j1 + dj1, i2 + di2, j2 + dj2)
                    out[k] = out.get(k, 0) + v * w * m
        return {k: v for k, v in out.items() if v}

    @classmethod
    def normal(cls) -> "StarSpec":
        return cls("normal", [(Derivation(1, 0), Derivation(0, 1))])

    @classmethod
    def moyal(cls) -> "StarSpec":
        half = Fraction(1, 2)
        return cls("moyal", [
            (Derivation(half, 0), Derivation(0, 1)),
            (Derivation(0, -half), Derivation(1, 0)),
        ])

    @classmethod
    def qplane(cls) -> "StarSpec":
        return cls("qplane", [(Derivation(Poly2.x(), 0), Derivation(0, Poly2.y()))])

    @classmethod
    def custom(cls, pairs) -> "StarSpec":
        flat = [d for pair in pairs for d in pair]
        for a in range(len(flat)):
            for b in range(a + 1, len(flat)):
                if not flat[a].commutes_with(flat[b]):
                    raise NonCommutingDerivations(
                        f"derivations {flat[a]} and {flat[b]} do not commute"
                    )
        return cls("custom", pairs)

    @classmethod
    def named(cls, kind: str) -> "StarSpec":
        try:
            return {"normal": cls.normal, "moyal": cls.moyal, "qplane": cls.qplane}[kind]()
        except KeyError:
            raise ValueError(f"unknown star spec {kind!r}") from None

    def __repr__(self):
        return f"StarSpec({self.kind})"


def _star_kernel(A, B, spec: StarSpec, order: int):
    """sum_{m+n+k <= order} hbar^(m+n+k) (1/k!) mu[D^k (A_m (x) B_n)] for
    coefficient lists A and B, where D = sum_i phi_i (x) psi_i.

    Returns the order + 1 Poly2 coefficients and the last tensor computed,
    D^k of the pairs at the last step k reached (empty once D annihilated
    them).
    """
    As, da = _integer_form(*A[:order + 1])
    Bs, db = _integer_form(*B[:order + 1])
    tensor = {}
    for m, u in enumerate(As):
        for n, v in enumerate(Bs[:order + 1 - m]):
            for (i1, j1), p in u.items():
                for (i2, j2), q in v.items():
                    key = (m + n, i1, j1, i2, j2)
                    tensor[key] = tensor.get(key, 0) + p * q
    # Level l accumulates over da * db * spec._den^l * l!.  At step k,
    # (1/k!) mu(tensor) is over da * db * spec._den^k * k!, so a key of level
    # s is scaled by spec._den^s * (k+1)(k+2)...(k+s) on its way to level s + k.
    accs = [{} for _ in range(order + 1)]
    for k in range(order + 1):
        if k:
            tensor = spec._apply(tensor, order - k)
            if not tensor:
                break
        scale = [1]
        for s in range(1, order + 1 - k):
            scale.append(scale[-1] * spec._den * (k + s))
        for (s, i1, j1, i2, j2), v in tensor.items():
            acc = accs[s + k]
            key = (i1 + i2, j1 + j2)
            acc[key] = acc.get(key, 0) + v * scale[s]
    den = da * db
    coeffs = []
    for level, acc in enumerate(accs):
        d = den * spec._den ** level * factorial(level)
        coeffs.append(Poly2._from_clean({key: Fraction(n, d) for key, n in acc.items() if n}))
    return coeffs, tensor


def star(a: Poly2, b: Poly2, spec: StarSpec, order: int):
    """The truncated star product, as (series over Poly2, exact flag).

    The k-th coefficient is (1/k!) mu[(sum phi_i (x) psi_i)^k (a (x) b)].
    The flag is True when the operator power annihilates a (x) b at or
    before the requested order, so every discarded coefficient is known to
    vanish; False means the truncation is a genuine truncation.
    """
    if order < 0:
        raise ValueError("negative truncation order")
    coeffs, tensor = _star_kernel([a], [b], spec, order)
    # every key of the one pair a (x) b is at level 0, so no key is dropped
    exact = not tensor or not spec._apply(tensor, order)
    return TruncSeries(P2, order, coeffs), exact


def star_commutator(a: Poly2, b: Poly2, spec: StarSpec, order: int) -> TruncSeries:
    return star(a, b, spec, order)[0] - star(b, a, spec, order)[0]


def star_series(A: TruncSeries, B: TruncSeries, spec: StarSpec, order: int) -> TruncSeries:
    """Extend star bilinearly to truncated series with Poly2 coefficients.

    The result is known only modulo the smallest of the three orders, as for
    every binary operation on truncated series.
    """
    order = min(A.order, B.order, order)
    return TruncSeries(P2, order, _star_kernel(A.coeffs, B.coeffs, spec, order)[0])


def embed(a: Poly2, order: int) -> TruncSeries:
    return TruncSeries.const(P2, order, a)


# ------------------------------------------------------------------ checks


def _random_poly(rng: random.Random, maxdeg: int = 3) -> Poly2:
    terms = {}
    for i in range(maxdeg + 1):
        for j in range(maxdeg + 1 - i):
            if rng.random() < 0.5:
                c = rng.randint(-3, 3)
                if c:
                    terms[(i, j)] = Fraction(c)
    return Poly2(terms)


def _random_homogeneous(rng: random.Random, degree: int) -> Poly2:
    slots = [(i, j) for i in range(5) for j in range(5) if i - j == degree]
    terms = {}
    for key in slots:
        if rng.random() < 0.6:
            c = rng.randint(-3, 3)
            if c:
                terms[key] = Fraction(c)
    if not terms:
        terms[slots[0]] = Fraction(1)
    return Poly2(terms)


def _trial_rng(seed: int, index: int) -> random.Random:
    # split scheme: each trial draws from its own generator, so trials can
    # run in any order (or concurrently) without changing the stream
    return random.Random(seed * 1_000_003 + index)


def associativity_check(spec: StarSpec, order: int, trials: int, seed: int) -> dict:
    """Whether (a*b)*c = a*(b*c) modulo hbar^(order+1) on random triples.

    Both sides are series of the same order over Poly2, whose terms are
    canonical nonzero Fractions, so comparing them is the same exact verdict
    as testing their difference for zero.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    failures = []
    for t in range(trials):
        rng = _trial_rng(seed, t)
        a, b, c = (_random_poly(rng) for _ in range(3))
        left = star_series(star(a, b, spec, order)[0], embed(c, order), spec, order)
        right = star_series(embed(a, order), star(b, c, spec, order)[0], spec, order)
        if left != right:
            failures.append(t)
    return {
        "kind": spec.kind,
        "order": order,
        "trials": trials,
        "seed": seed,
        "failures": failures,
        "ok": not failures,
    }


def grading_check(spec: StarSpec, trials: int, seed: int, order: int = 4) -> dict:
    """Star products of homogeneous inputs stay homogeneous, order by order."""
    if trials < 1:
        raise ValueError("need at least one trial")
    failures = []
    for t in range(trials):
        rng = _trial_rng(seed, t)
        d1 = rng.randint(-2, 2)
        d2 = rng.randint(-2, 2)
        a = _random_homogeneous(rng, d1)
        b = _random_homogeneous(rng, d2)
        series, _ = star(a, b, spec, order)
        for coeff in series.coeffs:
            if coeff.is_zero():
                continue
            if not coeff.is_homogeneous() or coeff.degrees() != {d1 + d2}:
                failures.append(t)
                break
    return {
        "kind": spec.kind,
        "trials": trials,
        "seed": seed,
        "failures": failures,
        "ok": not failures,
    }


def qplane_relation_check(order: int) -> dict:
    """star(x,y) = e^hbar * star(y,x) for the quantum-plane product."""
    spec = StarSpec.qplane()
    x, y = Poly2.x(), Poly2.y()
    xy, _ = star(x, y, spec, order)
    yx, _ = star(y, x, spec, order)
    e = exp_hbar(order).map_coeffs(P2.from_rational, ring=P2)
    residual = xy - e * yx
    return {"order": order, "ok": residual.is_zero(), "residual": residual}
