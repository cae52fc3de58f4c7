"""Star products on the polynomial plane from commuting derivation pairs.

Given derivations phi_1, psi_1, ..., phi_r, psi_r of k[x,y] that all commute
with one another, the prescription

    a * b = mu . exp(hbar * D) (a (x) b),    D = sum_i phi_i (x) psi_i,

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
together with an exactness flag saying whether D^(order+1)(a (x) b) = 0,
so that every discarded coefficient is known to vanish.

The phi_i commute with one another, and so do the psi_i (StarSpec checks
this whenever it has two pairs or more), so

    D^k (a (x) b) = sum_{|alpha| = k} (k!/alpha!) phi^alpha a (x) psi^alpha b

and the hbar^l coefficient of A * B, for series A and B, is

    sum_{m + n + |alpha| = l} (1/alpha!) phi^alpha(A_m) psi^alpha(B_n).

star, star_series and associativity_check share one kernel that computes
this on integer levels: a level is a dict of integer numerators by monomial
over one denominator.  The kernel puts each side's levels over one common
denominator, builds the derivative jets phi^alpha A_m and psi^alpha B_n
one derivation at a time from the jets of the parent multi-index, drops a
branch once one of its sides is zero, and multiplies the jets into one
integer accumulator per output level l, over DA * DB * L^l * l!, where L
is the spec's common denominator; the integer weights of the (alpha, l)
terms are cached on the spec.  star and star_series build a Fraction once
per output monomial; associativity_check chains the kernel and compares
its two sides by cross-multiplication, building no Fraction at all.  The
arithmetic is exact and Fraction(n, d) is canonical, so the coefficients
are the same values, and print the same bytes, as the operator expansion.

Degrees here are graded with deg x = +1, deg y = -1; all three built-in
specs preserve that grading, which grading_check exercises on random
homogeneous inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial, lcm, prod

from .scalars import (
    QQ,
    SparsePoly,
    SparsePolyRing,
    TruncSeries,
    _coerced_terms,
    _fractions,
    _numerators,
    exp_hbar,
)


class NonCommutingDerivations(ValueError):
    """A custom spec listed derivations that fail to commute."""


class Poly2(SparsePoly):
    """Commutative polynomials in x and y with rational coefficients.

    ``__init__``, ``__add__`` and ``__mul__`` are functions of Poly2's own,
    so that per-layer traces tell its work apart from that of the other
    sparse algebras; the last two only call the core's.
    """

    __slots__ = ()

    ring = QQ

    def __init__(self, terms):
        self.terms = _coerced_terms(QQ, terms)

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
        return SparsePoly.__add__(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return SparsePoly.__mul__(self, other)

    def dx(self) -> "Poly2":
        return self._like({(i - 1, j): c * i for (i, j), c in self.terms.items() if i})

    def dy(self) -> "Poly2":
        return self._like({(i, j - 1): c * j for (i, j), c in self.terms.items() if j})


P2 = SparsePolyRing(Poly2.zero(), "QQ[x,y]")


def _levels(polys) -> list:
    """Each poly as an integer level: (numerators by monomial, denominator)."""
    forms = [_numerators(p.terms.values()) for p in polys]
    return [(dict(zip(p.terms, nums)), den) for p, (nums, den) in zip(polys, forms)]


def _common(levels):
    """Integer levels over their least common denominator:
    ([numerators by monomial], denominator)."""
    den = lcm(*(d for _, d in levels))
    return [nums if d == den else {k: n * (den // d) for k, n in nums.items()}
            for nums, d in levels], den


def _polys(levels) -> list:
    """Integer levels as Poly2s, one Fraction per monomial."""
    return [P2.zero._like(_fractions(nums, d)) for nums, d in levels]


def _check_commuting(derivations):
    for i, d in enumerate(derivations):
        for e in derivations[i + 1:]:
            if not d.commutes_with(e):
                raise NonCommutingDerivations(f"derivations {d} and {e} do not commute")


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

        Returns ((xs, ys), den): a term (di, dj, n) of xs contributes
        n * i x^(i+di) y^(j+dj), one of ys n * j x^(i+di) y^(j+dj); the
        derivation is the sum of its terms over den.
        """
        (px, py), den = _common(_levels([self.px, self.py]))
        return ([(a - 1, b, n) for (a, b), n in px.items()],
                [(a, b - 1, n) for (a, b), n in py.items()]), den

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
    """A named list of derivation pairs defining the exponential product.

    With two or more pairs the phi_i must commute with one another, and so
    must the psi_i, or the jet expansion of the kernel does not hold; the
    constructor raises NonCommutingDerivations otherwise.  A single pair
    needs no check, since (phi (x) psi)^k = phi^k (x) psi^k for any phi
    and psi.
    """

    __slots__ = ("kind", "pairs", "_actions", "_scales", "_den", "_weights")

    def __init__(self, kind: str, pairs):
        self.kind = kind
        self.pairs = tuple(pairs)
        _check_commuting([phi for phi, _ in self.pairs])
        _check_commuting([psi for _, psi in self.pairs])
        actions = [(phi._integer_action(), psi._integer_action())
                   for phi, psi in self.pairs]
        self._den = lcm(*(d1 * d2 for (_, d1), (_, d2) in actions))
        self._actions = [(t1, t2) for (t1, _), (t2, _) in actions]
        self._scales = [self._den // (d1 * d2) for (_, d1), (_, d2) in actions]
        self._weights = {}

    def _weight(self, alpha: tuple, level: int) -> int:
        """The weight of phi^alpha A_m psi^alpha B_n in output level
        `level`: 1/alpha! over the pairs' denominators, as an integer over
        L^level * level!, L = self._den."""
        w = self._weights.get((alpha, level))
        if w is None:
            w = self._den ** (level - sum(alpha)) * factorial(level)
            w = w * prod(c ** e for c, e in zip(self._scales, alpha))
            w //= prod(factorial(e) for e in alpha)
            self._weights[(alpha, level)] = w
        return w

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
        _check_commuting([d for pair in pairs for d in pair])
        return cls("custom", pairs)

    @classmethod
    def named(cls, kind: str) -> "StarSpec":
        try:
            return {"normal": cls.normal, "moyal": cls.moyal, "qplane": cls.qplane}[kind]()
        except KeyError:
            raise ValueError(f"unknown star spec {kind!r}") from None

    def __repr__(self):
        return f"StarSpec({self.kind})"


def _derive(action, nums: dict) -> dict:
    """One derivation's integer action (xs, ys) applied to integer
    numerators by monomial; the result is over the action's denominator,
    with zeros dropped."""
    xs, ys = action
    out = {}
    for (i, j), n in nums.items():
        if i:
            n_i = n * i
            for di, dj, w in xs:
                k = (i + di, j + dj)
                out[k] = out.get(k, 0) + n_i * w
        if j:
            n_j = n * j
            for di, dj, w in ys:
                k = (i + di, j + dj)
                out[k] = out.get(k, 0) + n_j * w
    return {k: v for k, v in out.items() if v}


def _star_kernel(A: list, B: list, spec: StarSpec, order: int, flag: bool = False):
    """sum_{m+n+|alpha| = l} (1/alpha!) phi^alpha(A_m) psi^alpha(B_n) for
    l = 0..order, on lists A and B of integer levels (numerators by
    monomial, denominator).

    Returns the order + 1 output levels, level l over DA * DB * L^l * l!
    (DA and DB the common denominators of A and B, L = spec._den), and,
    when flag is set, whether D^(order+1)(A_0 (x) B_0) = 0; None otherwise.
    The flag needs the jets of level order + 1 and so reads only A_0, B_0.
    """
    As, da = _common(A[:order + 1])
    Bs, db = _common(B[:order + 1])
    accs = [{} for _ in range(order + 1)]
    # (alpha, first, phi^alpha A_m by m, psi^alpha B_n by n) for |alpha| = k;
    # a child adds one to alpha at an index i >= first, so each multi-index
    # is reached once, and a child with a zero side is never built, since
    # every jet below it would be zero too
    jets = [((0,) * len(spec._actions), 0, As, Bs)]
    for k in range(order + 1):
        children = []
        for alpha, first, us, vs in jets:
            for m, u in enumerate(us):
                if not u:
                    continue
                for n in range(min(len(vs), order + 1 - k - m)):
                    v = vs[n]
                    if not v:
                        continue
                    level = k + m + n
                    w = spec._weight(alpha, level)
                    acc = accs[level]
                    for (i1, j1), p in u.items():
                        p *= w
                        for (i2, j2), q in v.items():
                            key = (i1 + i2, j1 + j2)
                            acc[key] = acc.get(key, 0) + p * q
            # children feed levels up to order - k - 1, or level 0 for the flag
            keep = order - k if k < order else int(flag)
            if not keep:
                continue
            for i in range(first, len(spec._actions)):
                phi, psi = spec._actions[i]
                cu = [_derive(phi, u) for u in us[:keep]]
                if not any(cu):
                    continue
                cv = [_derive(psi, v) for v in vs[:keep]]
                if any(cv):
                    children.append((alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:], i, cu, cv))
        jets = children
        if not jets:
            break
    den = da * db
    levels = []
    for level, acc in enumerate(accs):
        levels.append(({key: n for key, n in acc.items() if n}, den))
        den *= spec._den * (level + 1)
    if not flag:
        return levels, None
    if len(jets) < 2:
        # one nonzero outer product u (x) v is nonzero
        return levels, not jets
    # several multi-indices: D^(order+1)(A_0 (x) B_0) is the sum of their
    # weighted outer products, which may cancel
    tensor = {}
    for alpha, _, us, vs in jets:
        w = spec._weight(alpha, order + 1)
        for (i1, j1), p in us[0].items():
            p *= w
            for (i2, j2), q in vs[0].items():
                key = (i1, j1, i2, j2)
                tensor[key] = tensor.get(key, 0) + p * q
    return levels, not any(tensor.values())


def _same_levels(left: list, right: list) -> bool:
    """Whether two lists of integer levels hold the same values: the same
    monomials, level by level, and n_L * d_R == n_R * d_L for each."""
    for (nl, dl), (nr, dr) in zip(left, right):
        if nl.keys() != nr.keys():
            return False
        if any(n * dr != nr[k] * dl for k, n in nl.items()):
            return False
    return True


def star(a: Poly2, b: Poly2, spec: StarSpec, order: int):
    """The truncated star product, as (series over Poly2, exact flag).

    The k-th coefficient is (1/k!) mu[(sum phi_i (x) psi_i)^k (a (x) b)].
    The flag is True when D^(order+1)(a (x) b) = 0, so every discarded
    coefficient is known to vanish; False means the truncation is a
    genuine truncation.
    """
    if order < 0:
        raise ValueError("negative truncation order")
    levels, exact = _star_kernel(_levels([a]), _levels([b]), spec, order, flag=True)
    return TruncSeries._make(P2, order, _polys(levels)), exact


def star_commutator(a: Poly2, b: Poly2, spec: StarSpec, order: int) -> TruncSeries:
    return star(a, b, spec, order)[0] - star(b, a, spec, order)[0]


_HBAR = TruncSeries(P2, 4, [Poly2.zero(), Poly2.const(1)])


def commutator_is_hbar(spec: StarSpec) -> bool:
    """x * y - y * x = hbar through hbar^4."""
    return star_commutator(Poly2.x(), Poly2.y(), spec, 4) == _HBAR


def star_series(A: TruncSeries, B: TruncSeries, spec: StarSpec, order: int) -> TruncSeries:
    """Extend star bilinearly to truncated series with Poly2 coefficients.

    The result is known only modulo the smallest of the three orders, as for
    every binary operation on truncated series.
    """
    order = min(A.order, B.order, order)
    levels, _ = _star_kernel(_levels(A.coeffs[:order + 1]), _levels(B.coeffs[:order + 1]),
                             spec, order)
    return TruncSeries._make(P2, order, _polys(levels))


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

    Each side chains the integer kernel twice and is compared with the
    other level by level, exactly: the same monomials, and equal values by
    cross-multiplying numerators and denominators.  Past the random inputs
    no Fraction is built.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if order < 0:
        raise ValueError("negative truncation order")
    failures = []
    for t in range(trials):
        rng = _trial_rng(seed, t)
        a, b, c = (_levels([_random_poly(rng)]) for _ in range(3))
        left, _ = _star_kernel(_star_kernel(a, b, spec, order)[0], c, spec, order)
        right, _ = _star_kernel(a, _star_kernel(b, c, spec, order)[0], spec, order)
        if not _same_levels(left, right):
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
