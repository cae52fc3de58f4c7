"""The q-Weyl algebra k{x,y}/(q*x*y - y*x - 1) with exact normal forms.

Elements are pseudopolynomials: finite sums c_ij x^i y^j stored sparsely
with all x's written to the left.  The algebra object carries the scalar
ring and the value of q, so the same code runs in three regimes:

  * q a symbol, scalars QQ(q), for identities true for generic q;
  * q = 1, scalars QQ, the ordinary Weyl algebra;
  * q = 1 + hbar, scalars QQ[[hbar]] truncated, for formal deformations.

context(ring, q) builds each of these algebras once, so there is one W_1,
and its rule table is built once too.

Two independent multiplication routes are kept side by side.  The fast one
rewrites whole blocks via y^j x = q^j x y^j - [j] y^(j-1), where [j] is the
q-integer 1 + q + ... + q^(j-1).  The slow one, normalize(), rewrites free
words one adjacent yx at a time and exists as an oracle: the tests insist
the two agree on random words, and nothing in the fast route is trusted
until that check passes.

multiply and commutator (a*b and -b*a in one accumulator) share one kernel.
Over QQ with q an integer, as at q = 1, it runs on integers: operands over
the lcm of their denominators, integer block rules, and one Fraction per
output key; a W_1 gauge move adds its commutators into its own integer sum
through the same loop.  Over QQ[[hbar]] with q a series of denominator 1,
as at q = 1 + hbar and q = 1, it runs on integer levels: each operand is
flattened into (i, j, hbar level) terms over the lcm of its denominators,
the block rules into integer (m, n, level) weights, products above the
truncation order are dropped, and one series is built per output key;
weyl_iso.solve_z updates its residual through the same loop.  Over QQ(q),
and over series with any other q, the coefficients stay ring elements.
normalize remains the oracle in every regime.

The grading deg(x^i y^j) = i - j is preserved by multiplication since the
defining relation is inhomogeneous only in the filtration sense; the degree
zero part is the commutative subalgebra generated by xy.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import lcm

from .linalg import sparse_mat_mul
from .scalars import (
    ContextMismatch,
    QQ,
    QVAR,
    RatFunc,
    RatFuncRing,
    SeriesRing,
    SparsePoly,
    SparsePolyRing,
    TruncSeries,
    UniPoly,
    _coerced_terms,
    _fractions,
    _numerators,
    one_plus_hbar,
)


class PseudoPoly(SparsePoly):
    """Sparse normal-form element sum c_ij x^i y^j of a QWeyl algebra.

    ``PseudoPoly(algebra, terms)`` takes a mapping, or (key, value) pairs
    whose values for one key add up, and each value through the ring's
    coerce.
    """

    __slots__ = ("algebra",)

    def __init__(self, algebra: "QWeyl", terms):
        self.algebra = algebra
        self.terms = _coerced_terms(algebra.ring, terms)

    @property
    def ring(self):
        return self.algebra.ring

    def _like(self, terms: dict) -> "PseudoPoly":
        p = object.__new__(PseudoPoly)
        p.algebra = self.algebra
        p.terms = terms
        return p

    def __mul__(self, other):
        if isinstance(other, PseudoPoly):
            return self.algebra.multiply(self, other)
        return self.scale(other)


class QWeyl(SparsePolyRing):
    """Context object: scalar ring plus the chosen value of q.

    The algebra is also the ring of its own elements, so that TruncSeries
    can carry PseudoPoly coefficients.  Contexts compare by identity and
    elements of two contexts do not mix; ``context`` keeps one per (ring, q),
    with its powers of q and its block rules.
    """

    def __init__(self, ring, q):
        self.ring = ring
        self.q = q
        super().__init__(PseudoPoly(self, {}), f"QWeyl(ring={ring!r})")
        self.x = PseudoPoly(self, {(1, 0): ring.one})
        self.y = PseudoPoly(self, {(0, 1): ring.one})
        self._qpow, self._shift_cache, self._level_cache = [ring.one], {}, {}
        # over QQ with q an integer the products run on integers, and the
        # block rules carry int weights; over QQ[[hbar]] with q a series of
        # denominator 1 they run on integer hbar levels (_add_levels)
        self._integral = ring is QQ and q.denominator == 1
        self._levels = (isinstance(ring, SeriesRing) and ring.base is QQ
                        and isinstance(q, TruncSeries) and q.denom == 1)

    def monomial(self, i: int, j: int, c=1) -> PseudoPoly:
        return PseudoPoly(self, {(i, j): c})

    def from_terms(self, triples) -> PseudoPoly:
        return PseudoPoly(self, (((i, j), c) for i, j, c in triples))

    def q_power(self, n: int):
        while len(self._qpow) <= n:
            self._qpow.append(self._qpow[-1] * self.q)
        return self._qpow[n]

    def qint(self, n: int):
        """The q-integer [n] = 1 + q + ... + q^(n-1)."""
        acc = self.ring.zero
        for i in range(n):
            acc = acc + self.q_power(i)
        return acc

    def _shift(self, j: int, k: int):
        """Normal form of y^j x^k as a dict of (i', j') -> coefficient.

        Recurses on y^j x = q^j x y^j - [j] y^(j-1) and caches per context.
        The coefficients are ints in an integral context, ring elements
        otherwise.
        """
        key = (j, k)
        cached = self._shift_cache.get(key)
        if cached is not None:
            return cached
        integral = self._integral
        if j == 0 or k == 0:
            out = {(k, j): 1 if integral else self.ring.one}
        else:
            qj, mj, zero = self.q_power(j), self.qint(j), self.ring.zero
            if integral:
                qj, mj, zero = qj.numerator, mj.numerator, 0
            out = {}
            for (a, b), c in self._shift(j, k - 1).items():
                out[(a + 1, b)] = out.get((a + 1, b), zero) + qj * c
            for (a, b), c in self._shift(j - 1, k - 1).items():
                out[(a, b)] = out.get((a, b), zero) - mj * c
            out = {k2: v for k2, v in out.items() if v}
        self._shift_cache[key] = out
        return out

    def _level_rule(self, j: int, k: int) -> list:
        """_shift(j, k) over QQ[[hbar]] flattened to ((m, n, level), weight)
        pairs with int weights, lowest level first; cached per context."""
        rule = sorted((((m, n, lw), w) for (m, n), s in self._shift(j, k).items()
                       for lw, w in enumerate(s._data) if w), key=lambda t: t[0][2])
        self._level_cache[(j, k)] = rule
        return rule

    def _accumulate(self, a: PseudoPoly, b: PseudoPoly, minus_ba: bool) -> PseudoPoly:
        """a b, or a b - b a when minus_ba is set, in normal form: the one
        kernel of multiply and commutator, on integers over QQ when q is an
        integer, on integer levels over QQ[[hbar]] when q is a series of
        denominator 1, and on ring elements otherwise."""
        if a.algebra is not self or b.algebra is not self:
            raise ContextMismatch("operands from a different algebra context")
        if self._levels:
            (ta, da), (tb, db) = _level_terms(a), _level_terms(b)
            return self._level_poly(self._add_levels({}, ta, tb, minus_ba), da * db)
        if self._integral:
            na, da = _numerators(a.terms.values())
            nb, db = _numerators(b.terms.values())
            ta, tb = list(zip(a.terms, na)), list(zip(b.terms, nb))
            out = self._add_products({}, ta, tb, minus_ba, 0)
            return self.zero._like(_fractions(out, da * db))
        out = self._add_products({}, a.terms.items(), b.terms.items(), minus_ba, self.ring.zero)
        return self.zero._like({k: c for k, c in out.items() if c})

    def _add_products(self, out: dict, ta, tb, minus_ba: bool, zero) -> dict:
        """Add a b, or a b - b a, into out and return it; a and b are (key,
        coefficient) pairs, integers if integral, and zero is theirs."""
        rules, shift = self._shift_cache, self._shift
        for tu, tv, negate in ((ta, tb, False), (tb, ta, True))[:1 + minus_ba]:
            for (i1, j1), c1 in tu:
                if negate:
                    c1 = -c1
                for (i2, j2), c2 in tv:
                    c = c1 * c2
                    rule = rules.get((j1, i2))
                    if rule is None:
                        rule = shift(j1, i2)
                    for (m, n), w in rule.items():
                        key = (i1 + m, n + j2)
                        out[key] = out.get(key, zero) + c * w
        return out

    def _add_levels(self, out: dict, ta, tb, minus_ba: bool) -> dict:
        """Add a b, or a b - b a, into out and return it, over QQ[[hbar]]:
        a and b are ((i, j, level), integer) pairs, out is keyed the same
        way, and products above the truncation order are dropped."""
        order, rules, rule_of = self.ring.order, self._level_cache, self._level_rule
        for tu, tv, negate in ((ta, tb, False), (tb, ta, True))[:1 + minus_ba]:
            for (i1, j1, l1), c1 in tu:
                if negate:
                    c1 = -c1
                for (i2, j2, l2), c2 in tv:
                    room = order - l1 - l2
                    if room < 0:
                        continue
                    c, base = c1 * c2, l1 + l2
                    rule = rules.get((j1, i2))
                    if rule is None:
                        rule = rule_of(j1, i2)
                    for (m, n, lw), w in rule:
                        if lw > room:
                            break
                        key = (i1 + m, n + j2, base + lw)
                        out[key] = out.get(key, 0) + c * w
        return out

    def _level_poly(self, levels: dict, denom: int) -> PseudoPoly:
        """{(i, j, level): integer numerator} over denom as an element of
        this algebra over QQ[[hbar]], one series per key, zeros dropped."""
        order = self.ring.order
        rows = {}
        for (i, j, lev), n in levels.items():
            if n:
                rows.setdefault((i, j), [0] * (order + 1))[lev] = n
        return self.zero._like({k: TruncSeries._make(QQ, order, v, denom)
                                for k, v in rows.items()})

    def multiply(self, a: PseudoPoly, b: PseudoPoly) -> PseudoPoly:
        """Product in normal form via the block rewriting rule."""
        return self._accumulate(a, b, False)

    def normalize(self, words) -> PseudoPoly:
        """Free-word oracle: rewrite one adjacent yx at a time.

        Takes (coefficient, word) pairs with words over the alphabet {x, y},
        e.g. [(1, "yx")], and straightens each word by the single relation
        yx -> q xy - 1 applied at the leftmost inversion.  Exponential in the
        number of inversions, which is the point: it shares no code with
        multiply() and serves as its correctness oracle.
        """
        ring = self.ring
        out = {}
        stack = [(ring.coerce(c), w) for c, w in words]
        while stack:
            c, w = stack.pop()
            pos = w.find("yx")
            if pos < 0:
                i = w.count("x")
                j = len(w) - i
                key = (i, j)
                out[key] = out.get(key, ring.zero) + c
                continue
            head, tail = w[:pos], w[pos + 2:]
            stack.append((c * self.q, head + "xy" + tail))
            stack.append((-c, head + tail))
        return self.zero._like({k: c for k, c in out.items() if c})

    def commutator(self, a: PseudoPoly, b: PseudoPoly) -> PseudoPoly:
        """[a, b] = a b - b a, both products summed in one accumulation."""
        return self._accumulate(a, b, True)


def _level_terms(p: PseudoPoly) -> tuple:
    """The series coefficients of p, over QQ, as ((i, j, level), integer)
    pairs for its nonzero levels, with their one denominator, the lcm of
    the coefficients' denom."""
    denom = lcm(*[s.denom for s in p.terms.values()])
    return [((i, j, lev), n * (denom // s.denom)) for (i, j), s in p.terms.items()
            for lev, n in enumerate(s._data) if n], denom


@cache
def context(ring, q) -> QWeyl:
    """The one QWeyl algebra over ring with this q, so that every caller
    shares its elements and its rule table."""
    return QWeyl(ring, q)


def symbolic() -> QWeyl:
    """W_q over QQ(q) with q a symbol."""
    return context(RatFuncRing(QVAR), RatFunc.gen(QVAR))


def classical() -> QWeyl:
    """The ordinary Weyl algebra, q = 1 over QQ."""
    return context(QQ, Fraction(1))


def deformed(order: int) -> QWeyl:
    """W_q at q = 1 + hbar over truncated series of the given order."""
    return context(SeriesRing(QQ, order), one_plus_hbar(order))


# ------------------------------------------------------------------ identities


def pochhammer_xy(n: int):
    """The product (xy + [n-1]) (xy + [n-2]) ... (xy + [1]) (xy) in W_q.

    Returns (element, e) where e is the exponent with element = q^e x^n y^n,
    or (element, None) if the product fails to collapse to a single monomial
    of that shape.  The exponent is read off the computed coefficient, not
    assumed.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    W = symbolic()
    u = W.multiply(W.x, W.y)
    P = u
    for k in range(1, n):
        P = W.multiply(u + W.coerce(W.qint(k)), P)
    if set(P.terms) != {(n, n)}:
        return P, None
    c = P.terms[(n, n)]
    if not c.is_poly():
        return P, None
    v = c.num.valuation()
    if v is None or c.num != UniPoly.gen(QVAR) ** v:
        return P, None
    return P, v


def pochhammer_exponents(n: int) -> dict:
    """The exponents e_m of pochhammer_xy(m) for m = 1..n, and whether each
    is m(m-1)/2."""
    exponents = [pochhammer_xy(m)[1] for m in range(1, n + 1)]
    ok = all(e == m * (m - 1) // 2 for m, e in enumerate(exponents, start=1))
    return {"exponents": exponents, "ok": ok}


def stirling_first(n: int):
    """Triangle F[k][m] = coefficient of (xy)^m in the symbolic expansion
    of the pochhammer product of length k, for 1 <= m <= k <= n.

    The expansion is commutative bookkeeping: the product is a polynomial
    in the single element u = xy with coefficients the elementary symmetric
    functions of the q-integers [1], ..., [k-1].
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    ring = RatFuncRing(QVAR)
    W = symbolic()
    triangle = {}
    # poly[m] = coefficient of u^m, starting from P_1 = u
    poly = {1: ring.one}
    triangle[1] = dict(poly)
    for k in range(2, n + 1):
        c = W.qint(k - 1)
        nxt = {}
        for m, v in poly.items():
            nxt[m + 1] = nxt.get(m + 1, ring.zero) + v
            nxt[m] = nxt.get(m, ring.zero) + c * v
        poly = {m: v for m, v in nxt.items() if not v.is_zero()}
        triangle[k] = dict(poly)
    return triangle


def stirling_second(n: int):
    """Triangle S[m][k] = coefficient of x^k y^k in the normal form of
    (xy)^m, computed by honest multiplication in W_q."""
    if n < 1:
        raise ValueError("n must be at least 1")
    W = symbolic()
    u = W.multiply(W.x, W.y)
    triangle = {}
    p = W.one
    for m in range(1, n + 1):
        p = W.multiply(p, u)
        row = {}
        for (i, j), c in p.terms.items():
            if i != j:
                raise AssertionError("power of xy left the degree-zero part")
            row[i] = c
        triangle[m] = row
    return triangle


def stirling_inverse_check(n: int) -> bool:
    """The two triangles are transition matrices between the bases
    {x^k y^k} and {(xy)^m} of the degree-zero part, once the first-kind
    rows are divided by the pochhammer power q^(k(k-1)/2).

    With F the first-kind and S the second-kind triangle, D the diagonal
    matrix of those powers, N = n(n-1)/2 and D' = q^N D^(-1), this checks
    F S = D and (S D') F = q^N I exactly over QQ[q]: the same two-sided
    statement as (D^(-1) F) S = S (D^(-1) F) = I, with no denominator in
    any entry.  The products run on sparse rows.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    q = RatFunc.gen(QVAR)
    first = stirling_first(n)
    second = stirling_second(n)
    ks = range(1, n + 1)
    top = n * (n - 1) // 2
    exps = {k: k * (k - 1) // 2 for k in ks}
    if sparse_mat_mul([first[k] for k in ks], second) != [{k: q ** exps[k]} for k in ks]:
        return False
    sd = [{k: c * q ** (top - exps[k]) for k, c in second[m].items()} for m in ks]
    return sparse_mat_mul(sd, first) == [{m: q ** top} for m in ks]


def commutator_divisibility(n: int):
    """Divide [x, y^n] and [x^n, y] by the q-integer [n] in QQ[q].

    Returns a report with the two quotients and a flag saying whether every
    coefficient was exactly divisible as a polynomial, which is the reason
    the center of the undeformed algebra collapses at roots of unity.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    W = symbolic()
    yn = W.monomial(0, n)
    xn = W.monomial(n, 0)
    bracket_y = W.commutator(W.x, yn)
    bracket_x = W.commutator(xn, W.y)
    divisor = W.qint(n)
    dnum = divisor.num  # [n] is a polynomial, so divisor.den == 1

    def divide(p: PseudoPoly):
        quot = {}
        for key, c in p.terms.items():
            if not c.is_poly():
                return None
            qpoly, rem = divmod(c.num, dnum)
            if not rem.is_zero():
                return None
            quot[key] = RatFunc.from_poly(qpoly)
        return PseudoPoly(W, quot)

    qy = divide(bracket_y)
    qx = divide(bracket_x)
    return {
        "n": n,
        "bracket_x_yn": bracket_y,
        "bracket_xn_y": bracket_x,
        "divisible": qy is not None and qx is not None,
        "quotient_x_yn": qy,
        "quotient_xn_y": qx,
    }
