"""Buchberger over QQ(lambda) in four fixed variables x > y > z > w.

Everything at stake in the deformation criterion happens in the leading
coefficients, so this implementation never specializes lambda: coefficients
stay exact rational functions, and every leading coefficient the run
divides by is recorded before the division.  Exceptional parameter values
fall out afterwards as the rational roots of those recorded leads together
with the denominators appearing in the reduced basis.

The monomial order is degree reverse lexicographic throughout; the
selection strategy is the normal one (smallest S-pair lcm first) so runs
are deterministic.  The product and chain criteria prune pairs, and every
run re-checks its own answer: all S-polynomials of the final basis must
reduce to zero and the inputs must be members.  A run that fails either
check raises instead of returning.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations

from .scalars import LAMBDA, QQ_LAMBDA, RatFunc, SparsePoly, UniPoly, _coerced_terms, _fr

VARS = ("x", "y", "z", "w")
NVARS = 4


def m_deg(m):
    return sum(m)


def m_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def m_divides(a, b):
    """Does a divide b?"""
    return all(x <= y for x, y in zip(a, b))


def m_div(a, b):
    """a / b, assuming divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def m_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


@cache
def degrevlex_key(m):
    """Sort key: larger key means larger monomial."""
    return (sum(m), tuple(-e for e in reversed(m)))


def monomial_str(m):
    bits = []
    for v, e in zip(VARS, m):
        if e == 1:
            bits.append(v)
        elif e > 1:
            bits.append(f"{v}^{e}")
    return "*".join(bits) or "1"


class MultiPoly(SparsePoly):
    """Sparse polynomial in x, y, z, w over QQ(lambda).

    ``MultiPoly(terms)`` takes a mapping, or (monomial, value) pairs whose
    values for one monomial add up, and each value through the ring's
    coerce.
    """

    __slots__ = ()

    ring = QQ_LAMBDA
    _one_key = (0,) * NVARS

    def __init__(self, terms=()):
        self.terms = _coerced_terms(QQ_LAMBDA, terms)

    @classmethod
    def from_terms(cls, pairs):
        return cls((tuple(m), c) for m, c in pairs)

    @classmethod
    def variable(cls, name, power=1):
        e = [0] * NVARS
        e[VARS.index(name)] = power
        return cls({tuple(e): 1})

    @classmethod
    def const(cls, c):
        return cls({cls._one_key: c})

    def term_mul(self, mono, coeff):
        return self._like({m_mul(m, mono): u for m, c in self.terms.items() if (u := c * coeff)})

    def leading_monomial(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=degrevlex_key)

    def leading_coeff(self):
        return self.terms[self.leading_monomial()]

    def monic(self):
        if self.is_zero():
            return self
        inv = self.leading_coeff().inverse()
        return self.scale(inv)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: degrevlex_key(kv[0]), reverse=True)

    def to_json(self):
        return [[list(m), c.to_json()] for m, c in self.sorted_terms()]

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for m, c in self.sorted_terms():
            if c.is_const() and m != (0, 0, 0, 0):
                v = c.const_value()
                cs = "" if v == 1 else ("-" if v == -1 else f"{v}*")
                bits.append(f"{cs}{monomial_str(m)}")
            elif m == (0, 0, 0, 0):
                bits.append(f"({c})")
            else:
                bits.append(f"({c})*{monomial_str(m)}")
        return " + ".join(bits)


def normal_form(p: MultiPoly, basis, pivot_log=None, leads=None):
    """Fully reduce p modulo the basis; remainder has no reducible term.

    leads, if given, are the leading monomials of the basis elements, in
    order, and the elements are all nonzero; they are then not computed
    again.
    """
    if leads is None:
        lms = [(g.leading_monomial(), g) for g in basis if not g.is_zero()]
    else:
        lms = list(zip(leads, basis))
    work = dict(p.terms)
    out = {}
    while work:
        m = max(work, key=degrevlex_key)
        c = work.pop(m)
        if c.is_zero():
            continue
        hit = None
        for lm, g in lms:
            if m_divides(lm, m):
                hit = (lm, g)
                break
        if hit is None:
            out[m] = c
            continue
        lm, g = hit
        lc = g.terms[lm]
        if pivot_log is not None:
            pivot_log.append(lc)
        factor = c if lc == 1 else c / lc
        u = m_div(m, lm)
        for mg, cg in g.terms.items():
            if mg == lm:
                continue  # its term cancels c m by construction
            t = m_mul(mg, u)
            cur = work.get(t, QQ_LAMBDA.zero) - factor * cg
            if cur.is_zero():
                work.pop(t, None)
            else:
                work[t] = cur
    return p._like(out)


def _over_lead(f: MultiPoly, lead, mono) -> MultiPoly:
    """mono * f over the leading coefficient of f, whose leading monomial is
    lead; a unit lead, as on every monic basis element, scales nothing."""
    lc = f.terms[lead]
    if lc == 1:
        return f._like({m_mul(m, mono): c for m, c in f.terms.items()})
    return f.term_mul(mono, lc.inverse())


def s_polynomial(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    lf, lg = f.leading_monomial(), g.leading_monomial()
    l = m_lcm(lf, lg)
    return _over_lead(f, lf, m_div(l, lf)) - _over_lead(g, lg, m_div(l, lg))


class GroebnerRun:
    """Result bundle: reduced basis plus the leading-coefficient bookkeeping."""

    def __init__(self, basis, pre_monic_leads, pivot_log, spairs_reduced, spairs_skipped):
        self.basis = basis
        self.pre_monic_leads = pre_monic_leads
        self.pivot_log = pivot_log
        self.spairs_reduced = spairs_reduced
        self.spairs_skipped = spairs_skipped


def buchberger(generators) -> GroebnerRun:
    """Reduced Groebner basis with recorded pre-monic leading coefficients.

    Raises AssertionError if the self-check fails: every S-polynomial of
    the returned basis must reduce to zero and every input generator must
    be a member of the ideal it generates.
    """
    gens = [g for g in generators if not g.is_zero()]
    pre_monic = [g.leading_coeff() for g in gens]
    pivot_log = []
    G = [g.monic() for g in gens]
    leads = [g.leading_monomial() for g in G]  # leads[i] is the lead of G[i]
    pairs = set(combinations(range(len(G)), 2))
    treated = set()
    reduced_count = 0
    skipped = 0

    def pair_key(ij):
        i, j = ij
        l = m_lcm(leads[i], leads[j])
        return (m_deg(l), degrevlex_key(l), i, j)

    while pairs:
        ij = min(pairs, key=pair_key)
        pairs.discard(ij)
        treated.add(ij)
        i, j = ij
        li, lj = leads[i], leads[j]
        l = m_lcm(li, lj)
        if l == m_mul(li, lj):  # product criterion
            skipped += 1
            continue
        chain = False
        for k in range(len(G)):
            if k in ij:
                continue
            if m_divides(leads[k], l):
                p1 = (min(i, k), max(i, k))
                p2 = (min(j, k), max(j, k))
                if p1 in treated and p2 in treated:
                    chain = True
                    break
        if chain:
            skipped += 1
            continue
        r = normal_form(s_polynomial(G[i], G[j]), G, pivot_log, leads)
        reduced_count += 1
        if not r.is_zero():
            pre_monic.append(r.leading_coeff())
            G.append(r.monic())
            leads.append(r.leading_monomial())
            n = len(G) - 1
            pairs.update((k, n) for k in range(n))

    # minimal basis: drop anything whose lead is divisible by another lead;
    # inter-reduction below keeps each lead, since no other lead divides it
    minimal, minimal_leads = [], []
    for lm, g in sorted(zip(leads, G), key=lambda lg: degrevlex_key(lg[0])):
        if not any(m_divides(h, lm) for h in minimal_leads):
            minimal.append(g)
            minimal_leads.append(lm)

    # inter-reduce tails to the unique reduced basis in one pass: reducing an
    # element modulo the others changes no lead, so a later element's
    # reduction cannot make an earlier one reducible again (Cox, Little and
    # O'Shea, Ideals, Varieties, and Algorithms, section 2.7, Theorem 5)
    for idx in range(len(minimal)):
        rest = minimal[:idx] + minimal[idx + 1:]
        rest_leads = minimal_leads[:idx] + minimal_leads[idx + 1:]
        minimal[idx] = normal_form(minimal[idx], rest, pivot_log, rest_leads).monic()

    basis = [g for _, g in sorted(zip(minimal_leads, minimal),
                                  key=lambda lg: degrevlex_key(lg[0]), reverse=True)]
    # the self-check reads the leads off the final basis, not the bookkeeping
    basis_leads = [g.leading_monomial() for g in basis]

    for f, g in combinations(basis, 2):
        if not normal_form(s_polynomial(f, g), basis, leads=basis_leads).is_zero():
            raise AssertionError("S-polynomial of final basis does not reduce to zero")
    for g in gens:
        if not normal_form(g, basis, leads=basis_leads).is_zero():
            raise AssertionError("input generator not reduced to zero by final basis")

    return GroebnerRun(basis, pre_monic, pivot_log, reduced_count, skipped)


def standard_monomials(basis, maxdeg: int):
    """Monomials of total degree <= maxdeg outside the initial ideal."""
    leads = [g.leading_monomial() for g in basis]
    out = []

    def rec(prefix, remaining, budget):
        if remaining == 0:
            m = tuple(prefix)
            if not any(m_divides(l, m) for l in leads):
                out.append(m)
            return
        for e in range(budget + 1):
            rec(prefix + [e], remaining - 1, budget - e)

    rec([], NVARS, maxdeg)
    return sorted(out, key=degrevlex_key)


def sphere_ideal():
    """Presentation of k[x, 1/x, 1/(x-1), 1/(x-lambda)] on y = 1/x,
    z = 1/(x-1), w = 1/(x-lambda): each inverse is witnessed by one
    relation."""
    lam = RatFunc.gen(LAMBDA)
    x = MultiPoly.variable("x")
    y = MultiPoly.variable("y")
    z = MultiPoly.variable("z")
    w = MultiPoly.variable("w")
    one = MultiPoly.const(1)
    return [
        x * y - one,
        (x - one) * z - one,
        (x - one.scale(lam)) * w - one,
    ]


def rational_roots(p: UniPoly):
    """All rational roots of a QQ-coefficient polynomial, with the
    root-free cofactor left over."""
    if p.is_zero() or p.degree == 0:
        return [], p
    roots = []
    v = p.valuation()
    if v:
        roots.append(Fraction(0))
        p = p.shift_down(v)
    if p.degree == 0:
        return roots, p
    ints = p.ints  # p up to its common denominator: same roots

    def divisors(n):
        n = abs(n)
        out = set()
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.add(d)
                out.add(n // d)
            d += 1
        return out

    cands = set()
    for num in divisors(ints[0]):
        for den in divisors(ints[-1]):
            cands.add(Fraction(num, den))
            cands.add(Fraction(-num, den))
    for r in sorted(cands):
        while not p.is_zero() and p.degree >= 1 and p.evaluate(r) == 0:
            lin = UniPoly(p.var, [-r, 1])
            p = p // lin
            if r not in roots:
                roots.append(r)
    return sorted(set(roots)), p


def exceptional_values(run: GroebnerRun):
    """Parameter values where the computed basis stops being one.

    Collects every polynomial in lambda whose invertibility the run relied
    on: denominators of the reduced-basis coefficients, plus numerators and
    denominators of all recorded leading coefficients.  Rational roots are
    returned exactly; root-free cofactors of degree >= 1 are reported
    symbolically rather than silently dropped.
    """
    polys = []
    for g in run.basis:
        for c in g.terms.values():
            polys.append(c.den)
    for lead in run.pre_monic_leads + run.pivot_log:
        polys.append(lead.num)
        polys.append(lead.den)
    roots = set()
    symbolic = []
    seen = set()
    for p in polys:
        if p.is_const():
            continue
        if p in seen:
            continue
        seen.add(p)
        rs, cofactor = rational_roots(p)
        roots.update(rs)
        if cofactor.degree >= 1:
            mon = cofactor.monic()
            if all(mon != s for s in symbolic):
                symbolic.append(mon)
    return {"roots": sorted(roots), "symbolic_factors": symbolic}


@cache
def sphere_run() -> GroebnerRun:
    return buchberger(sphere_ideal())


def deformation_witness(lam0):
    """Does specializing lambda -> lam0 keep the computed basis a basis?

    Away from the exceptional set every recorded leading coefficient and
    every denominator stays nonzero at lam0, so the same six leading
    monomials survive the substitution lambda -> lam0 (1 + hbar) and the
    standard monomials are rigid along the deformation.  The verdict is a
    statement about the basis, not an error condition.
    """
    lam0 = _fr(lam0)
    run = sphere_run()
    exc = exceptional_values(run)
    vanishing = []
    for g in run.basis:
        for c in g.terms.values():
            if c.den.evaluate(lam0) == 0:
                vanishing.append(str(c.den))
    for lead in run.pre_monic_leads + run.pivot_log:
        if not lead.num.is_const() and lead.num.evaluate(lam0) == 0:
            vanishing.append(str(lead.num))
        if not lead.den.is_const() and lead.den.evaluate(lam0) == 0:
            vanishing.append(str(lead.den))
    verdict = "EXCEPTIONAL" if lam0 in exc["roots"] or vanishing else "FIXED_BASIS"
    return {
        "lambda0": lam0,
        "verdict": verdict,
        "exceptional_roots": exc["roots"],
        "vanishing": sorted(set(vanishing)),
    }
