"""Reduction of diagram two-cocycles for k[x] -> W_1 <- k[y] to canonical form.

All three algebras in the diagram are rigid on their own, so a two-cocycle
of the diagram is determined (up to the simplicial direction, which dies)
by the pair of values Gamma^f(x) and Gamma^g(y) in W_1.  The gauge freedom
is a triple (alpha, beta, chi): alpha a polynomial in x, beta a polynomial
in y, chi an arbitrary element of W_1 acting through the inner derivation
[chi, -], moving the pair by

    gammaF -> gammaF - (alpha - [chi, x]),
    gammaG -> gammaG - (beta  - [chi, y]).

Since [x^i y^j, x] = -j x^i y^(j-1), the first component can always be
gauged to zero (kill_gamma_f), after which the surviving freedom on the
second component is spanned by the beta monomials y^j and by the chi
monomials that keep gammaF at zero, namely x^i (acting by i x^(i-1)) and
x^i y (acting by i x^(i-1) y, at the cost of a compensating alpha).

Everything downstream is exact linear algebra over QQ on monomial slots:
membership_oracle solves the resulting system outright and returns either
a gauge witness or a dual-vector certificate of non-membership; reduce
projects onto the complement of the gauge span to produce a canonical
representative.  The span depends on the cutoff alone, so both eliminate
it once per cutoff (_gauge_factor) and apply the stored result to each
input, the oracle as integer rows over a row denominator against the
input's integer numerators.  Every witness and certificate is checked again
through the q-Weyl product, not the closed form [chi, x] = -d chi/dy that
_gauge_generators encodes.  The oracle is the ground truth here.  Two reference
descriptions of the surviving classes are in circulation, differing on
whether the pure powers x^i survive; the oracle finds they do not (chi =
x^(i+1)/(i+1) kills them without touching gammaF), and basis_report
records the verdict against both readings rather than assuming either.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from .linalg import rref
from .qweyl import PseudoPoly, classical
from .scalars import _int_form, parse_rational

W1 = classical()


class CutoffTooSmall(ValueError):
    """The working degree bound does not contain the input's support."""


def _max_degree(p: PseudoPoly) -> int:
    return max((i + j for (i, j) in p.terms), default=0)


class W1Cocycle:
    """The value pair (Gamma^f(x), Gamma^g(y)) of a diagram two-cocycle."""

    __slots__ = ("gamma_f", "gamma_g")

    def __init__(self, gamma_f, gamma_g):
        self.gamma_f = gamma_f if isinstance(gamma_f, PseudoPoly) else PseudoPoly(W1, gamma_f)
        self.gamma_g = gamma_g if isinstance(gamma_g, PseudoPoly) else PseudoPoly(W1, gamma_g)

    @classmethod
    def zero(cls) -> "W1Cocycle":
        return cls(W1.zero, W1.zero)

    @classmethod
    def from_json(cls, d) -> "W1Cocycle":
        if not isinstance(d, dict):
            raise ValueError(f"a cocycle is a JSON object, not {type(d).__name__}")
        # A misspelled key would otherwise read as an absent component and
        # turn the input into a smaller cocycle than the caller intended.
        unknown = set(d) - {"gammaF", "gammaG"}
        if unknown:
            raise ValueError(f"unrecognized cocycle keys: {sorted(unknown)}")

        def load(entries):
            terms = {}
            for term in entries:
                # no coercion: "123" or [2.5, 1, c] would read as another term
                if not isinstance(term, (list, tuple)) or len(term) != 3:
                    raise ValueError(f"a term is [i, j, coefficient], not {term!r:.40}")
                i, j, c = term
                if not all(type(e) is int and e >= 0 for e in (i, j)):
                    raise ValueError(f"exponents are integers >= 0, not {i!r:.20}, {j!r:.20}")
                terms[(i, j)] = parse_rational(c)
            return PseudoPoly(W1, terms)

        return cls(load(d.get("gammaF", [])), load(d.get("gammaG", [])))

    def is_zero(self) -> bool:
        return self.gamma_f.is_zero() and self.gamma_g.is_zero()

    def __eq__(self, other):
        if not isinstance(other, W1Cocycle):
            return NotImplemented
        return self.gamma_f == other.gamma_f and self.gamma_g == other.gamma_g

    def to_json(self):
        return {"gammaF": self.gamma_f.to_json(), "gammaG": self.gamma_g.to_json()}

    def __repr__(self):
        return f"W1Cocycle(gammaF={self.gamma_f}, gammaG={self.gamma_g})"


class GaugeDatum:
    """(alpha, beta, chi): alpha in k[x], beta in k[y], chi in W_1."""

    __slots__ = ("alpha", "beta", "chi")

    def __init__(self, alpha, beta, chi):
        self.alpha = alpha if isinstance(alpha, PseudoPoly) else PseudoPoly(W1, alpha)
        self.beta = beta if isinstance(beta, PseudoPoly) else PseudoPoly(W1, beta)
        self.chi = chi if isinstance(chi, PseudoPoly) else PseudoPoly(W1, chi)
        if any(j != 0 for (_, j) in self.alpha.terms):
            raise ValueError("alpha must be a polynomial in x alone")
        if any(i != 0 for (i, _) in self.beta.terms):
            raise ValueError("beta must be a polynomial in y alone")

    @classmethod
    def zero(cls) -> "GaugeDatum":
        return cls(W1.zero, W1.zero, W1.zero)

    def __neg__(self):
        return GaugeDatum(-self.alpha, -self.beta, -self.chi)

    def __add__(self, other):
        # the action on cocycles is linear in the datum, so applying g then h
        # is the same as applying g + h once
        if not isinstance(other, GaugeDatum):
            return NotImplemented
        return GaugeDatum(self.alpha + other.alpha, self.beta + other.beta,
                          self.chi + other.chi)

    def to_json(self):
        return {
            "alpha": self.alpha.to_json(),
            "beta": self.beta.to_json(),
            "chi": self.chi.to_json(),
        }

    def __repr__(self):
        return f"GaugeDatum(alpha={self.alpha}, beta={self.beta}, chi={self.chi})"


def apply_gauge(coc: W1Cocycle, g: GaugeDatum) -> W1Cocycle:
    """Move a cocycle by a gauge datum."""
    new_f = coc.gamma_f - g.alpha + W1.commutator(g.chi, W1.x)
    new_g = coc.gamma_g - g.beta + W1.commutator(g.chi, W1.y)
    return W1Cocycle(new_f, new_g)


def kill_gamma_f(coc: W1Cocycle):
    """Gauge the first component to zero; returns (cocycle, witness).

    chi = sum c_ij/(j+1) x^i y^(j+1) has [chi, x] = -gammaF, so the datum
    (0, 0, chi) does it; the second component picks up [chi, y].
    """
    chi = PseudoPoly(W1, {(i, j + 1): c / (j + 1) for (i, j), c in coc.gamma_f.terms.items()})
    witness = GaugeDatum(W1.zero, W1.zero, chi)
    out = apply_gauge(coc, witness)
    if not out.gamma_f.is_zero():
        raise AssertionError("gammaF did not vanish under the constructed gauge")
    return out, witness


# ------------------------------------------------------------ linear algebra


def _slots(cutoff: int):
    """Monomial slots of total degree <= cutoff, largest first in graded lex."""
    out = [(i, j) for i in range(cutoff + 1) for j in range(cutoff + 1 - i)]
    out.sort(key=lambda m: (m[0] + m[1], m[0]), reverse=True)
    return out


def _gauge_generators(cutoff: int):
    """The gammaG-images of the gauge freedom fixing gammaF = 0.

    Each entry is (label, image dict): the image is beta - [chi, y] for the
    unit choice of the labelled parameter.  beta = y^j contributes y^j;
    chi = x^i contributes -i x^(i-1) with no alpha needed; chi = x^i y
    contributes -i x^(i-1) y and forces alpha = [chi, x] = -x^i, which is
    available, so the generator is admissible.  Only the span matters for
    membership, but the signs matter for witness assembly.
    """
    gens = []
    for j in range(cutoff + 1):
        gens.append((("beta", j), {(0, j): Fraction(1)}))
    for i in range(1, cutoff + 2):
        gens.append((("chi_x", i), {(i - 1, 0): Fraction(-i)}))
    for i in range(1, cutoff + 1):
        gens.append((("chi_xy", i), {(i - 1, 1): Fraction(-i)}))
    return gens


def _check_cutoff(cutoff: int) -> None:
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")


class _GaugeFactor(NamedTuple):
    """Both eliminations of the gauge span at one cutoff.

    gens are the generators (columns of A, rows of the span matrix); pivots
    and transform come from rref([A | I]) with A the slots-by-generators
    matrix, transform being its row transform T as integer rows, each a
    (denominator, {slot: numerator}) pair with the numerators in slot order
    and the denominator the lcm of the row's; span holds the (pivot slot,
    reduced row) pairs that reduce projects with.  Callers read these and
    never hand them out unless copied.
    """

    gens: list
    pivots: list
    transform: list
    span: list


_FACTORS = {}


def _gauge_factor(cutoff: int) -> _GaugeFactor:
    """The gauge span at a cutoff, eliminated on first use and kept.

    rref chooses pivots and row operations from its first ncols columns
    alone, so eliminating [A | b | I] yields T [A | b | I]: T b is the
    right-hand column that elimination would have produced, value for
    value, and the identity block is T itself.
    """
    factor = _FACTORS.get(cutoff)
    if factor is not None:
        return factor
    slots = _slots(cutoff + 1)
    gens = _gauge_generators(cutoff)
    n = len(gens)
    zero, one = Fraction(0), Fraction(1)
    # rows [A | I]: on slot s, the generator coefficients and a unit row, so
    # a zero row of A carries its combination of slots along
    pivots, rows = rref([[img.get(s, zero) for _, img in gens]
                         + [one if k == i else zero for k in range(len(slots))]
                         for i, s in enumerate(slots)], n)
    transform = [(den, {s: v for s, v in zip(slots, nums) if v})
                 for nums, den in (_int_form(row[n:]) for row in rows)]
    span_pivots, span_rows = rref([[img.get(s, zero) for s in slots]
                                   for _, img in gens], len(slots))
    span = [(slots[c], {s: v for s, v in zip(slots, span_rows[r]) if v})
            for r, c in span_pivots]
    factor = _FACTORS[cutoff] = _GaugeFactor(gens, pivots, transform, span)
    return factor


def membership_oracle(p: PseudoPoly, cutoff: int):
    """Decide whether (0, p) is gauge-trivial, with witness or certificate.

    Accepts: returns (True, GaugeDatum g) with apply_gauge((0, p), g) = 0.
    Rejects: returns (False, dual) where dual is a rational functional on
    monomial slots annihilating every gauge generator but not p.  Both are
    verified before returning.  Raises ValueError for a negative cutoff.
    """
    _check_cutoff(cutoff)
    p = W1.coerce(p)
    if _max_degree(p) > cutoff and not p.is_zero():
        raise CutoffTooSmall(f"support exceeds degree {cutoff}")
    factor = _gauge_factor(cutoff)
    gens = factor.gens
    # T b for b = p, as integers: row r of T pairs with p's numerators to
    # tb[r] / (den_r * pd)
    nums, pd = _int_form(p.terms.values())
    pn = dict(zip(p.terms, nums))
    tb = [sum([v * pn[s] for s, v in row.items() if s in pn])
          for _, row in factor.transform]
    bad = next((r for r in range(len(factor.pivots), len(tb)) if tb[r]), None)
    if bad is not None:
        den, row = factor.transform[bad]
        dual = {s: Fraction(v, den) for s, v in row.items()}
        if (not sum(dual[s] * c for s, c in p.terms.items() if s in dual)
                or any(sum(dual[s] * v for s, v in img.items() if s in dual)
                       for _, img in gens)):
            raise AssertionError("non-membership certificate failed to separate")
        return False, dual
    beta = {}
    chi = {}
    alpha = {}
    for r, c in factor.pivots:
        if not tb[r]:
            continue
        coeff = Fraction(tb[r], factor.transform[r][0] * pd)
        kind, idx = gens[c][0]
        if kind == "beta":
            beta[(0, idx)] = coeff
        elif kind == "chi_x":
            chi[(idx, 0)] = coeff
        else:
            # [x^i y, x] = -x^i, so keeping gammaF at zero costs alpha = -coeff x^i
            chi[(idx, 1)] = coeff
            alpha[(idx, 0)] = -coeff
    witness = GaugeDatum(PseudoPoly(W1, alpha), PseudoPoly(W1, beta), PseudoPoly(W1, chi))
    if not apply_gauge(W1Cocycle(W1.zero, p), witness).is_zero():
        raise AssertionError("membership witness failed to kill the cocycle")
    return True, witness


def reduce(coc: W1Cocycle, cutoff: int) -> dict:
    """Canonical representative of a cocycle class at the given cutoff.

    First gauges gammaF to zero, then projects gammaG onto the complement
    of the gauge span (row reduction in graded lex order).  The result is
    zero exactly when the membership oracle accepts; the report carries
    both answers plus the oracle's witness or certificate, and flags the
    pure-x monomials whose vanishing separates the two reference readings
    of the surviving set.  Raises ValueError for a negative cutoff.
    """
    _check_cutoff(cutoff)
    if max(_max_degree(coc.gamma_f), _max_degree(coc.gamma_g)) > cutoff and not (
        coc.gamma_f.is_zero() and coc.gamma_g.is_zero()
    ):
        raise CutoffTooSmall(f"support exceeds degree {cutoff}")
    killed, kill_witness = kill_gamma_f(coc)
    residual = dict(killed.gamma_g.terms)
    for pivot, row in _gauge_factor(cutoff).span:
        c = residual.get(pivot)
        if not c:
            continue
        for k, v in row.items():
            residual[k] = residual.get(k, Fraction(0)) - c * v
        residual = {k: v for k, v in residual.items() if v != 0}
    representative = PseudoPoly(W1, residual)
    accepted, payload = membership_oracle(killed.gamma_g, cutoff)
    full_witness = None
    if accepted:
        full_witness = kill_witness + payload
        if not apply_gauge(coc, full_witness).is_zero():
            raise AssertionError("combined witness failed on the original cocycle")
    x_family = sorted(
        (i, j) for (i, j) in killed.gamma_g.terms if i > 0 and j == 0
    )
    conflict = bool(x_family) and all(m not in representative.terms for m in x_family)
    return {
        "cutoff": cutoff,
        "representative": representative,
        "is_zero": representative.is_zero(),
        "oracle_accepts": accepted,
        "consistent": representative.is_zero() == accepted,
        "kill_witness": kill_witness,
        "witness": payload if accepted else None,
        "full_witness": full_witness,
        "certificate": None if accepted else payload,
        "x_family_monomials": x_family,
        "x_family_conflict": conflict,
    }


# ------------------------------------------------------------ basis survey


def reference_basis_with_x(i: int, j: int) -> bool:
    """The reading that keeps pure powers of x: i > 0 and (j = 0 or j >= 2)."""
    return i > 0 and (j == 0 or j >= 2)


def reference_basis_without_x(i: int, j: int) -> bool:
    """The reading forced by the gauge chi = x^(i+1)/(i+1): i > 0 and j >= 2."""
    return i > 0 and j >= 2


def basis_report(cutoff: int) -> dict:
    """Reduce every monomial of total degree <= cutoff and tabulate survivors.

    Each row records the oracle verdict and its agreement with the two
    reference readings; the conflicts list collects the monomials on which
    the readings differ (the pure x-powers), with the verdict recorded
    rather than resolved by fiat.  Also reports the minimal surviving
    monomial of graded degree -1 (deg x = 1, deg y = -1).
    """
    if cutoff < 3:
        raise ValueError("a meaningful survey needs cutoff >= 3")
    rows = []
    survivors = []
    conflicts = []
    for i in range(cutoff + 1):
        for j in range(cutoff + 1 - i):
            if i == 0 and j == 0:
                continue
            rep = reduce(W1Cocycle(W1.zero, W1.monomial(i, j)), cutoff)
            survives = not rep["is_zero"]
            if survives:
                survivors.append((i, j))
            with_x = reference_basis_with_x(i, j)
            without_x = reference_basis_without_x(i, j)
            rows.append({
                "monomial": (i, j),
                "survives": survives,
                "in_reading_with_x": with_x,
                "in_reading_without_x": without_x,
            })
            if with_x != without_x:
                conflicts.append({"monomial": (i, j), "survives": survives})
    minus_one = sorted(((i, j) for (i, j) in survivors if i - j == -1),
                       key=lambda m: m[0] + m[1])
    return {
        "cutoff": cutoff,
        "rows": rows,
        "survivors": sorted(survivors),
        "matches_reading_without_x": all(
            row["survives"] == row["in_reading_without_x"] for row in rows
        ),
        "matches_reading_with_x": all(
            row["survives"] == row["in_reading_with_x"] for row in rows
        ),
        "conflicts": conflicts,
        "minimal_degree_minus_one_survivor": minus_one[0] if minus_one else None,
    }


# ------------------------------------------------------------ sanity checks


def centralizer_check(maxdeg: int, trials: int = 10, seed: int = 17) -> bool:
    """[chi, x] = 0 exactly for chi in k[x]: exhaustive on monomials plus
    random combinations, up to the given degree."""
    for i in range(maxdeg + 1):
        for j in range(maxdeg + 1 - i):
            bracket = W1.commutator(W1.monomial(i, j), W1.x)
            if (j == 0) != bracket.is_zero():
                return False
    rng = random.Random(seed)
    for _ in range(trials):
        pure = PseudoPoly(W1, {(rng.randint(0, maxdeg), 0): rng.randint(1, 5)
                               for _ in range(3)})
        if not W1.commutator(pure, W1.x).is_zero():
            return False
        mixed = pure + W1.monomial(rng.randint(0, maxdeg - 1), rng.randint(1, maxdeg))
        if W1.commutator(mixed, W1.x).is_zero():
            return False
    return True


def random_cocycle(rng: random.Random, maxdeg: int = 5) -> W1Cocycle:
    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            i = rng.randint(0, maxdeg)
            j = rng.randint(0, maxdeg - i)
            terms[(i, j)] = terms.get((i, j), Fraction(0)) + rng.randint(-3, 3)
        return PseudoPoly(W1, terms)

    return W1Cocycle(rand_poly(), rand_poly())


def random_gauge(rng: random.Random, maxdeg: int = 5) -> GaugeDatum:
    alpha = PseudoPoly(W1, {(rng.randint(0, maxdeg), 0): rng.randint(-3, 3)})
    beta = PseudoPoly(W1, {(0, rng.randint(0, maxdeg)): rng.randint(-3, 3)})
    chi = PseudoPoly(W1, {
        (rng.randint(0, maxdeg // 2), rng.randint(0, maxdeg // 2)): rng.randint(-3, 3)
        for _ in range(2)
    })
    return GaugeDatum(alpha, beta, chi)
