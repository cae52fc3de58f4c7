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

Each of those images is a single monomial, so the gauge span is the
coordinate span of the slots they touch.  reduce reads its canonical
representative off that directly: gammaG with those slots dropped.
membership_oracle does not rely on the shape: it solves the resulting
system outright by exact elimination over QQ and returns either a gauge
witness or a dual-vector certificate of non-membership, so reduce's
consistency flag compares the two readings.  Both depend on the cutoff
alone and are computed once per cutoff (_gauge_factor): the elimination's
row transform T as a linalg.IntRows of its columns, so the oracle's T b
combines the columns on p's support, and A as the IntRows of its rows, so
a certificate's pairing with every generator combines the rows on its own
support.  apply_gauge, kill_gamma_f and membership_oracle wrap one integer
core: their inputs go over one common denominator once, and Fractions are
built only for what they return.  reduce runs the kill and the check of
its combined witness on one integer form of the cocycle, and asks
membership_oracle about the killed gammaG.  Every witness and certificate
is checked again, a witness through the q-Weyl product kernel, not the
closed form [chi, x] = -d chi/dy that _gauge_generators encodes.  The
oracle is the ground truth here.  Two reference descriptions of the
surviving classes are in circulation, differing on whether the pure powers
x^i survive; the oracle finds they do not (chi = x^(i+1)/(i+1) kills them
without touching gammaF), and basis_report records the verdict against both
readings rather than assuming either.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .linalg import IntRows, identity, rref, sparse_row
from .qweyl import PseudoPoly, classical
from .scalars import ContextMismatch, _fractions, _numerators, parse_rational

W1 = classical()


class CutoffTooSmall(ValueError):
    """The working degree bound does not contain the input's support."""


def _max_degree(p: PseudoPoly) -> int:
    return max(map(sum, p.terms), default=0)


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


# ------------------------------------------------------------ integer core

_X, _Y = [((1, 0), 1)], [((0, 1), 1)]


def _integers(*parts):
    """Elements of W1 as (key, numerator) pair lists over one denominator,
    the lcm of all their coefficients' denominators: (lists, denominator).
    Raises ContextMismatch for an element of another context."""
    for p in parts:
        if p.algebra is not W1:
            raise ContextMismatch("a gauge move takes elements of W1 alone")
    nums, den = _numerators([c for p in parts for c in p.terms.values()])
    it = iter(nums)
    # zip reads p.terms first, so it stops before taking a numerator too many
    return [list(zip(p.terms, it)) for p in parts], den


def _move(gamma, shift, chi, gen) -> dict:
    """gamma - shift + [chi, gen] on numerators over one denominator, gen
    being _X or _Y: a {key: integer} dict, cancelled keys kept at zero.
    The commutator is added in by the q-Weyl product kernel."""
    out = dict(gamma)
    for k, n in shift:
        out[k] = out.get(k, 0) - n
    return W1._add_products(out, chi, gen, True, 0)


def _poly(nums, den) -> PseudoPoly:
    """{key: integer numerator} over den as an element of W1."""
    return W1.zero._like(_fractions(nums, den))


def apply_gauge(coc: W1Cocycle, g: GaugeDatum) -> W1Cocycle:
    """Move a cocycle by a gauge datum: gamma - alpha + [chi, x] and
    gamma - beta + [chi, y], each one integer sum over the lcm of all five
    parts, the commutator added in by the q-Weyl product kernel."""
    (gamma_f, alpha, gamma_g, beta, chi), den = _integers(
        coc.gamma_f, g.alpha, coc.gamma_g, g.beta, g.chi)
    return W1Cocycle(_poly(_move(gamma_f, alpha, chi, _X), den),
                     _poly(_move(gamma_g, beta, chi, _Y), den))


def _kill(coc: W1Cocycle):
    """kill_gamma_f on integers: (gammaF, gammaG, chi, killed gammaG, den),
    all over den, which is the cocycle's lcm times that of the j+1, so that
    chi's numerators are integers too; the killed gammaG is a _move dict."""
    (gamma_f, gamma_g), den = _integers(coc.gamma_f, coc.gamma_g)
    scale = lcm(*[j + 1 for (_, j), _ in gamma_f])
    gamma_f = [(k, n * scale) for k, n in gamma_f]
    gamma_g = [(k, n * scale) for k, n in gamma_g]
    chi = [((i, j + 1), n // (j + 1)) for (i, j), n in gamma_f]
    if any(_move(gamma_f, (), chi, _X).values()):
        raise AssertionError("gammaF did not vanish under the constructed gauge")
    return gamma_f, gamma_g, chi, _move(gamma_g, (), chi, _Y), den * scale


def kill_gamma_f(coc: W1Cocycle):
    """Gauge the first component to zero; returns (cocycle, witness).

    chi = sum c_ij/(j+1) x^i y^(j+1) has [chi, x] = -gammaF, so the datum
    (0, 0, chi) does it; the second component picks up [chi, y].
    """
    _, _, chi, killed, den = _kill(coc)
    return (W1Cocycle(W1.zero, _poly(killed, den)),
            GaugeDatum(W1.zero, W1.zero, _poly(dict(chi), den)))


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
    available, so the generator is admissible.  Each image is a single
    monomial with an integer coefficient, which reduce relies on.  Only the
    span matters for membership, but the signs matter for witness assembly.
    """
    return ([(("beta", j), {(0, j): 1}) for j in range(cutoff + 1)]
            + [(("chi_x", i), {(i - 1, 0): -i}) for i in range(1, cutoff + 2)]
            + [(("chi_xy", i), {(i - 1, 1): -i}) for i in range(1, cutoff + 1)])


def _check_cutoff(cutoff: int) -> None:
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")


class _GaugeFactor(NamedTuple):
    """The gauge span at one cutoff, eliminated and read off.

    gens are the generators (columns of A); pivots and transform come from
    rref([A | I]) with A the slots-by-generators matrix, transform being its
    row transform T as the IntRows of its columns; span is A as the IntRows
    of its rows; slots lists the monomial slots in the order of both, and
    columns maps each slot to its index there; touched is the set of slots
    the generators' images occupy, which span the gauge span since each
    image is one monomial.
    Callers read these and never hand them out unless copied.
    """

    gens: list
    pivots: list
    transform: IntRows
    span: IntRows
    slots: list
    columns: dict
    touched: frozenset


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
    # rows [A | I]: on slot s, the generator coefficients and a unit row, so
    # a zero row of A carries its combination of slots along
    A = [[img.get(s, 0) for _, img in gens] for s in slots]
    pivots, rows = rref([row + unit for row, unit in zip(A, identity(len(slots)))], n)
    transform = IntRows.from_rational(list(zip(*rows))[n:])
    span = IntRows([sparse_row(enumerate(row)) for row in A], 1)
    columns = {s: j for j, s in enumerate(slots)}
    touched = frozenset(s for _, img in gens for s in img)
    factor = _FACTORS[cutoff] = _GaugeFactor(gens, pivots, transform, span, slots, columns,
                                             touched)
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
    if _max_degree(p) > cutoff:
        raise CutoffTooSmall(f"support exceeds degree {cutoff}")
    factor = _gauge_factor(cutoff)
    transform, columns = factor.transform, factor.columns
    (b,), den = _integers(p)
    tb = transform.combine([(columns[s], n) for s, n in b])
    # T b is tb / (den * transform.denominator); a certificate is a row of T
    rank = len(factor.pivots)
    bad = min((r for r, v in tb.items() if v and r >= rank), default=None)
    if bad is not None:
        dual = transform.column(bad)  # (slot index, numerator) pairs
        weight = dict(dual)
        # dual.p over p's support, and dual.A for every generator at once
        if (not sum(weight.get(columns[s], 0) * n for s, n in b)
                or any(factor.span.combine(dual).values())):
            raise AssertionError("non-membership certificate failed to separate")
        return False, {factor.slots[j]: Fraction(v, transform.denominator) for j, v in dual}
    alpha, beta, chi = {}, {}, {}
    # every nonzero of T b is on a pivot row, and rref's pivot rows are
    # 0, 1, ..., rank - 1 in order
    for r in sorted(r for r, n in tb.items() if n):
        n = tb[r]
        kind, idx = factor.gens[factor.pivots[r][1]][0]
        if kind == "beta":
            beta[(0, idx)] = n
        elif kind == "chi_x":
            chi[(idx, 0)] = n
        else:
            # [x^i y, x] = -x^i, so keeping gammaF at zero costs alpha = -n x^i
            chi[(idx, 1)] = n
            alpha[(idx, 0)] = -n
    scale = transform.denominator
    if (any(_move((), alpha.items(), chi.items(), _X).values())
            or any(_move([(s, n * scale) for s, n in b], beta.items(), chi.items(), _Y).values())):
        raise AssertionError("membership witness failed to kill the cocycle")
    den *= scale
    return True, GaugeDatum(_poly(alpha, den), _poly(beta, den), _poly(chi, den))


def reduce(coc: W1Cocycle, cutoff: int) -> dict:
    """Canonical representative of a cocycle class at the given cutoff.

    First gauges gammaF to zero, then projects gammaG onto the complement
    of the gauge span, which drops the slots the span's monomials occupy.
    The result is zero exactly when the membership oracle accepts; the
    report carries both answers (their agreement is the consistent flag)
    plus the oracle's witness or certificate, and flags the
    pure-x monomials whose vanishing separates the two reference readings
    of the surviving set.  The kill and the check that the combined
    witness kills the cocycle run on one integer form of the cocycle;
    Fractions are built for the report and the oracle's input alone.
    Raises ValueError for a negative cutoff.
    """
    _check_cutoff(cutoff)
    if max(_max_degree(coc.gamma_f), _max_degree(coc.gamma_g)) > cutoff:
        raise CutoffTooSmall(f"support exceeds degree {cutoff}")
    gamma_f, gamma_g, kill, killed, den = _kill(coc)
    kill_witness = GaugeDatum(W1.zero, W1.zero, _poly(dict(kill), den))
    killed = _poly(killed, den)
    factor = _gauge_factor(cutoff)
    representative = killed._like(
        {k: v for k, v in killed.terms.items() if k not in factor.touched})
    accepted, payload = membership_oracle(killed, cutoff)
    full_witness = None
    if accepted:
        # the witness's denominators divide den times the transform's
        scale = factor.transform.denominator
        den *= scale
        alpha, beta, chi = [[(k, c.numerator * (den // c.denominator))
                             for k, c in part.terms.items()]
                            for part in (payload.alpha, payload.beta, payload.chi)]
        full = {k: n * scale for k, n in kill}
        for k, n in chi:
            full[k] = full.get(k, 0) + n
        if (any(_move([(k, n * scale) for k, n in gamma_f], alpha, full.items(), _X).values())
                or any(_move([(k, n * scale) for k, n in gamma_g], beta, full.items(),
                             _Y).values())):
            raise AssertionError("combined witness failed on the original cocycle")
        # the kill moves chi alone, so the combined alpha and beta are the oracle's
        full_witness = GaugeDatum(payload.alpha, payload.beta, _poly(full, den))
    x_family = sorted(
        (i, j) for (i, j) in killed.terms if i > 0 and j == 0
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
