"""Explicit isomorphism between the Weyl algebra and its q = 1 + hbar deformation.

Over QQ[[hbar]] the q-Weyl relation q*x*y - y*x = 1 can be untwisted: there
is an element z = y + hbar*eta_1 + hbar^2*eta_2 + ... of W_{1+hbar}[[hbar]]
with x*z - z*x = 1, so sending y to z embeds the ordinary Weyl algebra.  The
eta_r are found order by order: if the relation holds through hbar^(r-1), the
hbar^r failure R is a pseudopolynomial over QQ, and since

    [x, x^i y^(j+1)] = (j+1) x^i y^j        (classical commutator)

every monomial of R is hit by choosing eta_r with terms -c/(j+1) x^i y^(j+1).
The kernel of ad(x) is the polynomial ring in x alone, so requiring eta_r to
have no pure-x part (and no constant) pins the solution down uniquely.

The same series has a closed form: z = y + sum a_r(hbar) x^r y^(r+1) with

    a_r(hbar) = hbar^(r+1) / ((1+hbar)^(r+1) - 1),

a rational function whose denominator vanishes when 1 + hbar is an
(r+1)-st root of unity.  verify_closed_form checks the two descriptions
against each other coefficient by coefficient, and pole_factorization
splits the denominator into shifted cyclotomic factors to exhibit exactly
where those poles sit.

Going the other way, gz_element builds the inverse-direction generator

    y_hbar = -x^{-1} (e^{-hbar*x*y} - 1) / (e^hbar - 1)

inside W_1[[hbar]] and certifies e^hbar * x * y_hbar - y_hbar * x = 1 to the
order the truncation supports.

Finally, recursion_report implements a shortcut recursion for the eta_r
(apply the substitution y^n -> (n/(n+1)) x y^(n+1) - ((n-1)/2) y^n, then
optionally multiply by x on the left) that is sometimes quoted for this
construction, and tabulates precisely where it agrees with the defining
equation and where it does not.  The discrepancies are real and documented;
the solver and the closed form always win.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import (
    HBAR,
    QQ,
    RatFunc,
    SeriesRing,
    TruncSeries,
    UniPoly,
    exp_hbar,
    series_div_valuation,
    series_expand,
)
from .qweyl import PseudoPoly, QWeyl, classical, deformed


class UnsolvableOrder(ArithmeticError):
    """The order-by-order correction failed to cancel a residual.

    Cannot happen for ad(x) on the q-Weyl algebra; raised only if internal
    consistency is lost, never in normal operation.
    """


class LeftDivisionUndefined(ArithmeticError):
    """An element was not a left multiple of x, so x^{-1}(...) has no meaning."""


# ------------------------------------------------------------------ solver


def _hbar_slice(p: PseudoPoly, r: int, target: QWeyl) -> PseudoPoly:
    """The hbar^r layer of a pseudopolynomial with truncated-series scalars."""
    terms = {}
    for key, series in p.terms.items():
        c = series.coefficient(r)
        if c:
            terms[key] = c
    return target.zero._like(terms)


def _at_order(p: PseudoPoly, target: QWeyl, r: int) -> PseudoPoly:
    """Embed a rational-coefficient pseudopolynomial at the hbar^r slot."""
    ring = target.ring
    terms = {}
    for key, c in p.terms.items():
        terms[key] = TruncSeries(ring.base, ring.order, [Fraction(0)] * r + [c])
    return target.zero._like(terms)


def solve_z(order: int, _scramble: bool = False):
    """Solve x*z - z*x = 1 in W_{1+hbar} through hbar^order.

    Returns the list [eta_1, ..., eta_order] of corrections over QQ, in the
    gauge where no eta_r has a pure-x or constant component.  The final
    residual is checked to vanish identically; anything else raises
    UnsolvableOrder.

    The _scramble flag reverses the order in which residual monomials are
    processed.  The result must not depend on it (the correction is linear
    monomial by monomial); the tests re-run with it set to confirm the gauge
    really is a gauge.
    """
    if order < 1:
        raise ValueError("need at least one order of hbar")
    W = deformed(order)
    W1 = classical()
    z = W.y
    etas = []
    for r in range(1, order + 1):
        resid = W.x * z - z * W.x - W.one
        for s in range(r):
            if not _hbar_slice(resid, s, W1).is_zero():
                raise UnsolvableOrder(f"residual reappeared at hbar^{s} < {r}")
        R = _hbar_slice(resid, r, W1)
        items = sorted(R.terms.items())
        if _scramble:
            items.reverse()
        corr = {}
        for (i, j), c in items:
            key = (i, j + 1)
            corr[key] = corr.get(key, Fraction(0)) - c / (j + 1)
        eta = PseudoPoly(W1, corr)
        if W1.commutator(W1.x, eta) != -R:
            raise UnsolvableOrder(f"correction at hbar^{r} does not cancel the residual")
        etas.append(eta)
        z = z + _at_order(eta, W, r)
    final = W.x * z - z * W.x - W.one
    if not final.is_zero():
        raise UnsolvableOrder("truncated residual survives after all corrections")
    return etas


# ------------------------------------------------------- closed form a_r


def _one_plus_h_poly(power: int) -> UniPoly:
    return UniPoly(HBAR, [1, 1]) ** power


def closed_form_a(r: int) -> RatFunc:
    """a_r(hbar) = hbar^(r+1) / ((1+hbar)^(r+1) - 1), reduced; a_0 = 1."""
    if r < 0:
        raise ValueError("negative order")
    num = UniPoly(HBAR, [0] * (r + 1) + [1])
    den = _one_plus_h_poly(r + 1) - 1
    return RatFunc(num, den)


def verify_closed_form(order: int) -> dict:
    """Cross-check the solver against the closed form, both ways.

    Expands z = y + sum a_r x^r y^(r+1) through hbar^order and compares the
    per-order coefficient tables with solve_z output; also verifies the
    recurrence a_s * [s+1]_q = a_{s-1} * (q^s - 1), q = 1 + hbar, as exact
    rational-function identities, and the support claim that eta_r only
    involves x^m y^(m+1) with 1 <= m <= r.
    """
    etas = solve_z(order)
    W1 = etas[0].algebra
    forms = [closed_form_a(r) for r in range(order + 1)]
    expansions = [series_expand(forms[r], order) for r in range(1, order + 1)]
    mismatched = []
    for s in range(1, order + 1):
        terms = {}
        for r in range(1, s + 1):
            c = expansions[r - 1].coefficient(s)
            if c:
                terms[(r, r + 1)] = c
        if PseudoPoly(W1, terms) != etas[s - 1]:
            mismatched.append(s)

    q = RatFunc.from_poly(UniPoly(HBAR, [1, 1]))
    qpow = qint = RatFunc.one(HBAR)  # q^s and [s+1]_q = 1 + q + ... + q^s
    recurrence_failures = []
    for s in range(1, order + 1):
        qpow = qpow * q
        qint = qint + qpow
        lhs = forms[s] * qint
        rhs = forms[s - 1] * (qpow - 1)
        if lhs != rhs:
            recurrence_failures.append(s)

    support_ok = all(
        all(j == i + 1 and 1 <= i <= r for (i, j) in eta.terms)
        for r, eta in enumerate(etas, start=1)
    )
    return {
        "order": order,
        "etas": etas,
        "match": not mismatched,
        "mismatched_orders": mismatched,
        "recurrence_ok": not recurrence_failures,
        "recurrence_failures": recurrence_failures,
        "support_ok": support_ok,
    }


# ------------------------------------------------------------ pole structure


_CYCLO_CACHE: dict = {}


def _divisors(n: int):
    return [d for d in range(1, n + 1) if n % d == 0]


def _cyclotomic(n: int) -> UniPoly:
    """The n-th cyclotomic polynomial (coefficients only; the variable tag
    is borrowed from hbar and immaterial)."""
    if n not in _CYCLO_CACHE:
        p = UniPoly(HBAR, [-1] + [0] * (n - 1) + [1])
        for d in _divisors(n):
            if d < n:
                p, rem = divmod(p, _cyclotomic(d))
                if not rem.is_zero():
                    raise AssertionError(f"cyclotomic division left a remainder at n={n}")
        _CYCLO_CACHE[n] = p
    return _CYCLO_CACHE[n]


def _compose_at_one_plus_h(p: UniPoly) -> UniPoly:
    """p(1 + hbar) by Horner's rule in polynomial arithmetic."""
    s = UniPoly(HBAR, [1, 1])
    acc = UniPoly.const(HBAR, p.coeffs[-1])
    for c in reversed(p.coeffs[:-1]):
        acc = acc * s + c
    return acc


def pole_factorization(r: int) -> dict:
    """Factor the denominator (1+hbar)^(r+1) - 1 of a_r into irreducibles.

    The factors are the cyclotomic polynomials Phi_d evaluated at 1 + hbar,
    one for each divisor d of r+1; each is irreducible over QQ and its roots
    are omega - 1 for omega a primitive d-th root of unity.  The d = 1
    factor is hbar itself: a simple root at 0 that the numerator hbar^(r+1)
    cancels, so a_r is regular at hbar = 0 and the genuine poles of the
    closed form all sit at root-of-unity shifts.
    """
    if r < 1:
        raise ValueError("pole structure starts at r = 1")
    n = r + 1
    factors = []
    product = UniPoly.one(HBAR)
    for d in _divisors(n):
        f = _compose_at_one_plus_h(_cyclotomic(d))
        factors.append({"cyclotomic_index": d, "factor": f})
        product = product * f
    ok = product == _one_plus_h_poly(n) - 1
    if not ok:
        raise AssertionError("cyclotomic factors do not multiply back to the denominator")
    return {
        "r": r,
        "factors": factors,
        "product_ok": ok,
        "zero_root_cancelled": True,
    }


# ------------------------------------------------- the inverse-direction map


def gz_element(order: int) -> dict:
    """Build y_hbar = -x^{-1}(e^{-hbar*x*y} - 1)/(e^hbar - 1) in W_1[[hbar]].

    The numerator sum_{k>=1} (-hbar)^k (xy)^k / k! is put in normal form
    order by order; every monomial must then carry a positive power of x
    (LeftDivisionUndefined otherwise), so dividing by x on the left is just
    an exponent shift.  Dividing by e^hbar - 1 costs one order of precision
    (both sides have hbar-valuation 1), so the defining identity

        e^hbar * x * y_hbar - y_hbar * x = 1

    is certified through hbar^(order-1), with residual exactly zero.
    """
    if order < 1:
        raise ValueError("need at least one order of hbar")
    W1 = classical()
    u = W1.x * W1.y
    coeffs = [W1.zero]
    p = W1.one
    factorial = 1
    for k in range(1, order + 1):
        p = p * u
        factorial *= k
        coeffs.append(p.scale(Fraction((-1) ** k, factorial)))
    numerator = TruncSeries(W1, order, coeffs)

    shifted = []
    for c in numerator.coeffs:
        terms = {}
        for (i, j), v in c.terms.items():
            if i == 0:
                raise LeftDivisionUndefined(f"monomial y^{j} has no x factor to strip")
            terms[(i - 1, j)] = v
        shifted.append(PseudoPoly(W1, terms))
    shifted = TruncSeries(W1, order, shifted)

    quotient = series_div_valuation(shifted, exp_hbar(order) - 1)
    y_h = -quotient

    check_order = y_h.order
    sring = SeriesRing(QQ, check_order)
    Wc = QWeyl(sring, sring.one)
    packed = {}
    for r in range(check_order + 1):
        for key, v in y_h.coefficient(r).terms.items():
            packed.setdefault(key, [Fraction(0)] * (check_order + 1))[r] = v
    y_packed = PseudoPoly(Wc, {k: TruncSeries(QQ, check_order, vec) for k, vec in packed.items()})
    lhs = (Wc.x * y_packed).scale(exp_hbar(check_order)) - y_packed * Wc.x
    identity_ok = lhs == Wc.one

    return {
        "order": order,
        "identity_order": check_order,
        "identity_ok": identity_ok,
        "constant_term_is_y": y_h.coeffs[0] == W1.y,
        "first_order": y_h.coeffs[1] if check_order >= 1 else None,
        "y_h": y_h,
    }


# ------------------------------------------------- the shortcut recursion


HAT_RULE = "y^n -> (n/(n+1)) x y^(n+1) - ((n-1)/2) y^n"

# Coefficient table sometimes quoted for the third correction.  The solver
# and the closed form agree with each other and not with it; the report
# records the disagreement instead of preferring either silently.
ALTERNATE_ETA3 = {
    (3, 4): Fraction(1, 4),
    (2, 3): Fraction(-1, 2),
    (1, 2): Fraction(1, 4),
}


def hat_substitution(p: PseudoPoly) -> PseudoPoly:
    """Apply y^n -> (n/(n+1)) x y^(n+1) - ((n-1)/2) y^n to each monomial."""
    W = p.algebra
    out = {}
    for (i, n), c in p.terms.items():
        up = (i + 1, n + 1)
        out[up] = out.get(up, Fraction(0)) + c * Fraction(n, n + 1)
        out[(i, n)] = out.get((i, n), Fraction(0)) - c * Fraction(n - 1, 2)
    return PseudoPoly(W, out)


def _coefficient_diff(a: PseudoPoly, b: PseudoPoly):
    keys = set(a.terms) | set(b.terms)
    return sorted(k for k in keys if a.terms.get(k) != b.terms.get(k))


def recursion_report(order: int) -> dict:
    """Tabulate the shortcut recursion against the solver, order by order.

    For each r the report records whether eta-hat_r and x * eta-hat_r equal
    the solver's eta_{r+1}, with the disagreeing monomials listed.  Neither
    form of the shortcut is consistent: the x-multiplied version already
    fails at r = 0 (where the bare hat lands exactly on eta_1), and the bare
    hat starts drifting at r = 2.  When order >= 3 the alternate eta_3 table
    is compared as well.
    """
    if order < 2:
        raise ValueError("need at least two orders to compare")
    etas = solve_z(order)
    W1 = etas[0].algebra
    seq = [W1.y] + etas
    rows = []
    for r in range(order):
        hat = hat_substitution(seq[r])
        xhat = W1.x * hat
        target = seq[r + 1]
        rows.append({
            "r": r,
            "hat": hat,
            "x_hat": xhat,
            "target": target,
            "hat_equals_next": hat == target,
            "x_hat_equals_next": xhat == target,
            "hat_disagreements": _coefficient_diff(hat, target),
        })
    report = {
        "order": order,
        "hat_rule": HAT_RULE,
        "rows": rows,
        "hat_rule_holds": all(row["hat_equals_next"] for row in rows),
        "x_hat_rule_holds": all(row["x_hat_equals_next"] for row in rows),
    }
    if order >= 3:
        alt = PseudoPoly(W1, dict(ALTERNATE_ETA3))
        report["alternate_eta3"] = alt
        report["alternate_eta3_matches_solver"] = alt == etas[2]
        report["alternate_eta3_disagreements"] = _coefficient_diff(alt, etas[2])
    report["discrepancies_found"] = (
        not report["hat_rule_holds"]
        or not report["x_hat_rule_holds"]
        or not report.get("alternate_eta3_matches_solver", True)
    )
    return report
