import hashlib
import json
import random
from fractions import Fraction

import pytest

from diagdeform.scalars import TruncSeries
from diagdeform.star import (
    P2,
    Derivation,
    NonCommutingDerivations,
    Poly2,
    StarSpec,
    _levels,
    _polys,
    _random_poly,
    _same_levels,
    _star_kernel,
    _trial_rng,
    associativity_check,
    embed,
    grading_check,
    qplane_relation_check,
    star,
    star_commutator,
    star_series,
)

X = Poly2.x()
Y = Poly2.y()


def test_poly2_arithmetic():
    p = (X + Y) * (X - Y)
    assert p == X * X - Y * Y
    assert (X * Y).dx() == Y
    assert (X * Y * Y).dy() == Poly2.monomial(1, 1, 2)
    assert Poly2.const(Fraction(3, 2)).scale(2) == 3


def test_poly2_arithmetic_drops_zero_terms():
    p = X * X + Y
    assert (p + (-X * X)).terms == {(0, 1): 1}
    assert (p - p).terms == {}
    assert ((X + Y) * (X - Y)).terms == {(2, 0): 1, (0, 2): -1}
    assert p.scale(0).terms == {}
    assert Y.dx().terms == {} and X.dy().terms == {}


def test_poly2_rejects_float_coefficients():
    # Fraction(0.1) would silently store the binary float, not 1/10
    with pytest.raises(TypeError):
        Poly2({(0, 0): 0.1})


def test_derivation_leibniz():
    rng = random.Random(41)
    d = Derivation(Poly2.x(), Poly2.monomial(0, 2))
    for _ in range(10):
        a = Poly2({(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-4, 4)})
        b = Poly2({(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-4, 4)})
        assert d(a * b) == d(a) * b + a * d(b)


def test_star_normal_frozen():
    s, exact = star(X, Y, StarSpec.normal(), 1)
    assert exact
    assert s.coeffs[0] == X * Y
    assert s.coeffs[1] == Poly2.const(1)

    s, exact = star(X * X, Y * Y, StarSpec.normal(), 2)
    assert exact
    assert s.coeffs[0] == Poly2.monomial(2, 2)
    assert s.coeffs[1] == Poly2.monomial(1, 1, 4)
    assert s.coeffs[2] == Poly2.const(2)


def test_star_qplane_frozen_and_inexact():
    s, exact = star(X, Y, StarSpec.qplane(), 3)
    assert not exact
    xy = X * Y
    assert s.coeffs == (xy, xy, xy.scale(Fraction(1, 2)), xy.scale(Fraction(1, 6)))


def test_star_zeroth_coefficient_is_commutative_product():
    rng = random.Random(7)
    for spec in (StarSpec.normal(), StarSpec.moyal(), StarSpec.qplane()):
        for _ in range(5):
            a = Poly2({(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)})
            b = Poly2({(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)})
            s, _ = star(a, b, spec, 4)
            assert s.coeffs[0] == a * b


def test_exact_flag_sees_cancelled_tensor():
    # each Moyal branch of D^3(a (x) b) is nonzero, but all of them land on
    # the constant monomial pair and cancel there, so D^3(a (x) b) = 0
    rng = random.Random(289)
    a, b = _random_poly(rng), _random_poly(rng)
    spec = StarSpec.moyal()
    full, exact = star(a, b, spec, 8)
    assert exact
    assert not full.coeffs[2].is_zero()
    assert all(c.is_zero() for c in full.coeffs[3:])
    cut, exact = star(a, b, spec, 2)
    assert exact
    assert cut.coeffs == full.coeffs[:3]


def test_unit_law_exact():
    one = Poly2.const(1)
    p = X * X * Y + X - Poly2.const(2)
    for spec in (StarSpec.normal(), StarSpec.moyal(), StarSpec.qplane()):
        s, exact = star(one, p, spec, 5)
        assert exact and s.coeffs[0] == p and all(c.is_zero() for c in s.coeffs[1:])
        s, exact = star(p, one, spec, 5)
        assert exact and s.coeffs[0] == p and all(c.is_zero() for c in s.coeffs[1:])


def test_commutator_is_hbar():
    for spec in (StarSpec.normal(), StarSpec.moyal()):
        c = star_commutator(X, Y, spec, 2)
        assert c.coeffs[0].is_zero()
        assert c.coeffs[1] == Poly2.const(1)
        assert c.coeffs[2].is_zero()
    assert star_commutator(X, X, StarSpec.moyal(), 4).is_zero()


def test_moyal_first_order_is_poisson_bracket():
    rng = random.Random(19)
    spec = StarSpec.moyal()
    for _ in range(10):
        a = Poly2({(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-3, 3)
                   for _ in range(3)})
        b = Poly2({(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-3, 3)
                   for _ in range(3)})
        c = star_commutator(a, b, spec, 1)
        assert c.coeffs[1] == a.dx() * b.dy() - a.dy() * b.dx()


def test_associativity_exact_specs():
    assert associativity_check(StarSpec.normal(), 6, 50, 101)["ok"]
    assert associativity_check(StarSpec.moyal(), 6, 50, 102)["ok"]


def test_associativity_qplane():
    assert associativity_check(StarSpec.qplane(), 5, 25, 103)["ok"]


def test_star_series_bilinearity_matches_direct():
    spec = StarSpec.normal()
    a, b = X * X, Y
    direct, _ = star(a, b, spec, 4)
    via_series = star_series(embed(a, 4), embed(b, 4), spec, 4)
    assert direct == via_series


def test_grading_preserved():
    assert grading_check(StarSpec.normal(), 25, 31)["ok"]
    assert grading_check(StarSpec.moyal(), 25, 32)["ok"]
    assert grading_check(StarSpec.qplane(), 25, 33)["ok"]


def test_grading_frozen_examples():
    s, _ = star(X * X, Y, StarSpec.moyal(), 3)
    for coeff in s.coeffs:
        assert coeff.is_zero() or coeff.degrees() == {1}
    u = X * Y
    s, _ = star(u, u, StarSpec.normal(), 3)
    for coeff in s.coeffs:
        assert coeff.is_zero() or coeff.degrees() == {0}


def test_qplane_relation():
    rep = qplane_relation_check(6)
    assert rep["ok"]


def test_custom_spec_commutation_gate():
    # dx and x*dx do not commute
    with pytest.raises(NonCommutingDerivations):
        StarSpec.custom([(Derivation(1, 0), Derivation(Poly2.x(), 0))])
    # but a rescaled normal pair is fine, and still associative
    spec = StarSpec.custom([(Derivation(Fraction(1, 3), 0), Derivation(0, 2))])
    assert associativity_check(spec, 4, 10, 201)["ok"]


def test_seed_split_reproducible():
    a = associativity_check(StarSpec.normal(), 3, 5, 77)
    b = associativity_check(StarSpec.normal(), 3, 5, 77)
    assert a == b


def _digest_spec():
    # constant-coefficient derivations commute, so these pairs are legal;
    # the denominators 3 and 7 give the compiled operator a nontrivial _den
    return StarSpec.custom([
        (Derivation(Fraction(1, 3), 0), Derivation(0, Fraction(2, 7))),
        (Derivation(0, Fraction(-5, 7)), Derivation(Fraction(4, 3), 0)),
    ])


def _digest_poly(rng):
    terms = {}
    for i in range(4):
        for j in range(4 - i):
            if rng.random() < 0.4:
                terms[(i, j)] = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3, 5]))
    return Poly2(terms)


def _digest_series(rng, order):
    return TruncSeries(P2, order, [
        _digest_poly(rng) if rng.random() < 0.6 else Poly2.zero()
        for _ in range(rng.randint(1, order + 1))])


# SHA-256 of seeded star results (coefficients and exact flags) and
# star_series results with equal input orders, recorded before star_series
# moved onto the level-keyed integer tensor; any changed byte shows here.
STAR_KERNEL_DIGEST = "aa8b726b04a5eda36930afe437a3d86e725a01219b2729c9897c337e769ab78e"


def test_star_and_star_series_outputs_are_pinned():
    specs = [StarSpec.normal(), StarSpec.moyal(), StarSpec.qplane(), _digest_spec()]
    rng = random.Random("star-kernel-digest")
    records = []
    for spec in specs:
        for order in range(8):
            for _ in range(50):
                series, exact = star(_digest_poly(rng), _digest_poly(rng), spec, order)
                records.append([series.to_json(), exact])
            for _ in range(25):
                A, B = _digest_series(rng, order), _digest_series(rng, order)
                records.append(star_series(A, B, spec, order).to_json())
    blob = json.dumps(records, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == STAR_KERNEL_DIGEST


def test_star_series_truncates_to_the_smaller_input_order():
    # A is known only mod hbar^2, so its hbar^2 coefficient against y is not
    normal = StarSpec.normal()
    got = star_series(TruncSeries(P2, 1, [X, X]), embed(Y, 6), normal, 6)
    assert got.order == 1
    assert got == TruncSeries(P2, 1, [X * Y, X * Y + Poly2.const(1)])
    assert star_series(embed(Y, 6), TruncSeries(P2, 2, [X]), normal, 6).order == 2
    assert star_series(embed(X, 6), embed(Y, 6), normal, 3).order == 3


def test_associativity_check_reports_a_non_associative_spec():
    # y dx (x) dy: y dx does not commute with dy, so the exponential is
    # not associative; the constructor is called directly to skip the gate
    spec = StarSpec("noncommuting", [(Derivation(Y, 0), Derivation(0, 1))])
    rep = associativity_check(spec, 3, 5, 11)
    assert rep["failures"] == [0, 1, 2, 3, 4] and not rep["ok"]


def test_constructor_rejects_noncommuting_phis_or_psis_across_pairs():
    # [y dx, dy] = -dx: with jets the spec would give another hbar^2
    # coefficient of star(x^2 y, x y^2 + x) than the operator expansion
    with pytest.raises(NonCommutingDerivations):
        StarSpec("bad", [(Derivation(Y, 0), Derivation(0, 1)),
                         (Derivation(0, 1), Derivation(X, 0))])
    with pytest.raises(NonCommutingDerivations):
        StarSpec("bad", [(Derivation(1, 0), Derivation(Y, 0)),
                         (Derivation(0, 1), Derivation(0, 1))])
    # phi_1 = y dx fails to commute with psi_2 = dy, which custom rejects,
    # but the phis commute and so do the psis, so the constructor accepts it
    pairs = [(Derivation(Y, 0), Derivation(1, 0)), (Derivation(1, 0), Derivation(0, 1))]
    with pytest.raises(NonCommutingDerivations):
        StarSpec.custom(pairs)
    assert StarSpec("cross", pairs).kind == "cross"


def test_associativity_check_rejects_a_negative_order():
    with pytest.raises(ValueError, match="negative truncation order"):
        associativity_check(StarSpec.normal(), -1, 1, 0)


def test_same_levels_compares_values_across_denominators():
    half = [({(0, 0): 1, (1, 0): -3}, 2)]
    assert _same_levels(half, [({(0, 0): 2, (1, 0): -6}, 4)])
    assert not _same_levels(half, [({(0, 0): 1, (1, 0): -3}, 4)])
    assert not _same_levels(half, [({(0, 0): 1}, 2)])


def _noncommuting_spec():
    return StarSpec("noncommuting", [(Derivation(Y, 0), Derivation(0, 1))])


@pytest.mark.parametrize("make", [StarSpec.normal, StarSpec.moyal, StarSpec.qplane,
                                  _digest_spec, _noncommuting_spec])
def test_integer_verdict_matches_the_fraction_comparison(make):
    spec = make()
    order, trials = 4, 4
    for seed in (3, 17, 2024):
        want = []
        for t in range(trials):
            rng = _trial_rng(seed, t)
            a, b, c = (_random_poly(rng) for _ in range(3))
            left = star_series(star(a, b, spec, order)[0], embed(c, order), spec, order)
            right = star_series(embed(a, order), star(b, c, spec, order)[0], spec, order)
            if left != right:
                want.append(t)
            # the chained integer levels hold the values of the Fraction series
            ab, _ = _star_kernel(_levels([a]), _levels([b]), spec, order)
            chained, _ = _star_kernel(ab, _levels([c]), spec, order)
            assert tuple(_polys(chained)) == left.coeffs
        assert associativity_check(spec, order, trials, seed)["failures"] == want


# Derivation actions (_derive calls) over one criterion_star_products(1729):
# one per jet of each input level, one derivation step from its parent.
STAR_PRODUCTS_DERIVE_CALLS = 11797


def test_star_products_criterion_work_is_pinned(monkeypatch):
    from diagdeform import star as star_module
    from diagdeform.acceptance import criterion_star_products

    calls = {"derive": 0, "add_in_series": 0}
    inside = []
    derive, add, series = star_module._derive, Poly2.__add__, star_module.star_series

    def counted_derive(action, nums):
        calls["derive"] += 1
        return derive(action, nums)

    def counted_add(self, other):
        calls["add_in_series"] += bool(inside)
        return add(self, other)

    def marked_series(*args):
        inside.append(True)
        try:
            return series(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(star_module, "_derive", counted_derive)
    monkeypatch.setattr(Poly2, "__add__", counted_add)
    monkeypatch.setattr(Poly2, "__radd__", counted_add)
    monkeypatch.setattr(star_module, "star_series", marked_series)
    assert criterion_star_products(1729)["ok"]
    assert calls == {"derive": STAR_PRODUCTS_DERIVE_CALLS, "add_in_series": 0}
