from fractions import Fraction

import pytest

from diagdeform import weyl_iso
from diagdeform.qweyl import QWeyl, deformed
from diagdeform.scalars import HBAR, UniPoly, series_expand
from diagdeform.weyl_iso import (
    ALTERNATE_ETA3,
    closed_form_a,
    gz_element,
    hat_substitution,
    pole_factorization,
    recursion_report,
    solve_z,
    verify_closed_form,
)


def eta_tables(etas):
    return [e.terms for e in etas]


# Frozen corrections: the first two as quoted, the third as the defining
# equation forces it.
ETA1 = {(1, 2): Fraction(1, 2)}
ETA2 = {(2, 3): Fraction(1, 3), (1, 2): Fraction(-1, 4)}
ETA3 = {(3, 4): Fraction(1, 4), (2, 3): Fraction(-1, 3), (1, 2): Fraction(1, 8)}


def test_deformed_products_low_order():
    W = deformed(1)
    yx = W.y * W.x
    assert yx.coefficient(1, 1).coeffs == (Fraction(1), Fraction(1))
    assert yx.coefficient(0, 0).coeffs == (Fraction(-1), Fraction(0))
    W3 = deformed(3)
    assert (W3.x * W3.y).terms == {(1, 1): W3.ring.one}
    u = W.x * W.y
    uu = u * u
    assert uu.coefficient(2, 2).coeffs == (Fraction(1), Fraction(1))
    assert uu.coefficient(1, 1).coeffs == (Fraction(-1), Fraction(0))


def test_solver_frozen_etas():
    etas = solve_z(3)
    assert eta_tables(etas) == [ETA1, ETA2, ETA3]


def test_solver_residual_is_enforced():
    # the solver itself asserts x z - z x = 1 exactly at the truncation
    # order; reaching the return is the check, but make the depth explicit
    etas = solve_z(10)
    assert len(etas) == 10


def test_gauge_no_pure_x_and_no_constant():
    for r, eta in enumerate(solve_z(8), start=1):
        for (i, j) in eta.terms:
            assert j >= 1
        assert (0, 0) not in eta.terms


def test_solver_updates_its_residual_instead_of_recomputing_it(monkeypatch):
    # one commutator for the starting residual, one cancellation check over
    # QQ per order and two products for the final full recomputation:
    # 1 + 12 + 2 products; and per order one update of the integer residual
    # through the level loop, outside any product
    products, updates, inside = [], [], []
    real_accumulate, real_add_levels = QWeyl._accumulate, QWeyl._add_levels

    def counted(self, a, b, minus_ba):
        products.append(minus_ba)
        inside.append(True)
        try:
            return real_accumulate(self, a, b, minus_ba)
        finally:
            inside.pop()

    def counted_levels(self, out, ta, tb, minus_ba):
        if not inside:
            updates.append(minus_ba)
        return real_add_levels(self, out, ta, tb, minus_ba)

    monkeypatch.setattr(QWeyl, "_accumulate", counted)
    monkeypatch.setattr(QWeyl, "_add_levels", counted_levels)
    solve_z(12)
    assert len(products) == 15
    assert updates == [True] * 12


def test_solver_checks_each_order_after_its_correction(monkeypatch):
    # embedding each correction one order too high still cancels the
    # residual over QQ, but leaves slice r of the updated residual standing
    real = weyl_iso._at_order
    monkeypatch.setattr(weyl_iso, "_at_order", lambda p, target, r: real(p, target, r + 1))
    with pytest.raises(weyl_iso.UnsolvableOrder, match=r"hbar\^1 after its correction"):
        solve_z(3)


def test_closed_form_small_orders():
    assert closed_form_a(0) == 1
    a1 = closed_form_a(1)
    assert a1.num == UniPoly(HBAR, [0, 1])
    assert a1.den == UniPoly(HBAR, [2, 1])
    a2 = closed_form_a(2)
    assert a2.num == UniPoly(HBAR, [0, 0, 1])
    assert a2.den == UniPoly(HBAR, [3, 3, 1])


def test_closed_form_expansion_starts_at_order_r():
    for r in range(1, 6):
        s = series_expand(closed_form_a(r), 8)
        assert s.valuation() == r


def test_closed_form_matches_solver_through_order_10():
    rep = verify_closed_form(10)
    assert rep["match"]
    assert rep["mismatched_orders"] == []
    assert rep["support_ok"]


def test_recurrence_holds_exactly():
    rep = verify_closed_form(10)
    assert rep["recurrence_ok"]
    assert rep["recurrence_failures"] == []


def test_pole_factorizations_frozen():
    def coeff_lists(r):
        return [f["factor"].coeffs for f in pole_factorization(r)["factors"]]

    assert coeff_lists(1) == [(0, 1), (2, 1)]
    assert coeff_lists(2) == [(0, 1), (3, 3, 1)]
    assert coeff_lists(3) == [(0, 1), (2, 1), (2, 2, 1)]


def test_pole_factorization_product_checked():
    for r in range(1, 9):
        assert pole_factorization(r)["product_ok"]


def test_gz_element_frozen_low_orders():
    g = gz_element(3)
    assert g["constant_term_is_y"]
    assert g["first_order"].terms == {(1, 2): Fraction(-1, 2)}
    assert g["identity_order"] == 2
    assert g["identity_ok"]


def test_gz_identity_through_order_8():
    g = gz_element(9)
    assert g["identity_order"] == 8
    assert g["identity_ok"]


def test_gz_matches_solver_first_order():
    # the two directions of the isomorphism use opposite sign conventions
    # at order hbar: z gains +(1/2)xy^2 while y_hbar loses it
    etas = solve_z(2)
    g = gz_element(3)
    assert g["first_order"].terms == {k: -c for k, c in etas[0].terms.items()}


def test_hat_substitution_on_y():
    W1 = solve_z(1)[0].algebra
    hat = hat_substitution(W1.y)
    assert hat.terms == {(1, 2): Fraction(1, 2)}


def test_recursion_report_documents_discrepancies():
    rep = recursion_report(solve_z(4))
    assert rep["discrepancies_found"]
    # bare hat matches for one step, then drifts
    by_r = {row["r"]: row for row in rep["rows"]}
    assert by_r[0]["hat_equals_next"]
    assert not by_r[0]["x_hat_equals_next"]
    assert by_r[1]["hat_equals_next"]
    assert not by_r[2]["hat_equals_next"]
    assert by_r[2]["hat_disagreements"] == [(2, 3)]
    assert not rep["x_hat_rule_holds"]


def test_alternate_eta3_rejected_by_solver():
    rep = recursion_report(solve_z(3))
    assert not rep["alternate_eta3_matches_solver"]
    assert rep["alternate_eta3_disagreements"] == [(1, 2), (2, 3)]
    # and the disagreeing slots are exactly where the frozen table differs
    assert ALTERNATE_ETA3[(3, 4)] == ETA3[(3, 4)]
    assert ALTERNATE_ETA3[(2, 3)] != ETA3[(2, 3)]
    assert ALTERNATE_ETA3[(1, 2)] != ETA3[(1, 2)]


def test_order_validation():
    with pytest.raises(ValueError):
        solve_z(0)
    with pytest.raises(ValueError):
        gz_element(0)
    with pytest.raises(ValueError):
        recursion_report(solve_z(1))
    with pytest.raises(ValueError):
        pole_factorization(0)
