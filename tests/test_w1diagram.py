import random
from collections import Counter
from fractions import Fraction

import pytest

from diagdeform import w1diagram
from diagdeform.cli import _encode
from diagdeform.linalg import identity, mat_vec, rref, sparse_row
from diagdeform.qweyl import PseudoPoly, QWeyl
from diagdeform.scalars import QQ, ContextMismatch, _numerators
from diagdeform.w1diagram import (
    W1,
    CutoffTooSmall,
    GaugeDatum,
    W1Cocycle,
    apply_gauge,
    basis_report,
    kill_gamma_f,
    membership_oracle,
    random_cocycle,
    random_gauge,
    reduce,
    _gauge_generators,
)

F = Fraction


def test_apply_gauge_zero_datum_is_identity():
    coc = W1Cocycle({(1, 2): F(1)}, {(0, 3): F(2)})
    out = apply_gauge(coc, GaugeDatum.zero())
    assert out == coc


def test_apply_gauge_inner_derivation_sign():
    # chi = (1/3) x y^3 has [chi, x] = -x y^2, so it cancels gammaF = x y^2.
    coc = W1Cocycle({(1, 2): F(1)}, {})
    good = GaugeDatum({}, {}, {(1, 3): F(1, 3)})
    assert apply_gauge(coc, good).gamma_f.is_zero()
    # The opposite sign doubles it instead.
    bad = GaugeDatum({}, {}, {(1, 3): F(-1, 3)})
    assert apply_gauge(coc, bad).gamma_f.terms == {(1, 2): F(2)}


def test_apply_gauge_pure_x_chi_only_moves_gamma_g():
    coc = W1Cocycle({(2, 1): F(1)}, {(0, 2): F(1)})
    g = GaugeDatum({}, {}, {(2, 0): F(1, 2)})
    out = apply_gauge(coc, g)
    assert out.gamma_f == coc.gamma_f
    # gammaG gains [x^2/2, y] = x
    assert out.gamma_g.terms == {(0, 2): F(1), (1, 0): F(1)}


def test_kill_gamma_f_pure_x_power():
    coc = W1Cocycle({(5, 0): F(1)}, {})
    out, witness = kill_gamma_f(coc)
    assert out.gamma_f.is_zero()
    assert out.gamma_g.terms == {(4, 1): F(5)}
    assert witness.chi.terms == {(5, 1): F(1)}
    assert witness.alpha.is_zero() and witness.beta.is_zero()


def test_kill_gamma_f_random_roundtrip():
    rng = random.Random(4021)
    for _ in range(20):
        coc = random_cocycle(rng)
        out, witness = kill_gamma_f(coc)
        assert out.gamma_f.is_zero()
        assert apply_gauge(coc, witness) == out


def test_kill_rechecks_gamma_f_through_the_product_kernel(monkeypatch):
    # With the block rule y^2 x = x y^2 - 2 y corrupted to x y^2, the chi =
    # x y^2 / 2 built for gammaF = x y commutes with x and kills nothing.
    monkeypatch.setitem(W1._shift_cache, (2, 1), {(1, 2): 1})
    with pytest.raises(AssertionError, match="did not vanish"):
        kill_gamma_f(W1Cocycle({(1, 1): F(1)}, {}))


def test_membership_pure_y_power():
    ok, witness = membership_oracle(W1.monomial(0, 5), 6)
    assert ok
    assert witness.beta.terms == {(0, 5): F(1)}
    assert witness.chi.is_zero()


def test_membership_x3y():
    ok, witness = membership_oracle(W1.monomial(3, 1), 6)
    assert ok
    # the only generator hitting x^3 y is the chi = x^4 y family:
    # [-(1/4) x^4 y, y] = -x^3 y cancels p, at the cost of alpha = (1/4) x^4
    assert witness.chi.terms == {(4, 1): F(-1, 4)}
    assert witness.alpha.terms == {(4, 0): F(1, 4)}
    assert apply_gauge(W1Cocycle(W1.zero, W1.monomial(3, 1)), witness).is_zero()


def test_membership_xy2_rejected_with_certificate():
    p = W1.monomial(1, 2)
    ok, dual = membership_oracle(p, 6)
    assert not ok
    # the dual functional annihilates every gauge generator ...
    for _, img in _gauge_generators(6):
        assert sum(dual.get(s, F(0)) * c for s, c in img.items()) == 0
    # ... but pairs nontrivially with p itself
    assert sum(dual.get(s, F(0)) * c for s, c in p.terms.items()) != 0


def test_membership_rejects_a_corrupted_certificate(monkeypatch):
    # Blank the transform block the eliminator hands back: the dual read off
    # it no longer separates p from the gauge span and must not be returned.
    real_rref = w1diagram.rref

    def corrupted(rows, ncols):
        pivots, out = real_rref(rows, ncols)
        return pivots, [row[:ncols + 1] + [F(1)] * (len(row) - ncols - 1) for row in out]

    monkeypatch.setattr(w1diagram, "rref", corrupted)
    # an earlier test may have factored cutoff 6 already; start from none so
    # the corrupted eliminator is the one that runs
    monkeypatch.setattr(w1diagram, "_FACTORS", {})
    with pytest.raises(AssertionError):
        membership_oracle(W1.monomial(1, 2), 6)


@pytest.mark.parametrize("p,rows", [
    # certificate path: every transform row below the rank becomes all ones
    ((1, 2), "below_rank"),
    # witness path: every pivot row of the transform is doubled
    ((3, 1), "pivot"),
])
def test_membership_rechecks_a_corrupted_cached_factor(p, rows, monkeypatch):
    monkeypatch.setattr(w1diagram, "_FACTORS", {})
    factor = w1diagram._gauge_factor(6)
    rank = len(factor.pivots)
    # the transform is IntRows of the columns of T: transform.rows[j] holds
    # column j as (rows of T, coefs) over one denominator
    T = factor.transform.rows
    if rows == "below_rank":
        below = tuple(range(rank, len(factor.columns)))
        T[:] = [(tuple(r for r in rs if r < rank) + below,
                 tuple(v for r, v in zip(rs, vs) if r < rank) + (1,) * len(below))
                for rs, vs in T]
    else:
        T[:] = [(rs, tuple(2 * v if r < rank else v for r, v in zip(rs, vs))) for rs, vs in T]
    with pytest.raises(AssertionError):
        membership_oracle(W1.monomial(*p), 6)


def test_membership_reads_each_transform_row_over_its_denominator(monkeypatch):
    # the same transform written over three times its denominator gives the
    # same witnesses and the same certificates, value for value
    monkeypatch.setattr(w1diagram, "_FACTORS", {})
    targets = [W1.monomial(i, j, F(2, 3)) for i in range(5) for j in range(3)]
    want = [membership_oracle(p, 6) for p in targets]
    transform = w1diagram._gauge_factor(6).transform
    transform.rows[:] = [(cols, tuple(3 * v for v in coefs)) for cols, coefs in transform.rows]
    transform.denominator *= 3
    for p, (ok, payload) in zip(targets, want):
        got_ok, got = membership_oracle(p, 6)
        assert got_ok == ok
        if ok:
            assert got.to_json() == payload.to_json()
        else:
            assert list(got.items()) == list(payload.items())


def test_membership_rechecks_the_certificate_against_every_generator(monkeypatch):
    # Give the certificate row of T one more entry, -1 on the slot x^2. That
    # slot lies outside p's support, so dual.p stays nonzero, and the only
    # generator it meets is chi = x^3, image -3 x^2: the corrupted dual pairs
    # with it to 3, which dual.A alone can see (-1 // -3 would read 0).
    monkeypatch.setattr(w1diagram, "_FACTORS", {})
    factor = w1diagram._gauge_factor(6)
    rank = len(factor.pivots)
    T = factor.transform.rows
    rows, coefs = T[factor.columns[(1, 2)]]
    (bad,) = [r for r in rows if r >= rank]
    assert coefs[rows.index(bad)]
    x2 = factor.columns[(2, 0)]
    assert factor.span.rows[x2][1] == (-3,)  # one generator meets x^2
    T[x2] = sparse_row(list(zip(*T[x2])) + [(bad, -1)])
    with pytest.raises(AssertionError, match="separate"):
        membership_oracle(W1.monomial(1, 2), 6)


def test_sparse_transform_product_matches_the_dense_fraction_product():
    # T b from the columns of T on p's support equals the dense Fraction
    # product of T, read off one fresh elimination of [A | I], with b; a
    # certificate is the first row of that T below the rank not killing b
    rng = random.Random(1066)
    for cutoff in range(13):
        slots = w1diagram._slots(cutoff + 1)
        gens = _gauge_generators(cutoff)
        n = len(gens)
        pivots, rows = rref([[F(img.get(s, 0)) for _, img in gens] + unit
                             for s, unit in zip(slots, identity(len(slots)))], n)
        T = [row[n:] for row in rows]
        factor = w1diagram._gauge_factor(cutoff)
        transform = factor.transform
        support = [(i, j) for i in range(cutoff + 1) for j in range(cutoff + 1 - i)]
        for _ in range(12):
            p = PseudoPoly(W1, {s: F(rng.randint(-9, 9), rng.randint(1, 6))
                                for s in rng.sample(support, min(len(support), 4))})
            nums, den = _numerators(p.terms.values())
            tb = transform.combine([(factor.columns[s], v) for s, v in zip(p.terms, nums)])
            dense = mat_vec(T, [p.terms.get(s, F(0)) for s in slots])
            assert [F(tb.get(r, 0), den * transform.denominator)
                    for r in range(len(slots))] == dense
            bad = next((r for r in range(len(pivots), len(slots)) if dense[r]), None)
            ok, payload = membership_oracle(p, cutoff)
            assert ok == (bad is None)
            if not ok:
                assert list(payload.items()) == [(s, v) for s, v in zip(slots, T[bad]) if v]


def test_apply_gauge_refuses_another_context():
    other = QWeyl(QQ, F(2, 3))
    with pytest.raises(ContextMismatch):
        apply_gauge(W1Cocycle(other.x, W1.zero), GaugeDatum.zero())
    with pytest.raises(ContextMismatch):
        apply_gauge(W1Cocycle.zero(), GaugeDatum(W1.zero, W1.zero, other.y))


def _oracle_by_direct_elimination(p, cutoff):
    """membership_oracle's answer from one elimination of [A | b | I]."""
    slots = w1diagram._slots(cutoff + 1)
    gens = _gauge_generators(cutoff)
    n = len(gens)
    rows = [[img.get(s, F(0)) for _, img in gens] + [p.terms.get(s, F(0))]
            + [F(int(k == i)) for k in range(len(slots))]
            for i, s in enumerate(slots)]
    pivots, rows = w1diagram.rref(rows, n)
    bad = next((row for row in rows[len(pivots):] if row[n]), None)
    if bad is not None:
        return False, {s: v for s, v in zip(slots, bad[n + 1:]) if v}
    alpha, beta, chi = {}, {}, {}
    for r, c in pivots:
        (kind, i), coeff = gens[c][0], rows[r][n]
        if kind == "beta":
            beta[(0, i)] = coeff
        elif kind == "chi_x":
            chi[(i, 0)] = coeff
        else:
            chi[(i, 1)] = coeff
            alpha[(i, 0)] = -coeff
    return True, GaugeDatum(alpha, beta, chi)


def test_membership_oracle_matches_direct_elimination():
    rng = random.Random(2718)
    for cutoff in range(13):
        for _ in range(8):
            coc = random_cocycle(rng, maxdeg=min(cutoff, 6))
            for p in (coc.gamma_g, kill_gamma_f(coc)[0].gamma_g):
                ok, payload = membership_oracle(p, cutoff)
                want_ok, want = _oracle_by_direct_elimination(p, cutoff)
                assert ok == want_ok
                if ok:
                    assert payload.to_json() == want.to_json()
                else:
                    assert list(payload.items()) == list(want.items())


def test_membership_certificate_is_a_copy():
    ok, dual = membership_oracle(W1.monomial(1, 2), 6)
    assert not ok
    before = list(dual.items())
    dual.clear()
    dual[(0, 0)] = F(99)
    assert list(membership_oracle(W1.monomial(1, 2), 6)[1].items()) == before


class _Swept(W1Cocycle):
    """A cocycle that criterion_w1_reduction builds itself, not a random one."""


def test_gauge_span_is_eliminated_once_per_cutoff(monkeypatch):
    from diagdeform import acceptance

    calls = {"rref": 0, "reduce": 0}
    swept = Counter()
    real_rref, real_reduce = w1diagram.rref, acceptance.w1_reduce

    def counted_rref(rows, ncols):
        calls["rref"] += 1
        return real_rref(rows, ncols)

    def counted_reduce(coc, cutoff):
        calls["reduce"] += 1
        if type(coc) is _Swept:
            swept[tuple(coc.gamma_f.terms.items()), tuple(coc.gamma_g.terms.items())] += 1
        return real_reduce(coc, cutoff)

    monkeypatch.setattr(w1diagram, "_FACTORS", {})
    monkeypatch.setattr(w1diagram, "rref", counted_rref)
    monkeypatch.setattr(acceptance, "w1_reduce", counted_reduce)
    monkeypatch.setattr(acceptance, "W1Cocycle", _Swept)
    assert acceptance.criterion_w1_reduction(1729)["ok"]
    # 45 monomials x^i y^j with i + j <= 8, 30 random cocycles, 30 gauge pairs
    assert calls == {"rref": 1, "reduce": 135}
    assert swept == Counter({((), (((i, j), 1),)): 1 for i in range(9) for j in range(9 - i)})


@pytest.mark.parametrize("monomial,field,check", [
    ((0, 0), "is_zero", "pure_y_powers_are_trivial"),
    ((0, 8), "is_zero", "pure_y_powers_are_trivial"),
    ((1, 1), "is_zero", "x_r_y_monomials_are_trivial"),
    ((7, 1), "is_zero", "x_r_y_monomials_are_trivial"),
    ((1, 2), "representative", "x_y2_survives"),
    ((1, 0), "x_family_conflict", "x_power_family_trivial_with_conflict_flag"),
    ((6, 0), "x_family_conflict", "x_power_family_trivial_with_conflict_flag"),
    ((8, 0), "consistent", "oracle_reduce_consistent_monomials_and_30_random"),
    ((0, 8), "consistent", "oracle_reduce_consistent_monomials_and_30_random"),
    ((4, 4), "consistent", "oracle_reduce_consistent_monomials_and_30_random"),
])
def test_each_family_check_reads_every_member(monkeypatch, monomial, field, check):
    # One field of one monomial's report goes wrong; the check of its family must see it.
    from diagdeform import acceptance

    real_reduce = acceptance.w1_reduce
    target = W1Cocycle(W1.zero, W1.monomial(*monomial))

    def flipped_reduce(coc, cutoff):
        report = real_reduce(coc, cutoff)
        if type(coc) is _Swept and coc == target:
            report = dict(report)
            report[field] = W1.zero if field == "representative" else not report[field]
        return report

    monkeypatch.setattr(acceptance, "w1_reduce", flipped_reduce)
    monkeypatch.setattr(acceptance, "W1Cocycle", _Swept)
    checks = acceptance.criterion_w1_reduction(1729)["checks"]
    assert checks[check] is False
    assert all(ok for label, ok in checks.items() if label != check)


def test_every_gauge_generator_image_is_one_monomial():
    for cutoff in range(16):
        gens = _gauge_generators(cutoff)
        assert all(len(img) == 1 for _, img in gens)
        assert w1diagram._gauge_factor(cutoff).touched == {s for _, img in gens for s in img}


def _projection_by_span_elimination(cutoff):
    """A projector onto the complement of the gauge span, from an RREF of
    the span rows, the way reduce computed its representative before it
    read the span's slots directly."""
    slots = w1diagram._slots(cutoff + 1)
    pivots, rows = rref([[img.get(s, F(0)) for s in slots]
                         for _, img in _gauge_generators(cutoff)], len(slots))
    span = [(slots[c], {s: v for s, v in zip(slots, rows[r]) if v}) for r, c in pivots]

    def project(p):
        residual = dict(p.terms)
        for pivot, row in span:
            c = residual.get(pivot)
            if c:
                for k, v in row.items():
                    residual[k] = residual.get(k, F(0)) - c * v
                residual = {k: v for k, v in residual.items() if v}
        return residual

    return project


def test_reduce_matches_projection_by_span_elimination():
    rng = random.Random(1618)
    for cutoff in range(5, 13):
        project = _projection_by_span_elimination(cutoff)
        monomials = [W1.monomial(i, j, F(rng.randint(1, 5), rng.randint(1, 3)))
                     for i in range(cutoff + 1) for j in range(cutoff + 1 - i)]
        cocycles = ([W1Cocycle(W1.zero, m) for m in monomials]
                    + [W1Cocycle(m, W1.zero) for m in monomials]
                    + [random_cocycle(rng, maxdeg=cutoff) for _ in range(30)])
        for coc in cocycles:
            rep = reduce(coc, cutoff)
            assert rep["representative"].terms == project(kill_gamma_f(coc)[0].gamma_g)
            assert rep["consistent"]


@pytest.mark.parametrize("cutoff", [-1, -3])
def test_negative_cutoff_is_rejected_before_the_cache(cutoff):
    before = dict(w1diagram._FACTORS)
    with pytest.raises(ValueError):
        reduce(W1Cocycle.zero(), cutoff)
    with pytest.raises(ValueError):
        membership_oracle(W1.zero, cutoff)
    assert w1diagram._FACTORS == before
    assert reduce(W1Cocycle.zero(), 0)["is_zero"]


def test_membership_cutoff_guard():
    with pytest.raises(CutoffTooSmall):
        membership_oracle(W1.monomial(4, 4), 6)


def test_reduce_coboundary_combination():
    rep = reduce(W1Cocycle({}, {(0, 3): F(1), (2, 1): F(1)}), 6)
    assert rep["is_zero"]
    assert rep["oracle_accepts"]
    assert rep["consistent"]
    assert rep["witness"] is not None


def test_gauge_data_compose_additively():
    rng = random.Random(640)
    for _ in range(10):
        coc = random_cocycle(rng, maxdeg=4)
        g = random_gauge(rng, maxdeg=4)
        h = random_gauge(rng, maxdeg=4)
        assert apply_gauge(apply_gauge(coc, g), h) == apply_gauge(coc, g + h)


def test_reduce_reports_one_shot_witness():
    coc = W1Cocycle({(1, 2): F(1)}, {(0, 1): F(3)})
    rep = reduce(coc, 6)
    assert rep["is_zero"]
    full = rep["full_witness"]
    assert full is not None
    assert apply_gauge(coc, full).is_zero()


def test_reduce_mixed_input_keeps_survivor():
    rep = reduce(W1Cocycle({}, {(1, 2): F(1), (0, 1): F(1)}), 6)
    assert rep["representative"].terms == {(1, 2): F(1)}
    assert not rep["oracle_accepts"]
    assert rep["consistent"]
    assert rep["certificate"] is not None


def test_reduce_pure_x_power_vanishes_with_conflict_flag():
    rep = reduce(W1Cocycle({}, {(2, 0): F(1)}), 6)
    assert rep["is_zero"]
    assert rep["oracle_accepts"]
    assert rep["x_family_monomials"] == [(2, 0)]
    assert rep["x_family_conflict"]


def test_reduce_cutoff_guard():
    with pytest.raises(CutoffTooSmall):
        reduce(W1Cocycle({(7, 2): F(1)}, {}), 6)


def test_basis_report_cutoff_four():
    report = basis_report(4)
    assert report["survivors"] == [(1, 2), (1, 3), (2, 2)]
    assert report["matches_reading_without_x"]
    assert not report["matches_reading_with_x"]
    conflict_monomials = [c["monomial"] for c in report["conflicts"]]
    assert conflict_monomials == [(1, 0), (2, 0), (3, 0), (4, 0)]
    assert all(not c["survives"] for c in report["conflicts"])
    assert report["minimal_degree_minus_one_survivor"] == (1, 2)


def test_basis_report_cutoff_stability():
    small = basis_report(4)["survivors"]
    large = basis_report(6)["survivors"]
    assert set(small) <= set(large)
    assert [m for m in large if m[0] + m[1] <= 4] == small


def test_basis_report_cutoff_guard():
    with pytest.raises(ValueError):
        basis_report(2)


def test_gauge_soundness():
    rng = random.Random(911)
    for _ in range(30):
        coc = random_cocycle(rng)
        g = random_gauge(rng)
        moved = apply_gauge(coc, g)
        before = reduce(coc, 8)["representative"]
        after = reduce(moved, 8)["representative"]
        assert before.terms == after.terms


def test_oracle_and_reduce_agree_on_monomials():
    for i in range(9):
        for j in range(9 - i):
            if i == 0 and j == 0:
                continue
            rep = reduce(W1Cocycle(W1.zero, W1.monomial(i, j)), 8)
            assert rep["consistent"], (i, j)


def test_oracle_and_reduce_agree_on_random_inputs():
    rng = random.Random(56)
    for _ in range(30):
        coc = random_cocycle(rng)
        rep = reduce(coc, 8)
        assert rep["consistent"]


def test_witness_validity_on_span_elements():
    rng = random.Random(77)
    gens = _gauge_generators(6)
    for _ in range(15):
        terms = {}
        for _ in range(4):
            _, img = gens[rng.randrange(len(gens))]
            c = F(rng.randint(-4, 4))
            for s, v in img.items():
                terms[s] = terms.get(s, F(0)) + c * v
        p = W1.from_terms([(i, j, c) for (i, j), c in terms.items()])
        ok, witness = membership_oracle(p, 6)
        assert ok
        assert apply_gauge(W1Cocycle(W1.zero, p), witness).is_zero()


def test_centralizer_facts():
    """[chi, x] = 0 exactly for chi in k[x]: exhaustive on monomials plus
    random combinations, up to degree 6."""
    maxdeg = 6
    for i in range(maxdeg + 1):
        for j in range(maxdeg + 1 - i):
            assert (j == 0) == W1.commutator(W1.monomial(i, j), W1.x).is_zero()
    rng = random.Random(17)
    for _ in range(10):
        pure = PseudoPoly(W1, {(rng.randint(0, maxdeg), 0): rng.randint(1, 5)
                               for _ in range(3)})
        assert W1.commutator(pure, W1.x).is_zero()
        mixed = pure + W1.monomial(rng.randint(0, maxdeg - 1), rng.randint(1, maxdeg))
        assert not W1.commutator(mixed, W1.x).is_zero()


def test_cocycle_json_roundtrip():
    coc = W1Cocycle({(1, 2): F(1, 3)}, {(0, 1): F(-2)})
    again = W1Cocycle.from_json(coc.to_json())
    assert again == coc


def test_cocycle_json_rejects_unknown_keys():
    # A typo must not silently load as the zero component.
    with pytest.raises(ValueError):
        W1Cocycle.from_json({"gamma_f": [[1, 2, "1"]]})
    assert W1Cocycle.from_json({"gammaG": [[0, 1, "3"]]}).gamma_f.is_zero()


@pytest.mark.parametrize("terms", [
    ["123"],                  # a string would unpack as [1, 2, 3]
    [[2.5, 1, "1"]],          # a float exponent would truncate
    [["2", True, "1"]],       # a string or bool exponent would coerce
    [[-1, 2, "1"]],
    [[1, 2]],
    [[1, 2, "1e5000"]],       # too long to print back
    [[1, 2, "1/1" + "0" * 1001]],
])
def test_cocycle_json_rejects_malformed_terms(terms):
    with pytest.raises(ValueError):
        W1Cocycle.from_json({"gammaG": terms})


def test_gauge_datum_validation():
    with pytest.raises(ValueError):
        GaugeDatum({(1, 1): F(1)}, {}, {})
    with pytest.raises(ValueError):
        GaugeDatum({}, {(2, 1): F(1)}, {})


# cli._encode forms of reduce(random_cocycle(random.Random(k)), cutoff): the
# certificate and witness bytes are part of the report contract.  Everything
# but the certificate is the same at both cutoffs; the certificate is the
# first separating functional the elimination meets, which can move with the
# cutoff (k = 12), so it is pinned per cutoff.
PINNED_REDUCTIONS = {
    0: {"representative": [[1, 4, "-1/2"]], "is_zero": False,
        "oracle_accepts": False, "consistent": True,
        "kill_witness": {"alpha": [], "beta": [],
                         "chi": [[2, 4, "-1/4"], [3, 1, "-1"], [4, 1, "1"]]},
        "witness": None, "full_witness": None,
        "certificate": {5: {"1,4": "1"}, 8: {"1,4": "1"}},
        "x_family_monomials": [], "x_family_conflict": False},
    1: {"representative": [], "is_zero": True,
        "oracle_accepts": True, "consistent": True,
        "kill_witness": {"alpha": [], "beta": [], "chi": [[0, 4, "3/4"], [4, 1, "-1"]]},
        "witness": {"alpha": [[4, 0, "-1"]], "beta": [],
                    "chi": [[4, 1, "1"], [5, 0, "-2/5"]]},
        "full_witness": {"alpha": [[4, 0, "-1"]], "beta": [],
                         "chi": [[0, 4, "3/4"], [5, 0, "-2/5"]]},
        "certificate": {5: None, 8: None},
        "x_family_monomials": [[4, 0]], "x_family_conflict": True},
    2: {"representative": [], "is_zero": True,
        "oracle_accepts": True, "consistent": True,
        "kill_witness": {"alpha": [], "beta": [], "chi": [[0, 1, "-1"]]},
        "witness": {"alpha": [], "beta": [], "chi": [[5, 0, "-1/5"], [6, 0, "1/6"]]},
        "full_witness": {"alpha": [], "beta": [],
                         "chi": [[0, 1, "-1"], [5, 0, "-1/5"], [6, 0, "1/6"]]},
        "certificate": {5: None, 8: None},
        "x_family_monomials": [[4, 0], [5, 0]], "x_family_conflict": True},
    3: {"representative": [[3, 2, "4"]], "is_zero": False,
        "oracle_accepts": False, "consistent": True,
        "kill_witness": {"alpha": [], "beta": [], "chi": [[4, 1, "-1"], [4, 2, "1"]]},
        "witness": None, "full_witness": None,
        "certificate": {5: {"3,2": "1"}, 8: {"3,2": "1"}},
        "x_family_monomials": [[4, 0]], "x_family_conflict": True},
    12: {"representative": [[1, 3, "-4/3"], [2, 2, "3"], [2, 3, "3"]], "is_zero": False,
         "oracle_accepts": False, "consistent": True,
         "kill_witness": {"alpha": [], "beta": [],
                          "chi": [[2, 3, "-2/3"], [3, 1, "-1"], [3, 2, "1"], [3, 3, "1"]]},
         "witness": None, "full_witness": None,
         "certificate": {5: {"2,2": "1"}, 8: {"2,3": "1"}},
         "x_family_monomials": [[4, 0]], "x_family_conflict": True},
}


@pytest.mark.parametrize("cutoff", [5, 8])
@pytest.mark.parametrize("k", sorted(PINNED_REDUCTIONS))
def test_reduce_report_bytes_are_pinned(k, cutoff):
    pinned = PINNED_REDUCTIONS[k]
    rep = _encode(reduce(random_cocycle(random.Random(k)), cutoff))
    assert rep == {**pinned, "cutoff": cutoff, "certificate": pinned["certificate"][cutoff]}


def test_reduce_takes_the_solvers_first_correction():
    # solve_z works in classical(), the one W_1, so its eta_1 is a cocycle here
    from diagdeform.weyl_iso import solve_z

    eta1 = solve_z(1)[0]
    assert eta1.algebra is W1
    rep = reduce(W1Cocycle(W1.zero, -eta1), 8)
    assert rep["consistent"] and not rep["is_zero"]
    assert rep["representative"].terms == {(1, 2): F(-1, 2)}
