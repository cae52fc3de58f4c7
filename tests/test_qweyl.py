import random
from fractions import Fraction

import pytest

import diagdeform.qweyl as qweyl
from diagdeform.qweyl import (
    QWeyl,
    classical,
    commutator_divisibility,
    deformed,
    pochhammer_xy,
    stirling_first,
    stirling_inverse_check,
    stirling_second,
    symbolic,
)
from diagdeform.scalars import (
    QQ,
    QVAR,
    ContextMismatch,
    RatFunc,
    SeriesRing,
    TruncSeries,
    UniPoly,
)


Q = RatFunc.gen(QVAR)


def word_product(W, w):
    p = W.one
    for ch in w:
        p = W.multiply(p, W.x if ch == "x" else W.y)
    return p


def test_normalize_frozen_words():
    W = symbolic()
    r = W.normalize([(1, "yx")])
    assert r.terms == {(1, 1): Q, (0, 0): RatFunc.const(QVAR, -1)}
    r = W.normalize([(1, "yyx")])
    assert r.terms == {(1, 2): Q * Q, (0, 1): -(Q + 1)}
    r = W.normalize([(1, "xyxy")])
    assert r.terms == {(2, 2): Q, (1, 1): RatFunc.const(QVAR, -1)}


def test_defining_relation():
    W = symbolic()
    lhs = W.q * (W.x * W.y) - W.y * W.x
    assert lhs == W.one


def test_multiply_agrees_with_free_word_oracle():
    # the fast block rewriting must match letter-by-letter straightening
    rng = random.Random(40817)
    contexts = [symbolic(), deformed(6)]
    for W in contexts:
        for _ in range(50):
            w = "".join(rng.choice("xy") for _ in range(rng.randint(0, 8)))
            assert word_product(W, w) == W.normalize([(1, w)])


def test_multiply_associative_randomized():
    rng = random.Random(99)
    W = symbolic()

    def rand_elt():
        return W.from_terms(
            (rng.randint(0, 3), rng.randint(0, 3), Fraction(rng.randint(-3, 3)))
            for _ in range(3)
        )

    for _ in range(25):
        a, b, c = rand_elt(), rand_elt(), rand_elt()
        assert (a * b) * c == a * (b * c)


def test_grading_preserved():
    rng = random.Random(7)
    W = symbolic()
    for _ in range(30):
        d1, d2 = rng.randint(-3, 3), rng.randint(-3, 3)
        i1 = rng.randint(max(0, d1), 3 + max(0, d1))
        i2 = rng.randint(max(0, d2), 3 + max(0, d2))
        a = W.monomial(i1, i1 - d1)
        b = W.monomial(i2, i2 - d2)
        p = a * b
        assert p.is_homogeneous()
        if not p.is_zero():
            assert p.degrees() == {d1 + d2}


def test_degree_zero_part_is_commutative():
    W = symbolic()
    u = W.x * W.y
    v = W.monomial(2, 2)
    assert u * v == v * u
    assert (u * u) * v == v * (u * u)


def test_q_integer_identities_both_generators():
    # q^n x y^n - y^n x = [n] y^(n-1)  and  q^n x^n y - y x^n = [n] x^(n-1)
    W = symbolic()
    for n in range(1, 11):
        qn = W.q_power(n)
        yn = W.monomial(0, n)
        xn = W.monomial(n, 0)
        lhs = (W.x * yn).scale(qn) - yn * W.x
        assert lhs == W.monomial(0, n - 1, W.qint(n))
        lhs2 = (xn * W.y).scale(qn) - W.y * xn
        assert lhs2 == W.monomial(n - 1, 0, W.qint(n))


def test_pochhammer_small_cases():
    P2, e2 = pochhammer_xy(2)
    assert e2 == 1
    assert P2.terms == {(2, 2): Q}
    P3, e3 = pochhammer_xy(3)
    assert e3 == 3
    assert P3.terms == {(3, 3): Q ** 3}


def test_pochhammer_exponent_closed_formula():
    for n in range(1, 9):
        _, e = pochhammer_xy(n)
        assert e == n * (n - 1) // 2


def test_stirling_triangles_frozen_rows():
    first = stirling_first(3)
    W = symbolic()
    assert first[2] == {2: RatFunc.one(QVAR), 1: W.qint(1)}
    second = stirling_second(3)
    # (xy)^2 = q x^2 y^2 - xy, by the free-word oracle
    oracle = W.normalize([(1, "xyxy")])
    assert second[2] == {2: oracle.terms[(2, 2)], 1: oracle.terms[(1, 1)]}
    assert second[2] == {2: Q, 1: RatFunc.const(QVAR, -1)}


def test_stirling_triangles_shape():
    n = 5
    first = stirling_first(n)
    second = stirling_second(n)
    for k in range(1, n + 1):
        assert set(first[k]) <= set(range(1, k + 1))
        assert first[k][k] == RatFunc.one(QVAR)
        assert set(second[k]) <= set(range(1, k + 1))
        assert second[k][k] == Q ** (k * (k - 1) // 2)


def test_stirling_mutually_inverse():
    assert stirling_inverse_check(5)


@pytest.mark.parametrize("which", ["first", "second"])
@pytest.mark.parametrize("row, col", [(4, 2), (2, 4)], ids=["below", "above"])
def test_stirling_check_rejects_a_corrupted_entry(monkeypatch, which, row, col):
    real = getattr(qweyl, f"stirling_{which}")

    def corrupted(n):
        triangle = real(n)
        triangle[row][col] = triangle[row].get(col, RatFunc.zero(QVAR)) + Q
        return triangle

    monkeypatch.setattr(qweyl, f"stirling_{which}", corrupted)
    assert not stirling_inverse_check(5)


@pytest.mark.parametrize("fn", [stirling_first, stirling_second, stirling_inverse_check])
@pytest.mark.parametrize("n", [0, -3])
def test_stirling_rejects_vacuous_sizes(fn, n):
    with pytest.raises(ValueError):
        fn(n)


@pytest.mark.parametrize("fn", [pochhammer_xy, commutator_divisibility])
@pytest.mark.parametrize("n", [0, -3])
def test_pochhammer_and_divisibility_reject_vacuous_sizes(fn, n):
    # an empty product or the zero q-integer [0] would read as a verdict
    with pytest.raises(ValueError):
        fn(n)


def test_commutator_divisibility():
    rep = commutator_divisibility(2)
    assert rep["divisible"]
    W = symbolic()
    # [x, y^2] = [2] (y - (q-1) x y^2)
    assert rep["quotient_x_yn"].terms == {(0, 1): RatFunc.one(QVAR), (1, 2): 1 - Q}
    for n in range(1, 8):
        rep = commutator_divisibility(n)
        assert rep["divisible"]
        # re-multiplication: quotient * [n] == bracket
        for which, br in (("quotient_x_yn", "bracket_x_yn"), ("quotient_xn_y", "bracket_xn_y")):
            assert rep[which].scale(W.qint(n)).terms == rep[br].terms


def test_classical_limit():
    W = classical()
    assert W.x * W.y - W.y * W.x == W.one
    # (xy)^2 = x^2 y^2 - xy at q = 1
    u = W.x * W.y
    assert (u * u).terms == {(2, 2): Fraction(1), (1, 1): Fraction(-1)}


def test_deformed_context_reduces_to_classical_at_order_zero():
    rng = random.Random(3)
    W1 = classical()
    Wh = deformed(4)
    for _ in range(20):
        w = "".join(rng.choice("xy") for _ in range(rng.randint(0, 7)))
        ph = word_product(Wh, w)
        p1 = word_product(W1, w)
        const_part = {k: c.coeffs[0] for k, c in ph.terms.items() if c.coeffs[0]}
        assert const_part == p1.terms


def test_foreign_context_rejected():
    W1, W2 = symbolic(), deformed(7)
    with pytest.raises(ValueError):
        W1.multiply(W1.x, W2.y)


@pytest.mark.parametrize("make", [symbolic, lambda: deformed(6), classical],
                         ids=["symbolic", "deformed(6)", "classical"])
def test_block_rules_match_the_free_word_oracle(make):
    W = make()
    for j in range(7):
        for k in range(7):
            assert W._shift(j, k) == W.normalize([(1, "y" * j + "x" * k)]).terms, (j, k)


def test_contexts_share_one_rule_table_per_ring_and_q():
    a, b = deformed(6), deformed(6)
    assert b is a
    assert qweyl.context(QQ, Fraction(2, 3)) is qweyl.context(QQ, Fraction(2, 3))
    for other in (deformed(7), QWeyl(QQ, Fraction(2, 3))):
        assert other._shift_cache is not a._shift_cache
    assert classical()._shift_cache is not QWeyl(QQ, Fraction(2, 3))._shift_cache
    # elements of two different algebras do not mix
    for u, v in ((a, deformed(7)), (classical(), QWeyl(QQ, Fraction(2, 3))),
                 (classical(), symbolic())):
        assert u != v
        for op in (u.multiply, u.commutator):
            with pytest.raises(ContextMismatch):
                op(u.x, v.y)
        with pytest.raises(ContextMismatch):
            u.x + v.y


def test_one_weyl_algebra():
    from diagdeform import w1diagram

    assert classical() is classical() is w1diagram.W1
    assert symbolic() is symbolic()


def _fraction_element(W, rng, maxdeg, nterms):
    """A random element whose coefficients are fractions, not integers."""
    return W.from_terms(
        (rng.randint(0, maxdeg), rng.randint(0, maxdeg),
         Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(2, 12)))
        for _ in range(nterms))


def _product_by_words(W, a, b):
    """a * b from the free-word oracle, one word per pair of terms."""
    return W.normalize([(c1 * c2, "x" * i1 + "y" * j1 + "x" * i2 + "y" * j2)
                        for (i1, j1), c1 in a.terms.items()
                        for (i2, j2), c2 in b.terms.items()])


# integers over QQ at q = 1 and q = -3, ring elements at q = 2/3 and over QQ(q)
_FRACTION_CONTEXTS = [
    ("classical", classical),
    ("q=2/3", lambda: QWeyl(QQ, Fraction(2, 3))),
    ("q=-3", lambda: QWeyl(QQ, Fraction(-3))),
    ("symbolic", symbolic),
]


@pytest.mark.parametrize("make", [m for _, m in _FRACTION_CONTEXTS],
                         ids=[n for n, _ in _FRACTION_CONTEXTS])
def test_multiply_with_fraction_coefficients_matches_free_words(make):
    W = make()
    rng = random.Random(6143)
    for _ in range(30):
        a = _fraction_element(W, rng, 3, rng.randint(1, 4))
        b = _fraction_element(W, rng, 3, rng.randint(1, 4))
        assert W.multiply(a, b) == _product_by_words(W, a, b)


@pytest.mark.parametrize("make", [m for _, m in _FRACTION_CONTEXTS],
                         ids=[n for n, _ in _FRACTION_CONTEXTS])
def test_commutator_is_the_difference_of_the_two_products(make):
    W = make()
    rng = random.Random(8209)
    for _ in range(30):
        a = _fraction_element(W, rng, 4, rng.randint(1, 4))
        b = _fraction_element(W, rng, 4, rng.randint(1, 4))
        assert W.commutator(a, b) == W.multiply(a, b) - W.multiply(b, a)
        assert W.commutator(a, a).is_zero()


def test_weyl_commutators_are_the_partial_derivatives():
    # in W_1, [chi, x] = -d chi/dy and [chi, y] = d chi/dx, read off the
    # exponents without any product
    W = classical()
    rng = random.Random(1501)
    for _ in range(40):
        terms = []
        for _ in range(rng.randint(1, 6)):
            i = rng.randint(0, 8)
            terms.append((i, rng.randint(0, 8 - i),
                          Fraction(rng.randint(-9, 9), rng.randint(1, 12))))
        chi = W.from_terms(terms)
        minus_d_y = W.from_terms((i, j - 1, -j * c) for (i, j), c in chi.terms.items() if j)
        d_x = W.from_terms((i - 1, j, i * c) for (i, j), c in chi.terms.items() if i)
        assert W.commutator(chi, W.x) == minus_d_y
        assert W.commutator(chi, W.y) == d_x


def _series_element(W, rng, maxdeg, nterms):
    """A random element over QQ[[hbar]] whose coefficients have several
    levels, some of them zero, with denominators up to 6."""
    order = W.ring.order

    def level():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.7 else 0

    return W.from_terms((rng.randint(0, maxdeg), rng.randint(0, maxdeg),
                         TruncSeries(QQ, order, [level() for _ in range(order + 1)]))
                        for _ in range(nterms))


def _words_oracle(W, a, b, minus_ba):
    """a b, or a b - b a, as the sum of c1 c2 times the free-word normal form
    of each pair of monomials."""
    out = W.zero
    pairs = [(a, b, 1), (b, a, -1)][:1 + minus_ba]
    for u, v, sign in pairs:
        for (i1, j1), c1 in u.terms.items():
            for (i2, j2), c2 in v.terms.items():
                word = "x" * i1 + "y" * j1 + "x" * i2 + "y" * j2
                out = out + W.normalize([(1, word)]).scale(c1 * c2 * sign)
    return out


def _series_context(order, q):
    ring = SeriesRing(QQ, order)
    return qweyl.context(ring, TruncSeries(QQ, order, q))


# q = 1 + hbar and q = 1 run on integer levels, q = 1 + hbar/2 on series
_SERIES_CONTEXTS = (
    [(f"deformed({n})", lambda n=n: deformed(n), True) for n in range(7)]
    + [(f"q=1,order={n}", lambda n=n: _series_context(n, [1]), True) for n in range(7)]
    + [(f"q=1+hbar/2,order={n}", lambda n=n: _series_context(n, [1, Fraction(1, 2)]), False)
       for n in (1, 3, 6)]
)


@pytest.mark.parametrize("make,levels", [(m, lv) for _, m, lv in _SERIES_CONTEXTS],
                         ids=[n for n, _, _ in _SERIES_CONTEXTS])
def test_series_products_match_free_words(make, levels):
    W = make()
    assert W._levels is levels
    rng = random.Random(30211 + W.ring.order)
    for _ in range(12):
        a = _series_element(W, rng, 3, rng.randint(0, 4))
        b = _series_element(W, rng, 3, rng.randint(1, 4))
        assert W.multiply(a, b) == _words_oracle(W, a, b, False)
        assert W.commutator(a, b) == _words_oracle(W, a, b, True)


def test_series_products_make_no_series_multiplication(monkeypatch):
    from diagdeform.weyl_iso import solve_z

    W = deformed(6)
    word = "yxyyxxyxyx"
    solve_z(12)
    expected = word_product(W, word)  # builds the rule tables
    calls = []
    real = TruncSeries.__mul__

    def counted(self, other):
        calls.append(other)
        return real(self, other)

    monkeypatch.setattr(TruncSeries, "__mul__", counted)
    monkeypatch.setattr(TruncSeries, "__rmul__", counted)
    solve_z(12)
    assert word_product(W, word) == expected
    assert calls == []
