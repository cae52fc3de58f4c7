"""The sparse-polynomial core shared by Poly2, PseudoPoly, MultiPoly and
SphereElement.

The printed and JSON forms below were recorded when each class still had
its own copy of them, so they pin the bytes that reports are built from.
"""

import json
from fractions import Fraction as F

import pytest

from diagdeform.cli import _encode
from diagdeform.groebner import MultiPoly
from diagdeform.qweyl import PseudoPoly, QWeyl, classical, deformed, symbolic
from diagdeform.scalars import (
    LAMBDA,
    QQ,
    QVAR,
    RatFunc,
    RatFuncRing,
    Ring,
    SeriesRing,
    SparsePolyRing,
    TagMismatch,
    TruncSeries,
    UniPoly,
    exp_hbar,
    series_div_valuation,
)
from diagdeform.sphere import P0, P1, PL, SPHERE, SphereElement
from diagdeform.star import P2, Poly2
from diagdeform.w1diagram import W1, GaugeDatum, W1Cocycle

MIXED = [((2, 1), F(-3, 4)), ((0, 0), 5), ((1, 0), -1), ((0, 2), F(2, 3)), ((1, 1), 1)]
MIXED_TEXT = "(5) + (2/3)*y^2 + (-1)*x + (1)*xy + (-3/4)*x^2y"
MIXED_JSON = '[[0, 0, "5"], [0, 2, "2/3"], [1, 0, "-1"], [1, 1, "1"], [2, 1, "-3/4"]]'


def _symbolic_mixed(W):
    c = RatFunc(UniPoly(QVAR, [1, -2]), UniPoly(QVAR, [3, 0, 1]))
    return W.from_terms([(2, 0, W.qint(3)), (0, 1, c), (1, 1, F(-1, 2))])


def _deformed_mixed(W):
    return W.from_terms([(0, 2, W.qint(2)), (3, 0, F(-5, 2)), (1, 1, W.q_power(3))])


def _multipoly_mixed():
    lam = RatFunc.gen(LAMBDA)
    return MultiPoly.from_terms([
        ((1, 1, 0, 0), lam), ((0, 0, 1, 0), F(3, 4)), ((0, 0, 0, 0), -1),
        ((0, 2, 0, 1), (lam - 1).inverse()), ((0, 0, 0, 3), -1),
    ])


def _sphere_mixed():
    return (SphereElement.pole(PL, 2, F(1, 3)) + SphereElement.x_power(3, -2)
            + SphereElement.pole(P0, 1, 4) + SphereElement.const(F(-5, 2))
            + SphereElement.pole(P1, 3, -1) + SphereElement.x_power(1)
            + SphereElement.pole(P0, 2, F(1, 2)))


def _sphere_ratfunc_mixed():
    lam = RatFunc.gen(LAMBDA)
    return (SphereElement.x_power(2, (lam - 1).inverse())
            + SphereElement.pole(PL, 1, lam * lam + 1)
            + SphereElement.pole(P1, 2, RatFunc(UniPoly(LAMBDA, [1, -2]),
                                                UniPoly(LAMBDA, [3, 0, 1])))
            + SphereElement.const(lam))


def _series(*cs):
    return {"order": 3, "coefficients": list(cs) + ["0"] * (4 - len(cs))}


CASES = [
    ("poly2-zero", lambda: Poly2.zero(), "0", "[]"),
    ("poly2-const", lambda: Poly2.const(F(-7, 3)), "(-7/3)", '[[0, 0, "-7/3"]]'),
    ("poly2-x-power", lambda: Poly2.monomial(3, 0), "(1)*x^3", '[[3, 0, "1"]]'),
    ("poly2-y-power", lambda: Poly2.monomial(0, 2, -1), "(-1)*y^2", '[[0, 2, "-1"]]'),
    ("poly2-mixed", lambda: Poly2(dict(MIXED)), MIXED_TEXT, MIXED_JSON),
    ("classical-zero", lambda: classical().zero, "0", "[]"),
    ("classical-const", lambda: classical().coerce(F(5, 2)), "(5/2)", '[[0, 0, "5/2"]]'),
    ("classical-x", lambda: classical().x, "(1)*x", '[[1, 0, "1"]]'),
    ("classical-y-power", lambda: classical().monomial(0, 3, -2), "(-2)*y^3",
     '[[0, 3, "-2"]]'),
    ("classical-mixed",
     lambda: classical().from_terms([(i, j, c) for (i, j), c in MIXED]),
     MIXED_TEXT, MIXED_JSON),
    ("symbolic-zero", lambda: symbolic().zero, "0", "[]"),
    ("symbolic-const", lambda: symbolic().coerce(-3), "(-3)", '[[0, 0, "-3"]]'),
    ("symbolic-q", lambda: symbolic().coerce(symbolic().q), "(q)",
     '[[0, 0, {"num": ["0", "1"], "den": ["1"]}]]'),
    ("symbolic-yx", lambda: (lambda W: W.y * W.x)(symbolic()), "(-1) + (q)*xy",
     '[[0, 0, "-1"], [1, 1, {"num": ["0", "1"], "den": ["1"]}]]'),
    ("symbolic-mixed", lambda: _symbolic_mixed(symbolic()),
     "((-2*q + 1)/(q^2 + 3))*y + (-1/2)*xy + (q^2 + q + 1)*x^2",
     '[[0, 1, {"num": ["1", "-2"], "den": ["3", "0", "1"]}], [1, 1, "-1/2"], '
     '[2, 0, {"num": ["1", "1", "1"], "den": ["1"]}]]'),
    ("deformed-zero", lambda: deformed(3).zero, "0", "[]"),
    ("deformed-const", lambda: deformed(3).coerce(F(1, 3)), "(1/3 + O(hbar^4))",
     json.dumps([[0, 0, _series("1/3")]])),
    ("deformed-yx", lambda: (lambda W: W.y * W.x)(deformed(3)),
     "(-1 + O(hbar^4)) + (1 + (1)*hbar + O(hbar^4))*xy",
     json.dumps([[0, 0, _series("-1")], [1, 1, _series("1", "1")]])),
    ("deformed-mixed", lambda: _deformed_mixed(deformed(3)),
     "(2 + (1)*hbar + O(hbar^4))*y^2 + (1 + (3)*hbar + (3)*hbar^2 + (1)*hbar^3"
     " + O(hbar^4))*xy + (-5/2 + O(hbar^4))*x^3",
     json.dumps([[0, 2, _series("2", "1")], [1, 1, _series("1", "3", "3", "1")],
                 [3, 0, _series("-5/2")]])),
    ("multipoly-zero", lambda: MultiPoly(), "0", "[]"),
    ("multipoly-const", lambda: MultiPoly.const(F(-1, 2)), "(-1/2)",
     '[[[0, 0, 0, 0], "-1/2"]]'),
    ("multipoly-one", lambda: MultiPoly.const(1), "(1)", '[[[0, 0, 0, 0], "1"]]'),
    ("multipoly-x-power", lambda: MultiPoly.variable("x", 2), "x^2",
     '[[[2, 0, 0, 0], "1"]]'),
    ("multipoly-minus-w", lambda: MultiPoly.variable("w").scale(-1), "-w",
     '[[[0, 0, 0, 1], "-1"]]'),
    ("multipoly-mixed", _multipoly_mixed,
     "((1)/(lambda - 1))*y^2*w + -w^3 + (lambda)*x*y + 3/4*z + (-1)",
     '[[[0, 2, 0, 1], {"num": ["1"], "den": ["-1", "1"]}], [[0, 0, 0, 3], "-1"], '
     '[[1, 1, 0, 0], {"num": ["0", "1"], "den": ["1"]}], [[0, 0, 1, 0], "3/4"], '
     '[[0, 0, 0, 0], "-1"]]'),
    ("sphere-zero", lambda: SphereElement.zero(), "0", '{"poly": [], "poles": {}}'),
    ("sphere-const", lambda: SphereElement.const(F(-7, 3)), "(-7/3)",
     '{"poly": [[0, "-7/3"]], "poles": {}}'),
    ("sphere-one", lambda: SphereElement.one(), "(1)", '{"poly": [[0, "1"]], "poles": {}}'),
    ("sphere-x", lambda: SphereElement.x_power(1), "(1)*x",
     '{"poly": [[1, "1"]], "poles": {}}'),
    ("sphere-x-power", lambda: SphereElement.x_power(4, F(3, 2)), "(3/2)*x^4",
     '{"poly": [[4, "3/2"]], "poles": {}}'),
    ("sphere-pole-0", lambda: SphereElement.x_power(-2), "(1)/x^2",
     '{"poly": [], "poles": {"0": [[2, "1"]]}}'),
    ("sphere-pole-1", lambda: SphereElement.pole(P1, 1, -1), "(-1)/(x-1)",
     '{"poly": [], "poles": {"1": [[1, "-1"]]}}'),
    ("sphere-pole-lambda", lambda: SphereElement.pole(PL, 3, RatFunc.gen(LAMBDA)),
     "(lambda)/(x-lambda)^3",
     '{"poly": [], "poles": {"lambda": [[3, {"num": ["0", "1"], "den": ["1"]}]]}}'),
    ("sphere-mixed", _sphere_mixed,
     "(-5/2) + (1)*x + (-2)*x^3 + (4)/x + (1/2)/x^2 + (-1)/(x-1)^3 + (1/3)/(x-lambda)^2",
     '{"poly": [[0, "-5/2"], [1, "1"], [3, "-2"]], "poles": {"0": [[1, "4"], [2, "1/2"]], '
     '"1": [[3, "-1"]], "lambda": [[2, "1/3"]]}}'),
    ("sphere-ratfunc-coefficients", _sphere_ratfunc_mixed,
     "(lambda) + ((1)/(lambda - 1))*x^2 + ((-2*lambda + 1)/(lambda^2 + 3))/(x-1)^2"
     " + (lambda^2 + 1)/(x-lambda)",
     '{"poly": [[0, {"num": ["0", "1"], "den": ["1"]}], [2, {"num": ["1"], "den": ["-1", "1"]}]], '
     '"poles": {"1": [[2, {"num": ["1", "-2"], "den": ["3", "0", "1"]}]], '
     '"lambda": [[1, {"num": ["1", "0", "1"], "den": ["1"]}]]}}'),
    ("sphere-product",
     lambda: (SphereElement.x_power(1) + SphereElement.pole(P1, 1)) * SphereElement.pole(PL, 1),
     "(1) + ((-1)/(lambda - 1))/(x-1) + ((lambda^2 - lambda + 1)/(lambda - 1))/(x-lambda)",
     '{"poly": [[0, "1"]], "poles": {"1": [[1, {"num": ["-1"], "den": ["-1", "1"]}]], '
     '"lambda": [[1, {"num": ["1", "-1", "1"], "den": ["-1", "1"]}]]}}'),
]


@pytest.mark.parametrize("build, text, encoded", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_printed_and_json_bytes_are_pinned(build, text, encoded):
    p = build()
    assert str(p) == text
    assert repr(p) == text
    assert json.dumps(_encode(p.to_json())) == encoded


def test_one_core_and_one_ring_adapter():
    shared = {"is_zero", "__eq__", "__hash__", "__neg__", "__add__", "__sub__", "__rsub__",
              "scale"}
    shared |= {"__rmul__", "_coerce", "_from_clean"}
    for cls in (Poly2, PseudoPoly, MultiPoly, SphereElement):
        # Poly2.__add__ is its own function so that the benchmark tracer can
        # count it; it only calls the core's.
        own = shared & set(vars(cls)) - ({"__add__"} if cls is Poly2 else set())
        assert not own, f"{cls.__name__} redefines {sorted(own)}"
    # one trusted constructor, and one exponent-tuple product for Poly2 and
    # MultiPoly (Poly2's own __mul__ only calls it, for the tracer)
    algebras = (Poly2, PseudoPoly, MultiPoly, SphereElement)
    assert {cls for cls in algebras if "_like" in vars(cls)} == {PseudoPoly}
    assert "__mul__" not in vars(MultiPoly)
    for ring in (P2, SPHERE, classical(), symbolic(), deformed(2)):
        assert isinstance(ring, SparsePolyRing), ring
    # one Ring protocol: elements answer bool themselves, one from_rational,
    # and only the rings that are not fields override inv
    rings = (QQ, RatFuncRing(QVAR), SeriesRing(QQ, 3), P2, SPHERE, classical(), symbolic(),
             deformed(2))
    for ring in rings:
        assert isinstance(ring, Ring), ring
    classes = {cls for ring in rings for cls in type(ring).__mro__} - {object}
    assert not [cls for cls in classes if "is_zero" in vars(cls)]
    assert {cls for cls in classes if "from_rational" in vars(cls)} == {Ring}
    # one coercion: Ring.coerce, overridden only by the rings whose members
    # need more than their type to belong
    assert "coerce" not in vars(QWeyl)
    assert {cls for cls in classes if "coerce" in vars(cls)} == {
        Ring, RatFuncRing, SeriesRing, SparsePolyRing}
    assert {cls for cls in classes if "inv" in vars(cls)} == {Ring, SparsePolyRing, SeriesRing}


def test_only_parse_rational_reads_text():
    for ring in (QQ, RatFuncRing(QVAR), SeriesRing(QQ, 3), P2, SPHERE, classical(), symbolic(),
                 deformed(2)):
        half = ring.from_rational(F(1, 2))
        assert half + half == ring.one, ring
        for bad in (0.5, "1/2", "1e5"):
            with pytest.raises(TypeError):
                ring.from_rational(bad)
    with pytest.raises(TypeError):
        UniPoly(QVAR, ["1/2"])


def _coefficient_entries():
    """Every public way a value becomes a coefficient, as (name, take,
    foreign, error): take(c) builds with c as a coefficient, and take(foreign)
    raises error, for foreign a coefficient of another variable or ring."""
    lam, q = RatFunc.gen(LAMBDA), RatFunc.gen(QVAR)
    out = [
        ("Poly2", lambda c: Poly2({(1, 0): c}), lam, TypeError),
        ("Poly2.monomial", lambda c: Poly2.monomial(1, 1, c), lam, TypeError),
        ("Poly2.scale", lambda c: Poly2.x().scale(c), lam, TypeError),
        ("Poly2 *", lambda c: Poly2.x() * c, lam, TypeError),
        ("* Poly2", lambda c: c * Poly2.x(), lam, TypeError),
        ("MultiPoly", lambda c: MultiPoly({(1, 0, 0, 0): c}), q, TagMismatch),
        ("MultiPoly.from_terms", lambda c: MultiPoly.from_terms([((0, 1, 0, 0), c)]), q,
         TagMismatch),
        ("MultiPoly.scale", lambda c: MultiPoly.variable("x").scale(c), q, TagMismatch),
        ("MultiPoly *", lambda c: MultiPoly.variable("x") * c, q, TagMismatch),
        ("* MultiPoly", lambda c: c * MultiPoly.variable("x"), q, TagMismatch),
        ("SphereElement poly", lambda c: SphereElement(poly={1: c}), q, TagMismatch),
        ("SphereElement poles", lambda c: SphereElement(poles={PL: {1: c}}), q, TagMismatch),
        ("SphereElement.scale", lambda c: SphereElement.x_power(1).scale(c), q, TagMismatch),
        ("SphereElement *", lambda c: SphereElement.x_power(1) * c, q, TagMismatch),
        ("* SphereElement", lambda c: c * SphereElement.x_power(1), q, TagMismatch),
        ("W1Cocycle gammaF", lambda c: W1Cocycle({(0, 1): c}, {}), lam, TypeError),
        ("W1Cocycle gammaG", lambda c: W1Cocycle({}, {(0, 1): c}), lam, TypeError),
        ("GaugeDatum alpha", lambda c: GaugeDatum({(1, 0): c}, {}, {}), lam, TypeError),
        ("GaugeDatum beta", lambda c: GaugeDatum({}, {(0, 1): c}, {}), lam, TypeError),
        ("GaugeDatum chi", lambda c: GaugeDatum({}, {}, {(1, 1): c}), lam, TypeError),
        ("TruncSeries over P2", lambda c: TruncSeries(P2, 1, [c]), lam, TypeError),
        ("TruncSeries over SPHERE", lambda c: TruncSeries(SPHERE, 1, [c]), q, TagMismatch),
        ("TruncSeries over W1", lambda c: TruncSeries(W1, 1, [c]), lam, TypeError),
    ]
    # the foreign value of the deformed algebra is a series of another order
    for name, W, foreign, error in (
            ("classical", classical(), lam, TypeError),
            ("symbolic", symbolic(), lam, TagMismatch),
            ("deformed", deformed(2), TruncSeries(QQ, 3, [1, 1]), TagMismatch)):
        out += [
            (f"{name} PseudoPoly", lambda c, W=W: PseudoPoly(W, {(1, 1): c}), foreign, error),
            (f"{name} monomial", lambda c, W=W: W.monomial(1, 1, c), foreign, error),
            (f"{name} from_terms", lambda c, W=W: W.from_terms([(1, 1, c)]), foreign, error),
            (f"{name} normalize", lambda c, W=W: W.normalize([(c, "yx")]), foreign, error),
            (f"{name} coerce", lambda c, W=W: W.coerce(c), foreign, error),
            (f"{name} scale", lambda c, W=W: W.x.scale(c), foreign, error),
            (f"{name} *", lambda c, W=W: W.x * c, foreign, error),
            (f"{name} * element", lambda c, W=W: c * W.x, foreign, error),
        ]
    return out


@pytest.mark.parametrize("take, foreign, error", [e[1:] for e in _coefficient_entries()],
                         ids=[e[0] for e in _coefficient_entries()])
def test_every_coefficient_goes_through_ring_coerce(take, foreign, error):
    """No float, no text and no coefficient of another variable or ring is
    stored: each raises where it comes in."""
    take(1), take(F(1, 2))
    for bad in (0.5, "1/2"):
        with pytest.raises(TypeError):
            take(bad)
    with pytest.raises(error):
        take(foreign)


def test_another_context_is_a_tag_mismatch_and_a_value_error():
    # like every ring, a QWeyl refuses a value of another ring with
    # TagMismatch; the error is a ValueError too
    W, V = classical(), classical()
    for mix in (lambda: W.coerce(V.x), lambda: W.x + V.x, lambda: W.multiply(W.x, V.y),
                lambda: W.commutator(V.x, W.y)):
        with pytest.raises(TagMismatch):
            mix()
        with pytest.raises(ValueError):
            mix()


def test_elements_of_different_contexts_do_not_mix():
    a, b = classical(), classical()
    assert a.x != b.x
    assert a.x == a.x + a.zero
    with pytest.raises(ValueError):
        a.x + b.x
    with pytest.raises(ValueError):
        a.x - b.y


def test_scalars_coerce_to_constants_in_every_sparse_algebra():
    W = classical()
    assert Poly2.x() + 2 == 2 + Poly2.x() == Poly2({(1, 0): 1, (0, 0): 2})
    assert 1 - W.x == -(W.x - 1) == W.from_terms([(0, 0, 1), (1, 0, -1)])
    assert MultiPoly.variable("z") - F(1, 2) == MultiPoly.from_terms(
        [((0, 0, 1, 0), 1), ((0, 0, 0, 0), F(-1, 2))])
    assert W.coerce(3) == 3 and Poly2.const(3) == 3 and MultiPoly.const(3) == 3
    assert W.x.scale(0).is_zero() and W.x - W.x == 0
    # a coefficient of the ring is a constant too, and == agrees with -
    q, lam = RatFunc.gen(QVAR), RatFunc.gen(LAMBDA)
    S, D = symbolic(), deformed(3)
    assert S.coerce(q) == q and S.coerce(q) - q == 0
    assert D.coerce(D.q) == D.q and D.coerce(D.q) - D.q == 0
    assert classical().x != W.x and classical().one != W.one
    # a coefficient in another variable is refused, not wrapped
    for mix in (lambda: S.coerce(lam), lambda: S.x + lam, lambda: lam + S.x):
        with pytest.raises(TagMismatch):
            mix()
    with pytest.raises(TypeError):
        W.coerce("1/2")


def test_constants_hash_as_the_scalars_they_equal():
    lam, q = RatFunc.gen(LAMBDA), RatFunc.gen(QVAR)
    S, D, W = symbolic(), deformed(3), classical()
    pairs = [
        (Poly2.const(3), 3),
        (Poly2.zero(), 0),
        (MultiPoly.const(F(1, 2)), F(1, 2)),
        (W.coerce(-2), -2),
        (SphereElement.const(lam), lam),
        (SphereElement.const(3), 3),
        (SphereElement.zero(), 0),
        (S.coerce(q), q),
        (S.coerce(5), 5),
        (D.coerce(5), 5),
        (D.coerce(5), TruncSeries.const(QQ, 3, 5)),
        (D.coerce(D.q), D.q),
        (D.zero, 0),
    ]
    for element, scalar in pairs:
        assert element == scalar and hash(element) == hash(scalar), (element, scalar)
        assert len({element, scalar}) == 1, (element, scalar)
        table = {element: "element"}
        table[scalar] = "scalar"
        assert table == {element: "scalar"}, (element, scalar)
    assert len({Poly2.x(), Poly2.x() + 0, Poly2.const(1), 1}) == 2


def test_sphere_functions_coerce_scalars_to_constants():
    lam = RatFunc.gen(LAMBDA)
    x = SphereElement.x_power(1)
    assert SphereElement.zero() == 0 and x - x == 0 and SphereElement.const(3) == 3
    assert x + lam == lam + x == SphereElement(poly={0: lam, 1: 1})
    assert 1 - x == -(x - 1) == SphereElement(poly={0: 1, 1: -1})
    assert SphereElement.const(lam) == lam == SphereElement.const(lam.num)
    q = RatFunc.gen(QVAR)
    for mix in (lambda: x + q, lambda: q + x, lambda: x - q.num):
        with pytest.raises(TagMismatch):
            mix()


def test_truncated_series_over_the_weyl_algebra():
    """QWeyl is the ring adapter of its own elements."""
    W = classical()
    a = TruncSeries(W, 2, [W.one, W.x])
    b = TruncSeries(W, 2, [W.one, W.y])
    prod = a * b
    assert prod.coeffs == (W.one, W.x + W.y, W.x * W.y)
    assert prod == TruncSeries(W, 2, [W.one, W.x + W.y, W.one + W.y * W.x])
    assert (prod - prod).is_zero()
    assert W.inv(W.coerce(4)) == W.coerce(F(1, 4))
    # dividing by a rational series embeds it through W.from_rational
    e1 = exp_hbar(2) - 1
    quot = series_div_valuation(TruncSeries(W, 2, [W.zero, W.x, W.y]), e1)
    assert quot.ring is W
    assert quot.coeffs == (W.x, W.y - W.x.scale(F(1, 2)))
