"""apply_gauge and reduce against PseudoPoly arithmetic, as hypothesis
properties.

apply_gauge and reduce run on integers over one common denominator.  The
reference here is the plain sum gamma - alpha + [chi, x] (and
gamma - beta + [chi, y]) through PseudoPoly + and - and W1.commutator, on
coefficients that are not integers, and the pairing of a certificate with
a polynomial as a sum of Fraction products.  hypothesis is a test-only
dependency; without it these skip."""

from fractions import Fraction

import pytest

from diagdeform.qweyl import PseudoPoly
from diagdeform.w1diagram import (
    W1,
    GaugeDatum,
    W1Cocycle,
    _gauge_generators,
    apply_gauge,
    reduce,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)

rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
degrees = st.integers(0, 7)


def elements(keys):
    return st.dictionaries(keys, rationals, max_size=5).map(lambda t: PseudoPoly(W1, t))


anywhere = elements(st.tuples(degrees, degrees))
in_x = elements(st.builds(lambda i: (i, 0), degrees))
in_y = elements(st.builds(lambda j: (0, j), degrees))


@PROPERTY
@given(anywhere, anywhere, in_x, in_y, anywhere)
def test_apply_gauge_is_the_pseudopoly_sum(gamma_f, gamma_g, alpha, beta, chi):
    out = apply_gauge(W1Cocycle(gamma_f, gamma_g), GaugeDatum(alpha, beta, chi))
    assert out.gamma_f.terms == (gamma_f - alpha + W1.commutator(chi, W1.x)).terms
    assert out.gamma_g.terms == (gamma_g - beta + W1.commutator(chi, W1.y)).terms
    for p in (out.gamma_f, out.gamma_g):
        assert all(type(c) is Fraction and c for c in p.terms.values())


@PROPERTY
@given(anywhere, anywhere, anywhere)
def test_a_pure_chi_move_is_two_commutators(gamma_f, gamma_g, chi):
    out = apply_gauge(W1Cocycle(gamma_f, gamma_g), GaugeDatum(W1.zero, W1.zero, chi))
    assert out.gamma_f - gamma_f == W1.commutator(chi, W1.x)
    assert out.gamma_g - gamma_g == W1.commutator(chi, W1.y)


def moved(coc, g):
    """The gauge move of g on coc, in PseudoPoly arithmetic."""
    return W1Cocycle(coc.gamma_f - g.alpha + W1.commutator(g.chi, W1.x),
                     coc.gamma_g - g.beta + W1.commutator(g.chi, W1.y))


def pairing(dual, terms):
    """A certificate {slot: Fraction} applied to {slot: coefficient}."""
    return sum(dual.get(s, 0) * c for s, c in terms.items())


@st.composite
def cocycles(draw):
    """(cutoff, cocycle) at cutoffs 5-12.  Half of them put gammaF on pure
    x powers and gammaG on the slots the gauge generators touch, so that
    the oracle accepts them; the rest have any support of degree <= cutoff."""
    cutoff = draw(st.integers(5, 12))
    anywhere = st.integers(0, cutoff).flatmap(
        lambda i: st.tuples(st.just(i), st.integers(0, cutoff - i)))
    if draw(st.booleans()):
        f_keys = anywhere
        g_keys = anywhere
    else:
        f_keys = st.builds(lambda i: (i, 0), st.integers(0, cutoff))
        g_keys = st.sampled_from(sorted({s for _, img in _gauge_generators(cutoff) for s in img}))
    return cutoff, W1Cocycle(draw(elements(f_keys)), draw(elements(g_keys)))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(cocycles())
def test_every_reduce_report_holds_in_fraction_arithmetic(case):
    cutoff, coc = case
    rep = reduce(coc, cutoff)
    killed = moved(coc, rep["kill_witness"])
    assert killed.gamma_f.is_zero()
    gens = _gauge_generators(cutoff)
    touched = {s for _, img in gens for s in img}
    assert rep["representative"].terms == {
        k: c for k, c in killed.gamma_g.terms.items() if k not in touched}
    assert rep["consistent"] and rep["is_zero"] == rep["oracle_accepts"]
    if rep["oracle_accepts"]:
        assert moved(W1Cocycle(W1.zero, killed.gamma_g), rep["witness"]).is_zero()
        assert moved(coc, rep["full_witness"]).is_zero()
        assert rep["certificate"] is None
    else:
        dual = rep["certificate"]
        assert all(pairing(dual, img) == 0 for _, img in gens)
        assert pairing(dual, killed.gamma_g.terms) != 0
        assert rep["witness"] is None and rep["full_witness"] is None
