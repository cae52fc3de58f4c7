"""apply_gauge against PseudoPoly arithmetic, as hypothesis properties.

apply_gauge sums each component on integers over one common denominator.
The reference here is the plain sum gamma - alpha + [chi, x] (and
gamma - beta + [chi, y]) through PseudoPoly + and - and W1.commutator, on
coefficients that are not integers.  hypothesis is a test-only dependency;
without it these skip."""

from fractions import Fraction

import pytest

from diagdeform.qweyl import PseudoPoly
from diagdeform.w1diagram import W1, GaugeDatum, W1Cocycle, apply_gauge

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
