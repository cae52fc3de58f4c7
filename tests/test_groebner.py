import random
from fractions import Fraction

import pytest

from diagdeform.groebner import (
    MultiPoly,
    buchberger,
    deformation_witness,
    degrevlex_key,
    exceptional_values,
    m_lcm,
    normal_form,
    rational_roots,
    s_polynomial,
    sphere_ideal,
    sphere_run,
    standard_monomials,
)
from diagdeform.scalars import LAMBDA, RatFunc, UniPoly

lam = RatFunc.gen(LAMBDA)
X = MultiPoly.variable("x")
Y = MultiPoly.variable("y")
Z = MultiPoly.variable("z")
W = MultiPoly.variable("w")
ONE = MultiPoly.const(1)


def _lead(g):
    # degree reverse lexicographic, written out here rather than taken from
    # the module: higher total degree wins, then the smaller exponent of the
    # last variable on which two monomials differ
    return max(g.terms, key=lambda m: (sum(m), [-e for e in reversed(m)]))


def assert_reduced(basis):
    """Every lead coefficient is 1 and no term of one element other than
    its lead, nor that lead, is divisible by another element's lead."""
    leads = [_lead(g) for g in basis]
    for g, lead in zip(basis, leads):
        assert g.terms[lead] == 1
        for other in leads:
            if other is lead:
                continue
            for m in g.terms:
                assert not all(a <= b for a, b in zip(other, m)), (g, other)


def test_degrevlex_basic_comparisons():
    x = (1, 0, 0, 0)
    y = (0, 1, 0, 0)
    z = (0, 0, 1, 0)
    w = (0, 0, 0, 1)
    assert degrevlex_key(x) > degrevlex_key(y) > degrevlex_key(z) > degrevlex_key(w)
    # ties inside degree 2: xy > xz > yz > xw > yw > zw
    seq = [(1, 1, 0, 0), (1, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1)]
    keys = [degrevlex_key(m) for m in seq]
    assert keys == sorted(keys, reverse=True)
    # total degree dominates any tie-breaking
    assert degrevlex_key((0, 0, 3, 0)) > degrevlex_key((1, 1, 0, 0))


def test_normal_form_single_relation():
    r = normal_form(X * X * Y, [X * Y - ONE])
    assert r == X


def test_normal_form_is_linear_over_remainders():
    rng = random.Random(8)
    basis = sphere_run().basis
    for _ in range(10):
        p = MultiPoly.from_terms(
            (tuple(rng.randint(0, 2) for _ in range(4)), Fraction(rng.randint(-3, 3)))
            for _ in range(4)
        )
        q = MultiPoly.from_terms(
            (tuple(rng.randint(0, 2) for _ in range(4)), Fraction(rng.randint(-3, 3)))
            for _ in range(4)
        )
        assert normal_form(p + q, basis) == normal_form(p, basis) + normal_form(q, basis)


def test_buchberger_sphere_ideal_frozen_basis():
    run = sphere_run()
    expected = [
        X * Y - ONE,
        X * Z - Z - ONE,
        Y * Z + Y - Z,
        X * W - W.scale(lam) - ONE,
        Y * W + Y.scale(lam.inverse()) - W.scale(lam.inverse()),
        Z * W + Z.scale((lam - 1).inverse()) - W.scale((lam - 1).inverse()),
    ]
    assert run.basis == expected
    assert_reduced(run.basis)
    lead_set = {g.leading_monomial() for g in run.basis}
    assert lead_set == {
        (1, 1, 0, 0),
        (1, 0, 1, 0),
        (0, 1, 1, 0),
        (1, 0, 0, 1),
        (0, 1, 0, 1),
        (0, 0, 1, 1),
    }


def non_unit_lead_ideal():
    """Generators with leading coefficients 2 and lambda, so that the run
    divides by leads other than 1."""
    return [(X * Y).scale(2) - Z, (Y * Y).scale(lam) - W, X * Z - ONE]


def test_buchberger_non_unit_leads_frozen_run():
    run = buchberger(non_unit_lead_ideal())
    assert run.basis == [
        X * X * W - Y.scale(lam / 2),
        X * Y - Z.scale(Fraction(1, 2)),
        Y * Y - W.scale(lam.inverse()),
        X * Z - ONE,
        Y * Z - (X * W).scale(2 / lam),
        Z * Z - Y.scale(2),
    ]
    assert_reduced(run.basis)
    assert run.pre_monic_leads == [2, lam, 1, Fraction(-1, 2), Fraction(-1, 2), 2 / lam]
    assert run.pivot_log == [1] * 8
    assert (run.spairs_reduced, run.spairs_skipped) == (8, 7)


def test_buchberger_is_input_order_invariant():
    gens = sphere_ideal()
    base = buchberger(gens).basis
    assert_reduced(base)
    rng = random.Random(44)
    for _ in range(5):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert buchberger(shuffled).basis == base


def test_buchberger_tiny_cases():
    run = buchberger([X])
    assert run.basis == [X]
    assert_reduced(run.basis)
    run = buchberger([X * Y - ONE, Y * Z - ONE])
    assert_reduced(run.basis)
    # xy - 1 is redundant in the reduced basis: xy - 1 = y (x - z) + (yz - 1)
    assert run.basis == [Y * Z - ONE, X - Z]
    member = normal_form(X * Y - ONE, run.basis)
    assert member.is_zero()


def test_buchberger_records_pre_monic_leads():
    run = buchberger([(X * Y).scale(lam) - ONE])
    assert_reduced(run.basis)
    assert run.basis == [X * Y - MultiPoly.const(lam.inverse())]
    assert lam in run.pre_monic_leads


def test_standard_monomials_sphere():
    basis = sphere_run().basis
    sm2 = standard_monomials(basis, 2)
    assert len(sm2) == 9
    assert set(sm2) == {
        (0, 0, 0, 0),
        (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
        (2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2),
    }
    sm3 = standard_monomials(basis, 3)
    assert len(sm3) == 13
    assert all(sum(m) == 0 or len([e for e in m if e]) == 1 for m in sm3)


def test_membership_of_random_combinations():
    rng = random.Random(123)
    gens = sphere_ideal()
    basis = sphere_run().basis
    for _ in range(10):
        acc = MultiPoly()
        for g in gens:
            mult = MultiPoly.from_terms(
                [(tuple(rng.randint(0, 1) for _ in range(4)), Fraction(rng.randint(-2, 2)))]
            )
            acc = acc + mult * g
        assert normal_form(acc, basis).is_zero()


def test_s_polynomials_of_basis_reduce_to_zero():
    basis = sphere_run().basis
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            assert normal_form(s_polynomial(basis[i], basis[j]), basis).is_zero()


def test_rational_roots():
    t = UniPoly.gen(LAMBDA)
    roots, cof = rational_roots(t * t - 1)
    assert roots == [Fraction(-1), Fraction(1)]
    assert cof.degree == 0
    roots, cof = rational_roots(t * (t - 1) * (t * t + 1))
    assert roots == [Fraction(0), Fraction(1)]
    assert cof.monic() == t * t + 1


def test_exceptional_values_sphere():
    exc = exceptional_values(sphere_run())
    assert exc["roots"] == [Fraction(0), Fraction(1)]
    assert exc["symbolic_factors"] == []


def test_exceptional_values_simple_ideals():
    run = buchberger([X * Y - ONE])
    assert_reduced(run.basis)
    exc = exceptional_values(run)
    assert exc["roots"] == []
    run = buchberger([X.scale(lam) - ONE])
    assert_reduced(run.basis)
    exc = exceptional_values(run)
    assert exc["roots"] == [Fraction(0)]


def test_deformation_witness():
    rep = deformation_witness(2)
    assert rep["verdict"] == "FIXED_BASIS"
    assert rep["vanishing"] == []
    assert deformation_witness(1)["verdict"] == "EXCEPTIONAL"
    assert deformation_witness(0)["verdict"] == "EXCEPTIONAL"
    assert deformation_witness(Fraction(-1, 2))["verdict"] == "FIXED_BASIS"
    for bad in ("1/2", 0.5):
        with pytest.raises(TypeError):
            deformation_witness(bad)


def test_spoly_lcm_sanity():
    f = X * Y - ONE
    g = Y * Z - ONE
    s = s_polynomial(f, g)
    assert s == X - Z or s == -(X - Z)
    assert m_lcm((1, 1, 0, 0), (0, 1, 1, 0)) == (1, 1, 1, 0)


def test_buchberger_matches_sympy_groebner():
    sympy = pytest.importorskip("sympy")
    x, y, z, w, lm = sympy.symbols("x y z w lambda")
    field = sympy.QQ.frac_field(lm)

    def unipoly(p):
        return sum(sympy.Rational(c.numerator, c.denominator) * lm**k
                   for k, c in enumerate(p.coeffs))

    def to_sympy(g):
        expr = sum(unipoly(c.num) / unipoly(c.den) * x**a * y**b * z**e * w**f
                   for (a, b, e, f), c in g.terms.items())
        return sympy.Poly(expr, x, y, z, w, domain=field).monic()

    cases = [(sphere_ideal(), [x * y - 1, (x - 1) * z - 1, (x - lm) * w - 1]),
             (non_unit_lead_ideal(), [2 * x * y - z, lm * y**2 - w, x * z - 1])]
    for gens, sympy_gens in cases:
        expected = sympy.groebner(sympy_gens, x, y, z, w, order="grevlex", domain=field)
        ours = [to_sympy(g) for g in buchberger(gens).basis]
        theirs = [p.monic() for p in expected.polys]
        assert len(ours) == len(theirs) == 6
        assert all(p in theirs for p in ours)


def test_buchberger_results_are_reduced():
    # ideals whose minimal bases have tails that other leads divide, so the
    # inter-reduction has work to do
    ideals = [
        sphere_ideal(),
        [X * Y - Z, Y * Y - W, X * Z - ONE],
        [X * X - Y.scale(lam), X * Y - ONE, Y * Z - W],
        [X * Y * Z - W.scale(lam) - ONE, X * Y - Z, Z * W - X],
        [(X - Y) * (Z - W.scale(lam)), X * Z - Y * W, Y * Y - Z],
    ]
    for gens in ideals:
        run = buchberger(gens)
        assert_reduced(run.basis)
        for g in gens:
            assert normal_form(g, run.basis).is_zero()
