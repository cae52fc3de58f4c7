import random
from fractions import Fraction

import pytest

from diagdeform.scalars import LAMBDA, RatFunc
from diagdeform.sphere import P0, P1, PL, SphereElement
from diagdeform.sphere_cohomology import (
    RegularityViolation,
    SphereClassRep,
    ZeroMultiplier,
    canonical_class,
    descended_pole_set,
    exp_deform_morphism,
    h2_basis,
    l_operator,
    solve_L,
)
from test_sphere import drop_lambda_poles, rand_element

lam = RatFunc.gen(LAMBDA)
one = RatFunc.one(LAMBDA)


def test_l_operator_frozen_values():
    x = SphereElement.x_power(1)
    assert l_operator(x).is_zero()
    inv1 = SphereElement.pole(P1, 1)
    expect = SphereElement(poles={P1: {1: one}, PL: {1: -(lam ** 2)}})
    assert l_operator(inv1) == expect
    x2 = SphereElement.x_power(2)
    assert l_operator(x2) == SphereElement.x_power(2, 1 - lam.inverse())


def test_solve_l_pure_polynomial():
    c = SphereElement.x_power(2)
    b, rep = solve_L(c)
    assert rep.is_zero()
    assert b == SphereElement.x_power(2, (1 - lam.inverse()).inverse())
    assert l_operator(b) == c


def test_solve_l_x_is_stuck():
    b, rep = solve_L(SphereElement.x_power(1))
    assert b.is_zero()
    assert rep == SphereClassRep(x_coeff=one)


def test_solve_l_lambda_pole_leaves_residue_at_one():
    c = SphereElement.pole(PL, 2)
    b, rep = solve_L(c)
    assert rep == SphereClassRep(pole_one={2: lam ** -3})
    assert b == SphereElement.pole(P1, 2, -(lam ** -3))
    assert l_operator(b) + rep.embed() == c


def test_solve_l_exactness_randomized():
    rng = random.Random(505)
    for _ in range(30):
        c = rand_element(rng)
        b, rep = solve_L(c)
        assert b.in_subalgebra()
        assert l_operator(b) + rep.embed() == c


def test_canonical_class_linear_and_coboundary_invariant():
    rng = random.Random(1217)
    for _ in range(20):
        gf = rand_element(rng)
        gg = rand_element(rng)
        rep = canonical_class(gf, gg)
        pert = drop_lambda_poles(rand_element(rng))  # perturbation lives in B
        rep2 = canonical_class(gf + l_operator(pert), gg)
        assert rep == rep2


def test_canonical_class_idempotent_on_basis():
    for rep in h2_basis(10):
        again = canonical_class(rep.embed(), SphereElement.zero())
        assert again == rep


def test_h2_basis_shapes():
    full = h2_basis(4)
    assert len(full) == 5
    assert full[0] == SphereClassRep(x_coeff=one)
    assert full[3] == SphereClassRep(pole_one={3: one})
    reg = h2_basis(4, regular=True)
    assert len(reg) == 1
    assert reg[0].x_coeff == one


def test_regular_flag_enforced():
    with pytest.raises(RegularityViolation):
        canonical_class(SphereElement.pole(P1, 1), SphereElement.zero(), regular=True)
    with pytest.raises(RegularityViolation):
        canonical_class(SphereElement.zero(), SphereElement.pole(PL, 2), regular=True)
    rep = canonical_class(
        SphereElement.x_power(2), SphereElement.pole(P0, 1), regular=True
    )
    assert rep.pole_one == {}


def test_exp_deform_scaling_direction():
    # D(x) = x exponentiates to x -> e^hbar x on the polynomial part
    rep = exp_deform_morphism(SphereElement.x_power(1), base="f", order=4, trials=10)
    assert rep["multiplicative"]
    img = rep["images"]["x"]
    assert img.coeffs[0] == SphereElement.x_power(1)
    assert img.coeffs[1] == SphereElement.x_power(1)
    assert img.coeffs[2] == SphereElement.x_power(1, Fraction(1, 2))
    inv_img = rep["images"]["1/x"]
    assert inv_img.coeffs[1] == SphereElement.pole(P0, 1, -1)


def test_exp_deform_zero_derivation_is_base():
    rep = exp_deform_morphism(SphereElement.zero(), base="g", order=3, trials=5)
    assert rep["multiplicative"]
    img = rep["images"]["1/(x-1)"]
    assert img.coeffs[0] == SphereElement.pole(PL, 1, lam)
    assert all(img.coeffs[k].is_zero() for k in (1, 2, 3))


def test_exp_deform_with_pole_direction():
    v = SphereElement.pole(P0, 1)  # direction 1/x
    rep = exp_deform_morphism(v, base="f", order=5, trials=20, seed=3)
    assert rep["multiplicative"]


def test_descended_pole_set():
    assert descended_pole_set(2) == ["0", "1/2", "lambda"]
    assert descended_pole_set(1) == ["0", "1", "lambda"]
    assert descended_pole_set(Fraction(-1, 3)) == ["0", "-3", "lambda"]
    with pytest.raises(ZeroMultiplier):
        descended_pole_set(0)
