"""End-to-end acceptance suite: ten exact checks over the whole package.

Every criterion recomputes its claim from scratch, compares with zero
tolerance, and returns a report dict

    {"name": ..., "ok": bool, "checks": {label: bool}, "details": {...}}

for the CLI and the test suite alike.  A check that a CLI subcommand also
reports is one library function that both call, and the sample diagrams,
morphism, glued algebra and triangle below are the CLI's too, so the two
share one source of truth.  All randomness
derives from a single seed through the split rng(seed, k) =
Random(seed * 1_000_003 + k); the default seed is fixed, so reports are
byte-identical across runs.

Two criteria intentionally certify the presence of recorded discrepancies
(the shortcut recursion for the eta corrections, and the pure x-power
family in the cocycle basis): those inconsistencies are documented
findings, and the suite fails if the reports stop flagging them.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from .diagram import (
    DiagramOfAlgebras,
    SmallCategory,
    ToyAlgebra,
    coboundary_squares_vanish,
    diagram_algebra,
    matrix_model_check,
    nerve,
    simplicial_cohomology,
    triangle_check,
)
from .groebner import (
    MultiPoly,
    buchberger,
    exceptional_values,
    sphere_ideal,
    standard_monomials,
)
from .qweyl import (
    commutator_divisibility,
    deformed,
    pochhammer_exponents,
    stirling_inverse_check,
    symbolic,
)
from .scalars import LAMBDA, RatFunc
from .sphere import geometric_series_check
from .sphere_cohomology import SphereClassRep, canonical_class_fixes, h2_basis
from .star import StarSpec, associativity_check, commutator_is_hbar, grading_check
from .w1diagram import (
    W1,
    W1Cocycle,
    apply_gauge,
    random_cocycle,
    random_gauge,
    reduce as w1_reduce,
)
from .weyl_iso import gz_element, recursion_report, verify_closed_form

DEFAULT_SEED = 1729

F = Fraction


def _rng(seed: int, k: int) -> random.Random:
    return random.Random(seed * 1_000_003 + k)


def _wrap(name, checks, details=None):
    return {
        "name": name,
        "ok": all(checks.values()),
        "checks": checks,
        "details": details or {},
    }


# ------------------------------------------------------------ criteria


def criterion_groebner(seed=DEFAULT_SEED):
    """Reduced basis of the three-relation localization ideal over QQ(lambda)."""
    t0 = time.perf_counter()
    run = buchberger(sphere_ideal())
    elapsed = time.perf_counter() - t0
    lam = RatFunc.gen(LAMBDA)
    X = MultiPoly.variable("x")
    Y = MultiPoly.variable("y")
    Z = MultiPoly.variable("z")
    Wv = MultiPoly.variable("w")
    ONE = MultiPoly.const(1)
    expected = [
        X * Y - ONE,
        X * Z - Z - ONE,
        Y * Z + Y - Z,
        X * Wv - Wv.scale(lam) - ONE,
        Y * Wv + Y.scale(lam.inverse()) - Wv.scale(lam.inverse()),
        Z * Wv + Z.scale((lam - 1).inverse()) - Wv.scale((lam - 1).inverse()),
    ]
    initial = {g.leading_monomial() for g in run.basis}
    pairs = {
        (0, 0, 1, 1), (0, 1, 0, 1), (1, 0, 0, 1),
        (0, 1, 1, 0), (1, 0, 1, 0), (1, 1, 0, 0),
    }
    sm = standard_monomials(run.basis, 6)
    pure = {tuple(0 for _ in range(4))}
    for v in range(4):
        for d in range(1, 7):
            pure.add(tuple(d if k == v else 0 for k in range(4)))
    exc = exceptional_values(run)
    checks = {
        "basis_equals_expected_monic_six": run.basis == expected,
        "initial_ideal_is_all_pairs": initial == pairs,
        "standard_monomials_are_pure_powers": set(sm) == pure,
        "exceptional_values_are_0_and_1": exc["roots"] == [F(0), F(1)]
        and exc["symbolic_factors"] == [],
        "runtime_under_one_second": elapsed < 1.0,
    }
    return _wrap("groebner-basis", checks, {
        "basis": [str(g) for g in run.basis],
        "standard_monomial_count": len(sm),
        "exceptional_roots": exc["roots"],
    })


def criterion_sphere_h2(seed=DEFAULT_SEED):
    """H^2 bases with and without regularity, plus idempotence of reduction."""
    t0 = time.perf_counter()
    full = h2_basis(10, regular=False)
    reg = h2_basis(10, regular=True)
    one = RatFunc.one(LAMBDA)
    expected_full = [SphereClassRep(x_coeff=one)] + [
        SphereClassRep(pole_one={m: one}) for m in range(1, 11)
    ]
    idempotent = canonical_class_fixes(full)
    elapsed = time.perf_counter() - t0
    checks = {
        "unrestricted_basis_is_x_plus_poles_at_one": full == expected_full,
        "regular_basis_is_x_alone": reg == [SphereClassRep(x_coeff=one)],
        "canonical_class_idempotent_on_basis": idempotent,
        "runtime_under_one_second": elapsed < 1.0,
    }
    return _wrap("sphere-h2", checks, {
        "basis_size": len(full),
        "regular_basis_size": len(reg),
    })


def criterion_geometric_series(seed=DEFAULT_SEED):
    """(x - lambda(1+hbar)) times the pole series telescopes to 1 mod hbar^13."""
    rep = geometric_series_check(12)
    checks = {"residual_zero_through_order_12": rep["ok"]}
    return _wrap("geometric-series", checks, {"order": rep["order"]})


def criterion_weyl_iso(seed=DEFAULT_SEED):
    """Solver etas, closed form, recurrence, and the recorded discrepancies."""
    vf = verify_closed_form(10)
    etas = vf["etas"]
    eta1_ok = etas[0].terms == {(1, 2): F(1, 2)}
    eta2_ok = etas[1].terms == {(2, 3): F(1, 3), (1, 2): F(-1, 4)}
    rr = recursion_report(etas[:3])
    checks = {
        "eta1_is_half_x_y2": eta1_ok,
        "eta2_matches": eta2_ok,
        "solver_equals_closed_form_through_10": vf["match"],
        "coefficient_support_is_single_diagonal": vf["support_ok"],
        "recurrence_holds_through_10": vf["recurrence_ok"],
        "discrepancy_report_nonempty": rr["discrepancies_found"]
        and bool(rr["alternate_eta3_disagreements"]),
    }
    return _wrap("weyl-isomorphism", checks, {
        "eta1": str(etas[0]),
        "eta2": str(etas[1]),
        "shortcut_fails_first_at": next(
            (row["r"] for row in rr["rows"] if not row["hat_equals_next"]), None
        ),
        "alternate_eta3_disagreements": rr["alternate_eta3_disagreements"],
    })


def criterion_gz_identity(seed=DEFAULT_SEED):
    """e^hbar x y_hbar - y_hbar x = 1 with zero residual through hbar^8."""
    rep = gz_element(9)
    checks = {
        "identity_holds_through_order_8": rep["identity_ok"]
        and rep["identity_order"] == 8,
        "constant_term_is_y": rep["constant_term_is_y"],
    }
    return _wrap("gz-identity", checks, {
        "identity_order": rep["identity_order"],
        "first_correction": str(rep["first_order"]),
    })


def criterion_star_products(seed=DEFAULT_SEED):
    """Commutators, seeded associativity, and grading for the three products."""
    normal = StarSpec.normal()
    moyal = StarSpec.moyal()
    qplane = StarSpec.qplane()
    comm_ok = all(commutator_is_hbar(spec) for spec in (normal, moyal))
    a_norm = associativity_check(normal, order=6, trials=50, seed=seed * 1_000_003 + 1)
    a_moyal = associativity_check(moyal, order=6, trials=50, seed=seed * 1_000_003 + 2)
    a_qpl = associativity_check(qplane, order=5, trials=50, seed=seed * 1_000_003 + 3)
    gradings = [
        grading_check(spec, trials=25, seed=seed * 1_000_003 + 10 + k)
        for k, spec in enumerate((normal, moyal, qplane))
    ]
    checks = {
        "star_commutator_x_y_is_hbar": comm_ok,
        "associativity_normal_50_trials": a_norm["ok"],
        "associativity_moyal_50_trials": a_moyal["ok"],
        "associativity_qplane_through_order_5": a_qpl["ok"],
        "grading_preserved_25_pairs_each": all(g["ok"] for g in gradings),
    }
    return _wrap("star-products", checks, {
        "trials": {"normal": a_norm["trials"], "moyal": a_moyal["trials"],
                   "qplane": a_qpl["trials"]},
    })


def criterion_q_identities(seed=DEFAULT_SEED):
    """q-integer commutation identities, divisibility, Stirling inversion."""
    W = symbolic()
    eqs = True
    for n in range(1, 11):
        qn = W.q_power(n)
        yn = W.monomial(0, n)
        xn = W.monomial(n, 0)
        if (W.x * yn).scale(qn) - yn * W.x != W.monomial(0, n - 1, W.qint(n)):
            eqs = False
        if (xn * W.y).scale(qn) - W.y * xn != W.monomial(n - 1, 0, W.qint(n)):
            eqs = False
    divisible = all(commutator_divisibility(n)["divisible"] for n in range(1, 11))
    stirling = stirling_inverse_check(8)
    poch = pochhammer_exponents(8)
    checks = {
        "q_commutation_identities_n_to_10": eqs,
        "brackets_divisible_by_q_integer_n_to_10": divisible,
        "stirling_triangles_mutually_inverse_n_8": stirling,
        "pochhammer_exponent_matches_n_choose_2": poch["ok"],
    }
    return _wrap("q-weyl-identities", checks, {
        "pochhammer_exponents": poch["exponents"],
        "pochhammer_closed_formula": "n*(n-1)/2",
    })


def criterion_rewriting_oracle(seed=DEFAULT_SEED):
    """Block rewriting equals letter-by-letter straightening on random words."""
    failures = []
    for ctx_name, W in (("symbolic", symbolic()), ("deformed", deformed(6))):
        rng = _rng(seed, 100 if ctx_name == "symbolic" else 101)
        for t in range(100):
            word = "".join(rng.choice("xy") for _ in range(rng.randint(0, 8)))
            p = W.one
            for ch in word:
                p = W.multiply(p, W.x if ch == "x" else W.y)
            if p != W.normalize([(1, word)]):
                failures.append((ctx_name, word))
    checks = {"oracle_equivalence_100_words_both_scalar_rings": not failures}
    return _wrap("rewriting-oracle", checks, {"failures": failures})


def sample_morphism():
    """The projection QQ^2 -> QQ[e]/(e^2) onto the first idempotent."""
    return [[F(1), F(0)], [F(0), F(0)]]


def sample_arrow_diagram() -> DiagramOfAlgebras:
    """Arrow category, QQ^2 feeding the dual numbers through sample_morphism."""
    return DiagramOfAlgebras(
        SmallCategory.arrow(),
        {"A": ToyAlgebra.diagonal(2), "B": ToyAlgebra.dual_numbers()},
        {"u": sample_morphism()},
    )


def sample_cospan_diagram() -> DiagramOfAlgebras:
    return DiagramOfAlgebras(
        SmallCategory.cospan(),
        {"A": ToyAlgebra.diagonal(2), "B": ToyAlgebra.field(),
         "C": ToyAlgebra.dual_numbers()},
        {"u": [[F(1), F(0)]], "v": sample_morphism()},
    )


def sample_glued_algebra():
    """QQ^2 glued to the dual numbers along sample_morphism, or None when
    the glued table fails its associativity and unit audit."""
    try:
        return diagram_algebra(ToyAlgebra.diagonal(2), ToyAlgebra.dual_numbers(),
                               sample_morphism())
    except ValueError:
        return None


def sample_triangle_verdicts():
    """triangle_check for QQ -> QQ^2 -> QQ with Gamma^theta = beta Gamma^alpha
    + Gamma^beta alpha = 3, where the condition holds, and with Gamma^theta
    = 0, where it fails."""
    alpha, beta = [[F(1)], [F(0)]], [[F(1), F(1)]]
    g_alpha, g_beta = [[F(2)], [F(1)]], [[F(0), F(3)]]
    return (triangle_check(alpha, beta, g_alpha, g_beta, [[F(3)]]),
            triangle_check(alpha, beta, g_alpha, g_beta, [[F(0)]]))


def criterion_diagram(seed=DEFAULT_SEED):
    """Boundary and coboundary squares vanish; ranks and models match."""
    ranks = {SmallCategory.arrow(): [1, 0], SmallCategory.parallel_pair(): [1, 1],
             SmallCategory.cospan(): [1, 0]}
    boundary_sq = all(nerve(cat, 4).boundary_squares_vanish()
                      for cat in (*ranks, SmallCategory.chain(2)))
    ranks_ok = all(simplicial_cohomology(cat, 1) == r for cat, r in ranks.items())
    delta_sq = coboundary_squares_vanish(
        (sample_arrow_diagram(), sample_cospan_diagram()), 25, _rng(seed, 200))
    tri_pass, tri_fail = sample_triangle_verdicts()
    checks = {
        "boundary_squares_to_zero": boundary_sq,
        "cohomology_ranks_arrow_parallel_cospan": ranks_ok,
        "coboundary_squares_to_zero_25_trials": delta_sq,
        "glued_algebra_associative_and_unital": sample_glued_algebra() is not None,
        "glued_algebra_matches_triangular_matrices": matrix_model_check(),
        "triangle_condition_verdicts": tri_pass["holds"] and not tri_fail["holds"],
    }
    return _wrap("diagram-machinery", checks, {})


def criterion_w1_reduction(seed=DEFAULT_SEED):
    """Cocycle reduction over the three-algebra diagram around W_1."""
    monomials = {(i, j): w1_reduce(W1Cocycle(W1.zero, W1.monomial(i, j)), 8)
                 for i in range(9) for j in range(9 - i)}
    consistent = all(v["consistent"] for m, v in monomials.items() if m != (0, 0))
    rng = _rng(seed, 300)
    for _ in range(30):
        if not w1_reduce(random_cocycle(rng), 8)["consistent"]:
            consistent = False
    rng2 = _rng(seed, 301)
    sound = True
    for _ in range(30):
        coc = random_cocycle(rng2)
        g = random_gauge(rng2)
        before = w1_reduce(coc, 8)["representative"]
        after = w1_reduce(apply_gauge(coc, g), 8)["representative"]
        if before.terms != after.terms:
            sound = False
    checks = {
        "pure_y_powers_are_trivial": all(monomials[0, j]["is_zero"] for j in range(9)),
        "x_r_y_monomials_are_trivial": all(monomials[r, 1]["is_zero"] for r in range(1, 8)),
        "x_y2_survives": monomials[1, 2]["representative"].terms == {(1, 2): F(1)},
        "oracle_reduce_consistent_monomials_and_30_random": consistent,
        "x_power_family_trivial_with_conflict_flag": all(
            monomials[i, 0]["is_zero"] and monomials[i, 0]["x_family_conflict"]
            for i in range(1, 7)),
        "gauge_soundness_30_trials": sound,
    }
    return _wrap("w1-reduction", checks, {
        "x_family_verdict": "gauge-trivial, conflict with the reading that keeps x^i",
    })


CRITERIA = [
    ("groebner-basis", criterion_groebner),
    ("sphere-h2", criterion_sphere_h2),
    ("geometric-series", criterion_geometric_series),
    ("weyl-isomorphism", criterion_weyl_iso),
    ("gz-identity", criterion_gz_identity),
    ("star-products", criterion_star_products),
    ("q-weyl-identities", criterion_q_identities),
    ("rewriting-oracle", criterion_rewriting_oracle),
    ("diagram-machinery", criterion_diagram),
    ("w1-reduction", criterion_w1_reduction),
]


def run_suite(name_filter: str = None, seed: int = DEFAULT_SEED):
    """Run all criteria (or those whose name contains the filter substring)."""
    reports = []
    for name, fn in CRITERIA:
        if name_filter and name_filter not in name:
            continue
        reports.append(fn(seed))
    return reports
