"""Command-line front end: every computation in the package as a subcommand.

Each handler assembles a report dict

    {"command": ..., "params": {...}, "verdicts": {...}, "payload": {...}}

rendered either as indented text or as JSON (--json); both are
deterministic for fixed arguments and seed, and all scalars stay exact
(fractions are printed as p/q strings, never floats).  Exit status: 0 when
every verdict holds, 1 when any fails, 2 for usage or input errors.  A
verdict is a statement about the mathematics being checked; payload fields
like EXCEPTIONAL specializations or recorded discrepancies are findings,
not failures, and leave the exit status at 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .acceptance import (
    DEFAULT_SEED,
    run_suite,
    sample_arrow_diagram,
    sample_cospan_diagram,
    sample_glued_algebra,
    sample_morphism,
    sample_triangle_verdicts,
)
from .diagram import (
    SmallCategory,
    ToyAlgebra,
    coboundary_squares_vanish,
    hochschild_coboundary,
    matrix_model_check,
    nerve,
    simplicial_cohomology,
    single_morphism_embedding_check,
)
from .groebner import (
    deformation_witness,
    exceptional_values,
    monomial_str,
    normal_form,
    s_polynomial,
    sphere_run,
    standard_monomials,
)
from .qweyl import (
    commutator_divisibility,
    pochhammer_exponents,
    stirling_first,
    stirling_inverse_check,
    stirling_second,
)
from .scalars import parse_rational
from .sphere import geometric_series_check
from .sphere_cohomology import (
    B_GENERATORS,
    canonical_class_fixes,
    descended_pole_set,
    exp_deform_morphism,
    h2_basis,
)
from .star import (
    StarSpec,
    associativity_check,
    commutator_is_hbar,
    grading_check,
    qplane_relation_check,
)
from .w1diagram import CutoffTooSmall, W1Cocycle, basis_report
from .w1diagram import reduce as w1_reduce
from .weyl_iso import (
    closed_form_a,
    gz_element,
    pole_factorization,
    recursion_report,
    solve_z,
    verify_closed_form,
)


# ------------------------------------------------------------- rendering


def _encode(v):
    """JSON-safe form with exact scalars: fractions become 'p/q' strings."""
    if isinstance(v, bool) or v is None or isinstance(v, (int, str)):
        return v
    if isinstance(v, Fraction):
        return str(v)
    if hasattr(v, "to_json"):
        return _encode(v.to_json())
    if isinstance(v, dict):
        return {_key(k): _encode(u) for k, u in v.items()}
    if isinstance(v, (list, tuple)):
        return [_encode(u) for u in v]
    return str(v)


def _key(k):
    if isinstance(k, tuple):
        return ",".join(str(x) for x in k)
    return str(k)


def _scalarish(v):
    return not isinstance(v, (dict, list, tuple))


def _text_lines(v, indent, lines):
    pad = "  " * indent
    if isinstance(v, dict):
        for k, u in v.items():
            if _scalarish(u):
                lines.append(f"{pad}{_key(k)} = {u}")
            else:
                lines.append(f"{pad}{_key(k)}:")
                _text_lines(u, indent + 1, lines)
    elif isinstance(v, (list, tuple)):
        if all(_scalarish(u) for u in v):
            lines.append(pad + "[" + ", ".join(str(u) for u in v) + "]")
        else:
            for i, u in enumerate(v):
                lines.append(f"{pad}[{i}]")
                _text_lines(u, indent + 1, lines)
    else:
        lines.append(f"{pad}{v}")


def _emit(report, as_json):
    if as_json:
        print(json.dumps(_encode(report), indent=2, sort_keys=True))
    else:
        print(f"diagdeform {report['command']}")
        for k, v in report["params"].items():
            print(f"  {k} = {v}")
        for k, v in report["verdicts"].items():
            print(f"  check {k}: {'PASS' if v else 'FAIL'}")
        lines = []
        _text_lines(report["payload"], 1, lines)
        for line in lines:
            print(line)
    return 0 if all(report["verdicts"].values()) else 1


def _report(command, params, verdicts, payload):
    return {"command": command, "params": params,
            "verdicts": verdicts, "payload": payload}


# ------------------------------------------------------------- handlers


def _cmd_sphere_h2(args):
    basis = h2_basis(args.cutoff, regular=args.regular)
    return _report(
        "sphere h2",
        {"cutoff": args.cutoff, "regular": args.regular},
        {"canonical_class_idempotent_on_basis": canonical_class_fixes(basis)},
        {"basis": [str(rep) for rep in basis], "size": len(basis)},
    )


def _cmd_sphere_series(args):
    rep = geometric_series_check(args.order)
    return _report(
        "sphere series-check",
        {"order": args.order},
        {"telescoping_residual_zero": rep["ok"]},
        {"order": rep["order"]},
    )


def _cmd_sphere_exp(args):
    directions = dict(B_GENERATORS)
    if args.direction not in directions:
        print(f"unknown direction {args.direction!r}; choose from {sorted(directions)}",
              file=sys.stderr)
        raise SystemExit(2)
    rep = exp_deform_morphism(
        directions[args.direction], base=args.base,
        order=args.order, trials=args.trials, seed=args.seed,
    )
    payload = {
        "generator_checks": [[name, ok] for name, ok in rep["generator_checks"]],
        "images": {name: str(s) for name, s in rep["images"].items()},
    }
    if args.t is not None:
        try:
            payload["descended_poles"] = descended_pole_set(parse_rational(args.t))
        except (ValueError, ZeroDivisionError) as exc:
            print(f"bad scaling parameter {args.t!r}: {exc}", file=sys.stderr)
            raise SystemExit(2)
    return _report(
        "sphere exp-deform",
        {"direction": args.direction, "base": args.base, "order": args.order,
         "trials": args.trials, "seed": args.seed},
        {"exponential_is_multiplicative": rep["multiplicative"]},
        payload,
    )


def _cmd_groebner_run(args):
    run = sphere_run()
    spairs_ok = True
    for i in range(len(run.basis)):
        for j in range(i + 1, len(run.basis)):
            s = s_polynomial(run.basis[i], run.basis[j])
            if not normal_form(s, run.basis).is_zero():
                spairs_ok = False
    exc = exceptional_values(run)
    sm = standard_monomials(run.basis, 6)
    payload = {
        "basis": [str(g) for g in run.basis],
        "initial_ideal": sorted(monomial_str(g.leading_monomial()) for g in run.basis),
        "standard_monomials_through_6": len(sm),
        "exceptional_roots": exc["roots"],
        "symbolic_factors": [str(p) for p in exc["symbolic_factors"]],
    }
    if args.lam is not None:
        try:
            lam0 = parse_rational(args.lam)
        except (ValueError, ZeroDivisionError) as exc:
            print(f"bad lambda value {args.lam!r}: {exc}", file=sys.stderr)
            raise SystemExit(2)
        wit = deformation_witness(lam0)
        payload["specialization"] = {
            "lambda": wit["lambda0"],
            "verdict": wit["verdict"],
            "vanishing": [str(p) for p in wit["vanishing"]],
        }
    return _report(
        "groebner run",
        {"lambda": args.lam},
        {"s_polynomials_reduce_to_zero": spairs_ok,
         "basis_is_monic": all(
             g.terms[g.leading_monomial()].is_const() for g in run.basis)},
        payload,
    )


def _cmd_weyl_eta(args):
    etas = solve_z(args.order)
    return _report(
        "weyl eta",
        {"order": args.order},
        {"defining_relation_solved": True},
        {"eta": {str(r + 1): eta for r, eta in enumerate(etas)}},
    )


def _cmd_weyl_closed_form(args):
    rep = verify_closed_form(args.order)
    payload = {
        "a": {str(r): str(closed_form_a(r)) for r in range(1, args.order + 1)},
        "pole_factorizations": [
            pole_factorization(r) for r in range(1, min(args.order, 3) + 1)
        ],
    }
    return _report(
        "weyl closed-form",
        {"order": args.order},
        {"solver_matches_closed_form": rep["match"],
         "support_is_single_diagonal": rep["support_ok"],
         "recurrence_holds": rep["recurrence_ok"]},
        payload,
    )


def _cmd_weyl_gz(args):
    rep = gz_element(args.order)
    return _report(
        "weyl gz",
        {"order": args.order},
        {"defining_identity_holds": rep["identity_ok"],
         "constant_term_is_y": rep["constant_term_is_y"]},
        {"identity_checked_through": rep["identity_order"],
         "first_correction": str(rep["first_order"]),
         "y_hbar": rep["y_h"]},
    )


def _cmd_weyl_stirling(args):
    n = args.n
    first = stirling_first(n)
    second = stirling_second(n)
    poch = pochhammer_exponents(n)
    return _report(
        "weyl stirling",
        {"n": n},
        {"triangles_mutually_inverse": stirling_inverse_check(n),
         "pochhammer_exponents_follow_n_choose_2": poch["ok"]},
        {"first_kind": {str(k): {str(m): str(c) for m, c in row.items()}
                        for k, row in first.items()},
         "second_kind": {str(k): {str(m): str(c) for m, c in row.items()}
                         for k, row in second.items()},
         "pochhammer_exponents": poch["exponents"]},
    )


def _cmd_weyl_center(args):
    if args.n < 1:
        raise ValueError("n must be at least 1")
    reports = [commutator_divisibility(n) for n in range(1, args.n + 1)]
    return _report(
        "weyl center",
        {"n": args.n},
        {"brackets_divisible_by_q_integer": all(r["divisible"] for r in reports)},
        {"quotients": {
            str(r["n"]): {"[x, y^n]/[n]": str(r["quotient_x_yn"]),
                          "[x^n, y]/[n]": str(r["quotient_xn_y"])}
            for r in reports
        }},
    )


def _cmd_weyl_recursion(args):
    rep = recursion_report(solve_z(args.order))
    payload = {
        "hat_rule": rep["hat_rule"],
        "hat_rule_holds": rep["hat_rule_holds"],
        "x_hat_rule_holds": rep["x_hat_rule_holds"],
        "rows": [
            {"r": row["r"],
             "hat_equals_next": row["hat_equals_next"],
             "x_hat_equals_next": row["x_hat_equals_next"],
             "hat_disagreements": row["hat_disagreements"]}
            for row in rep["rows"]
        ],
    }
    if "alternate_eta3" in rep:
        payload["alternate_eta3"] = rep["alternate_eta3"]
        payload["alternate_eta3_matches_solver"] = rep["alternate_eta3_matches_solver"]
        payload["alternate_eta3_disagreements"] = rep["alternate_eta3_disagreements"]
    return _report(
        "weyl recursion-report",
        {"order": args.order},
        {"report_generated": True,
         "discrepancies_recorded": rep["discrepancies_found"]},
        payload,
    )


def _cmd_star_check(args):
    spec = StarSpec.named(args.kind)
    order = args.order if args.order is not None else (5 if args.kind == "qplane" else 6)
    assoc = associativity_check(spec, order=order, trials=args.trials, seed=args.seed)
    grading = grading_check(spec, trials=25, seed=args.seed + 1)
    verdicts = {
        "associativity_residual_zero": assoc["ok"],
        "grading_preserved": grading["ok"],
    }
    payload = {"order": order, "trials": assoc["trials"], "seed": args.seed}
    if args.kind in ("normal", "moyal"):
        verdicts["star_commutator_x_y_is_hbar"] = commutator_is_hbar(spec)
    else:
        rel = qplane_relation_check(order)
        verdicts["xy_equals_exp_hbar_times_yx"] = rel["ok"]
    return _report(
        "star check", {"kind": args.kind, "order": order,
                       "trials": args.trials, "seed": args.seed},
        verdicts, payload,
    )


_SHAPES = {
    "arrow": SmallCategory.arrow,
    "parallel": SmallCategory.parallel_pair,
    "cospan": SmallCategory.cospan,
    "chain2": lambda: SmallCategory.chain(2),
    "chain3": lambda: SmallCategory.chain(3),
}


def _cmd_diagram_nerve(args):
    cat = _SHAPES[args.shape]()
    data = nerve(cat, args.maxdim + 1)
    ranks = simplicial_cohomology(cat, args.maxdim)
    return _report(
        "diagram nerve",
        {"shape": args.shape, "maxdim": args.maxdim},
        {"boundary_squares_to_zero": data.boundary_squares_vanish()},
        {"simplex_counts": data.counts()[: args.maxdim + 1],
         "cohomology_ranks": ranks},
    )


def _cmd_diagram_delta2(args):
    import random as _random

    D = sample_arrow_diagram() if args.shape == "arrow" else sample_cospan_diagram()
    rng = _random.Random(args.seed)
    ok = coboundary_squares_vanish((D,), args.trials, rng)
    dual = ToyAlgebra.dual_numbers()
    table = {(i,): [Fraction(rng.randint(-2, 2)) for _ in range(dual.dim)]
             for i in range(dual.dim)}
    twice = hochschild_coboundary(dual, hochschild_coboundary(dual, table, 1), 2)
    hoch_ok = all(all(c == 0 for c in vec) for vec in twice.values())
    emb_ok = single_morphism_embedding_check(
        ToyAlgebra.diagonal(2), dual, sample_morphism(), (0, 1, 2), rng)
    return _report(
        "diagram delta2",
        {"shape": args.shape, "trials": args.trials, "seed": args.seed},
        {"total_coboundary_squares_to_zero": ok,
         "hochschild_coboundary_squares_to_zero": hoch_ok,
         "single_morphism_complex_embeds": emb_ok},
        {"degrees_cycled": [0, 1, 2]},
    )


def _cmd_diagram_algebra(args):
    glued = sample_glued_algebra()
    tri, tri_zero = sample_triangle_verdicts()
    return _report(
        "diagram algebra",
        {},
        {"glued_algebra_associative_and_unital": glued is not None,
         "matches_triangular_2x2_matrices": matrix_model_check(),
         "triangle_verdicts_correct": tri["holds"] and not tri_zero["holds"]},
        {"glued_dimension": glued.dim if glued is not None else None,
         "triangle_pass": tri, "triangle_fail": tri_zero},
    )


def _cmd_w1_reduce(args):
    try:
        with open(args.input) as fh:
            data = json.load(fh)
        coc = W1Cocycle.from_json(data)
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        print(f"cannot read cocycle from {args.input}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    try:
        rep = w1_reduce(coc, args.cutoff)
    except CutoffTooSmall as exc:
        print(f"cutoff too small: {exc}", file=sys.stderr)
        raise SystemExit(2)
    payload = {
        "representative": rep["representative"],
        "class_is_zero": rep["is_zero"],
        "x_family_conflict": rep["x_family_conflict"],
    }
    if rep["full_witness"] is not None:
        payload["witness"] = rep["full_witness"]
    if rep["certificate"] is not None:
        payload["certificate"] = {_key(k): v for k, v in rep["certificate"].items()}
    return _report(
        "w1 reduce",
        {"input": args.input, "cutoff": args.cutoff},
        {"projection_agrees_with_oracle": rep["consistent"]},
        payload,
    )


def _cmd_w1_basis(args):
    rep = basis_report(args.cutoff)
    return _report(
        "w1 basis",
        {"cutoff": args.cutoff},
        {"survivors_match_derived_reading": rep["matches_reading_without_x"]},
        {"survivors": [list(m) for m in rep["survivors"]],
         "conflicts": rep["conflicts"],
         "minimal_degree_minus_one_survivor":
             list(rep["minimal_degree_minus_one_survivor"])
             if rep["minimal_degree_minus_one_survivor"] else None,
         "agrees_with_reading_keeping_x_powers": rep["matches_reading_with_x"]},
    )


def _cmd_acceptance(args):
    reports = run_suite(args.filter, seed=args.seed)
    if not reports:
        print(f"no criterion matches filter {args.filter!r}", file=sys.stderr)
        raise SystemExit(2)
    if args.json:
        print(json.dumps(_encode(reports), indent=2, sort_keys=True))
    else:
        for rep in reports:
            print(f"{'PASS' if rep['ok'] else 'FAIL'} {rep['name']}")
            if not rep["ok"]:
                for label, good in rep["checks"].items():
                    if not good:
                        print(f"  failed: {label}")
    return 0 if all(rep["ok"] for rep in reports) else 1


# ------------------------------------------------------------- wiring


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit the report as JSON instead of text")
    common.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="base seed for all randomized checks")

    parser = argparse.ArgumentParser(
        prog="diagdeform",
        description="exact verification workbench for deformation computations",
    )
    groups = parser.add_subparsers(dest="group", required=True)

    sphere = groups.add_parser("sphere", help="punctured-sphere function algebra")
    ssub = sphere.add_subparsers(dest="sub", required=True)
    p = ssub.add_parser("h2", parents=[common], help="basis of canonical classes")
    p.add_argument("--cutoff", type=int, default=10)
    p.add_argument("--regular", action="store_true",
                   help="restrict to classes regular at the movable punctures")
    p.set_defaults(fn=_cmd_sphere_h2)
    p = ssub.add_parser("series-check", parents=[common],
                        help="telescoping pole-series identity")
    p.add_argument("--order", type=int, default=12)
    p.set_defaults(fn=_cmd_sphere_series)
    p = ssub.add_parser("exp-deform", parents=[common],
                        help="exponentiated derivation as a deformed morphism")
    p.add_argument("--direction", default="x",
                   help="derivation direction: one of x, 1/x, 1/(x-1)")
    p.add_argument("--base", default="f", choices=["f", "g"])
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--t", default=None,
                   help="also report pole locations after scaling by t")
    p.set_defaults(fn=_cmd_sphere_exp)

    groebner = groups.add_parser("groebner", help="localization ideal over QQ(lambda)")
    gsub = groebner.add_subparsers(dest="sub", required=True)
    p = gsub.add_parser("run", parents=[common], help="reduced basis and verdicts")
    p.add_argument("--lambda", dest="lam", default=None,
                   help="also classify this rational specialization, e.g. 1/1")
    p.set_defaults(fn=_cmd_groebner_run)

    weyl = groups.add_parser("weyl", help="Weyl algebra and its q-deformation")
    wsub = weyl.add_subparsers(dest="sub", required=True)
    p = wsub.add_parser("eta", parents=[common], help="corrections solving xz-zx=1")
    p.add_argument("--order", type=int, default=4)
    p.set_defaults(fn=_cmd_weyl_eta)
    p = wsub.add_parser("closed-form", parents=[common],
                        help="closed form of the correction coefficients")
    p.add_argument("--order", type=int, default=10)
    p.set_defaults(fn=_cmd_weyl_closed_form)
    p = wsub.add_parser("gz", parents=[common],
                        help="exponential form of the deformed generator")
    p.add_argument("--order", type=int, default=9)
    p.set_defaults(fn=_cmd_weyl_gz)
    p = wsub.add_parser("stirling", parents=[common],
                        help="q-Stirling triangles and inversion")
    p.add_argument("--n", type=int, default=8)
    p.set_defaults(fn=_cmd_weyl_stirling)
    p = wsub.add_parser("center", parents=[common],
                        help="q-integer divisibility of the basic brackets")
    p.add_argument("--n", type=int, default=10)
    p.set_defaults(fn=_cmd_weyl_center)
    p = wsub.add_parser("recursion-report", parents=[common],
                        help="shortcut recursion vs the solver, with discrepancies")
    p.add_argument("--order", type=int, default=4)
    p.set_defaults(fn=_cmd_weyl_recursion)

    star = groups.add_parser("star", help="bidifferential star products")
    stsub = star.add_subparsers(dest="sub", required=True)
    p = stsub.add_parser("check", parents=[common], help="associativity and grading")
    p.add_argument("--kind", required=True, choices=["normal", "moyal", "qplane"])
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--trials", type=int, default=50)
    p.set_defaults(fn=_cmd_star_check)

    diagram = groups.add_parser("diagram", help="diagrams of algebras and cochains")
    dsub = diagram.add_subparsers(dest="sub", required=True)
    p = dsub.add_parser("nerve", parents=[common], help="nerve sizes and cohomology")
    p.add_argument("--shape", default="arrow", choices=sorted(_SHAPES))
    p.add_argument("--maxdim", type=int, default=2)
    p.set_defaults(fn=_cmd_diagram_nerve)
    p = dsub.add_parser("delta2", parents=[common],
                        help="total coboundary squares to zero on random cochains")
    p.add_argument("--shape", default="arrow", choices=["arrow", "cospan"])
    p.add_argument("--trials", type=int, default=25)
    p.set_defaults(fn=_cmd_diagram_delta2)
    p = dsub.add_parser("algebra", parents=[common],
                        help="glued one-morphism algebra and the matrix model")
    p.set_defaults(fn=_cmd_diagram_algebra)

    w1 = groups.add_parser("w1", help="cocycle reduction around the Weyl algebra")
    w1sub = w1.add_subparsers(dest="sub", required=True)
    p = w1sub.add_parser("reduce", parents=[common],
                         help="canonical representative of a cocycle file")
    p.add_argument("--input", required=True, help="JSON file with gammaF/gammaG")
    p.add_argument("--cutoff", type=int, default=8)
    p.set_defaults(fn=_cmd_w1_reduce)
    p = w1sub.add_parser("basis", parents=[common],
                         help="survey of surviving monomial classes")
    p.add_argument("--cutoff", type=int, default=6)
    p.set_defaults(fn=_cmd_w1_basis)

    p = groups.add_parser("acceptance", parents=[common],
                          help="run the end-to-end acceptance criteria")
    p.add_argument("--filter", default=None,
                   help="only run criteria whose name contains this substring")
    p.set_defaults(fn=_cmd_acceptance, _raw=True)

    return parser


@functools.cache
def _parser():
    """The argument parser, built once per process: parsing leaves it
    unchanged, and building it costs far more than a parse."""
    return _build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        result = args.fn(args)
        if not getattr(args, "_raw", False):
            result = _emit(result, args.json)
        sys.stdout.flush()
    except SystemExit:
        raise
    except BrokenPipeError:
        # The reader of stdout is gone.  Point stdout at devnull so that the
        # interpreter's last flush of what is still buffered cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except ValueError as exc:
        # the library rejects out-of-range parameters with ValueError
        print(f"diagdeform: {exc}", file=sys.stderr)
        raise SystemExit(2)
    return result


if __name__ == "__main__":
    sys.exit(main())
