import hashlib
import random
from fractions import Fraction

import pytest

from diagdeform import diagram
from diagdeform.acceptance import (
    criterion_diagram,
    sample_arrow_diagram,
    sample_cospan_diagram,
)
from diagdeform.diagram import (
    ArityMismatch,
    DiagramCochain,
    DiagramOfAlgebras,
    InvalidMorphism,
    OutsideBasis,
    SmallCategory,
    ToyAlgebra,
    TypeMismatch,
    _mat_mul,
    _vec_is_zero,
    check_algebra_map,
    coboundary_matrix,
    diagram_algebra,
    matrix_model_check,
    nerve,
    simplicial_cohomology,
    single_morphism_coboundary,
    single_morphism_embedding_check,
    total_coboundary,
    triangle_check,
)

F = Fraction


def ident(n):
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


def test_category_builders_validate():
    for cat in (
        SmallCategory.arrow(),
        SmallCategory.parallel_pair(),
        SmallCategory.cospan(),
        SmallCategory.chain(3),
    ):
        assert cat.objects


def test_category_rejects_bad_table():
    # composite with wrong endpoints
    with pytest.raises(ValueError):
        SmallCategory(
            ["a", "b"],
            {"id_a": ("a", "a"), "id_b": ("b", "b"), "f": ("a", "b"), "g": ("b", "a"),
             "h": ("a", "a")},
            {"a": "id_a", "b": "id_b"},
            {("g", "f"): "id_a", ("f", "g"): "id_b", ("h", "h"): "h",
             ("f", "h"): "f", ("h", "g"): "g",
             ("g", "h"): "g"},  # g . h: a -> a but g has wrong endpoints
        )


def test_nerve_counts_frozen():
    assert nerve(SmallCategory.arrow(), 2).counts() == [2, 1, 0]
    assert nerve(SmallCategory.parallel_pair(), 2).counts() == [2, 2, 0]
    assert nerve(SmallCategory.cospan(), 2).counts() == [3, 2, 0]
    assert nerve(SmallCategory.chain(2), 2).counts() == [3, 3, 1]


def test_boundary_squares_to_zero():
    for cat in (
        SmallCategory.arrow(),
        SmallCategory.parallel_pair(),
        SmallCategory.cospan(),
        SmallCategory.chain(3),
    ):
        data = nerve(cat, 4)
        for q in range(2, 5):
            if data.boundaries[q] and data.boundaries[q - 1]:
                prod = _mat_mul(data.boundaries[q - 1], data.boundaries[q])
                assert all(_vec_is_zero(row) for row in prod)


def test_simplicial_cohomology_ranks():
    assert simplicial_cohomology(SmallCategory.arrow(), 1) == [1, 0]
    assert simplicial_cohomology(SmallCategory.parallel_pair(), 1) == [1, 1]
    assert simplicial_cohomology(SmallCategory.cospan(), 1) == [1, 0]
    assert simplicial_cohomology(SmallCategory.chain(2), 2) == [1, 0, 0]


_NAMED_CATEGORIES = {
    "arrow": SmallCategory.arrow,
    "parallel_pair": SmallCategory.parallel_pair,
    "cospan": SmallCategory.cospan,
    "chain(2)": lambda: SmallCategory.chain(2),
    "chain(3)": lambda: SmallCategory.chain(3),
}


@pytest.mark.parametrize("name", sorted(_NAMED_CATEGORIES))
def test_simplicial_cohomology_matches_sympy_ranks(name):
    # dim H^q = #q-simplices - rank d_(q+1) - rank d_q, with the ranks of
    # the nerve's boundary matrices taken by sympy
    sympy = pytest.importorskip("sympy")
    cat = _NAMED_CATEGORIES[name]()
    data = nerve(cat, 5)

    def rank(q):
        M = data.boundaries[q]
        return sympy.Matrix(M).rank() if q and M and M[0] else 0

    expected = [len(data.simplices[q]) - rank(q + 1) - rank(q) for q in range(5)]
    assert simplicial_cohomology(cat, 4) == expected
    # the second answer comes from the category's store and is the same
    assert simplicial_cohomology(cat, 4) == expected


def test_simplicial_cohomology_returns_a_fresh_list():
    cat = SmallCategory.parallel_pair()
    first = simplicial_cohomology(cat, 2)
    first.append(7)
    first[0] = 99
    assert simplicial_cohomology(cat, 2) == [1, 1, 0]


def test_simplicial_cohomology_builds_the_nerve_once_per_category(monkeypatch):
    calls = []
    real_nerve = diagram.nerve

    def counted(cat, maxdim):
        calls.append((cat, maxdim))
        return real_nerve(cat, maxdim)

    monkeypatch.setattr(diagram, "nerve", counted)
    cat = SmallCategory.chain(3)
    assert simplicial_cohomology(cat, 4) == [1, 0, 0, 0, 0]
    assert calls == [(cat, 5)]
    assert simplicial_cohomology(cat, 4) == [1, 0, 0, 0, 0]
    assert calls == [(cat, 5)]
    # another maxdim, or another category with the same shape, is its own answer
    assert simplicial_cohomology(cat, 1) == [1, 0]
    other = SmallCategory.chain(3)
    assert simplicial_cohomology(other, 4) == [1, 0, 0, 0, 0]
    assert calls == [(cat, 5), (cat, 2), (other, 5)]


def test_toy_algebra_validation():
    ToyAlgebra.field()
    ToyAlgebra.diagonal(3)
    ToyAlgebra.dual_numbers()
    ToyAlgebra.lower_triangular_2x2()
    # basis (1, a, b) with a*a = b, a*b = b*a = 1, b*b = 0:
    # (a*a)*b = 0 while a*(a*b) = a, so associativity fails
    bad = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        [[0, 0, 1], [1, 0, 0], [0, 0, 0]],
    ]
    with pytest.raises(ValueError):
        ToyAlgebra(3, bad, [1, 0, 0])


def test_algebra_map_checks():
    diag = ToyAlgebra.diagonal(2)
    dual = ToyAlgebra.dual_numbers()
    check_algebra_map(diag, dual, [[F(1), F(0)], [F(0), F(0)]])
    with pytest.raises(InvalidMorphism):
        check_algebra_map(diag, dual, [[F(1), F(0)], [F(0), F(1)]])  # e2 -> eps
    with pytest.raises(InvalidMorphism):
        check_algebra_map(diag, dual, [[F(2), F(0)], [F(0), F(0)]])  # unit broken
    with pytest.raises(TypeMismatch):
        check_algebra_map(diag, dual, [[F(1), F(0)]])


def test_contravariance_enforced():
    cat = SmallCategory.chain(2)
    diag = ToyAlgebra.diagonal(2)
    swap = [[F(0), F(1)], [F(1), F(0)]]
    algebras = {0: diag, 1: diag, 2: diag}
    good = {"m_0_1": swap, "m_1_2": ident(2), "m_0_2": swap}
    DiagramOfAlgebras(cat, algebras, good)
    bad = {"m_0_1": swap, "m_1_2": ident(2), "m_0_2": ident(2)}
    with pytest.raises(InvalidMorphism):
        DiagramOfAlgebras(cat, algebras, bad)


def test_constant_diagram_indicator_gives_simplicial_coboundary():
    cat = SmallCategory.parallel_pair()
    D = DiagramOfAlgebras.constant(cat)
    indicator = DiagramCochain(D, 0, {"A": {(): [F(1)]}})
    d = total_coboundary(indicator)
    # (delta c)(f) = c(cod f) - c(dom f) = 1 - 0 on both arrows; no
    # Hochschild contribution anywhere (dim-1 commutative algebras)
    assert d.component("A") == {}
    assert d.component("B") == {}
    assert d.component(("u",)) == {(): [F(1)]}
    assert d.component(("v",)) == {(): [F(1)]}


def test_zero_cochain_maps_to_zero():
    D = DiagramOfAlgebras.constant(SmallCategory.chain(2))
    z = DiagramCochain(D, 1, {})
    assert total_coboundary(z).is_zero()


def test_arity_mismatch_rejected():
    D = DiagramOfAlgebras.constant(SmallCategory.arrow())
    with pytest.raises(ArityMismatch):
        DiagramCochain(D, 0, {"A": {(0,): [F(1)]}})
    with pytest.raises(ArityMismatch):
        DiagramCochain(D, 1, {("u",): {(0,): [F(1)]}})


def test_argument_outside_basis_rejected():
    D = sample_arrow_diagram()
    with pytest.raises(OutsideBasis, match=r"'A'.*\(7,\)"):
        DiagramCochain(D, 1, {"A": {(7,): [1, 0]}})
    with pytest.raises(OutsideBasis, match=r"'B'.*\(-1,\)"):
        DiagramCochain(D, 1, {"B": {(-1,): [2, 0]}})
    with pytest.raises(OutsideBasis, match=r"\('u',\).*\(0, 2\)"):
        DiagramCochain(D, 3, {("u",): {(0, 2): [1, 0]}})
    # degenerate and non-composable strings are not simplices of the nerve
    for key in (("id_A",), ("u", "u"), (), "Z"):
        with pytest.raises(OutsideBasis):
            DiagramCochain(D, 2, {key: {}})
    # the largest index of each basis is accepted
    DiagramCochain(D, 1, {"A": {(1,): [1, 0]}, ("u",): {(): [0, 1]}})


def mixed_diagram():
    """Arrow category with dual numbers upstairs and QQ^2 downstairs."""
    cat = SmallCategory.arrow()
    # contravariant: maps["u"] goes from the algebra at "A" to the one at "B"
    return DiagramOfAlgebras(
        cat,
        {"A": ToyAlgebra.diagonal(2), "B": ToyAlgebra.dual_numbers()},
        {"u": [[F(1), F(0)], [F(0), F(0)]]},
    )


def cospan_diagram():
    cat = SmallCategory.cospan()
    return DiagramOfAlgebras(
        cat,
        {"A": ToyAlgebra.diagonal(2),
         "B": ToyAlgebra.field(),
         "C": ToyAlgebra.dual_numbers()},
        {"u": [[F(1), F(0)]], "v": [[F(1), F(0)], [F(0), F(0)]]},
    )


def chain_diagram():
    """A non-constant diagram over 0 < 1 < 2, the first here with a 2-simplex:
    its middle face m_0_2 is non-degenerate and its transport is a product of
    two maps."""
    return DiagramOfAlgebras(
        SmallCategory.chain(2),
        {0: ToyAlgebra.dual_numbers(), 1: ToyAlgebra.diagonal(2),
         2: ToyAlgebra.diagonal(2)},
        {"m_0_1": [[F(1), F(0)], [F(0), F(0)]],
         "m_1_2": [[F(0), F(1)], [F(1), F(0)]],
         "m_0_2": [[F(0), F(1)], [F(0), F(0)]]},
    )


LT_PROJECTION = [[F(1), F(0), F(0)], [F(0), F(1), F(0)]]


def lt_arrow_diagram():
    """A non-commutative arrow: lower triangular 2x2 matrices (E11, E22, E21)
    at A, mapped onto their diagonal QQ^2 at B."""
    return DiagramOfAlgebras(
        SmallCategory.arrow(),
        {"A": ToyAlgebra.lower_triangular_2x2(), "B": ToyAlgebra.diagonal(2)},
        {"u": LT_PROJECTION},
    )


def lt_chain_diagram():
    """Lower triangular 2x2 matrices at every object of 0 < 1 < 2, identity maps."""
    lt = ToyAlgebra.lower_triangular_2x2()
    return DiagramOfAlgebras(
        SmallCategory.chain(2), {0: lt, 1: lt, 2: lt},
        {f: ident(3) for f in ("m_0_1", "m_1_2", "m_0_2")},
    )


DIAGRAMS = {
    "arrow": sample_arrow_diagram,
    "cospan": sample_cospan_diagram,
    "chain": chain_diagram,
    "constant_parallel": lambda: DiagramOfAlgebras.constant(SmallCategory.parallel_pair()),
    "lt_arrow": lt_arrow_diagram,
    "lt_chain": lt_chain_diagram,
}


def test_delta_squared_vanishes_on_random_cochains():
    rng = random.Random(2024)
    for D in (mixed_diagram(), cospan_diagram(), chain_diagram(), lt_chain_diagram()):
        for degree in (0, 1, 2):
            for _ in range(3):
                g = DiagramCochain.random(D, degree, rng)
                assert total_coboundary(total_coboundary(g)).is_zero()


def _coboundary_digest(cochains):
    """Number of stored values and a SHA-256 prefix of their exact text."""
    lines = [f"{key!r} {args!r} {' '.join(map(str, vec))}"
             for c in cochains
             for key in sorted(c.components, key=repr)
             for args, vec in sorted(c.components[key].items())]
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


# total_coboundary of three DiagramCochain.random(D, degree, Random(1983))
# cochains per degree (one rng per diagram, degrees in order).  The first
# three were recorded from the multilinear-expansion implementation that
# evaluated every face and Hochschild term on coordinate vectors, the two
# lower triangular ones from the basis-tuple implementation that preceded
# the coboundary matrix.
PINNED_COBOUNDARIES = {
    "arrow": [(3, "ebe5ab1df9243f9b"), (27, "67ab4e8130493bc8"),
              (37, "c3f25cf6db78df46"), (107, "fbdccf11f72cd9c2")],
    "cospan": [(5, "62a0a1e1d052072d"), (34, "eaaf89e0ffd9653b"),
               (48, "0a3160eba0a89b42"), (130, "c2b917001b134c4d")],
    "chain": [(9, "d5fab5d58286fae8"), (55, "ca44cb01accda58f"),
              (80, "d3d76ec13323ee3e"), (211, "3a1770243a83bb79")],
    "lt_arrow": [(11, "ccd087e0659b2dbb"), (47, "388f1ed03b5dc008"),
                 (121, "e54a57a38ab945ca"), (357, "9cca0141eec059c0")],
    "lt_chain": [(31, "07cac677bf708df2"), (108, "c9e7bb4f3b6c41fb"),
                 (324, "b7425496a3041b80"), (975, "d56019afb8956801")],
}


@pytest.mark.parametrize("name", sorted(PINNED_COBOUNDARIES))
def test_total_coboundary_values_are_pinned(name):
    D = DIAGRAMS[name]()
    rng = random.Random(1983)
    got = []
    for degree in range(4):
        cochains = [DiagramCochain.random(D, degree, rng) for _ in range(3)]
        got.append(_coboundary_digest([total_coboundary(g) for g in cochains]))
    assert got == PINNED_COBOUNDARIES[name]


def test_single_morphism_matches_total_coboundary():
    # the triple (Gamma^B, Gamma^A, Gamma^phi) with phi: B -> A sits inside
    # the arrow-category complex with B at the codomain object and A at the
    # domain object, since the module map T: M(cod) -> M(dom) is phi itself
    rng = random.Random(55)
    B = ToyAlgebra.diagonal(2)
    A = ToyAlgebra.dual_numbers()
    phi = [[F(1), F(0)], [F(0), F(0)]]
    D = DiagramOfAlgebras(SmallCategory.arrow(), {"A": B, "B": A}, {"u": phi})
    for degree in (0, 1, 2):
        def rand_table(alg_src_dim, alg_dst_dim, arity):
            table = {}
            tuples = [()]
            for _ in range(arity):
                tuples = [t + (i,) for t in tuples for i in range(alg_src_dim)]
            for t in tuples:
                vec = [F(rng.randint(-2, 2)) for _ in range(alg_dst_dim)]
                table[t] = vec
            return table

        gb = rand_table(B.dim, B.dim, degree)
        ga = rand_table(A.dim, A.dim, degree)
        gphi = rand_table(B.dim, A.dim, degree - 1) if degree >= 1 else None
        db, da, mixed = single_morphism_coboundary(B, A, phi, gb, ga, gphi, degree)
        components = {"A": gb, "B": ga}
        if gphi:
            components[("u",)] = gphi
        gamma = DiagramCochain(D, degree, components)
        d = total_coboundary(gamma)
        assert d.component("A") == db
        assert d.component("B") == da
        assert d.component(("u",)) == mixed


def test_fractional_diagram_and_cochains_match_single_morphism_oracle():
    # QQ^2 in the basis (1, e1/2) has the structure constant (e1/2)^2 = (1/2)(e1/2),
    # and its identification with the diagonal basis has the entry 1/2, so the
    # matrices carry a denominator and the cochains bring their own
    half = ToyAlgebra(2, [[[1, 0], [0, 1]], [[0, 1], [0, F(1, 2)]]], [1, 0])
    diag = ToyAlgebra.diagonal(2)
    phi = [[F(1), F(1, 2)], [F(1), F(0)]]
    D = DiagramOfAlgebras(SmallCategory.arrow(), {"A": half, "B": diag}, {"u": phi})
    rng = random.Random(91)

    def rand_table(src_dim, dst_dim, arity):
        return {t: [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(dst_dim)]
                for t in diagram._index_tuples(src_dim, arity)}

    for degree in range(4):
        assert coboundary_matrix(D, degree).denominator > 1
        gb = rand_table(2, 2, degree)
        ga = rand_table(2, 2, degree)
        gphi = rand_table(2, 2, degree - 1) if degree else None
        db, da, mixed = single_morphism_coboundary(half, diag, phi, gb, ga, gphi, degree)
        components = {"A": gb, "B": ga}
        if gphi:
            components[("u",)] = gphi
        d = total_coboundary(DiagramCochain(D, degree, components))
        assert (d.component("A"), d.component("B"), d.component(("u",))) == (db, da, mixed)


def _matrix_rows(M):
    """The rows of a coboundary matrix keyed by (simplex, args, coordinate)."""
    out = {}
    for key, dim, items in M.blocks:
        for idx, start in items:
            for k in range(dim):
                cols, coefs = M.rows[start + k]
                out[(key, idx, k)] = dict(zip(cols, coefs))
    return out


@pytest.mark.parametrize("name", sorted(DIAGRAMS))
def test_coboundary_matrices_compose_to_zero(name):
    D = DIAGRAMS[name]()
    for n in range(3):
        first = _matrix_rows(coboundary_matrix(D, n))
        second = coboundary_matrix(D, n + 1)
        for cols, coefs in second.rows:
            product = {}
            for j, c in zip(cols, coefs):
                for col, c2 in first.get(second.basis[j], {}).items():
                    product[col] = product.get(col, 0) + c * c2
            assert not any(product.values())


@pytest.mark.parametrize("name", ["arrow", "lt_arrow"])
def test_coboundary_matrix_columns_match_single_morphism_oracle(name):
    D = DIAGRAMS[name]()
    B, A, phi = D.algebras["A"], D.algebras["B"], D.maps["u"]
    slot = {"A": 0, "B": 1, ("u",): 2}
    for n in range(3):
        M = coboundary_matrix(D, n)
        rows = _matrix_rows(M)
        for j, (key, args, m) in enumerate(M.basis):
            triple = [{}, {}, {}]
            triple[slot[key]] = {args: [F(int(i == m)) for i in range(D.algebra_at(key, "dom").dim)]}
            oracle = single_morphism_coboundary(B, A, phi, *triple, n)
            expected = {(out_key, idx, k): c
                        for out_key, table in zip(("A", "B", ("u",)), oracle)
                        for idx, vec in table.items() for k, c in enumerate(vec) if c}
            column = {label: F(row[j], M.denominator)
                      for label, row in rows.items() if row.get(j)}
            assert column == expected


def test_coboundary_matrices_are_built_once_per_diagram_and_degree(monkeypatch):
    built = []
    real = diagram._build_coboundary_matrix

    def counting(D, n):
        built.append(n)
        return real(D, n)

    monkeypatch.setattr(diagram, "_build_coboundary_matrix", counting)
    criterion_diagram(1729)
    assert sorted(built) == [0, 0, 1, 1, 2, 2, 3, 3]
    D = sample_cospan_diagram()
    g = DiagramCochain.random(D, 2, random.Random(3))
    first = total_coboundary(g)
    assert built[8:] == [2]
    assert total_coboundary(g) == first
    assert built[8:] == [2]


def test_single_morphism_zero_triple():
    B = ToyAlgebra.field()
    A = ToyAlgebra.field()
    db, da, mixed = single_morphism_coboundary(B, A, [[F(1)]], {}, {}, {}, 1)
    assert db == {} and da == {} and mixed == {}


def test_diagram_algebra_units_and_example():
    B = ToyAlgebra.diagonal(2)
    A = ToyAlgebra.diagonal(2)
    alg = diagram_algebra(B, A, ident(2))  # constructor validates associativity
    assert alg.dim == 6
    e = alg.unit
    rng = random.Random(9)
    v = [F(rng.randint(-3, 3)) for _ in range(alg.dim)]
    assert alg.multiply(v, e) == v
    assert alg.multiply(e, v) == v


def test_diagram_algebra_rejects_bad_map():
    B = ToyAlgebra.diagonal(2)
    A = ToyAlgebra.dual_numbers()
    with pytest.raises(InvalidMorphism):
        diagram_algebra(B, A, [[F(1), F(0)], [F(0), F(1)]])


def test_matrix_model():
    assert matrix_model_check()


def test_triangle_condition():
    alpha = [[F(1)], [F(0)]]
    beta = [[F(1), F(1)]]
    g_alpha = [[F(2)], [F(1)]]
    g_beta = [[F(0), F(3)]]
    built = _mat_mul(beta, g_alpha)
    built = [[a + b for a, b in zip(r1, r2)]
             for r1, r2 in zip(built, _mat_mul(g_beta, alpha))]
    assert triangle_check(alpha, beta, g_alpha, g_beta, built)["holds"]

    r = triangle_check(alpha, beta, g_alpha, g_beta, [[F(0)]])
    assert not r["holds"]
    assert r["theta_is_zero"]
    assert r["anticommutation"] is False

    # a genuine theta-fixed pass: g_beta chosen so beta g_alpha = -g_beta alpha
    g_beta2 = [[F(-3), F(0)]]
    r2 = triangle_check(alpha, beta, g_alpha, g_beta2, [[F(0)]])
    assert r2["holds"] and r2["anticommutation"]

    with pytest.raises(TypeMismatch):
        triangle_check(alpha, beta, [[F(1), F(1)]], g_beta, [[F(0)]])


def test_single_morphism_embedding_check_helper():
    rng = random.Random(314)
    assert single_morphism_embedding_check(
        ToyAlgebra.diagonal(2), ToyAlgebra.dual_numbers(),
        [[F(1), F(0)], [F(0), F(0)]], (0, 1, 2), rng,
    )
    # non-commutative: a left/right swap in any Hochschild term changes values
    assert single_morphism_embedding_check(
        ToyAlgebra.lower_triangular_2x2(), ToyAlgebra.diagonal(2), LT_PROJECTION,
        (0, 1, 2, 3), random.Random(77),
    )
