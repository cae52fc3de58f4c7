"""Diagrams of algebras over small categories, with the total coboundary as
an exact sparse integer matrix.

A diagram here is a contravariant functor from a finite category to
finite-dimensional algebras with explicit structure constants.  The module
builds the nerve of the category (non-degenerate simplices only), the
simplicial cohomology of that nerve over QQ (once per category), and the
total coboundary on diagram cochains

    (delta Gamma)^sigma = simplicial part + (-1)^(dim sigma) * Hochschild part,

where the simplicial part twists the 0-th face by the module map T and the
last face by the algebra map phi on arguments.  Cochains are tables of
values on basis tuples.  The degree-n coboundary depends on the diagram
alone, so coboundary_matrix reads it once per diagram and degree off the
structure constants, the maps and the faces, as a linalg.IntRows, and
total_coboundary is one IntRows.apply.  All matrix and vector arithmetic is
linalg's.  The multilinear expansions of single_morphism_coboundary and
hochschild_coboundary compute the same values a second way and serve as
its oracle; delta^2 = 0 is checked on the nose.

For a diagram with a single morphism phi: B -> A the complex collapses to
triples (Gamma^B, Gamma^A, Gamma^phi) with coboundary

    (delta^B Gamma^B, delta^A Gamma^A, T Gamma^B - Gamma^A phi - delta Gamma^phi),

and the associated diagram algebra B + A + A*phi is built as an honest
structure-constant algebra; for B = A = QQ it coincides with lower
triangular 2x2 matrices, which the tests verify table against table.

The triangle condition for a commuting triangle theta = beta . alpha of
algebra maps (deform each map, ask that the triangle still commutes to
first order) is the linear identity beta Gamma^alpha + Gamma^beta alpha =
Gamma^theta; triangle_check evaluates it on a basis.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from itertools import product
from math import gcd, lcm

from .linalg import (
    IntRows,
    identity,
    mat_eq,
    mat_mul,
    mat_vec,
    rref,
    sparse_row,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
    zeros,
)
from .scalars import _fr

__all__ = [
    "ArityMismatch",
    "InvalidMorphism",
    "TypeMismatch",
    "SmallCategory",
    "NerveData",
    "nerve",
    "simplicial_cohomology",
    "ToyAlgebra",
    "check_algebra_map",
    "DiagramOfAlgebras",
    "DiagramCochain",
    "OutsideBasis",
    "CoboundaryMatrix",
    "coboundary_matrix",
    "total_coboundary",
    "single_morphism_coboundary",
    "diagram_algebra",
    "matrix_model_check",
    "triangle_check",
]


class ArityMismatch(ValueError):
    """A cochain component's table has the wrong number of arguments."""


class InvalidMorphism(ValueError):
    """A matrix fails to be a unit-preserving algebra map."""


class TypeMismatch(ValueError):
    """Linear maps with incompatible shapes were combined."""


class OutsideBasis(ValueError):
    """A cochain component sits on a key that is not a non-degenerate
    simplex, or on an argument tuple outside the basis of its algebra."""


# -------------------------------------------------------------- categories


class SmallCategory:
    """A finite category given by a complete composition table.

    Morphisms are named; the table must list g . f for every composable
    pair of non-identity morphisms whose composite is defined, and the
    constructor validates unit laws and associativity outright.

    A category must not be mutated after construction:
    simplicial_cohomology keeps its answers on it, one per maxdim.
    """

    def __init__(self, objects, morphisms, identities, compose_table):
        self.objects = list(objects)
        self.morphisms = dict(morphisms)
        self.identities = dict(identities)
        self._table = dict(compose_table)
        self._validate()
        self._cohomology = {}

    def dom(self, f):
        return self.morphisms[f][0]

    def cod(self, f):
        return self.morphisms[f][1]

    def is_identity(self, f) -> bool:
        return f in self._id_names

    def compose(self, g, f):
        """g . f, defined when cod(f) = dom(g)."""
        if self.cod(f) != self.dom(g):
            raise ValueError(f"{g} . {f} is not composable")
        if self.is_identity(f):
            return g
        if self.is_identity(g):
            return f
        return self._table[(g, f)]

    def nonidentity(self):
        return [f for f in sorted(self.morphisms) if not self.is_identity(f)]

    def _validate(self):
        for obj in self.objects:
            i = self.identities.get(obj)
            if i is None or self.morphisms.get(i) != (obj, obj):
                raise ValueError(f"object {obj!r} lacks an identity morphism")
        self._id_names = set(self.identities.values())
        for (g, f), gf in self._table.items():
            if self.cod(f) != self.dom(g):
                raise ValueError(f"table entry {g} . {f} is not composable")
            if self.morphisms[gf] != (self.dom(f), self.cod(g)):
                raise ValueError(f"table entry {g} . {f} = {gf} has wrong endpoints")
        for f in self.morphisms:
            for g in self.morphisms:
                if self.cod(f) != self.dom(g):
                    continue
                try:
                    self.compose(g, f)
                except KeyError:
                    raise ValueError(f"missing composite {g} . {f}") from None
        for f in self.morphisms:
            for g in self.morphisms:
                for h in self.morphisms:
                    if self.cod(f) != self.dom(g) or self.cod(g) != self.dom(h):
                        continue
                    if self.compose(h, self.compose(g, f)) != self.compose(
                        self.compose(h, g), f
                    ):
                        raise ValueError(f"composition not associative at ({h},{g},{f})")

    # -- constructors

    @classmethod
    def from_poset(cls, objects, leq_pairs):
        """The category of a finite poset: one morphism a -> b per a <= b.

        leq_pairs lists the generating relations; the reflexive-transitive
        closure is taken here.
        """
        objects = list(objects)
        leq = {(a, a) for a in objects} | {tuple(p) for p in leq_pairs}
        changed = True
        while changed:
            changed = False
            for (a, b) in list(leq):
                for (c, d) in list(leq):
                    if b == c and (a, d) not in leq:
                        leq.add((a, d))
                        changed = True
        name = lambda a, b: f"id_{a}" if a == b else f"m_{a}_{b}"
        morphisms = {name(a, b): (a, b) for (a, b) in leq}
        identities = {a: name(a, a) for a in objects}
        table = {}
        for (a, b) in leq:
            for (c, d) in leq:
                if b == c and a != b and c != d:
                    table[(name(c, d), name(a, b))] = name(a, d)
        return cls(objects, morphisms, identities, table)

    @classmethod
    def _without_composites(cls, objects, arrows):
        """The objects, an identity id_<object> on each, and the arrows
        {name: (dom, cod)}, no two of which compose (the constructor raises
        a missing composite otherwise)."""
        ids = {obj: f"id_{obj}" for obj in objects}
        return cls(objects, {**{i: (obj, obj) for obj, i in ids.items()}, **arrows}, ids, {})

    @classmethod
    def arrow(cls):
        """One non-identity morphism u: B -> A."""
        return cls._without_composites(["A", "B"], {"u": ("B", "A")})

    @classmethod
    def parallel_pair(cls):
        """Two parallel arrows B -> A (no composable non-identity pairs)."""
        return cls._without_composites(["A", "B"], {"u": ("B", "A"), "v": ("B", "A")})

    @classmethod
    def cospan(cls):
        """Two arrows into a common target: B -> A <- C."""
        return cls._without_composites(["A", "B", "C"], {"u": ("B", "A"), "v": ("C", "A")})

    @classmethod
    def chain(cls, length: int):
        """The poset 0 < 1 < ... < length."""
        objs = list(range(length + 1))
        return cls.from_poset(objs, [(i, i + 1) for i in range(length)])

    def __repr__(self):
        return f"SmallCategory({len(self.objects)} objects, {len(self.morphisms)} morphisms)"


# ------------------------------------------------------------------- nerves


def _faces(cat: SmallCategory, simplex):
    """All faces of a simplex of dimension >= 1, as (index, face) pairs.

    Faces are objects when the simplex is 1-dimensional.  A middle face
    whose composite collapses to an identity is degenerate and omitted.
    """
    q = len(simplex)
    out = []
    if q == 1:
        f = simplex[0]
        return [(0, cat.cod(f)), (1, cat.dom(f))]
    out.append((0, simplex[1:]))
    for r in range(1, q):
        comp = cat.compose(simplex[r], simplex[r - 1])
        if not cat.is_identity(comp):
            out.append((r, simplex[: r - 1] + (comp,) + simplex[r + 1 :]))
    out.append((q, simplex[:-1]))
    return out


class NerveData:
    """Simplices per dimension and the chain boundary matrices between them."""

    def __init__(self, simplices, boundaries):
        self.simplices = simplices
        self.boundaries = boundaries

    def counts(self):
        return [len(s) for s in self.simplices]

    def boundary_squares_vanish(self) -> bool:
        """Whether every composite of consecutive boundary matrices is zero."""
        b = self.boundaries
        return all(vec_is_zero(row)
                   for q in range(2, len(b)) for row in mat_mul(b[q - 1], b[q]))


def nerve(cat: SmallCategory, maxdim: int) -> NerveData:
    """Non-degenerate simplices of the nerve through dimension maxdim.

    A q-simplex is a composable string of q non-identity morphisms.  The
    boundary of dimension q is returned as a matrix from q-chains to
    (q-1)-chains with entries summed over coincident faces.
    """
    if maxdim < 0:
        raise ValueError("maxdim must be nonnegative")
    dims = [sorted(cat.objects, key=str)]
    if maxdim >= 1:
        dims.append([(f,) for f in cat.nonidentity()])
    for q in range(2, maxdim + 1):
        layer = []
        for prefix in dims[q - 1]:
            for f in cat.nonidentity():
                if cat.dom(f) == cat.cod(prefix[-1]):
                    layer.append(prefix + (f,))
        dims.append(layer)
    boundaries = [None]
    for q in range(1, maxdim + 1):
        index = {s: i for i, s in enumerate(dims[q - 1])}
        M = [[Fraction(0)] * len(dims[q]) for _ in dims[q - 1]]
        for col, s in enumerate(dims[q]):
            for r, face in _faces(cat, s):
                M[index[face]][col] += Fraction(-1) ** r
        boundaries.append(M)
    return NerveData(dims, boundaries)


def simplicial_cohomology(cat: SmallCategory, maxdim: int):
    """Ranks of H^0 .. H^maxdim of the nerve with constant QQ coefficients.

    The answer depends on the category alone, so it is computed once per
    category and maxdim, from the nerve through dimension maxdim + 1, and
    kept on the category; every call returns a fresh list.
    """
    if maxdim < 0:
        raise ValueError("maxdim must be nonnegative")
    dims = cat._cohomology.get(maxdim)
    if dims is None:
        data = nerve(cat, maxdim + 1)
        ranks = [0]
        for M in data.boundaries[1:]:
            ranks.append(len(rref(M, len(M[0]))[0]) if M and M[0] else 0)
        dims = cat._cohomology[maxdim] = tuple(
            len(data.simplices[q]) - ranks[q + 1] - ranks[q] for q in range(maxdim + 1))
    return list(dims)


# ------------------------------------------------------------ toy algebras


class ToyAlgebra:
    """A finite-dimensional algebra with explicit structure constants.

    table[i][j] is the coordinate vector of e_i * e_j; the unit is given as
    a vector.  Associativity and both unit laws are validated exhaustively
    on basis tuples at construction time.
    """

    def __init__(self, dim: int, table, unit):
        self.dim = dim
        self.table = [
            [[_fr(c) for c in table[i][j]] for j in range(dim)] for i in range(dim)
        ]
        self.unit = [_fr(c) for c in unit]
        self._validate()

    def multiply(self, u, v):
        out = zeros(self.dim)
        for i, ci in enumerate(u):
            if not ci:
                continue
            row = self.table[i]
            for j, cj in enumerate(v):
                if not cj:
                    continue
                c = ci * cj
                for k, x in enumerate(row[j]):
                    if x:
                        out[k] += c * x
        return out

    def basis(self, i):
        e = zeros(self.dim)
        e[i] = Fraction(1)
        return e

    def _validate(self):
        for i in range(self.dim):
            e = self.basis(i)
            if self.multiply(self.unit, e) != e or self.multiply(e, self.unit) != e:
                raise ValueError(f"unit law fails on basis vector {i}")
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    left = self.multiply(self.table[i][j], self.basis(k))
                    right = self.multiply(self.basis(i), self.table[j][k])
                    if left != right:
                        raise ValueError(f"associativity fails at ({i},{j},{k})")

    # -- stock examples

    @classmethod
    def field(cls) -> "ToyAlgebra":
        return cls(1, [[[1]]], [1])

    @classmethod
    def diagonal(cls, n: int) -> "ToyAlgebra":
        """QQ^n with componentwise multiplication."""
        table = [
            [[Fraction(int(i == j == k)) for k in range(n)] for j in range(n)]
            for i in range(n)
        ]
        return cls(n, table, [1] * n)

    @classmethod
    def dual_numbers(cls) -> "ToyAlgebra":
        """QQ[e]/(e^2), basis (1, e)."""
        table = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
        return cls(2, table, [1, 0])

    @classmethod
    def lower_triangular_2x2(cls) -> "ToyAlgebra":
        """Lower triangular 2x2 matrices, basis (E11, E22, E21)."""
        z = [0, 0, 0]
        table = [
            [[1, 0, 0], z, z],
            [z, [0, 1, 0], [0, 0, 1]],
            [[0, 0, 1], z, z],
        ]
        return cls(3, table, [1, 1, 0])

    def __repr__(self):
        return f"ToyAlgebra(dim={self.dim})"


def check_algebra_map(src: ToyAlgebra, dst: ToyAlgebra, matrix) -> None:
    """Raise InvalidMorphism unless matrix: src -> dst is a unital algebra map."""
    if len(matrix) != dst.dim or any(len(r) != src.dim for r in matrix):
        raise TypeMismatch(f"matrix shape is not {dst.dim} x {src.dim}")
    if mat_vec(matrix, src.unit) != dst.unit:
        raise InvalidMorphism("unit is not preserved")
    for i in range(src.dim):
        for j in range(src.dim):
            lhs = mat_vec(matrix, src.table[i][j])
            rhs = dst.multiply(mat_vec(matrix, src.basis(i)), mat_vec(matrix, src.basis(j)))
            if lhs != rhs:
                raise InvalidMorphism(f"multiplicativity fails on basis pair ({i},{j})")


# ------------------------------------------------------- diagrams and cochains


class DiagramOfAlgebras:
    """A contravariant functor: objects to toy algebras, morphisms to maps.

    For f: a -> b the matrix maps(f) represents A(f): A(b) -> A(a); the
    constructor checks functoriality A(g . f) = A(f) A(g), identity maps,
    and that every matrix is a unit-preserving algebra map.

    A diagram must not be mutated after construction: coboundary_matrix
    caches its coboundary matrices on it, one per degree.
    """

    def __init__(self, category: SmallCategory, algebras, maps):
        self.category = category
        self.algebras = dict(algebras)
        self.maps = {f: [[_fr(c) for c in row] for row in M] for f, M in maps.items()}
        for obj in category.objects:
            if obj not in self.algebras:
                raise ValueError(f"no algebra assigned to object {obj!r}")
        for f, (a, b) in category.morphisms.items():
            if category.is_identity(f):
                self.maps.setdefault(f, identity(self.algebras[a].dim))
                if not mat_eq(self.maps[f], identity(self.algebras[a].dim)):
                    raise InvalidMorphism(f"identity {f} must map to the identity matrix")
            else:
                M = self.maps.get(f)
                if M is None:
                    raise ValueError(f"no matrix assigned to morphism {f}")
                check_algebra_map(self.algebras[b], self.algebras[a], M)
        for f in category.morphisms:
            for g in category.morphisms:
                if category.cod(f) != category.dom(g):
                    continue
                gf = category.compose(g, f)
                if not mat_eq(self.maps[gf], mat_mul(self.maps[f], self.maps[g])):
                    raise InvalidMorphism(f"contravariance fails on {g} . {f}")
        self._coboundary_matrices = {}

    @classmethod
    def constant(cls, category: SmallCategory) -> "DiagramOfAlgebras":
        """The constant diagram QQ with identity maps."""
        k = ToyAlgebra.field()
        return cls(
            category,
            {obj: k for obj in category.objects},
            {f: [[Fraction(1)]] for f in category.morphisms},
        )

    def algebra_at(self, simplex_key, end: str) -> ToyAlgebra:
        if isinstance(simplex_key, tuple):
            obj = (
                self.category.dom(simplex_key[0])
                if end == "dom"
                else self.category.cod(simplex_key[-1])
            )
        else:
            obj = simplex_key
        return self.algebras[obj]

    def transport(self, simplex_key):
        """rho_sigma: A(c sigma) -> A(d sigma), the composite of the maps."""
        if not isinstance(simplex_key, tuple) or not simplex_key:
            return identity(self.algebras[simplex_key].dim)
        return reduce(mat_mul, [self.maps[f] for f in simplex_key])


def _normalize_table(table):
    return {
        tuple(args): [_fr(c) for c in vec]
        for args, vec in table.items()
        if not vec_is_zero(vec)
    }


class DiagramCochain:
    """A total-degree-n cochain: for each q-simplex with q <= n, a table of
    values of an (n-q)-linear map on basis tuples of A(c sigma), with values
    in A(d sigma).  Missing components are zero."""

    def __init__(self, diagram: DiagramOfAlgebras, degree: int, components):
        self.diagram = diagram
        self.degree = degree
        self.components = {}
        for key, table in components.items():
            q = len(key) if isinstance(key, tuple) else 0
            p = degree - q
            if p < 0:
                raise ArityMismatch(f"component on {key!r} exceeds total degree {degree}")
            _check_simplex(diagram.category, key)
            dim_in = diagram.algebra_at(key, "cod").dim
            dim_out = diagram.algebra_at(key, "dom").dim
            clean = _normalize_table(table)
            for args, vec in clean.items():
                if len(args) != p:
                    raise ArityMismatch(
                        f"component on {key!r} expects {p} arguments, table has {len(args)}"
                    )
                if len(vec) != dim_out:
                    raise ArityMismatch(f"value on {key!r} has wrong dimension")
            if p and clean and (min(map(min, clean)) < 0 or max(map(max, clean)) >= dim_in):
                args = next(a for a in clean if min(a) < 0 or max(a) >= dim_in)
                raise OutsideBasis(
                    f"component on {key!r}: argument tuple {args!r} is outside "
                    f"the basis 0..{dim_in - 1}"
                )
            if clean:
                self.components[key] = clean

    @classmethod
    def _trusted(cls, diagram, degree, components):
        """Trusted constructor: components already hold only nonzero values
        on basis tuples of non-degenerate simplices."""
        c = object.__new__(cls)
        c.diagram = diagram
        c.degree = degree
        c.components = components
        return c

    def component(self, key):
        return self.components.get(key, {})

    def is_zero(self) -> bool:
        return not self.components

    def __eq__(self, other):
        if not isinstance(other, DiagramCochain):
            return NotImplemented
        return (
            self.diagram is other.diagram
            and self.degree == other.degree
            and self.components == other.components
        )

    @classmethod
    def random(cls, diagram: DiagramOfAlgebras, degree: int, rng: random.Random):
        """Dense-ish random cochain with small rational entries."""
        data = nerve(diagram.category, degree)
        components = {}
        for q in range(degree + 1):
            p = degree - q
            for key in data.simplices[q]:
                src = diagram.algebra_at(key, "cod")
                dst = diagram.algebra_at(key, "dom")
                table = {}
                for args in _index_tuples(src.dim, p):
                    vec = [Fraction(rng.randint(-2, 2)) for _ in range(dst.dim)]
                    if not vec_is_zero(vec):
                        table[args] = vec
                if table:
                    components[key] = table
        return cls._trusted(diagram, degree, components)


def _check_simplex(cat: SmallCategory, key):
    """Raise OutsideBasis unless key is an object or a composable string of
    non-identity morphisms, the simplices of the nerve."""
    if isinstance(key, tuple):
        ok = bool(key) and all(f in cat.morphisms and not cat.is_identity(f) for f in key)
        ok = ok and all(cat.cod(f) == cat.dom(g) for f, g in zip(key, key[1:]))
    else:
        ok = key in cat.objects
    if not ok:
        raise OutsideBasis(f"component on {key!r}: not a non-degenerate simplex")


def _index_tuples(dim: int, arity: int):
    return list(product(range(dim), repeat=arity))


def _hochschild(dst: ToyAlgebra, src: ToyAlgebra, rho, evaluate, p: int, args):
    """delta_Hoch of the (p-1)-linear map `evaluate`, at p basis-coded args.

    The src-bimodule structure on dst values goes through rho: the first
    and last arguments act after being pushed along rho.
    """
    first = dst.multiply(mat_vec(rho, args[0]), evaluate(args[1:]))
    out = first
    for i in range(1, p):
        inner = src.multiply(args[i - 1], args[i])
        mid = evaluate(args[: i - 1] + (inner,) + args[i + 1 :])
        out = vec_add(out, vec_scale(Fraction(-1) ** i, mid))
    last = dst.multiply(evaluate(args[:-1]), mat_vec(rho, args[-1]))
    out = vec_add(out, vec_scale(Fraction(-1) ** p, last))
    return out


class CoboundaryMatrix(IntRows):
    """The degree-n total coboundary of one diagram as a sparse integer matrix.

    Column j stands for the coordinate basis[j] = (simplex, args, m) of a
    degree-n cochain: coordinate m of its value on the basis tuple args;
    columns[simplex][args] is the column of coordinate 0.  The IntRows rows
    are the coordinates of the degree-(n + 1) coboundary in simplex,
    argument-tuple and coordinate order: blocks lists (simplex, dim,
    [(args, first row)]) for every value that can be nonzero, and a value
    takes dim consecutive rows.
    """

    def __init__(self, basis, columns, rows, blocks, denominator):
        super().__init__(rows, denominator)
        self.basis = basis
        self.columns = columns
        self.blocks = blocks


def coboundary_matrix(D: DiagramOfAlgebras, n: int) -> CoboundaryMatrix:
    """The degree-n total coboundary of D, built on first use and cached on D."""
    M = D._coboundary_matrices.get(n)
    if M is None:
        M = D._coboundary_matrices[n] = _build_coboundary_matrix(D, n)
    return M


def _scaled(M, scale):
    """scale * M as integers; every denominator of M must divide scale."""
    return [[c.numerator * scale // c.denominator for c in row] for row in M]


def _build_coboundary_matrix(D: DiagramOfAlgebras, n: int) -> CoboundaryMatrix:
    """The rows of the coboundary, read off the structure constants, the maps
    and the faces: on a q-simplex sigma with p = n + 1 - q arguments,

        (delta Gamma)^sigma = T . Gamma^{d_0 sigma}
                              + sum_{0<r<q} (-1)^r Gamma^{d_r sigma}
                              + (-1)^q Gamma^{d_q sigma} . phi-on-arguments
                              + (-1)^q delta_Hoch(Gamma^sigma)

    with T the module map of the first morphism, phi the algebra map of the
    last, the Hochschild bimodule structure pushed along the transport rho,
    and degenerate middle faces dropped.  Every structure constant and map
    entry is put over one denominator delta; a term that is a product of d
    of them is scaled by delta^(n + 1 - d), so every entry is an integer
    over delta^(n + 1), reduced once at the end.
    """
    cat = D.category
    top = n + 1
    data = nerve(cat, top)
    delta = lcm(*[c.denominator for A in D.algebras.values()
                  for row in A.table for vec in row for c in vec],
                *[c.denominator for M in D.maps.values() for row in M for c in row])
    w = [delta ** (top - d) for d in range(top + 1)]
    maps = {f: _scaled(M, delta) for f, M in D.maps.items()}
    products = {}  # per object: products[i][j] = nonzero (k, c) of e_i e_j
    for obj, A in D.algebras.items():
        products[obj] = [[[(k, c) for k, c in enumerate(vec) if c]
                          for vec in _scaled(row, delta)] for row in A.table]

    basis, columns = [], {}
    for q in range(top):
        for key in data.simplices[q]:
            dim = D.algebra_at(key, "dom").dim
            cols = columns[key] = {}
            for args in _index_tuples(D.algebra_at(key, "cod").dim, n - q):
                cols[args] = len(basis)
                basis.extend((key, args, m) for m in range(dim))

    rows, blocks = [], []
    for q in range(top + 1):
        p = top - q
        for key in data.simplices[q]:
            s_obj = cat.cod(key[-1]) if q else key
            t_obj = cat.dom(key[0]) if q else key
            s, t = D.algebras[s_obj].dim, D.algebras[t_obj].dim
            faces = []
            if q:
                T = [(k, m, c * w[1]) for k, row in enumerate(maps[key[0]])
                     for m, c in enumerate(row) if c]
                phi = [[(j, c) for j, c in enumerate(col) if c]
                       for col in zip(*maps[key[-1]])]
                faces = [(r, columns[face]) for r, face in _faces(cat, key)]
            own = columns.get(key)  # the degree-n component, absent when p == 0
            if own is not None:
                rho = _scaled(D.transport(key), delta ** q)
                left, right = _actions(products[t_obj], rho, s, t, w[q + 1])
                src = products[s_obj]
            items = []
            for idx in _index_tuples(s, p):
                acc = [{} for _ in range(t)]
                for r, cols in faces:
                    sign = -1 if r % 2 else 1
                    if r == 0:
                        j = cols[idx]
                        for k, m, c in T:
                            _add(acc[k], j + m, c)
                    elif r < q:
                        j = cols[idx]
                        for k in range(t):
                            _add(acc[k], j + k, sign * w[0])
                    else:
                        moved = [((), sign * w[p])]
                        for a in idx:
                            moved = [(jt + (j,), c0 * c) for jt, c0 in moved for j, c in phi[a]]
                        for jt, c in moved:
                            j = cols[jt]
                            for k in range(t):
                                _add(acc[k], j + k, c)
                if own is not None:
                    sign = -1 if q % 2 else 1
                    j = own[idx[1:]]
                    for k, m, c in left[idx[0]]:
                        _add(acc[k], j + m, sign * c)
                    for i in range(1, p):
                        sign = -1 if (q + i) % 2 else 1
                        head, tail = idx[: i - 1], idx[i + 1 :]
                        for kk, c in src[idx[i - 1]][idx[i]]:
                            j = own[head + (kk,) + tail]
                            for k in range(t):
                                _add(acc[k], j + k, sign * c * w[1])
                    sign = -1 if (q + p) % 2 else 1
                    j = own[idx[:-1]]
                    for k, m, c in right[idx[-1]]:
                        _add(acc[k], j + m, sign * c)
                value = [sparse_row(a.items()) for a in acc]
                if any(cols for cols, _ in value):
                    items.append((idx, len(rows)))
                    rows.extend(value)
            if items:
                blocks.append((key, t, items))

    denominator = w[0]
    if denominator != 1:
        g = gcd(denominator, *[c for _, coefs in rows for c in coefs])
        if g != 1:
            rows = [(cols, tuple(c // g for c in coefs)) for cols, coefs in rows]
            denominator //= g
    return CoboundaryMatrix(basis, columns, rows, blocks, denominator)


def _add(row, j, c):
    row[j] = row.get(j, 0) + c


def _actions(products, rho, s, t, scale):
    """The two actions of a source basis vector e_a on target values, through
    rho: left[a] and right[a] list the nonzero (k, m, c) with c the k-th
    coordinate of (rho e_a) e_m, resp. e_m (rho e_a), times scale."""
    left, right = [], []
    for a in range(s):
        lacc, racc = {}, {}
        for l in range(t):
            x = rho[l][a]
            if not x:
                continue
            for m in range(t):
                for k, c in products[l][m]:
                    _add(lacc, (k, m), x * c)
                for k, c in products[m][l]:
                    _add(racc, (k, m), x * c)
        left.append([(k, m, c * scale) for (k, m), c in sorted(lacc.items()) if c])
        right.append([(k, m, c * scale) for (k, m), c in sorted(racc.items()) if c])
    return left, right


_ZERO = Fraction(0)


def total_coboundary(gamma: DiagramCochain) -> DiagramCochain:
    """The bicomplex coboundary, one total degree up: one IntRows.apply of
    coboundary_matrix(gamma.diagram, gamma.degree) to gamma's coordinates,
    one Fraction per nonzero output coordinate.  single_morphism_coboundary
    and hochschild_coboundary compute the same values by multilinear
    expansion and serve as the oracle for this function.
    """
    D = gamma.diagram
    M = coboundary_matrix(D, gamma.degree)
    x = [0] * len(M.basis)
    for key, table in gamma.components.items():
        cols = M.columns[key]
        for args, vec in table.items():
            j = cols[args]
            x[j : j + len(vec)] = vec
    vals, den = M.apply(x)
    make = Fraction if den == 1 else (lambda t: Fraction(t, den))
    components = {}
    for key, dim, items in M.blocks:
        table = {}
        for idx, start in items:
            vec = vals[start : start + dim]
            if any(vec):
                table[idx] = [make(t) if t else _ZERO for t in vec]
        if table:
            components[key] = table
    return DiagramCochain._trusted(D, gamma.degree + 1, components)


def coboundary_squares_vanish(diagrams, trials: int, rng: random.Random) -> bool:
    """delta(delta g) = 0 for random cochains g, trial t of degree t mod 3
    on diagrams[t mod len(diagrams)].  Every trial runs, so the cochains
    drawn from rng do not depend on the verdicts."""
    if trials < 1:
        raise ValueError("need at least one trial")
    ok = True
    for t in range(trials):
        g = DiagramCochain.random(diagrams[t % len(diagrams)], t % 3, rng)
        if not total_coboundary(total_coboundary(g)).is_zero():
            ok = False
    return ok


# ------------------------------------------- the single-morphism special case


def _table_evaluate(table, dim_out, args):
    out = zeros(dim_out)
    if not table:
        return out

    def expand(prefix, weight, rest):
        nonlocal out
        if not rest:
            vec = table.get(tuple(prefix))
            if vec is not None:
                out = vec_add(out, vec_scale(weight, vec))
            return
        for idx, c in enumerate(rest[0]):
            if c != 0:
                expand(prefix + [idx], weight * c, rest[1:])

    expand([], Fraction(1), list(args))
    return out


def hochschild_coboundary(alg: ToyAlgebra, table, arity: int):
    """Plain Hochschild coboundary of an arity-ary self-map table of alg."""
    out = {}
    for idx in _index_tuples(alg.dim, arity + 1):
        args = tuple(alg.basis(i) for i in idx)
        val = _hochschild(
            alg, alg, identity(alg.dim),
            lambda rest: _table_evaluate(table, alg.dim, rest),
            arity + 1, args,
        )
        if not vec_is_zero(val):
            out[idx] = val
    return out


def single_morphism_coboundary(B: ToyAlgebra, A: ToyAlgebra, phi, gamma_b, gamma_a,
                               gamma_phi, degree: int):
    """Coboundary of (Gamma^B, Gamma^A, Gamma^phi) for one morphism phi: B -> A.

    Gamma^B and Gamma^A are degree-ary self-map tables; Gamma^phi is a
    (degree-1)-ary table from B arguments to A values (ignored when degree
    is 0).  Returns the triple of tables

        (delta Gamma^B, delta Gamma^A, T Gamma^B - Gamma^A phi - delta Gamma^phi)

    where T post-composes with phi, "Gamma^A phi" pre-composes every
    argument with phi, and the mixed delta uses the B-action on A through
    phi on both sides.
    """
    check_algebra_map(B, A, phi)
    db = hochschild_coboundary(B, gamma_b, degree)
    da = hochschild_coboundary(A, gamma_a, degree)
    mixed = {}
    for idx in _index_tuples(B.dim, degree):
        args = tuple(B.basis(i) for i in idx)
        val = mat_vec(phi, _table_evaluate(gamma_b, B.dim, args))
        moved = tuple(mat_vec(phi, a) for a in args)
        val = vec_sub(val, _table_evaluate(gamma_a, A.dim, moved))
        if degree >= 1:
            hoch = _hochschild(
                A, B, phi,
                lambda rest: _table_evaluate(gamma_phi or {}, A.dim, rest),
                degree, args,
            )
            val = vec_sub(val, hoch)
        if not vec_is_zero(val):
            mixed[idx] = val
    return db, da, mixed


# ----------------------------------------------------- the diagram algebra


def single_morphism_embedding_check(B: ToyAlgebra, A: ToyAlgebra, phi,
                                    degrees, rng) -> bool:
    """The explicit one-morphism complex against the diagram coboundary.

    Random triples (Gamma^B, Gamma^A, Gamma^phi) for phi: B -> A are fed to
    single_morphism_coboundary and to total_coboundary over the arrow
    category with B at the codomain object; the three components must agree
    exactly in every tested degree.
    """
    check_algebra_map(B, A, phi)
    D = DiagramOfAlgebras(SmallCategory.arrow(), {"A": B, "B": A}, {"u": phi})

    def rand_table(src_dim, dst_dim, arity):
        return {t: [Fraction(rng.randint(-2, 2)) for _ in range(dst_dim)]
                for t in _index_tuples(src_dim, arity)}

    for degree in degrees:
        gb = rand_table(B.dim, B.dim, degree)
        ga = rand_table(A.dim, A.dim, degree)
        gphi = rand_table(B.dim, A.dim, degree - 1) if degree >= 1 else None
        db, da, mixed = single_morphism_coboundary(B, A, phi, gb, ga, gphi, degree)
        components = {"A": gb, "B": ga}
        if gphi:
            components[("u",)] = gphi
        d = total_coboundary(DiagramCochain(D, degree, components))
        if d.component("A") != db or d.component("B") != da:
            return False
        if d.component(("u",)) != mixed:
            return False
    return True


def diagram_algebra(B: ToyAlgebra, A: ToyAlgebra, phi) -> ToyAlgebra:
    """The algebra B + A + A.phi on triples (b, a1, a2.phi).

    Multiplication is (b, a1, a2)(b', a1', a2') =
    (b b', a1 a1', a1 a2' + a2 phi(b')); the ToyAlgebra constructor then
    certifies associativity and the unit (1_B, 1_A, 0) exhaustively.
    """
    check_algebra_map(B, A, phi)
    nb, na = B.dim, A.dim
    dim = nb + 2 * na

    def mult(u, v):
        ub, u1, u2 = u[:nb], u[nb : nb + na], u[nb + na :]
        vb, v1, v2 = v[:nb], v[nb : nb + na], v[nb + na :]
        b = B.multiply(ub, vb)
        a1 = A.multiply(u1, v1)
        a2 = vec_add(A.multiply(u1, v2), A.multiply(u2, mat_vec(phi, vb)))
        return b + a1 + a2

    e = identity(dim)
    table = [[mult(e[i], e[j]) for j in range(dim)] for i in range(dim)]
    unit = list(B.unit) + list(A.unit) + zeros(na)
    return ToyAlgebra(dim, table, unit)


def matrix_model_check() -> bool:
    """diagram_algebra(QQ, QQ, id) versus lower triangular 2x2 matrices.

    Under the basis correspondence (b, a1, a2) -> (E11, E22, E21) the two
    structure-constant tables must coincide entry for entry.
    """
    k = ToyAlgebra.field()
    built = diagram_algebra(k, k, [[Fraction(1)]])
    model = ToyAlgebra.lower_triangular_2x2()
    return built.table == model.table and built.unit == model.unit


# -------------------------------------------------------- triangle condition


def triangle_check(alpha, beta, gamma_alpha, gamma_beta, gamma_theta) -> dict:
    """First-order commutation of a deformed triangle theta = beta . alpha.

    alpha: W -> V and beta: V -> U are matrices; the gammas are linear maps
    of the same shapes as alpha, beta, and beta.alpha respectively.  The
    condition is beta Gamma^alpha + Gamma^beta alpha = Gamma^theta, checked
    as an exact matrix identity; when Gamma^theta = 0 this is the
    anti-commutation beta Gamma^alpha = -Gamma^beta alpha, reported
    separately.
    """
    nv = len(alpha)
    nw = len(alpha[0]) if alpha else 0
    nu = len(beta)
    if any(len(r) != nw for r in alpha) or any(len(r) != nv for r in beta):
        raise TypeMismatch("alpha and beta shapes are inconsistent")
    if len(gamma_alpha) != nv or any(len(r) != nw for r in gamma_alpha):
        raise TypeMismatch("gamma_alpha must have the shape of alpha")
    if len(gamma_beta) != nu or any(len(r) != nv for r in gamma_beta):
        raise TypeMismatch("gamma_beta must have the shape of beta")
    if len(gamma_theta) != nu or any(len(r) != nw for r in gamma_theta):
        raise TypeMismatch("gamma_theta must have the shape of beta . alpha")
    lhs = list(map(vec_add, mat_mul(beta, gamma_alpha), mat_mul(gamma_beta, alpha)))
    holds = mat_eq(lhs, gamma_theta)
    theta_zero = all(vec_is_zero(r) for r in gamma_theta)
    # with Gamma^theta = 0, beta Gamma^alpha = -Gamma^beta alpha is the
    # condition itself, exactly
    anti = holds if theta_zero else None
    return {"holds": holds, "theta_is_zero": theta_zero, "anticommutation": anti}
