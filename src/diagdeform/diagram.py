"""Diagrams of algebras over small categories, at a scale where everything
is checkable by exhaustive evaluation.

A diagram here is a contravariant functor from a finite category to
finite-dimensional algebras with explicit structure constants.  The module
builds the nerve of the category (non-degenerate simplices only), the
simplicial cohomology of that nerve over QQ, and the total coboundary on
diagram cochains

    (delta Gamma)^sigma = simplicial part + (-1)^(dim sigma) * Hochschild part,

where the simplicial part twists the 0-th face by the module map T and the
last face by the algebra map phi on arguments, exactly as the bicomplex
requires.  Cochains are stored extensionally, as tables of values on basis
tuples; that is only viable for toy algebras, which is the point: the
machinery is exercised where delta^2 = 0 can be checked on the nose.

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

from .linalg import rref

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
    "total_coboundary",
    "single_morphism_coboundary",
    "diagram_algebra",
    "matrix_model_check",
    "triangle_check",
    "category_from_json",
    "toy_algebra_from_json",
    "diagram_from_json",
]


class ArityMismatch(ValueError):
    """A cochain component's table has the wrong number of arguments."""


class InvalidMorphism(ValueError):
    """A matrix fails to be a unit-preserving algebra map."""


class TypeMismatch(ValueError):
    """Linear maps with incompatible shapes were combined."""


# ----------------------------------------------------------- linear algebra


def _fr(c) -> Fraction:
    return c if isinstance(c, Fraction) else Fraction(c)


def _zeros(n):
    return [Fraction(0)] * n


def _vec_add(u, v):
    return [a + b for a, b in zip(u, v)]

def _vec_sub(u, v):
    return [a - b for a, b in zip(u, v)]

def _vec_scale(c, u):
    return [c * a for a in u]

def _vec_is_zero(u):
    return all(a == 0 for a in u)


def _mat_vec(M, v):
    return [sum((row[j] * v[j] for j in range(len(v))), Fraction(0)) for row in M]


def _mat_mul(A, B):
    n, m, p = len(A), len(B), len(B[0]) if B else 0
    return [
        [sum((A[i][k] * B[k][j] for k in range(m)), Fraction(0)) for j in range(p)]
        for i in range(n)
    ]


def _identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _mat_eq(A, B):
    return len(A) == len(B) and all(ra == rb for ra, rb in zip(A, B))


# -------------------------------------------------------------- categories


class SmallCategory:
    """A finite category given by a complete composition table.

    Morphisms are named; the table must list g . f for every composable
    pair of non-identity morphisms whose composite is defined, and the
    constructor validates unit laws and associativity outright.
    """

    def __init__(self, objects, morphisms, identities, compose_table):
        self.objects = list(objects)
        self.morphisms = dict(morphisms)
        self.identities = dict(identities)
        self._table = dict(compose_table)
        self._validate()

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
    def arrow(cls):
        """One non-identity morphism u: B -> A."""
        return cls(
            ["A", "B"],
            {"id_A": ("A", "A"), "id_B": ("B", "B"), "u": ("B", "A")},
            {"A": "id_A", "B": "id_B"},
            {},
        )

    @classmethod
    def parallel_pair(cls):
        """Two parallel arrows B -> A (no composable non-identity pairs)."""
        return cls(
            ["A", "B"],
            {"id_A": ("A", "A"), "id_B": ("B", "B"), "u": ("B", "A"), "v": ("B", "A")},
            {"A": "id_A", "B": "id_B"},
            {},
        )

    @classmethod
    def cospan(cls):
        """Two arrows into a common target: B -> A <- C."""
        return cls(
            ["A", "B", "C"],
            {
                "id_A": ("A", "A"),
                "id_B": ("B", "B"),
                "id_C": ("C", "C"),
                "u": ("B", "A"),
                "v": ("C", "A"),
            },
            {"A": "id_A", "B": "id_B", "C": "id_C"},
            {},
        )

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
        return all(_vec_is_zero(row)
                   for q in range(2, len(b)) for row in _mat_mul(b[q - 1], b[q]))


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
    """Ranks of H^0 .. H^maxdim of the nerve with constant QQ coefficients."""
    data = nerve(cat, maxdim + 1)
    ranks = []
    for q in range(maxdim + 2):
        if q == 0 or q > maxdim + 1 or not data.boundaries[q]:
            ranks.append(0)
        else:
            M = data.boundaries[q]
            ranks.append(len(rref(M, len(M[0]))[0]))
    out = []
    for q in range(maxdim + 1):
        out.append(len(data.simplices[q]) - ranks[q + 1] - ranks[q])
    return out


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
        out = _zeros(self.dim)
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
        e = _zeros(self.dim)
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

    def to_json(self):
        entries = []
        for i in range(self.dim):
            for j in range(self.dim):
                if not _vec_is_zero(self.table[i][j]):
                    entries.append([i, j, [str(c) for c in self.table[i][j]]])
        return {"dim": self.dim, "unit": [str(c) for c in self.unit], "table": entries}

    def __repr__(self):
        return f"ToyAlgebra(dim={self.dim})"


def check_algebra_map(src: ToyAlgebra, dst: ToyAlgebra, matrix) -> None:
    """Raise InvalidMorphism unless matrix: src -> dst is a unital algebra map."""
    if len(matrix) != dst.dim or any(len(r) != src.dim for r in matrix):
        raise TypeMismatch(f"matrix shape is not {dst.dim} x {src.dim}")
    if _mat_vec(matrix, src.unit) != dst.unit:
        raise InvalidMorphism("unit is not preserved")
    for i in range(src.dim):
        for j in range(src.dim):
            lhs = _mat_vec(matrix, src.table[i][j])
            rhs = dst.multiply(_mat_vec(matrix, src.basis(i)), _mat_vec(matrix, src.basis(j)))
            if lhs != rhs:
                raise InvalidMorphism(f"multiplicativity fails on basis pair ({i},{j})")


# ------------------------------------------------------- diagrams and cochains


class DiagramOfAlgebras:
    """A contravariant functor: objects to toy algebras, morphisms to maps.

    For f: a -> b the matrix maps(f) represents A(f): A(b) -> A(a); the
    constructor checks functoriality A(g . f) = A(f) A(g), identity maps,
    and that every matrix is a unit-preserving algebra map.
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
                self.maps.setdefault(f, _identity(self.algebras[a].dim))
                if not _mat_eq(self.maps[f], _identity(self.algebras[a].dim)):
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
                if not _mat_eq(self.maps[gf], _mat_mul(self.maps[f], self.maps[g])):
                    raise InvalidMorphism(f"contravariance fails on {g} . {f}")

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
            return _identity(self.algebras[simplex_key].dim)
        M = self.maps[simplex_key[0]]
        for f in simplex_key[1:]:
            M = _mat_mul(M, self.maps[f])
        return M


def _normalize_table(table):
    return {
        tuple(args): [_fr(c) for c in vec]
        for args, vec in table.items()
        if not _vec_is_zero(vec)
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
            dim_out = diagram.algebra_at(key, "dom").dim
            clean = _normalize_table(table)
            for args, vec in clean.items():
                if len(args) != p:
                    raise ArityMismatch(
                        f"component on {key!r} expects {p} arguments, table has {len(args)}"
                    )
                if len(vec) != dim_out:
                    raise ArityMismatch(f"value on {key!r} has wrong dimension")
            if clean:
                self.components[key] = clean

    def component(self, key):
        return self.components.get(key, {})

    def evaluate(self, key, args):
        """Value on a tuple of coordinate vectors, by multilinear expansion."""
        dim_out = self.diagram.algebra_at(key, "dom").dim
        return _table_evaluate(self.component(key), dim_out, args)

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
                    if not _vec_is_zero(vec):
                        table[args] = vec
                if table:
                    components[key] = table
        return cls(diagram, degree, components)


def _index_tuples(dim: int, arity: int):
    if arity == 0:
        return [()]
    out = [()]
    for _ in range(arity):
        out = [t + (i,) for t in out for i in range(dim)]
    return out


def _hochschild(dst: ToyAlgebra, src: ToyAlgebra, rho, evaluate, p: int, args):
    """delta_Hoch of the (p-1)-linear map `evaluate`, at p basis-coded args.

    The src-bimodule structure on dst values goes through rho: the first
    and last arguments act after being pushed along rho.
    """
    first = dst.multiply(_mat_vec(rho, args[0]), evaluate(args[1:]))
    out = first
    for i in range(1, p):
        inner = src.multiply(args[i - 1], args[i])
        mid = evaluate(args[: i - 1] + (inner,) + args[i + 1 :])
        out = _vec_add(out, _vec_scale(Fraction(-1) ** i, mid))
    last = dst.multiply(evaluate(args[:-1]), _mat_vec(rho, args[-1]))
    out = _vec_add(out, _vec_scale(Fraction(-1) ** p, last))
    return out


def total_coboundary(gamma: DiagramCochain) -> DiagramCochain:
    """The bicomplex coboundary, one total degree up.

    On a q-simplex sigma with p = n + 1 - q arguments:

        (delta Gamma)^sigma = T . Gamma^{d_0 sigma}
                              + sum_{0<r<q} (-1)^r Gamma^{d_r sigma}
                              + (-1)^q Gamma^{d_q sigma} . phi-on-arguments
                              + (-1)^q delta_Hoch(Gamma^sigma)

    with T the module map of the first morphism, phi the algebra map of the
    last, and degenerate middle faces dropped.

    Arguments are basis tuples, so every term except the phi-moved last
    face is a table lookup: T and rho act through their columns, and the
    middle Hochschild terms expand only the one slot holding a structure
    constant.  single_morphism_coboundary computes the same values by
    multilinear expansion and serves as the oracle for this function.
    """
    D = gamma.diagram
    cat = D.category
    n = gamma.degree
    data = nerve(cat, n + 1)
    components = {}
    for q in range(n + 2):
        p = n + 1 - q
        for key in data.simplices[q]:
            src = D.algebra_at(key, "cod")
            dst = D.algebra_at(key, "dom")
            faces = []
            if q >= 1:
                T = D.maps[key[0]]
                phi_cols = _columns(D.maps[key[-1]])
                faces = [(r, gamma.components[face]) for r, face in _faces(cat, key)
                         if face in gamma.components]
            own = gamma.component(key)  # always empty when p == 0
            if own:
                rho_cols = _columns(D.transport(key))
                hoch_odd = q % 2 == 1
                last_odd = (q + p) % 2 == 1
            table = {}
            for idx in _index_tuples(src.dim, p):
                total = _zeros(dst.dim)
                for r, comp in faces:
                    if r == q:
                        val = _table_evaluate(comp, dst.dim, [phi_cols[i] for i in idx])
                    else:
                        val = comp.get(idx)
                        if val is None:
                            continue
                        if r == 0:
                            val = _mat_vec(T, val)
                    _accumulate(total, val, r % 2 == 1)
                if own:
                    val = own.get(idx[1:])
                    if val is not None:
                        _accumulate(total, dst.multiply(rho_cols[idx[0]], val), hoch_odd)
                    for i in range(1, p):
                        head, tail = idx[: i - 1], idx[i + 1 :]
                        for k, c in enumerate(src.table[idx[i - 1]][idx[i]]):
                            if c:
                                val = own.get(head + (k,) + tail)
                                if val is not None:
                                    _accumulate(total, [c * x for x in val],
                                                (q + i) % 2 == 1)
                    val = own.get(idx[:-1])
                    if val is not None:
                        _accumulate(total, dst.multiply(val, rho_cols[idx[-1]]), last_odd)
                if not _vec_is_zero(total):
                    table[idx] = total
            if table:
                components[key] = table
    return DiagramCochain(D, n + 1, components)


def _columns(M):
    """The columns of a matrix: column i is the image of the i-th basis vector."""
    return list(zip(*M))


def _accumulate(total, vec, subtract):
    """total += vec, or total -= vec, in place; zero entries are skipped."""
    for k, x in enumerate(vec):
        if x:
            if subtract:
                total[k] -= x
            else:
                total[k] += x


# ------------------------------------------- the single-morphism special case


def _table_evaluate(table, dim_out, args):
    out = _zeros(dim_out)
    if not table:
        return out

    def expand(prefix, weight, rest):
        nonlocal out
        if not rest:
            vec = table.get(tuple(prefix))
            if vec is not None:
                out = _vec_add(out, _vec_scale(weight, vec))
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
            alg, alg, _identity(alg.dim),
            lambda rest: _table_evaluate(table, alg.dim, rest),
            arity + 1, args,
        )
        if not _vec_is_zero(val):
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
        val = _mat_vec(phi, _table_evaluate(gamma_b, B.dim, args))
        moved = tuple(_mat_vec(phi, a) for a in args)
        val = _vec_sub(val, _table_evaluate(gamma_a, A.dim, moved))
        if degree >= 1:
            hoch = _hochschild(
                A, B, phi,
                lambda rest: _table_evaluate(gamma_phi or {}, A.dim, rest),
                degree, args,
            )
            val = _vec_sub(val, hoch)
        if not _vec_is_zero(val):
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
        table = {}
        tuples = [()]
        for _ in range(arity):
            tuples = [t + (i,) for t in tuples for i in range(src_dim)]
        for t in tuples:
            table[t] = [Fraction(rng.randint(-2, 2)) for _ in range(dst_dim)]
        return table

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
        a2 = _vec_add(A.multiply(u1, v2), A.multiply(u2, _mat_vec(phi, vb)))
        return b + a1 + a2

    def basis(i):
        e = _zeros(dim)
        e[i] = Fraction(1)
        return e

    table = [[mult(basis(i), basis(j)) for j in range(dim)] for i in range(dim)]
    unit = list(B.unit) + list(A.unit) + _zeros(na)
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
    lhs = _mat_mul(beta, gamma_alpha)
    lhs = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(lhs, _mat_mul(gamma_beta, alpha))]
    holds = _mat_eq(lhs, gamma_theta)
    theta_zero = all(_vec_is_zero(r) for r in gamma_theta)
    anti = None
    if theta_zero:
        anti = _mat_eq(
            _mat_mul(beta, gamma_alpha),
            [[-c for c in row] for row in _mat_mul(gamma_beta, alpha)],
        )
    return {"holds": holds, "theta_is_zero": theta_zero, "anticommutation": anti}


# ------------------------------------------------------------------ loaders


def category_from_json(d) -> SmallCategory:
    """{objects, morphisms: [{name, dom, cod}], compositions: [[g, f, gf]]}.

    Identity morphisms are implicit: one is added per object under the name
    id_<object> unless an "identities" map is given explicitly.
    """
    morphisms = {m["name"]: (m["dom"], m["cod"]) for m in d["morphisms"]}
    identities = d.get("identities")
    if identities is None:
        identities = {}
        for obj in d["objects"]:
            name = f"id_{obj}"
            if name in morphisms:
                raise ValueError(f"morphism name {name} collides with an implicit identity")
            morphisms[name] = (obj, obj)
            identities[obj] = name
    table = {(g, f): gf for g, f, gf in d.get("compositions", [])}
    return SmallCategory(d["objects"], morphisms, identities, table)


def toy_algebra_from_json(d) -> ToyAlgebra:
    """{dim, unit: [..], table: [[i, j, [coeffs]], ..]}; missing pairs are zero."""
    dim = d["dim"]
    table = [[_zeros(dim) for _ in range(dim)] for _ in range(dim)]
    for i, j, coeffs in d["table"]:
        table[i][j] = [Fraction(str(c)) for c in coeffs]
    unit = [Fraction(str(c)) for c in d["unit"]]
    return ToyAlgebra(dim, table, unit)


def diagram_from_json(d) -> DiagramOfAlgebras:
    """{category: .., algebras: {obj: toyalg}, maps: {morphism: matrix}}"""
    cat = category_from_json(d["category"])
    algebras = {obj: toy_algebra_from_json(a) for obj, a in d["algebras"].items()}
    maps = {
        f: [[Fraction(str(c)) for c in row] for row in M]
        for f, M in d.get("maps", {}).items()
    }
    return DiagramOfAlgebras(cat, algebras, maps)
