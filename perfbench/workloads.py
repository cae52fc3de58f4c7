"""Seeded inputs, ops and output checks for the three benchmark workloads.

Every workload is a closed loop with one client.  Its inputs are a list of
entries built from the workload seed alone; a run walks the list in order,
wrapping around, and stops only at the end of a cycle of the op mix, so two
runs of one seed time the same ops.  Each entry draws its case from a fixed
pool whose outputs were digested at the seed commit (golden.json); an op
fails if it raises, returns a false verdict, or its output digest differs.

suite     one ``diagdeform acceptance --filter <criterion> --seed <s> --json``
          call per op through cli.main; a cycle is the ten criteria in order,
          and each cycle takes its acceptance seed s from SUITE_SEEDS.
gauge     W_1 gauge reduction (reduce, then reduce after a random gauge move),
          a doubled total coboundary and one simplicial cohomology: exact
          linear algebra over QQ with Fraction scalars only.
symbolic  a cycle of five q-Weyl / QQ(q) / QQ(lambda) tasks: a QWeyl.multiply
          checked at q = 1, the Stirling inversion, the divisibility and
          Pochhammer identities, Buchberger's exceptional values, and the
          closed-form check of the Weyl isomorphism.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

# ------------------------------------------------------------------ pools

SUITE_SEEDS = (1729, 7, 42, 99, 314, 2024, 4096, 65537,
               11, 23, 101, 577, 1000, 31337, 8675309, 271828)

GAUGE_CUTOFFS = range(5, 13)
GAUGE_DEGREES = range(0, 3)
GAUGE_VARIANTS = 32            # v % 2 picks the diagram, v % 3 the category
GAUGE_LIST = 512               # entries in one seeded gauge list
GAUGE_COHOMOLOGY = {"chain3": [1, 0, 0, 0, 0], "cospan": [1, 0, 0, 0, 0],
                    "parallel_pair": [1, 1, 0, 0, 0]}

# Each symbolic task kind forms its own latency cluster.  The ranges keep
# every Stirling and closed-form case slower than the Buchberger task and
# every multiply and identities case faster, so the median op falls inside
# the Buchberger cluster and the tail inside the n = 7 Stirling cluster,
# not on a gap between two kinds, where it would jump with the mix.
MULTIPLY_POOL = 64
STIRLING_N = range(5, 8)
DIVISIBILITY_N = range(4, 13)
POCHHAMMER_N = range(4, 11)
CLOSED_FORM_R = range(8, 13)
SYMBOLIC_CYCLES = 200          # cycles in one seeded symbolic list

CYCLE = {"suite": 10, "gauge": 1, "symbolic": 5}


# --------------------------------------------------------------- digests


def encode(v):
    """JSON-ready form of a package value, through its own to_json/str."""
    if hasattr(v, "to_json"):
        return encode(v.to_json())
    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, dict):
        return {",".join(map(str, k)) if isinstance(k, tuple) else str(k): encode(x)
                for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [encode(x) for x in v]
    return str(v)


def canonical(v) -> str:
    return json.dumps(encode(v), sort_keys=True, separators=(",", ":"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Entry:
    """One op of a seeded list: golden key, inputs, call, check.

    ``run`` is the timed call.  ``check`` takes its result and returns
    (verdict, text), where text is the output whose digest must equal the
    golden one.
    """

    __slots__ = ("key", "inputs", "run", "check")

    def __init__(self, key, inputs, run, check):
        self.key = key
        self.inputs = inputs
        self.run = run
        self.check = check


def _blocks(rng: random.Random, values, n: int) -> list:
    """n values made of consecutive shuffled copies of ``values``.

    Any prefix of a run then meets every value about equally often, which
    keeps the latency mix of a run independent of where time cuts it.
    """
    out = []
    while len(out) < n:
        block = list(values)
        rng.shuffle(block)
        out.extend(block)
    return out[:n]


# ------------------------------------------------------------------ suite


def suite_case(pkg, name: str, s: int) -> Entry:
    argv = ["acceptance", "--filter", name, "--seed", str(s), "--json"]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = pkg.cli.main(argv)
        return code, buf.getvalue()

    def check(result):
        code, text = result
        reports = json.loads(text)
        ok = code == 0 and len(reports) == 1 and reports[0]["ok"] is True
        return ok, text

    return Entry(f"{name}/{s}", argv, run, check)


def suite_entries(pkg, seed: int) -> list:
    rng = random.Random(f"suite/{seed}")
    order = list(SUITE_SEEDS)
    rng.shuffle(order)
    names = [name for name, _ in pkg.acceptance.CRITERIA]
    return [suite_case(pkg, name, s) for s in order for name in names]


def suite_pool(pkg) -> list:
    names = [name for name, _ in pkg.acceptance.CRITERIA]
    return [suite_case(pkg, name, s) for s in SUITE_SEEDS for name in names]


# ------------------------------------------------------------------ gauge


def gauge_context(pkg):
    """The shared diagrams and categories that gauge cases draw from."""
    acc, cat = pkg.acceptance, pkg.diagram.SmallCategory
    return ((acc.sample_arrow_diagram(), acc.sample_cospan_diagram()),
            {"chain3": cat.chain(3), "cospan": cat.cospan(),
             "parallel_pair": cat.parallel_pair()})


def gauge_case(pkg, ctx, cutoff: int, degree: int, variant: int) -> Entry:
    w1, dg = pkg.w1diagram, pkg.diagram
    diagrams, categories = ctx
    rng = random.Random(f"gauge/{cutoff}/{degree}/{variant}")
    coc = w1.random_cocycle(rng, 5)
    move = w1.random_gauge(rng)
    cochain = dg.DiagramCochain.random(diagrams[variant % 2], degree, rng)
    shape = ("chain3", "cospan", "parallel_pair")[variant % 3]
    category = categories[shape]

    def run():
        r1 = w1.reduce(coc, cutoff)
        r2 = w1.reduce(w1.apply_gauge(coc, move), cutoff)
        delta2 = dg.total_coboundary(dg.total_coboundary(cochain))
        h = dg.simplicial_cohomology(category, 4)
        return r1, r2, delta2, h

    def check(result):
        r1, r2, delta2, h = result
        ok = (r1["consistent"] is True
              and r1["representative"].terms == r2["representative"].terms
              and delta2.is_zero()
              and h == GAUGE_COHOMOLOGY[shape])
        return ok, canonical({"reduce": r1, "gauged": r2["representative"],
                              "delta2_zero": delta2.is_zero(), "cohomology": h})

    inputs = {"cutoff": cutoff, "cocycle": coc, "gauge": move, "degree": degree,
              "cochain": cochain.components, "shape": shape}
    return Entry(f"{cutoff}/{degree}/{variant}", inputs, run, check)


def gauge_entries(pkg, seed: int) -> list:
    rng = random.Random(f"gauge/{seed}")
    ctx = gauge_context(pkg)
    strata = [(c, d) for c in GAUGE_CUTOFFS for d in GAUGE_DEGREES]
    return [gauge_case(pkg, ctx, c, d, rng.randrange(GAUGE_VARIANTS))
            for c, d in _blocks(rng, strata, GAUGE_LIST)]


def gauge_pool(pkg) -> list:
    ctx = gauge_context(pkg)
    return [gauge_case(pkg, ctx, c, d, v) for c in GAUGE_CUTOFFS for d in GAUGE_DEGREES
            for v in range(GAUGE_VARIANTS)]


# --------------------------------------------------------------- symbolic


def _random_symbolic(pkg, W, rng: random.Random):
    """Degree <= 4, two to four terms, coefficients in QQ(q) regular at q = 1."""
    sc = pkg.scalars
    q = sc.UniPoly.gen(sc.QVAR)
    dens = (sc.UniPoly.one(sc.QVAR), q, q * q, q + 1)
    triples = []
    for _ in range(rng.randint(2, 4)):
        i = rng.randint(0, 4)
        j = rng.randint(0, 4 - i)
        num = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        num[-1] = num[-1] or 1
        triples.append((i, j, sc.RatFunc(sc.UniPoly(sc.QVAR, num), rng.choice(dens))))
    return W.from_terms(triples)


def _at_q_one(pkg, classical, p):
    terms = {k: pkg.scalars.specialize(c, 1) for k, c in p.terms.items()}
    return pkg.qweyl.PseudoPoly(classical, terms)


def multiply_case(pkg, ctx, v: int) -> Entry:
    W, Wc = ctx
    rng = random.Random(f"symbolic/multiply/{v}")
    a = _random_symbolic(pkg, W, rng)
    b = _random_symbolic(pkg, W, rng)
    a1, b1 = _at_q_one(pkg, Wc, a), _at_q_one(pkg, Wc, b)

    def run():
        return W.multiply(a, b)

    def check(p):
        ok = _at_q_one(pkg, Wc, p).terms == Wc.multiply(a1, b1).terms
        return ok, canonical(p)

    return Entry(f"multiply/{v}", [a, b], run, check)


def stirling_case(pkg, n: int) -> Entry:
    def run():
        return pkg.qweyl.stirling_inverse_check(n)

    return Entry(f"stirling/{n}", n, run, lambda ok: (ok is True, canonical(ok)))


def identities_case(pkg, n: int, m: int) -> Entry:
    def run():
        return pkg.qweyl.commutator_divisibility(n), pkg.qweyl.pochhammer_xy(m)

    def check(result):
        div, (element, e) = result
        ok = div["divisible"] is True and e == m * (m - 1) // 2
        return ok, canonical({"divisibility": div, "pochhammer": [element, e]})

    return Entry(f"identities/{n}/{m}", [n, m], run, check)


def groebner_case(pkg) -> Entry:
    gb = pkg.groebner

    def run():
        run_ = gb.buchberger(gb.sphere_ideal())
        return run_, gb.exceptional_values(run_)

    def check(result):
        run_, exc = result
        ok = exc["roots"] == [Fraction(0), Fraction(1)] and exc["symbolic_factors"] == []
        return ok, canonical({"basis": [str(g) for g in run_.basis], "exceptional": exc})

    return Entry("groebner", None, run, check)


def closed_form_case(pkg, r: int) -> Entry:
    def run():
        return pkg.weyl_iso.verify_closed_form(r)

    return Entry(f"closed_form/{r}", r, run,
                 lambda rep: (rep["match"] is True, canonical(rep)))


def symbolic_context(pkg):
    """The symbolic() context shared by a run's multiplies, and q = 1."""
    return pkg.qweyl.symbolic(), pkg.qweyl.classical()


def symbolic_entries(pkg, seed: int) -> list:
    rng = random.Random(f"symbolic/{seed}")
    ctx = symbolic_context(pkg)
    k = SYMBOLIC_CYCLES
    picks = [rng.randrange(MULTIPLY_POOL) for _ in range(k)]
    mults = {v: multiply_case(pkg, ctx, v) for v in set(picks)}
    stirling = _blocks(rng, STIRLING_N, k)
    div = _blocks(rng, DIVISIBILITY_N, k)
    poch = _blocks(rng, POCHHAMMER_N, k)
    closed = _blocks(rng, CLOSED_FORM_R, k)
    out = []
    for i in range(k):
        out += [mults[picks[i]], stirling_case(pkg, stirling[i]),
                identities_case(pkg, div[i], poch[i]), groebner_case(pkg),
                closed_form_case(pkg, closed[i])]
    return out


def symbolic_pool(pkg) -> list:
    ctx = symbolic_context(pkg)
    return ([multiply_case(pkg, ctx, v) for v in range(MULTIPLY_POOL)]
            + [stirling_case(pkg, n) for n in STIRLING_N]
            + [identities_case(pkg, n, m) for n in DIVISIBILITY_N for m in POCHHAMMER_N]
            + [groebner_case(pkg)]
            + [closed_form_case(pkg, r) for r in CLOSED_FORM_R])


ENTRIES = {"suite": suite_entries, "gauge": gauge_entries, "symbolic": symbolic_entries}
POOLS = {"suite": suite_pool, "gauge": gauge_pool, "symbolic": symbolic_pool}
