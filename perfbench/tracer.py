"""Outside-in span tracer for the diagdeform package.

The benchmark cannot add hooks under src/, so it measures each layer by
rebinding public callables to wrappers that record a span per call: name,
start, end, parent span and op id.  Modules bind names at import time
(acceptance does ``from .w1diagram import reduce as w1_reduce`` and keeps
its criteria in the module-level list CRITERIA), so a wrapper must replace
every alias of the original in every ``diagdeform.*`` module, not only the
defining one; ``install`` does that and ``unbound_aliases`` proves it.

Per callable the tracer keeps exact call counts, total time (outermost
activation only, so recursion is not counted twice) and self time (span
duration minus the time covered by its child spans).
"""

from __future__ import annotations

import functools
import sys
import time

# The traced entry points, as "<module>.<qualname>" under diagdeform.  The
# acceptance criteria are added by name at install time.
TRACED = (
    "scalars.poly_gcd",
    "scalars.UniPoly.__mul__",
    "scalars.UniPoly.__divmod__",
    "scalars.RatFunc.__init__",
    "scalars.RatFunc.__add__",
    "scalars.RatFunc.__mul__",
    "scalars.TruncSeries.__mul__",
    "qweyl.QWeyl.multiply",
    "qweyl.QWeyl.normalize",
    "qweyl.stirling_inverse_check",
    "qweyl.commutator_divisibility",
    "qweyl.pochhammer_xy",
    "star.star",
    "star.star_series",
    "star.Poly2.__init__",
    "star.Poly2.__mul__",
    "star.Poly2.__add__",
    "star.Derivation.__call__",
    "w1diagram.reduce",
    "w1diagram.membership_oracle",
    "w1diagram.kill_gamma_f",
    "w1diagram.apply_gauge",
    "diagram.nerve",
    "diagram.simplicial_cohomology",
    "diagram.total_coboundary",
    "groebner.buchberger",
    "groebner.normal_form",
    "weyl_iso.solve_z",
    "weyl_iso.verify_closed_form",
    "weyl_iso.gz_element",
    "weyl_iso.recursion_report",
    "sphere.SphereElement.__mul__",
    "sphere_cohomology.h2_basis",
    "cli.main",
)

# Spans are kept in memory up to this many per run; calls beyond it still
# count in the per-callable statistics, and the number dropped is reported.
MAX_SPANS = 200_000


class Stat:
    __slots__ = ("calls", "total_ns", "self_ns", "depth")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.depth = 0


class Tracer:
    """Wraps the traced callables of one imported diagdeform package."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (span, parent, op, name index, start_ns, end_ns)
        self.spans_dropped = 0
        self.op_id = -1
        self.spairs_reduced = 0
        self.spairs_skipped = 0
        self._stack: list[list] = []  # [span id, child ns] per open span
        self._next_span = 0
        self._undo: list = []     # (namespace or list, key, original)
        self._replace: dict = {}  # id(original) -> (original, wrapper)

    # ----------------------------------------------------------- wrapping

    def _wrap(self, name: str, fn):
        stat = self.stats[name] = Stat()
        index = len(self.names)
        self.names.append(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns
        on_result = self._count_spairs if name == "groebner.buchberger" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._next_span
            self._next_span = span + 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0]
            stack.append(frame)
            stat.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stat.depth -= 1
                dur = end - start
                stat.calls += 1
                stat.self_ns += dur - frame[1]
                if not stat.depth:
                    stat.total_ns += dur
                if stack:
                    stack[-1][1] += dur
                if len(spans) < MAX_SPANS:
                    spans.append((span, parent, self.op_id, index, start, end))
                else:
                    self.spans_dropped += 1
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count_spairs(self, run):
        self.spairs_reduced += run.spairs_reduced
        self.spairs_skipped += run.spairs_skipped

    def install(self, pkg) -> None:
        """Rebind every traced callable of the package, aliases included."""
        for dotted in TRACED:
            module_name, _, qualname = dotted.partition(".")
            owner = getattr(pkg, module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._replace[id(original)] = (original, self._wrap(dotted, original))
        for name, fn in pkg.acceptance.CRITERIA:
            self._replace[id(fn)] = (fn, self._wrap(f"acceptance.{name}", fn))
        for owner in _namespaces():
            for attr, value in list(vars(owner).items()):
                new = _swap(value, self._replace)
                if new is not value:
                    self._undo.append((owner, attr, value))
                    setattr(owner, attr, new)
                elif isinstance(value, list):
                    for i, item in enumerate(value):
                        new = _swap(item, self._replace)
                        if new is not item:
                            self._undo.append((value, i, item))
                            value[i] = new

    def uninstall(self) -> None:
        while self._undo:
            owner, key, old = self._undo.pop()
            if isinstance(owner, list):
                owner[key] = old
            else:
                setattr(owner, key, old)

    def unbound_aliases(self) -> list[str]:
        """Places in diagdeform.* modules that still hold an unwrapped original."""
        left = []
        for owner in _namespaces():
            for attr, value in vars(owner).items():
                items = value if isinstance(value, list) else [value]
                if any(_swap(v, self._replace) is not v for v in items):
                    left.append(f"{owner.__name__}.{attr}")
        return left

    # ------------------------------------------------------------ results

    def metric(self, name: str, stat: str) -> float:
        s = self.stats.get(name)
        if s is None:
            return 0
        if stat == "calls":
            return s.calls
        return (s.total_ns if stat == "total_s" else s.self_ns) / 1e9

    def write_spans(self, path) -> None:
        """Write the in-memory spans as CSV, times in ns from the earliest start."""
        origin = min((s[4] for s in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,op,name,start_ns,end_ns\n")
            for span, parent, op, index, start, end in self.spans:
                fh.write(f"{span},{parent},{op},{self.names[index]},"
                         f"{start - origin},{end - origin}\n")


def _swap(item, replace):
    """``item`` with originals replaced by wrappers, looking inside tuples."""
    if isinstance(item, tuple):
        swapped = tuple(_swap(m, replace) for m in item)
        return item if all(a is b for a, b in zip(swapped, item)) else swapped
    hit = replace.get(id(item))
    return hit[1] if hit is not None and hit[0] is item else item


def _namespaces():
    """Every diagdeform.* module and every class defined in one."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "diagdeform" or name.startswith("diagdeform."))]
    for module in modules:
        yield module
        yield from [v for v in vars(module).values()
                    if isinstance(v, type) and v.__module__ == module.__name__]
