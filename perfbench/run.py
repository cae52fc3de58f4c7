"""diagdeform benchmark: one closed-loop client, stdlib only, single process.

    python3 perfbench/run.py --workload {suite,gauge,symbolic} --seed N
                             --seconds S --trace {0,1}

Run it from the root of a checkout: it imports the package from ./src and
fails (exit 2, no result) when that is missing.  The last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}.

--trace 0  end-to-end metrics, tracing off: setup_s, ops_per_s, op_p50_ms,
           op_tail_ms, peak_rss_mb.  Times are at reference speed (REF_MS).
--trace 1  per-layer metrics: the ops of about S/2 seconds are run once
           untraced and once with every callable in tracer.TRACED wrapped,
           each after a fresh set-up, which also gives trace.overhead_ratio.

The line before the result carries the run metadata (Python, platform, CPU
count, git rev, seed, load average, tail percentile and sample count, the
reference timings and the unscaled figures); the same record and, for traced
runs, the spans are written under perfbench/out/.  See perfbench/README.md
for the metric definitions and the prediction table.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import types
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = ("scalars", "qweyl", "star", "groebner", "sphere", "sphere_cohomology",
           "weyl_iso", "diagram", "w1diagram", "acceptance", "cli")
SETUP_REPEATS = 5
# A timed run is at least this many ops, so that op_tail_ms is the 75th
# percentile or higher (one suite cycle is only ten ops).
MIN_OPS = 40
# Times are reported at reference speed: scaled by REF_MS over the time of a
# fixed stdlib Fraction loop of REF_LOOP steps, timed between ops.  On a
# shared machine the same code runs up to ~1.7x faster or slower from one
# half-minute to the next, in wall and CPU time alike; the loop speeds up
# and slows down with it (see README.md).
REF_LOOP = 500
REF_MS = 4.0
REF_WINDOW = 5
CRITERIA = ("groebner-basis", "sphere-h2", "geometric-series", "weyl-isomorphism",
            "gz-identity", "star-products", "q-weyl-identities", "rewriting-oracle",
            "diagram-machinery", "w1-reduction")

# Per-layer metrics of a traced run: "<span name>.<stat>" for these stats,
# plus the GroebnerRun counters, trace.overhead_ratio and fail_ratio.
LAYER_STATS = {f"acceptance.{name}": ("total_s",) for name in CRITERIA} | {
    "cli.main": ("calls", "self_s"),
    "scalars.poly_gcd": ("calls", "self_s"),
    "scalars.UniPoly.__mul__": ("calls", "self_s"),
    "scalars.UniPoly.__divmod__": ("calls", "self_s"),
    "scalars.RatFunc.__init__": ("calls", "self_s"),
    "scalars.RatFunc.__add__": ("calls", "self_s"),
    "scalars.RatFunc.__mul__": ("calls", "self_s"),
    "scalars.TruncSeries.__mul__": ("calls", "self_s"),
    "qweyl.QWeyl.multiply": ("calls", "self_s"),
    "qweyl.QWeyl.normalize": ("calls", "self_s"),
    "qweyl.stirling_inverse_check": ("total_s",),
    "qweyl.commutator_divisibility": ("total_s",),
    "qweyl.pochhammer_xy": ("total_s",),
    "star.star": ("calls", "self_s", "total_s"),
    "star.star_series": ("calls", "total_s"),
    "star.Poly2.__init__": ("calls", "self_s"),
    "star.Poly2.__mul__": ("calls", "self_s"),
    "star.Poly2.__add__": ("calls", "self_s"),
    "star.Derivation.__call__": ("calls", "self_s"),
    "w1diagram.reduce": ("calls", "self_s", "total_s"),
    "w1diagram.membership_oracle": ("calls", "self_s"),
    "w1diagram.kill_gamma_f": ("calls", "self_s"),
    "w1diagram.apply_gauge": ("calls", "self_s"),
    "diagram.nerve": ("calls", "self_s"),
    "diagram.simplicial_cohomology": ("calls", "self_s"),
    "diagram.total_coboundary": ("calls", "self_s"),
    "groebner.buchberger": ("calls", "total_s"),
    "groebner.normal_form": ("calls", "self_s"),
    "weyl_iso.solve_z": ("total_s",),
    "weyl_iso.verify_closed_form": ("total_s",),
    "weyl_iso.gz_element": ("total_s",),
    "weyl_iso.recursion_report": ("total_s",),
    "sphere.SphereElement.__mul__": ("calls", "self_s"),
    "sphere_cohomology.h2_basis": ("total_s",),
}


class SetupError(Exception):
    """The checkout cannot run the benchmark (no package, no golden file)."""


def load_package():
    """Import diagdeform afresh from ./src, dropping any earlier import."""
    src = ROOT / "src"
    if not (src / "diagdeform" / "__init__.py").is_file():
        raise SetupError(f"no diagdeform package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "diagdeform" or n.startswith("diagdeform.")]:
        del sys.modules[name]
    pkg = types.SimpleNamespace(**{
        name: importlib.import_module(f"diagdeform.{name}") for name in MODULES})
    if Path(pkg.cli.__file__).resolve().parent != (src / "diagdeform").resolve():
        raise SetupError(f"diagdeform imported from {pkg.cli.__file__}, not {src}")
    return pkg


def load_golden(workload: str) -> dict:
    path = HERE / "golden.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))[workload]
    except (OSError, KeyError, ValueError) as exc:
        raise SetupError(f"cannot read golden digests for {workload} from {path}: {exc}")


def set_up(workload: str, seed: int):
    """Import the package, build the seeded entries and their contexts."""
    pkg = load_package()
    return pkg, workloads.ENTRIES[workload](pkg, seed)


def _reference_loop(n):
    s = Fraction(0)
    for i in range(n):
        s = s * Fraction(1, 2) + Fraction(i % 7, i % 5 + 1)
    return s


def reference_ms():
    """One timing of a fixed Fraction loop: the machine's speed now."""
    t0 = time.perf_counter()
    _reference_loop(REF_LOOP)
    return (time.perf_counter() - t0) * 1e3


class Loop:
    """Runs entries in order; counts failures; records per-op latency.

    The reference loop is timed before the first op and after every op,
    outside the window.  Each op's time is also kept scaled to reference
    speed by the median of the last REF_WINDOW timings, the one after the
    op included, which a single noisy timing cannot move far.
    """

    def __init__(self, entries, golden, cycle):
        self.entries = entries
        self.golden = golden
        self.cycle = cycle
        self.latencies_ms = []   # as measured
        self.scaled_ms = []      # at reference speed
        self.reference_ms = []
        self.attempted = 0
        self.failed = 0
        self.wall_s = 0.0
        self.scaled_wall_s = 0.0

    def run(self, seconds=None, ops=None, min_ops=1, tracer=None):
        """Whole cycles, at least ``min_ops``, until ``seconds`` have passed
        at reference speed; or exactly ``ops`` ops."""
        gc.collect()
        clock = time.perf_counter
        self.reference_ms.append(reference_ms())
        i = 0
        while True:
            if ops is not None and i >= ops:
                break
            if (seconds is not None and i >= min_ops and i % self.cycle == 0
                    and self.scaled_wall_s >= seconds):
                break
            entry = self.entries[i % len(self.entries)]
            if tracer is not None:
                tracer.op_id = i
            self.attempted += 1
            t0 = clock()
            try:
                result = entry.run()
                t1 = clock()
                ok, text = entry.check(result)
                ok = ok and workloads.digest(text) == self.golden.get(entry.key)
            except Exception:
                t1 = clock()
                traceback.print_exc()
                ok = False
            t2 = clock()
            self.reference_ms.append(reference_ms())
            factor = REF_MS / statistics.median(self.reference_ms[-REF_WINDOW:])
            if not ok:
                self.failed += 1
                print(f"op {i} ({entry.key}) failed", file=sys.stderr)
            self.latencies_ms.append((t1 - t0) * 1e3)
            self.scaled_ms.append((t1 - t0) * 1e3 * factor)
            self.wall_s += t2 - t0
            self.scaled_wall_s += (t2 - t0) * factor
            i += 1
        return i


def latency(latencies_ms):
    """(median, tail, tail percentile, sample count).

    The tail is the highest nearest-rank percentile with at least ten samples
    beyond it; with ten samples or fewer it is the maximum, as the 100th.
    """
    xs = sorted(latencies_ms)
    n = len(xs)
    rank = n - 10 if n > 10 else n
    return statistics.median(xs), xs[rank - 1], 100.0 * rank / n, n


def git_rev():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "platform": f"{platform.system()} {platform.release()} {platform.machine()}",
        "cpu_count": os.cpu_count(),
        "git_rev": git_rev(),
        "loadavg_1m": os.getloadavg()[0],
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args):
    """Median of SETUP_REPEATS set-ups, then the timed loop on the last one."""
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        speed = [reference_ms()]
        t0 = time.perf_counter()
        _, entries = set_up(args.workload, args.seed)
        golden = load_golden(args.workload)
        raw_setups.append(time.perf_counter() - t0)
        speed += [reference_ms() for _ in range(REF_WINDOW - 1)]
        setups.append(raw_setups[-1] * REF_MS / statistics.median(speed))
    loop = Loop(entries, golden, workloads.CYCLE[args.workload])
    loop.run(seconds=args.seconds, min_ops=MIN_OPS)
    p50, tail, pct, n = latency(loop.scaled_ms)
    raw_p50, raw_tail, _, _ = latency(loop.latencies_ms)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(loop.attempted / loop.scaled_wall_s, "ops/s"),
        "op_p50_ms": metric(p50, "ms"),
        "op_tail_ms": metric(tail, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                              "MiB"),
    }
    info = {
        "op_tail_percentile": pct, "op_samples": n,
        "fail_ratio": loop.failed / loop.attempted,
        "reference_ms": {"median": statistics.median(loop.reference_ms),
                         "min": min(loop.reference_ms), "max": max(loop.reference_ms)},
        "unscaled": {"setup_s": statistics.median(raw_setups),
                     "ops_per_s": loop.attempted / loop.wall_s,
                     "op_p50_ms": raw_p50, "op_tail_ms": raw_tail,
                     "wall_s": loop.wall_s, "setup_runs_s": raw_setups},
    }
    return loop.attempted, loop.failed, metrics, info


def per_layer(args, out_dir):
    golden = load_golden(args.workload)
    cycle = workloads.CYCLE[args.workload]
    _, entries = set_up(args.workload, args.seed)
    plain = Loop(entries, golden, cycle)
    ops = plain.run(seconds=args.seconds / 2)

    pkg, entries = set_up(args.workload, args.seed)
    tr = tracing.Tracer()
    tr.install(pkg)
    traced = Loop(entries, golden, cycle)
    traced.run(ops=ops, tracer=tr)
    tr.uninstall()
    tr.write_spans(out_dir / f"spans-{args.workload}-{args.seed}.csv")

    m = {}
    for name, stats in LAYER_STATS.items():
        for stat in stats:
            m[f"{name}.{stat}"] = metric(tr.metric(name, stat),
                                         "count" if stat == "calls" else "s")
    m["groebner.GroebnerRun.spairs_reduced"] = metric(tr.spairs_reduced, "count")
    m["groebner.GroebnerRun.spairs_skipped"] = metric(tr.spairs_skipped, "count")
    m["trace.overhead_ratio"] = metric(traced.scaled_wall_s / plain.scaled_wall_s, "ratio")
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    m["fail_ratio"] = metric(failed / attempted, "ratio")
    info = {"ops_per_pass": ops, "untraced_wall_s": plain.wall_s,
            "traced_wall_s": traced.wall_s, "spans_kept": len(tr.spans),
            "spans_dropped": tr.spans_dropped}
    return attempted, failed, m, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ENTRIES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    meta = metadata(args)
    out_dir = HERE / "out"
    try:
        if args.trace:
            out_dir.mkdir(exist_ok=True)
            attempted, failed, metrics, info = per_layer(args, out_dir)
        else:
            attempted, failed, metrics, info = end_to_end(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    meta.update(info)
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    (out_dir / f"run-{tag}.json").write_text(
        json.dumps({"meta": meta, "metrics": metrics}, indent=2) + "\n")
    print("meta " + json.dumps(meta))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
