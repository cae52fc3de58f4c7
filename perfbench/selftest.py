"""Tests of the benchmark itself: tracer completeness, seeded inputs, stops.

    python3 -m pytest -q perfbench/selftest.py

The file is named so that the package's own test run does not collect it;
it needs perfbench/golden.json and takes about half a minute.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import subprocess
import sys

import pytest

import run
import tracer as tracing
import workloads

SEED = 1729


@pytest.fixture(scope="module")
def golden():
    return json.loads((run.HERE / "golden.json").read_text())


def test_tracer_rebinds_every_alias_and_counts_one_suite_cycle(golden):
    pkg = run.load_package()
    tr = tracing.Tracer()
    tr.install(pkg)
    try:
        assert tr.unbound_aliases() == []
        assert [name for name, _ in pkg.acceptance.CRITERIA] == list(run.CRITERIA)
        # acceptance imports reduce under another name and lists criteria in CRITERIA
        assert pkg.acceptance.w1_reduce.__wrapped__ is pkg.w1diagram.reduce.__wrapped__
        assert all(hasattr(fn, "__wrapped__") for _, fn in pkg.acceptance.CRITERIA)
        for name, _ in pkg.acceptance.CRITERIA:
            entry = workloads.suite_case(pkg, name, SEED)
            ok, text = entry.check(entry.run())
            assert ok, f"{name} fails with wrappers on"
            assert workloads.digest(text) == golden["suite"][entry.key], name
    finally:
        tr.uninstall()
    assert tr.metric("w1diagram.reduce", "calls") == 157
    assert tr.metric("star.Poly2.__init__", "calls") == 126180
    assert tr.metric("groebner.buchberger", "calls") == 1
    assert tr.metric("cli.main", "calls") == 10
    assert tr.spairs_reduced > 0
    assert "diagdeform.w1diagram.reduce" in tr.unbound_aliases()  # originals are back


def test_self_time_excludes_child_spans():
    pkg = run.load_package()
    tr = tracing.Tracer()
    tr.install(pkg)
    try:
        pkg.w1diagram.reduce(pkg.w1diagram.random_cocycle(random.Random(3)), 8)
    finally:
        tr.uninstall()
    index = tr.names.index("w1diagram.reduce")
    (span, parent, _, _, start, end), = [s for s in tr.spans if s[3] == index]
    children = [s for s in tr.spans if s[1] == span]
    assert parent == -1 and children
    assert {tr.names[s[3]] for s in children} <= {
        "w1diagram.kill_gamma_f", "w1diagram.membership_oracle", "w1diagram.apply_gauge"}
    assert tr.stats["w1diagram.reduce"].self_ns == (end - start) - sum(
        s[5] - s[4] for s in children)
    assert tr.stats["w1diagram.reduce"].total_ns == end - start


@pytest.mark.parametrize("workload", sorted(workloads.ENTRIES))
def test_inputs_are_a_function_of_the_seed(workload):
    def inputs(seed):
        pkg = run.load_package()
        return [(e.key, workloads.encode(e.inputs)) for e in workloads.ENTRIES[workload](pkg, seed)]

    first = inputs(11)
    assert first == inputs(11)
    assert first != inputs(12)
    assert len(first) % workloads.CYCLE[workload] == 0


@pytest.mark.parametrize("workload", sorted(workloads.ENTRIES))
def test_every_seeded_entry_has_a_golden_digest(workload, golden):
    pkg = run.load_package()
    for seed in (1, 2, 3):
        keys = {e.key for e in workloads.ENTRIES[workload](pkg, seed)}
        assert keys <= set(golden[workload])


def test_a_run_stops_only_at_the_end_of_a_cycle(golden):
    _, entries = run.set_up("symbolic", SEED)
    loop = run.Loop(entries, golden["symbolic"], workloads.CYCLE["symbolic"])
    done = loop.run(seconds=1e-9)
    assert done == loop.attempted == workloads.CYCLE["symbolic"]
    assert loop.failed == 0


def test_a_wrong_output_counts_as_failed(golden):
    _, entries = run.set_up("gauge", SEED)
    tampered = {k: "0" * 64 for k in golden["gauge"]}
    loop = run.Loop(entries, tampered, 1)
    loop.run(ops=2)
    assert (loop.attempted, loop.failed) == (2, 2)


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.latency(list(range(40, 0, -1))) == (20.5, 30, 75.0, 40)
    assert run.latency([5, 4, 3, 2, 1]) == (3, 5, 100.0, 5)


def test_times_are_scaled_to_reference_speed(golden, monkeypatch):
    monkeypatch.setattr(run, "reference_ms", lambda: 2 * run.REF_MS)
    _, entries = run.set_up("gauge", SEED)
    loop = run.Loop(entries, golden["gauge"], 1)
    loop.run(ops=3)
    assert loop.scaled_ms == [x / 2 for x in loop.latencies_ms]
    assert len(loop.reference_ms) == 4
    assert loop.scaled_wall_s == pytest.approx(loop.wall_s / 2)


def test_exits_2_without_result_when_package_is_missing(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gauge", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "no diagdeform package" in proc.stderr


def test_benchmark_json_names_every_emitted_metric(tmp_path):
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    args = argparse.Namespace(workload="symbolic", seed=1, seconds=1e-9, trace=1)
    _, failed, metrics, _ = run.per_layer(args, tmp_path)
    assert failed == 0
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in bench["per_layer"]}
    _, failed, metrics, _ = run.end_to_end(args)
    assert failed == 0
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert all(v["value"] > 0 for v in metrics.values())
