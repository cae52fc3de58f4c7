"""The benchmark's gauge cases keep their verdicts and golden digests.

perfbench/workloads.py builds every pooled case of the gauge workload (W_1
reduction before and after a random gauge move, a doubled total coboundary
and one simplicial cohomology) and perfbench/golden.json holds the SHA-256
of each case's output: every reduce report, witness and certificate.  A
benchmark run counts a changed digest as a failed op; this test makes the
same check part of the test suite.  Both files are only read.
"""

import importlib
import importlib.util
import json
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("w1diagram", "diagram", "acceptance")


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))["gauge"]
PKG = types.SimpleNamespace(
    **{name: importlib.import_module(f"diagdeform.{name}") for name in MODULES})
POOL = WORKLOADS.gauge_pool(PKG)


def test_pool_covers_every_golden_case():
    assert sorted(entry.key for entry in POOL) == sorted(GOLDEN)


@pytest.mark.parametrize("entry", POOL, ids=[entry.key for entry in POOL])
def test_gauge_case_verdict_and_digest(entry):
    ok, text = entry.check(entry.run())
    assert ok is True
    assert WORKLOADS.digest(text) == GOLDEN[entry.key]
