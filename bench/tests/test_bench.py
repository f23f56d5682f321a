"""Tests of the benchmark's input generators, verdict checks and tracer.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import layers
import run
import workloads
from qlambert import catalog, dsl

SMALL = 0.1  # order scale for the deep generator: orders 15..50


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_deep_cases_verify_or_fail_where_planted(seed):
    cases = workloads.deep_inputs(seed, scale=SMALL)
    assert len(cases) == len(workloads.DEEP_SLOTS)
    assert sum(case["planted"] is not None for case in cases) == len(cases) // 4
    for case in cases:
        left, right = dsl.parse_identity(case["text"])
        record = catalog.IdentityRecord(case["name"], left, right, case["order"])
        report = catalog.verify(record)
        if case["planted"] is None:
            assert report.status == "verified", case
        else:
            exponent, coefficient = case["planted"]
            assert 0 <= exponent < case["order"]
            assert report.status == "failed", case
            assert report.first_nonzero == (exponent, -Fraction(coefficient)), case


def test_deep_verdicts_catch_a_wrong_plant():
    cases = workloads.deep_inputs(3, scale=SMALL)
    planted = next(case for case in cases if case["planted"] is not None)
    honest = next(case for case in cases if case["planted"] is None)
    planted["planted"][0] += 1  # claim the wrong exponent
    honest["planted"] = [0, "1"]  # claim a failure that does not happen
    verdicts = workloads.run_deep(workloads.setup_deep([planted, honest]))
    assert [ok for _, ok, _ in verdicts] == [False, False]


def test_same_seed_gives_same_inputs():
    for make in workloads.INPUTS.values():
        assert make(42) == make(42)
    assert workloads.deep_inputs(1) != workloads.deep_inputs(2)
    assert workloads.algebra_inputs(1) != workloads.algebra_inputs(2)


def test_deep_orders_stay_in_their_slots():
    for seed in range(20):
        for case, (_, lo, hi) in zip(workloads.deep_inputs(seed), workloads.DEEP_SLOTS):
            assert lo <= case["order"] <= hi


_TRACED_VERIFY = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import qlambert.cli
import layers
from qlambert import catalog
tracer = layers.Tracer()
layers.install(tracer)
assert catalog.verify("gosper-1.2", 12).verified
print(json.dumps(layers.per_layer_metrics(tracer)))
"""


def test_tracer_sees_calls_through_imported_names():
    # in a child interpreter, so the wrapped entry points stay there
    code = _TRACED_VERIFY.format(src=str(run.ROOT / "src"), bench=str(run.ROOT / "bench"))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout)
    assert metrics["catalog.passes"] >= 1
    assert metrics["dsl.evaluate_calls"] == 2 * metrics["catalog.passes"]
    assert metrics["constructors.lambert_s"] > 0  # Lodd through dsl's binding
    assert metrics["constructors.product_calls"] > 0  # pi through dsl's binding
    assert metrics["series.mul_calls"] > 0
    assert metrics["catalog.gosper-1.2_ms"] > 0
    assert metrics["catalog.elim-K_ms"] == 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert workloads.CATALOG_NAMES == tuple(sorted(catalog.load_catalog()))
