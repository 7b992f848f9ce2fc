"""Tests of the benchmark itself (about a minute):

    python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import child  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

# Steps per traced pass here; fewer than a benchmark run makes, to keep this quick.
TRACE_STEPS = {"reproduction": 1, "mc_errors": 1, "mub_study": 2, "teleport_tomography": 30}


def wrapped_attributes():
    return {
        (module.__name__, attr): getattr(module, attr) for module, attr, _, _ in layers.TARGETS
    }


def is_count(name):
    return name.endswith(".calls") or name.startswith("optics.terms.") or name in (
        "tomography.chi_fit.iterations",
        "mc.excluded",
    )


def test_metric_names_and_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == layers.UNITS
    fake = {
        "latencies_s": [0.1, 0.2],
        "reference_s": [0.01, 0.01],
        "elapsed_s": 1.0,
        "failures": {},
        "attempted": 2,
        "peak_rss_mb": 50.0,
    }
    e2e = run.end_to_end(fake, [(1.0, 0.02)])["metrics"]
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {
        k: v["unit"] for k, v in e2e.items()
    }
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_untraced_run_leaves_wrapped_attributes_alone():
    before = wrapped_attributes()
    workload = workloads.make("teleport_tomography", 0)
    ops, _, reference = child.timed_run(workload, 0.5)
    assert len(reference) == len(ops)
    assert ops and all(op.error is None for op in ops)
    after = wrapped_attributes()
    assert all(after[key] is before[key] for key in before)


@pytest.fixture(scope="module")
def traced_twice():
    """Two traced runs per workload at one seed, with the attributes seen after each."""
    runs = {}
    for name, steps in TRACE_STEPS.items():
        runs[name] = []
        for _ in range(2):
            workload = workloads.make(name, 0)
            ops, metrics, spans = child.traced_run(workload, steps)
            failures, problems = child.checked(workload, ops)
            runs[name].append((metrics, spans, failures, problems, wrapped_attributes()))
    return runs


def test_traced_run_restores_originals(traced_twice):
    before = wrapped_attributes()
    for name, results in traced_twice.items():
        for metrics, spans, *_, after in results:
            assert spans, name
            assert all(after[key] is before[key] for key in before), name


@pytest.mark.parametrize("name", list(TRACE_STEPS))
def test_traced_counts_repeat_and_outputs_pass(traced_twice, name):
    (first, _, failures, problems, _), (second, *_) = traced_twice[name]
    assert failures == {}, problems
    counts = {k: v["value"] for k, v in first.items() if is_count(k)}
    assert counts == {k: second[k]["value"] for k in counts}
    assert set(first) == set(layers.UNITS)


@pytest.mark.parametrize(
    "metric, active_on",
    [
        ("certify.robustness_mu.calls", {"reproduction"}),
        ("optics.run_teleportation.calls", {"teleport_tomography"}),
        ("tomography.project_physical.calls", {"reproduction", "mc_errors"}),
        ("tomography.mle.calls", {"mc_errors", "teleport_tomography"}),
    ],
)
def test_bypassed_layers_read_zero(traced_twice, metric, active_on):
    for name, results in traced_twice.items():
        value = results[0][0][metric]["value"]
        assert (value > 0) == (name in active_on), (name, metric, value)


def test_checks_reject_a_perturbed_output():
    workload = workloads.make("teleport_tomography", 0)
    (op,) = workload.step(0)
    assert workload.check(op) == []
    rho = op.output[0] + 1e-6 * np.eye(3)
    op.output = (rho, *op.output[1:])
    assert workload.check(op)
