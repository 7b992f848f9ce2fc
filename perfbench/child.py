"""One workload in one fresh interpreter; ``run.py`` starts this file.

Prints one JSON object as its last line of standard output. ``ready`` is
the ``time.monotonic()`` reading (a system-wide clock on Linux) at the end
of set-up, so the parent can time set-up from before the interpreter
started; ``setup_kernel_s`` is the reference kernel's time just after, the
machine speed the parent scales set-up time by. With ``--setup-only`` the
process stops there.

An untraced run loops over ops for ``--seconds`` and reports op latencies,
with a fixed reference kernel timed around each step. A traced run makes a
fixed number of steps twice, untraced then traced, so its counts repeat
exactly and the ratio of the two times is the tracing overhead.
"""

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

MAX_PROBLEMS_SHOWN = 5
SETUP_KERNEL_RUNS = 5


def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


_KERNEL_RNG = np.random.default_rng(0)
_KERNEL_H = _KERNEL_RNG.normal(size=(9, 9)) + 1j * _KERNEL_RNG.normal(size=(9, 9))
_KERNEL_M = _KERNEL_RNG.normal(size=(81, 81))


def reference_kernel():
    """Wall seconds of a fixed mix of interpreter and small-matrix numpy work.

    It resembles the program's hot paths and never changes. On a shared
    machine whose speed drifted by 20-30% over minutes, an op's time divided
    by the kernel times around it varied several times less between runs
    than the op's time alone.
    """
    start = time.perf_counter()
    total = 0.0
    for i in range(40000):
        total += i * 0.5
    for _ in range(200):
        np.linalg.eigh(_KERNEL_H + _KERNEL_H.conj().T)
        np.einsum("ij,jk,lk->il", _KERNEL_H, _KERNEL_H, _KERNEL_H)
        _KERNEL_M @ _KERNEL_M
    return time.perf_counter() - start


def run_steps(workload, steps):
    ops = []
    start = time.perf_counter()
    for k in steps:
        ops.extend(workload.step(k))
    return ops, time.perf_counter() - start


def timed_run(workload, seconds):
    """Closed loop: start the next step until ``seconds`` have passed.

    The reference kernel is timed before the first step and after every
    step. Returns (ops, seconds spent in steps, reference seconds per op),
    where an op's reference is the mean of the kernel times around its step.
    """
    ops, reference = [], []
    before = reference_kernel()
    in_steps = 0.0
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds:
        step_start = time.perf_counter()
        step_ops = workload.step(k)
        in_steps += time.perf_counter() - step_start
        after = reference_kernel()
        ops.extend(step_ops)
        reference.extend([(before + after) / 2] * len(step_ops))
        before = after
        k += 1
    return ops, in_steps, reference


def traced_run(workload, steps=None):
    """(ops, per-layer metrics, spans) from an untraced and a traced pass."""
    steps = range(workload.trace_steps if steps is None else steps)
    plain_ops, plain_s = run_steps(workload, steps)
    tracer = Tracer()
    workload.tracer = tracer
    try:
        with layers.install(tracer):
            traced_ops, traced_s = run_steps(workload, steps)
    finally:
        workload.tracer = NullTracer()
    values = layers.metrics(tracer, overhead_ratio=plain_s / traced_s)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in layers.UNITS.items()}
    return plain_ops + traced_ops, metrics, tracer.records()


def checked(workload, ops):
    """Failures by type, plus the first few problems found."""
    failures = {}
    problems = []
    for op in ops:
        if op.error is not None:
            failures[op.error] = failures.get(op.error, 0) + 1
            problems.append(f"op {op.index}: {op.error}: {op.detail}")
            continue
        try:
            found = workload.check(op)
        except Exception as exc:  # an output the check cannot even read is wrong
            found = [f"check raised {type(exc).__name__}: {exc}"]
        if found:
            failures["OutputCheck"] = failures.get("OutputCheck", 0) + 1
            problems.append(f"op {op.index}: " + "; ".join(found[:3]))
    return failures, problems[:MAX_PROBLEMS_SHOWN]


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", default=None, help="file for the traced run's spans (JSON lines)")
    args = p.parse_args(argv)

    workload = workloads.make(args.workload, args.seed)
    workload.warm_up()
    ready = time.monotonic()
    kernel_s = statistics.median(reference_kernel() for _ in range(SETUP_KERNEL_RUNS))
    result = {"ready": ready, "setup_kernel_s": kernel_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if args.trace:
        ops, result["per_layer"], spans = traced_run(workload)
        if args.spans:
            with open(args.spans, "w") as fh:
                fh.writelines(json.dumps(s) + "\n" for s in spans)
    else:
        ops, result["elapsed_s"], reference = timed_run(workload, args.seconds)
        result["reference_s"] = [r for op, r in zip(ops, reference) if op.error is None]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["latencies_s"] = [op.latency_s for op in ops if op.error is None]
    result["attempted"] = len(ops)
    result["failures"], result["problems"] = checked(workload, ops)
    result["notes"] = workload.notes()
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
