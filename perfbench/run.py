"""Benchmark of the qutrit-teleport pipelines.

Run from the repository root:

    python3 perfbench/run.py --workload mc_errors --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py``): ``reproduction``, ``mc_errors``,
``mub_study`` and ``teleport_tomography``. Each is a closed loop with one
caller in one fresh interpreter.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` is the median
set-up time of ``SETUP_RUNS`` fresh interpreters (start to the first timed
op), each scaled to a machine on which the reference kernel takes
``NOMINAL_KERNEL_S``, and the timed loop gives ``op_mean_rel`` and
``op_p50_rel`` (op time over a fixed reference kernel timed around each
step, which takes out the machine's drifting speed) and ``peak_rss_mb``. ``--trace 1`` gives the
per-layer metrics of ``layers.py`` instead. Every op's output is checked.

Standard output ends with a report line (the wall-clock ``ops_per_s``,
``op_p50_ms`` and ``op_tail_ms`` with sample counts, ``failed_ratio``,
failures by type and the environment) and then the result line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Both are also written under ``.perfbench_out/`` with, for
traced runs, the spans.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("reproduction", "mc_errors", "mub_study", "teleport_tomography")
SETUP_RUNS = 3
# Set-up time is reported at this reference-kernel time (about this
# benchmark's 2-core development host) so that the machine's drifting speed,
# which moved raw set-up medians by up to 28% between two sets of ten runs,
# does not show as a change of the program.
NOMINAL_KERNEL_S = 0.020
TIME_LIMIT_S = 170
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
# The workload runs with one BLAS thread: its matrices are at most 81x81, and an
# idle BLAS worker spinning on the second core slowed the caller and made runs
# less steady on a 2-core machine.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
CHILD_ENV = {**os.environ, **dict.fromkeys(THREAD_VARIABLES, "1")}


class ChildFailed(RuntimeError):
    pass


def spawn(args, deadline):
    """Run child.py to completion; its result and wall set-up time in seconds."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=ROOT,
            env=CHILD_ENV,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(deadline - start, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed("workload process timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"workload process exited {proc.returncode}")
    result = json.loads(lines[-1])
    return result, result["ready"] - start


def tail(latencies_ms):
    """Highest listed percentile with at least ten samples above it, or None."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)  # nearest-rank percentile
        if rank >= 1 and n - rank >= 10:
            return {
                "value": ordered[rank - 1],
                "unit": "ms",
                "percentile": p,
                "beyond": n - rank,
                "n": n,
            }
    return None


def end_to_end(result, setups):
    """Bounded metrics, and the figures reported beside them.

    Op times are bounded as ratios to the reference kernel timed around each
    step (see child.reference_kernel), and ``setups`` are (wall seconds,
    kernel seconds) pairs; the wall-clock figures are reported too.
    """
    latencies_ms = [s * 1e3 for s in result["latencies_s"]]
    reference = result["reference_s"]
    op_p50_ms = statistics.median(latencies_ms)
    failed = sum(result["failures"].values())
    return {
        "metrics": {
            "op_mean_rel": {"value": sum(result["latencies_s"]) / sum(reference), "unit": "ratio"},
            "op_p50_rel": {
                "value": statistics.median(
                    t / r for t, r in zip(result["latencies_s"], reference)
                ),
                "unit": "ratio",
            },
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "setup_s": {
                "value": statistics.median(w * NOMINAL_KERNEL_S / k for w, k in setups),
                "unit": "s",
            },
        },
        "details": {
            "ops_per_s": {"value": len(latencies_ms) / result["elapsed_s"], "unit": "1/s"},
            "op_p50_ms": {"value": op_p50_ms, "unit": "ms", "n": len(latencies_ms)},
            "op_tail_ms": tail(latencies_ms),
            "failed_ratio": {"value": failed / result["attempted"], "unit": "ratio"},
            "reference_kernel_ms": {"value": statistics.median(reference) * 1e3, "unit": "ms"},
            "setup_wall_s_samples": [w for w, _ in setups],
            "setup_kernel_ms_samples": [k * 1e3 for _, k in setups],
            "timed_s": result["elapsed_s"],
        },
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT_S
    load_start = os.getloadavg()
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    common += ["--seconds", str(args.seconds)]
    try:
        if args.trace:
            spans = ["--spans", f"{stem}.spans.jsonl"]
            result, _ = spawn([*common, "--trace", "1", *spans], deadline)
            summary = {"metrics": result["per_layer"], "details": {}}
        else:
            runs = [spawn([*common, "--setup-only"], deadline) for _ in range(SETUP_RUNS - 1)]
            runs.append(spawn([*common, "--trace", "0"], deadline))
            result = runs[-1][0]
            summary = end_to_end(result, [(wall, r["setup_kernel_s"]) for r, wall in runs])
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    failed = sum(result["failures"].values())
    final = {
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": summary["metrics"],
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **final,
        **summary["details"],
        "failures_by_type": result["failures"],
        "problems": result["problems"],
        "notes": result["notes"],
        "environment": {
            **result["environment"],
            "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
            "thread_variables": {v: CHILD_ENV[v] for v in THREAD_VARIABLES},
        },
    }
    Path(f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({"report": report}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
