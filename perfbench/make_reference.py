"""Write ``reference.json``: the program's outputs at the default seed.

Run from the repository root, on a commit whose outputs are trusted:

    python3 perfbench/make_reference.py

The benchmark compares the outputs of its ops against this file. The
optics records are seed-independent; the others cover the first ops of
each workload at ``workloads.DEFAULT_SEED``.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

# Steps recorded per workload: more than a run of 20 s makes on this program.
STEPS = {"reproduction": 1, "mc_errors": 10, "mub_study": 60, "teleport_tomography": 500}


def outputs(workload, steps):
    ops = [op for k in range(steps) for op in workload.step(k)]
    failed = [op for op in ops if op.error is not None]
    if failed:
        raise RuntimeError(f"{workload.name}: op {failed[0].index} failed: {failed[0].detail}")
    return [op.output for op in ops]


def main():
    reference = {}
    for name, steps in STEPS.items():
        workload = workloads.WORKLOADS[name](workloads.DEFAULT_SEED)
        outs = outputs(workload, steps)
        reference[name] = [workload.record(out) for out in outs]
        if name == "teleport_tomography":
            by_point = {
                workload.point(k): workload.optics_record(out) for k, out in enumerate(outs)
            }
            n_models = len(workloads.VISIBILITY_MODELS)
            reference["optics"] = [by_point[divmod(j, n_models)] for j in range(len(by_point))]
        print(f"{name}: {len(outs)} records", file=sys.stderr)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
