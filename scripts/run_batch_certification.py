#!/usr/bin/env python3
"""Certify the phase-grid of maximally coherent states through a channel.

By default the bundled published process matrix is used. Writes one CSV
row per grid state (phi1, phi2, mu, verdict) plus a printed summary.
"""

import argparse
import csv
import sys
from pathlib import Path

from qutrit_teleport import certify, dataset, tomography


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--matrix", default=None,
                   help="9x9 process-matrix JSON (default: bundled reference)")
    p.add_argument("--grid", type=int, nargs=2, default=(20, 20))
    p.add_argument("--closed-interval", action="store_true")
    p.add_argument("--out", default="batch_certification.csv")
    args = p.parse_args(argv)

    if args.matrix:
        chi, kind, _ = dataset.ingest_matrix(args.matrix)
        if kind != "process":
            p.error("--matrix must point at a 9x9 process matrix")
    else:
        chi, _ = dataset.reference_chi()

    summary = certify.batch_certification(
        lambda rho: tomography.apply_process(chi, rho, repair=True),
        grid=args.grid,
        closed_interval=args.closed_interval,
    )
    states = certify.phase_grid_states(*args.grid, closed_interval=args.closed_interval)

    out = Path(args.out)
    with out.open("w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["phi1", "phi2", "mu", "verdict"])
        for ((p1, p2), _), mu in zip(states, summary["mus"]):
            verdict = "genuine_qutrit" if mu > certify.VERDICT_TOL else "qubit_simulable"
            w.writerow([f"{p1:.6f}", f"{p2:.6f}", f"{mu:.6f}", verdict])

    print(f"wrote {out}")
    print(
        f"states: {summary['n_states']}, genuine: {summary['n_genuine']}, "
        f"simulable: {summary['n_simulable']}"
    )
    if summary["n_genuine"]:
        print(
            f"mean mu of genuine: {summary['mean_mu_of_genuine']:.4f} "
            f"+/- {summary['std_mu_of_genuine']:.4f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
