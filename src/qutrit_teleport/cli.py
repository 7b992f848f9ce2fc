"""Command-line pipelines.

Thin orchestration over the library modules: every number in a report is
produced by a module operation, and each report embeds the exact config
used so a run can be reproduced bit-for-bit from its own output.

Exit codes: 0 ok, 2 parse error, 3 solver error, 4 data-quality error
(including counts too sparse to estimate from), 5 reference-check failure
(``full_reproduction --check``).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import algebra, certify, dataset, mc, optics, protocol, tomography
from .errors import DataQualityError, InsufficientDataError, ParseError, SolverError

EXIT_PARSE = 2
EXIT_SOLVER = 3
EXIT_DATA_QUALITY = 4
EXIT_CHECK_FAILED = 5

# numpy's Poisson sampler refuses means above about 9.2e18.
MAX_EXPOSURE = 1e18


def _round_floats(obj):
    """``obj`` with every float rounded to 6 decimals, as reports print them."""
    if isinstance(obj, float):
        return round(obj, 6)
    if isinstance(obj, complex):
        return [round(obj.real, 6), round(obj.imag, 6)]
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _round_floats(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return _round_floats(obj.item())
    return obj


def emit_report(name, config, results, out_dir=None):
    report = {"pipeline": name, "config": config, "results": _round_floats(results)}
    text = json.dumps(report, indent=2, allow_nan=False)
    if out_dir:
        (Path(out_dir) / f"{name}.json").write_text(text + "\n")
    print(text)
    return report


def _write_csv(out_dir, name, header, rows):
    """With ``--out``, also write the series as ``DIR/<name>.csv``, floats at 6 decimals."""
    if out_dir:
        rows = ([f"{v:.6f}" if isinstance(v, float) else v for v in r] for r in rows)
        with (Path(out_dir) / f"{name}.csv").open("w", newline="") as f:
            csv.writer(f).writerows([header, *rows])


def _checked(convert, ok, requirement):
    """An argparse type: ``convert(text)``, if ``ok`` accepts it."""

    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{requirement}, got {text!r}")

    return parse


class _MatrixFile(NamedTuple):
    """A ``--matrix`` file, read while parsing: its path as given and its matrix."""

    path: str
    matrix: np.ndarray


def _matrix_file(text):
    try:
        return _MatrixFile(text, dataset.load_matrix(text))
    except ParseError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _grid_shape(spec):
    """The sizes (a, b) of a grid spec such as 20x20."""
    a, b = (int(n) for n in spec.lower().split("x"))
    return a, b


def cmd_teleport_sim(args):
    vis = optics.VisibilityModel(default=args.visibility)
    rows = []
    for i, phi in enumerate(protocol.benchmark_input_states(), 1):
        rho, prob = optics.run_teleportation(phi, visibility=vis)
        rows.append(
            {
                "state": i,
                "fidelity": algebra.fidelity(rho, phi),
                "success_probability": prob,
            }
        )
    config = {"visibility": args.visibility}
    emit_report("teleport_sim", config, {"states": rows}, args.out)
    return 0


def _published_states():
    """The repaired published rho_1 .. rho_10, each as (rho, repair log, target), read once."""
    targets = dataset.reference_targets()
    return [(*dataset.reference_rho(i), phi) for i, phi in enumerate(targets, 1)]


def _refit(states):
    """The constrained chi fit to the first nine published states."""
    return tomography.reconstruct_process([(phi, rho) for rho, _, phi in states[:9]])


def cmd_tomography(args):
    rng = np.random.default_rng(args.seed)
    rows = []
    for i, (rho, log, phi) in enumerate(_published_states(), 1):
        counts = tomography.simulate_counts(rho, args.exposure, rng)
        refit = tomography.reconstruct_state(counts, "mle")
        rows.append(
            {
                "state": i,
                "fidelity_vs_target": algebra.fidelity(rho, phi),
                "refit_fidelity_vs_target": algebra.fidelity(refit, phi),
                "adjustments": log,
            }
        )
    config = {"seed": args.seed, "exposure": args.exposure}
    emit_report("tomography", config, {"states": rows}, args.out)
    return 0


def cmd_process(args):
    chi_ref, chi_log = dataset.reference_chi()
    fit = _refit(_published_states())
    fids, mean_f = tomography.mub_fidelities(chi_ref)
    f_ref = tomography.process_fidelity(chi_ref)
    results = {
        "refit_process_fidelity": tomography.process_fidelity(fit.chi),
        "refit_residual": fit.residual,
        "max_entrywise_dev_vs_reference": float(np.abs(fit.chi - chi_ref).max()),
        "reference_process_fidelity": f_ref,
        "reference_chi_adjustments": chi_log,
        "mub_fidelities_of_reference": fids,
        "mub_mean": mean_f,
        "average_fidelity_formula": tomography.average_fidelity_from_process(f_ref),
    }
    emit_report("process", {}, results, args.out)
    return 0


def _certify_grid(chi, grid, closed_interval):
    """Batch-certify the phase grid through ``chi``; returns the summary, its phases and mus."""
    summary = certify.batch_certification(
        lambda r: tomography.apply_process(chi, r, repair=True),
        grid=grid,
        closed_interval=closed_interval,
    )
    return summary, summary.pop("phases"), summary.pop("mus")


def cmd_certify(args):
    kind, shape = ("process", "9x9") if args.batch else ("density", "3x3")
    path = args.matrix.path if args.matrix else None
    if args.matrix:
        mat, got, log = dataset.repair_matrix(args.matrix.matrix, path)
        if got != kind:
            raise ParseError(f"{path}: expected a {shape} {kind} matrix")
    elif args.batch:
        mat, log = dataset.reference_chi()
    else:
        mat, log = dataset.repair_and_log_density(np.eye(3) / 3.0)
    if args.batch:
        summary, phases, mus = _certify_grid(mat, _grid_shape(args.grid), args.closed_interval)
        config = {"grid": args.grid, "closed_interval": args.closed_interval, "matrix": path}
        emit_report("certify_batch", config, {**summary, "adjustments": log}, args.out)
        rows = [(*p, mu, v) for p, mu, v in zip(phases, mus, certify.verdict(mus))]
        _write_csv(args.out, "certify_batch", ("phi1", "phi2", "mu", "verdict"), rows)
        return 0
    report = certify.certify_state(mat)
    results = {
        "linear_criteria": report.linear_values,
        "nonlinear_criterion": report.nonlinear_lhs,
        "fidelity_witness": report.fidelity_witness,
        "mu": report.mu,
        "verdict": report.verdict,
        "adjustments": log,
    }
    emit_report("certify", {"matrix": path}, results, args.out)
    return 0


def cmd_mc_errors(args):
    chi, _ = dataset.reference_chi()
    rng = np.random.default_rng(args.seed)
    inputs = dataset.reference_targets()[:9]
    outs = tomography.apply_process(chi, algebra.projector(inputs), repair=True)
    tables = [mc.counts_for_state(rho_out, args.exposure, rng) for rho_out in outs]

    def statistic(resampled):
        chi = mc.fit_channel(inputs, [t.counts for t in resampled])
        return tomography.process_fidelity(chi)

    ens = mc.poisson_resample(tables, statistic, args.trials, args.seed)
    if len(ens.samples) < 2:
        raise InsufficientDataError(
            f"{len(ens.samples)} of {args.trials} trials gave a value; an error bar needs two"
        )
    results = {
        "statistic": "process_fidelity",
        "mean": ens.mean,
        "std": ens.std,
        "n_excluded": ens.n_excluded,
    }
    config = {"seed": args.seed, "trials": args.trials, "exposure": args.exposure}
    emit_report("mc_errors", config, results, args.out)
    return 0


def cmd_mub_study(args):
    results = mc.mub_design_study(rate=args.exposure, trials=args.trials, seed=args.seed)
    config = {"seed": args.seed, "trials": args.trials, "rate": args.exposure}
    emit_report("mub_study", config, results, args.out)
    rows = [(d, results[f"mean_{d}"], results[f"err_{d}"]) for d in ("mub", "nonmub")]
    _write_csv(args.out, "mub_study", ("design", "value", "error"), rows)
    return 0


def cmd_convergence(args):
    res = mc.convergence_study(
        tomography.noisy_model_chi(),
        statistic=args.statistic,
        trials=args.trials,
        rate=args.exposure,
        seed=args.seed,
    )
    results = {"n_states": res.x_grid, "errors": res.errors, "converged_value": res.converged_value}
    config = {k: getattr(args, k) for k in ("seed", "trials", "exposure", "statistic")}
    emit_report("convergence", config, results, args.out)
    rows = [(n, res.converged_value, err) for n, err in zip(res.x_grid, res.errors)]
    _write_csv(args.out, "convergence", ("n_states", "value", "error"), rows)
    return 0


def cmd_full_reproduction(args):
    checks = []

    def check(name, value, target, tol):
        ok = value is not None and abs(value - target) <= tol
        checks.append({"name": name, "value": value, "target": target, "tol": tol, "ok": ok})
        return ok

    states = _published_states()
    fid_rows = []
    for i, (rho, _, phi) in enumerate(states, 1):
        f = algebra.fidelity(rho, phi)
        pos = dataset.STATE_FIDELITY_POSITIONS[i]
        listed = dataset.LISTED_STATE_FIDELITIES[pos]
        fid_rows.append({"state": i, "fidelity": f, "listed": listed})
        if i != 4:  # documented anomaly: listed value differs by ~0.02
            check(f"state_fidelity_{i}", f, listed, 0.02)

    chi_ref, _ = dataset.reference_chi()
    check(
        "reference_process_fidelity",
        tomography.process_fidelity(chi_ref),
        dataset.LISTED_PROCESS_FIDELITY,
        0.02,
    )
    fids, mean_f = tomography.mub_fidelities(chi_ref)
    for i, (f, listed) in enumerate(zip(fids, dataset.LISTED_MUB_FIDELITIES), 1):
        check(f"mub_fidelity_{i}", float(f), listed, 0.01)
    check("mub_mean", mean_f, dataset.LISTED_MUB_MEAN, 0.005)

    f_refit = tomography.process_fidelity(_refit(states).chi)
    check("refit_process_fidelity", f_refit, dataset.LISTED_PROCESS_FIDELITY, 0.02)

    summary, *_ = _certify_grid(chi_ref, _grid_shape(args.grid), args.closed_interval)
    check("n_genuine", float(summary["n_genuine"]), dataset.LISTED_N_GENUINE, 15)
    check(
        "mean_mu_of_genuine",
        summary["mean_mu_of_genuine"],
        dataset.LISTED_MEAN_MU,
        dataset.LISTED_STD_MU,
    )

    results = {
        "state_fidelities": fid_rows,
        "mub_fidelities": fids,
        "mub_mean": mean_f,
        "refit_process_fidelity": f_refit,
        "certification": summary,
        "checks": checks,
        "all_checks_pass": all(c["ok"] for c in checks),
    }
    config = {"grid": args.grid, "closed_interval": args.closed_interval, "check": args.check}
    emit_report("full_reproduction", config, results, args.out)
    if args.check and not results["all_checks_pass"]:
        return EXIT_CHECK_FAILED
    return 0


# Each subcommand takes only the options it reads, plus --out. Every value
# is checked while parsing, before --out is created: numpy's generators take
# only non-negative seeds, an ensemble std needs two trials, Poisson means
# need the exposure (or rate) positive and bounded, the report records the
# grid's text and the matrix path as given, and a matrix file is read then.
_seed = _checked(int, lambda n: n >= 0, "must be a non-negative integer")
_trials = _checked(int, lambda n: n >= 2, "must be an integer of at least 2")
_visibility = _checked(float, lambda v: 0 <= v <= 1, "must lie in [0, 1]")
_exposure = _checked(float, lambda x: 0 < x <= MAX_EXPOSURE, f"must lie in (0, {MAX_EXPOSURE:g}]")
_grid = _checked(str, lambda s: min(_grid_shape(s)) >= 1, "must look like 20x20, sizes at least 1")
_OPTIONS = {
    "seed": ("--seed", {"type": _seed, "default": 0}),
    "trials": ("--trials", {"type": _trials, "default": 100}),
    "visibility": ("--visibility", {"type": _visibility, "default": 1.0}),
    "exposure": ("--exposure", {"type": _exposure, "default": 150.0}),
    "grid": ("--grid", {"type": _grid, "default": "20x20"}),
    "closed_interval": ("--closed-interval", {"action": "store_true"}),
    "matrix": (
        "--matrix",
        {"type": _matrix_file, "default": None, "help": "matrix JSON file (9x9 with --batch)"},
    ),
    "batch": ("--batch", {"action": "store_true"}),
    "check": ("--check", {"action": "store_true"}),
    "statistic": (
        "--statistic",
        {"choices": ("average_fidelity", "mean_mu"), "default": "average_fidelity"},
    ),
}

_COMMANDS = (
    ("teleport_sim", cmd_teleport_sim, ("visibility",)),
    ("tomography", cmd_tomography, ("seed", "exposure")),
    ("process", cmd_process, ()),
    ("certify", cmd_certify, ("matrix", "batch", "grid", "closed_interval")),
    ("mc_errors", cmd_mc_errors, ("seed", "trials", "exposure")),
    ("mub_study", cmd_mub_study, ("seed", "trials", "exposure")),
    ("convergence", cmd_convergence, ("seed", "trials", "exposure", "statistic")),
    ("full_reproduction", cmd_full_reproduction, ("grid", "closed_interval", "check")),
)


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line as a one-line ParseError (exit 2)."""

    def error(self, message):
        raise ParseError(message)


def build_parser():
    p = _ArgumentParser(
        prog="qutrit-teleport",
        description="Qutrit teleportation simulation and analysis pipelines",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn, options in _COMMANDS:
        sp = sub.add_parser(name)
        for option in options:
            flag, kwargs = _OPTIONS[option]
            sp.add_argument(flag, **kwargs)
        sp.add_argument("--out", default=None, help="directory for the JSON report and CSV")
        sp.set_defaults(fn=fn)
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if args.out:
            try:
                Path(args.out).mkdir(parents=True, exist_ok=True)
            except OSError as e:
                raise ParseError(f"--out {args.out}: {e.strerror}") from None
        return args.fn(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except SolverError as e:
        print(f"solver error: {e}", file=sys.stderr)
        return EXIT_SOLVER
    except (DataQualityError, InsufficientDataError) as e:
        print(f"data-quality error: {e}", file=sys.stderr)
        return EXIT_DATA_QUALITY


if __name__ == "__main__":
    sys.exit(main())
