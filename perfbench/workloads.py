"""The four benchmark workloads, their inputs and their output checks.

Each workload is a closed loop with one caller: ``step(k)`` runs the k-th
unit of work and returns its ops; the next step starts only when the last
one has returned. Inputs are a pure function of the workload seed and k.

Outputs are checked against ``reference.json`` (made by
``make_reference.py`` from the program at ``DEFAULT_SEED``) where a
reference exists, and against seed-independent invariants always.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from program import algebra, cli, dataset, mc, optics, protocol, tomography
from tracing import NullTracer

DEFAULT_SEED = 0
EXPOSURE = 150.0
WARM_UP = 2**32 - 1  # step index reserved for warm-up, never used by a timed step
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Tolerances for process matrices and optics output, and for statistics.
# compare() always matches integers (counts) exactly.
CHI_TOL = 1e-9
STAT_TOL = 1e-6
PSD_TOL = 1e-7


@dataclass
class Op:
    index: int
    latency_s: float
    output: object = None
    error: str | None = None  # exception type name when the op raised
    detail: str | None = None


def _complex_pairs(mat):
    mat = np.asarray(mat, dtype=complex)
    return np.stack([mat.real, mat.imag], axis=-1).tolist()


def compare(actual, expected, tol, path="output"):
    """Problems found comparing nested JSON-like values within ``tol``."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or actual.keys() != expected.keys():
            return [f"{path}: keys differ"]
        return [p for k in expected for p in compare(actual[k], expected[k], tol, f"{path}.{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: length differs"]
        return [
            p
            for i, (a, e) in enumerate(zip(actual, expected))
            for p in compare(a, e, tol, f"{path}[{i}]")
        ]
    if isinstance(expected, bool) or isinstance(expected, str) or expected is None:
        return [] if actual == expected else [f"{path}: {actual!r} != {expected!r}"]
    if isinstance(expected, int) and isinstance(actual, int):
        return [] if actual == expected else [f"{path}: {actual} != {expected}"]
    if not isinstance(actual, (int, float)):
        return [f"{path}: {actual!r} is not a number"]
    if abs(actual - expected) <= tol:
        return []
    return [f"{path}: {actual!r} differs from {expected!r} by more than {tol}"]


def _in_unit_interval(value, name, slack=1e-12):
    return [] if -slack <= value <= 1 + slack else [f"{name} = {value!r} outside [0, 1]"]


class Workload:
    name = ""
    trace_steps = 1  # steps in each pass of a traced run; fixed so counts repeat

    def __init__(self, seed, reference=None):
        self.seed = seed
        self.tracer = NullTracer()
        self.reference = reference if reference is not None else {}

    def warm_up(self):
        """Untimed work done in set-up, before the first timed op."""

    def step(self, k):
        raise NotImplementedError

    def check(self, op):
        """List of problems with one successful op's output."""
        raise NotImplementedError

    def record(self, output):
        """JSON-ready digest of an op's output, as stored in the reference."""
        raise NotImplementedError

    def notes(self):
        """Measured facts to report that are not gated."""
        return {}

    def _timed(self, k, fn):
        with self.tracer.span("op", op=k):
            start = time.perf_counter()
            try:
                out = fn()
            except Exception as exc:  # the loop goes on; the op counts as failed
                return Op(k, time.perf_counter() - start, error=type(exc).__name__,
                          detail=traceback.format_exc(limit=3))
            return Op(k, time.perf_counter() - start, out)

    def _reference_for(self, k):
        """Reference record of op k, when the run is at the reference seed."""
        records = self.reference.get(self.name, [])
        if self.seed == DEFAULT_SEED and k < len(records):
            return records[k]
        return None


class Reproduction(Workload):
    """One op is one in-process `full_reproduction` CLI run, its stdout captured."""

    name = "reproduction"
    trace_steps = 1
    # No warm-up: an op is one whole CLI invocation, which a user runs cold.

    def step(self, k):
        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                status = cli.main(["full_reproduction"])
            return status, buf.getvalue()

        return [self._timed(k, run)]

    def record(self, output):
        return json.loads(output[1])["results"]

    def check(self, op):
        status, text = op.output
        if status != 0:
            return [f"full_reproduction exited {status}"]
        results = json.loads(text)["results"]
        problems = compare(results, self.reference["reproduction"][0], STAT_TOL, "results")
        if results["certification"]["n_genuine"] != 236:
            problems.append(f"n_genuine = {results['certification']['n_genuine']}, expected 236")
        if abs(results["refit_process_fidelity"] - 0.5753) > 5e-5:
            fidelity = results["refit_process_fidelity"]
            problems.append(f"refit process fidelity {fidelity} is not 0.5753")
        return problems


class MCErrors(Workload):
    """One op is one Poisson trial of the ``mc_errors`` pipeline."""

    name = "mc_errors"
    trace_steps = 2
    TRIALS_PER_CALL = 2  # the fewest poisson_resample accepts; the loop checks time between calls
    # Step k resamples observed data set k % DATA_SETS, so one run averages over
    # the data-dependent fit cost instead of inheriting a single data set's.
    DATA_SETS = 32

    def __init__(self, seed, reference=None):
        super().__init__(seed, reference)
        chi, _ = dataset.reference_chi()
        rng = np.random.default_rng(seed)
        self.inputs = dataset.reference_targets()[:9]
        outputs = [
            tomography.apply_process(chi, algebra.projector(phi), repair=True)
            for phi in self.inputs
        ]
        self.data_sets = [
            [mc.counts_for_state(rho, EXPOSURE, rng) for rho in outputs]
            for _ in range(self.DATA_SETS)
        ]
        # Warm-up data do not depend on the seed, so set-up does the same work at every seed.
        warm_up_rng = np.random.default_rng(WARM_UP)
        self.warm_up_data = [mc.counts_for_state(rho, EXPOSURE, warm_up_rng) for rho in outputs]
        self.min_eigenvalue = math.inf

    def _trial(self, tables):
        pairs = [
            (phi, tomography.reconstruct_state(t, "mle")) for phi, t in zip(self.inputs, tables)
        ]
        fit = tomography.reconstruct_process(pairs)
        return fit.chi, tomography.process_fidelity(fit.chi)

    def warm_up(self):
        self._trial(self.warm_up_data)

    def step(self, k):
        ops = []

        def statistic(resampled):
            i = k * self.TRIALS_PER_CALL + len(ops)
            with self.tracer.span("mc.trial", op=i):
                start = time.perf_counter()
                try:
                    chi, value = self._trial(resampled)
                except Exception as exc:
                    # poisson_resample excludes this trial (or re-raises it);
                    # either way the op failed, and its type is kept here.
                    ops.append(Op(i, time.perf_counter() - start, error=type(exc).__name__,
                                  detail=traceback.format_exc(limit=3)))
                    raise
                output = ([t.counts for t in resampled], chi, value)
                ops.append(Op(i, time.perf_counter() - start, output))
                return value

        try:
            ensemble = mc.poisson_resample(
                self.data_sets[k % self.DATA_SETS], statistic, self.TRIALS_PER_CALL, [self.seed, k]
            )
        except Exception as exc:  # escaped poisson_resample; the rest of this call did not run
            if not ops or ops[-1].error is None:
                ops.append(Op(k * self.TRIALS_PER_CALL + len(ops), 0.0, error=type(exc).__name__,
                              detail=traceback.format_exc(limit=3)))
            return ops
        self.tracer.count("mc.excluded", ensemble.n_excluded)
        n_failed = sum(op.error is not None for op in ops)
        if ensemble.n_excluded != n_failed:
            ops.append(Op(-1, 0.0, error="ExclusionMismatch",
                          detail=f"poisson_resample excluded {ensemble.n_excluded}, "
                                 f"statistic failed {n_failed}"))
        return ops

    def notes(self):
        return {"fitted_chi_min_eigenvalue": self.min_eigenvalue}

    def record(self, output):
        counts, chi, value = output
        return {
            "counts": [list(c) for c in counts],
            "chi": _complex_pairs(chi),
            "process_fidelity": value,
        }

    def check(self, op):
        counts, chi, value = op.output
        problems = _in_unit_interval(value, "process fidelity")
        # The fit's last Dykstra step is the TP projection, so PSD holds only to
        # the solver tolerance: checked at 1e-7, as the program's own tests
        # check project_physical. The default 1e-9 fails about 1 trial in 3.
        lowest = float(np.linalg.eigvalsh((chi + chi.conj().T) / 2).min())
        self.min_eigenvalue = min(self.min_eigenvalue, lowest)
        try:
            tomography.check_process_matrix(chi, psd_tol=PSD_TOL)
        except ValueError as exc:
            problems.append(f"fitted chi: {exc}")
        ref = self._reference_for(op.index)
        if ref is not None:
            # the fidelity is chi[0, 0], so it is held to the chi tolerance too
            problems += compare(self.record(op.output), ref, CHI_TOL, "trial")
        return problems


class MubStudy(Workload):
    """One op is one linear-estimator ``mc.mub_design_study`` call."""

    name = "mub_study"
    trace_steps = 4
    TRIALS = 2  # the fewest that give the study's error bars

    def _seed(self, k):
        return int(np.random.SeedSequence([self.seed, k]).generate_state(1)[0])

    def _study(self, k):
        return mc.mub_design_study(
            rate=EXPOSURE, trials=self.TRIALS, seed=self._seed(k), estimator="linear"
        )

    def warm_up(self):
        self._study(WARM_UP)

    def step(self, k):
        return [self._timed(k, lambda: self._study(k))]

    def record(self, output):
        return output

    def check(self, op):
        out = op.output
        problems = []
        for key in ("mean_mub", "mean_nonmub"):
            problems += _in_unit_interval(out[key], key)
        for key in ("err_mub", "err_nonmub"):
            if not (math.isfinite(out[key]) and out[key] >= 0):
                problems.append(f"{key} = {out[key]!r}")
        ref = self._reference_for(op.index)
        if ref is not None:
            problems += compare(out, ref, STAT_TOL, "study")
        return problems


VISIBILITY_MODELS = (
    ("V=1", optics.VisibilityModel()),
    ("V=0.9", optics.VisibilityModel(default=0.9)),
    ("pairwise", optics.VisibilityModel(default=0.95, pairwise={frozenset(("p1", "p2")): 0.8})),
)


def damped_state(phi, model):
    """The teleported state that ``optics.visibility_damping_factor`` predicts."""
    rho = algebra.projector(phi)
    for j in range(3):
        for k in range(3):
            if j != k:
                rho[j, k] *= optics.visibility_damping_factor(model, (j, k))
    return rho


class TeleportTomography(Workload):
    """One op is one simulated experiment point: optics, counts, MLE, fidelities."""

    name = "teleport_tomography"
    trace_steps = 30  # one full cycle of 10 inputs x 3 visibility models

    def __init__(self, seed, reference=None):
        super().__init__(seed, reference)
        self.inputs = protocol.benchmark_input_states()
        self.expected = {
            (i, m): damped_state(phi, model)
            for i, phi in enumerate(self.inputs)
            for m, (_, model) in enumerate(VISIBILITY_MODELS)
        }
        self.pairwise_deviation = {
            "coherence_vs_damping_formula": 0.0,
            "success_probability_vs_1/18": 0.0,
        }

    def point(self, k):
        return k % len(self.inputs), (k // len(self.inputs)) % len(VISIBILITY_MODELS)

    def _experiment(self, k, rng):
        i, m = self.point(k)
        phi = self.inputs[i]
        rho, prob = optics.run_teleportation(phi, visibility=VISIBILITY_MODELS[m][1])
        counts = tomography.simulate_counts(rho, EXPOSURE, rng)
        estimate = tomography.reconstruct_state(counts, "mle")
        fidelities = algebra.fidelity(rho, phi), algebra.fidelity(estimate, phi)
        return rho, prob, counts.counts, estimate, *fidelities

    def warm_up(self):
        for m in range(len(VISIBILITY_MODELS)):
            self._experiment(m * len(self.inputs), np.random.default_rng(WARM_UP))

    def step(self, k):
        return [self._timed(k, lambda: self._experiment(k, np.random.default_rng([self.seed, k])))]

    def record(self, output):
        _, _, counts, _, fid_optics, fid_estimate = output
        return {
            "counts": list(counts),
            "fidelity_optics": fid_optics,
            "fidelity_estimate": fid_estimate,
        }

    def check(self, op):
        rho, prob, counts, estimate, fid_optics, fid_estimate = op.output
        i, m = self.point(op.index)
        label = VISIBILITY_MODELS[m][0]
        problems = _in_unit_interval(fid_optics, "optics fidelity")
        problems += _in_unit_interval(fid_estimate, "estimate fidelity")
        try:
            algebra.check_density_matrix(estimate, dim=3)
        except ValueError as exc:
            problems.append(f"MLE estimate: {exc}")
        if label == "V=1":
            if abs(fid_optics - 1.0) > CHI_TOL or abs(prob - 1 / 18) > CHI_TOL:
                problems.append(f"V=1: fidelity {fid_optics!r}, success probability {prob!r}")
        coherence_dev = float(np.abs(rho - self.expected[i, m]).max())
        if label == "V=0.9" and coherence_dev > 1e-12:
            problems.append(
                f"V=0.9: differs from visibility_damping_factor by {coherence_dev:.3g}"
            )
        if label == "pairwise":
            dev = self.pairwise_deviation
            for key, value in (
                ("coherence_vs_damping_formula", coherence_dev),
                ("success_probability_vs_1/18", abs(prob - 1 / 18)),
            ):
                dev[key] = max(dev[key], value)
        ref_optics = self.reference["optics"][i * len(VISIBILITY_MODELS) + m]
        where = f"optics[{label}]"
        problems += compare(_complex_pairs(rho), ref_optics["rho"], CHI_TOL, f"{where}.rho")
        problems += compare(prob, ref_optics["success_probability"], CHI_TOL, f"{where}.prob")
        ref = self._reference_for(op.index)
        if ref is not None:
            problems += compare(self.record(op.output), ref, STAT_TOL, "point")
        return problems

    def optics_record(self, output):
        rho, prob = output[:2]
        return {"rho": _complex_pairs(rho), "success_probability": prob}

    def notes(self):
        # The pairwise model is checked only against the reference; its gap to
        # the damping formula is reported, not gated.
        return {"pairwise_model_max_abs_deviation": self.pairwise_deviation}


WORKLOADS = {w.name: w for w in (Reproduction, MCErrors, MubStudy, TeleportTomography)}


def load_reference():
    return json.loads(REFERENCE_PATH.read_text())


def make(name, seed):
    return WORKLOADS[name](seed, load_reference())
