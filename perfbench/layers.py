"""Per-layer metrics of the traced run.

The layers are the program's modules. Each metric is reported on every
workload and is zero where its layer does no work; that zero is the
prediction that a workload bypassing the layer does not move.
"""

from __future__ import annotations

import inspect
import statistics
import time

from program import certify, cli, dataset, mc, optics, protocol, tomography

STAGES = optics.STAGE_NAMES


def _method_span(args, kwargs):
    method = kwargs.get("method", args[1] if len(args) > 1 else "mle")
    return f"tomography.{method}"


def _count_iterations(tracer, args, kwargs, result):
    tracer.count("tomography.chi_fit.iterations", result.n_iterations)


_RUN_TELEPORTATION = inspect.signature(optics.run_teleportation)


def _keep_circuit_input(tracer, args, kwargs, result):
    bound = _RUN_TELEPORTATION.bind(*args, **kwargs)
    tracer.circuit_inputs.append(
        (
            bound.arguments["input_state"],
            bound.arguments.get("channel") or protocol.ChannelSpec.rebalanced(),
            bound.arguments.get("visibility") or optics.VisibilityModel(),
        )
    )


# (module, attribute, span name, result hook)
TARGETS = (
    (optics, "run_teleportation", "optics.run_teleportation", _keep_circuit_input),
    (optics, "run_circuit", "optics.run_circuit", None),
    (tomography, "reconstruct_state", _method_span, None),
    (tomography, "reconstruct_process", "tomography.chi_fit", _count_iterations),
    (tomography, "project_physical", "tomography.project_physical", None),
    (tomography, "apply_process", "tomography.apply_process", None),
    (tomography, "simulate_counts", "tomography.simulate_counts", None),
    (certify, "robustness_mu", "certify.robustness_mu", None),
    (certify, "batch_certification", "certify.batch_certification", None),
    (mc, "poisson_resample", "mc.poisson_resample", None),
    (mc, "mub_design_study", "mc.mub_design_study", None),
    (dataset, "reference_rho", "dataset.reference_rho", None),
    (dataset, "reference_chi", "dataset.reference_chi", None),
    (cli, "emit_report", "cli.emit_report", None),
)


def install(tracer):
    tracer.circuit_inputs = []
    for module, attribute, name, hook in TARGETS:
        tracer.wrap(module, attribute, name, hook)
    return tracer


def stage_breakdown(circuit_inputs):
    """Fock terms and time per circuit stage, summed over the given inputs.

    Stage time comes from differencing cumulative ``run_circuit`` calls
    through consecutive stages. Call it with the tracer removed, so these
    probe calls are not counted as work of the workload.
    """
    terms = dict.fromkeys(STAGES, 0)
    stage_ms = dict.fromkeys(STAGES, 0.0)
    for input_state, channel, visibility in circuit_inputs:
        previous = 0.0
        for stage in STAGES:
            start = time.perf_counter()
            state = optics.run_circuit(input_state, channel, visibility, through_stage=stage)
            elapsed = time.perf_counter() - start
            terms[stage] += len(state.terms)
            stage_ms[stage] += (elapsed - previous) * 1e3
            previous = elapsed
    return terms, stage_ms


# Metric name -> unit. BENCHMARK.json lists the same names.
UNITS = {
    "optics.run_teleportation.calls": "count",
    "optics.run_teleportation.busy_ms": "ms",
    "optics.run_teleportation.self_ms": "ms",
    "optics.run_circuit.calls": "count",
    "optics.run_circuit.busy_ms": "ms",
    **{f"optics.terms.{s}": "count" for s in STAGES},
    **{f"optics.stage_ms.{s}": "ms" for s in STAGES},
    "tomography.mle.calls": "count",
    "tomography.mle.busy_ms": "ms",
    "tomography.mle.p50_ms": "ms",
    "tomography.linear.calls": "count",
    "tomography.linear.busy_ms": "ms",
    "tomography.chi_fit.calls": "count",
    "tomography.chi_fit.busy_ms": "ms",
    "tomography.chi_fit.self_ms": "ms",
    "tomography.chi_fit.iterations": "count",
    "tomography.project_physical.calls": "count",
    "tomography.project_physical.busy_ms": "ms",
    "tomography.apply_process.calls": "count",
    "tomography.apply_process.busy_ms": "ms",
    "tomography.simulate_counts.calls": "count",
    "tomography.simulate_counts.busy_ms": "ms",
    "certify.robustness_mu.calls": "count",
    "certify.robustness_mu.busy_ms": "ms",
    "certify.robustness_mu.p50_us": "us",
    "certify.batch_certification.busy_ms": "ms",
    "certify.batch_certification.self_ms": "ms",
    "mc.trial.calls": "count",
    "mc.trial.p50_ms": "ms",
    "mc.poisson_resample.self_ms": "ms",
    "mc.excluded": "count",
    "mc.mub_design_study.busy_ms": "ms",
    "dataset.reference_rho.calls": "count",
    "dataset.reference_rho.busy_ms": "ms",
    "dataset.reference_chi.calls": "count",
    "dataset.reference_chi.busy_ms": "ms",
    "cli.emit_report.busy_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

_SCALE = {"ms": 1e3, "us": 1e6}


def metrics(tracer, overhead_ratio):
    """Every per-layer metric from a finished traced run, as name -> value."""
    spans = tracer.by_name()
    terms, stage_ms = stage_breakdown(tracer.circuit_inputs)
    values = {}
    for name in UNITS:
        layer, _, kind = name.rpartition(".")
        timings = spans.get(layer, [])
        if kind == "calls":
            values[name] = len(timings)
        elif kind == "busy_ms":
            values[name] = sum(d for d, _ in timings) * 1e3
        elif kind == "self_ms":
            values[name] = sum(s for _, s in timings) * 1e3
        elif kind.startswith("p50_"):
            scale = _SCALE[kind[4:]]
            values[name] = statistics.median(d for d, _ in timings) * scale if timings else 0.0
    values.update({f"optics.terms.{s}": n for s, n in terms.items()})
    values.update({f"optics.stage_ms.{s}": t for s, t in stage_ms.items()})
    values["tomography.chi_fit.iterations"] = tracer.counts["tomography.chi_fit.iterations"]
    values["mc.excluded"] = tracer.counts["mc.excluded"]
    values["trace.overhead_ratio"] = overhead_ratio
    return values
