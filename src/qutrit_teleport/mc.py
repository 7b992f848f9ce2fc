"""Poisson Monte Carlo error propagation and tomography design studies.

Every ensemble is a pure function of (inputs, seed, n_trials): trial RNG
streams are spawned from one master SeedSequence, so results do not
depend on execution order. The three studies (process fidelity,
convergence, MUB design) take their truth from ``_channel_weights``.

``poisson_resample`` excludes and counts the trials it cannot estimate;
the design and convergence studies stop at the first one instead (the CLI
exits 4). One shared loop would have to branch on its caller. Streams are
spawned, and the design study runs, a block of trials at a time, so memory
stays flat; its linear chain scores one functional of the normalized counts.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import algebra, certify, tomography
from .errors import IllPosedError, InsufficientDataError, SolverError

# Trials per block of spawned streams and of the design study's stacked work
_BLOCK = 1024


def _check_trials(n_trials):
    """Error bars are ensemble stds, which need at least two trials."""
    if n_trials < 2:
        raise ValueError("need at least 2 trials")


def trial_rngs(seed, n_trials):
    """Independent per-trial generators split from a master seed, a block at a time.

    ``SeedSequence.spawn`` carries its child keys on across calls, so the
    streams are those of one ``spawn(n_trials)``.
    """
    master = np.random.SeedSequence(seed)
    for start in range(0, n_trials, _BLOCK):
        yield from map(np.random.default_rng, master.spawn(min(_BLOCK, n_trials - start)))


@dataclass(frozen=True)
class ResampleEnsemble:
    samples: np.ndarray
    n_excluded: int

    @property
    def mean(self):
        return float(self.samples.mean())

    @property
    def std(self):
        return float(self.samples.std(ddof=1)) if len(self.samples) > 1 else 0.0


def poisson_resample(counts_tables, statistic, n_trials, seed):
    """Monte Carlo error bar: redraw every count as Poisson(observed).

    ``counts_tables`` is a list of CountsTable; ``statistic`` maps a
    resampled list to one real number (a full analysis pipeline). Trials
    raising InsufficientDataError, IllPosedError or SolverError are
    excluded and counted; any other exception propagates.
    """
    _check_trials(n_trials)
    samples = []
    n_excluded = 0
    for rng in trial_rngs(seed, n_trials):
        resampled = [tomography.CountsTable(rng.poisson(t.counts)) for t in counts_tables]
        try:
            samples.append(float(statistic(resampled)))
        except (InsufficientDataError, IllPosedError, SolverError):
            n_excluded += 1
    return ResampleEnsemble(samples=np.array(samples), n_excluded=n_excluded)


def _born_weights(rho):
    """Clipped Born probabilities (..., 9) of rho's nine settings, and their sums (..., 1)."""
    probs = np.clip(tomography.born_probabilities(rho), 0.0, None)
    return probs, probs.sum(axis=-1, keepdims=True)


def _rate_means(weights, rate):
    """Poisson means (..., 9) at ``rate`` expected counts per state, from its ``_born_weights``."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    probs, sums = weights
    return float(rate) / sums * probs


def _channel_weights(chi, kets):
    """``_born_weights`` of chi's repaired outputs of the input ``kets``: a study's truth."""
    return _born_weights(tomography.apply_process(chi, algebra.projector(kets), repair=True))


def counts_for_state(rho, rate, rng):
    """Simulate one tomography run of a state at the given counting rate.

    ``rate`` is the expected total count over all nine settings.
    """
    return tomography.CountsTable(rng.poisson(_rate_means(_born_weights(rho), rate)))


def fit_channel(inputs, counts):
    """Refit chi from counts (n, 9) of each input's output.

    Maximum-likelihood states, then the constrained (PSD +
    trace-preserving) chi fit.
    """
    states = [tomography.reconstruct_state(tomography.CountsTable(c), "mle") for c in counts]
    return tomography.reconstruct_process(list(zip(inputs, states))).chi


def process_fidelity_study(chi, rate, trials, seed):
    """Monte Carlo error bar of the process fidelity of chi refitted from tomography.

    One stacked draw from ``default_rng(seed)`` gives each canonical input's
    observed table at ``rate``; ``poisson_resample`` refits each trial.
    """
    inputs = tomography.CANONICAL_KETS
    means = _rate_means(_channel_weights(chi, inputs), rate)
    observed = np.random.default_rng(seed).poisson(means)

    def statistic(resampled):
        return tomography.process_fidelity(fit_channel(inputs, [t.counts for t in resampled]))

    ens = poisson_resample(list(map(tomography.CountsTable, observed)), statistic, trials, seed)
    if len(ens.samples) < 2:
        raise InsufficientDataError(
            f"{len(ens.samples)} of {trials} trials gave a value; an error bar needs two"
        )
    return ens


# Each convergence statistic scores a stack of probe states after the channel,
# one value per probe.
_STATISTICS = {
    "average_fidelity": lambda outs, probes: algebra.fidelity(outs, probes),
    "mean_mu": lambda outs, probes: certify.robustness_mu(outs),
}


@dataclass(frozen=True)
class StudyResult:
    x_grid: tuple
    errors: np.ndarray
    converged_value: float


def convergence_study(
    chi, statistic="average_fidelity", n_states_grid=(1, 2, 5, 10, 20, 50),
    trials=50, rate=150, seed=0,
):
    """Statistical error of a channel statistic vs number of probe states.

    Each trial refits the channel from Poisson-noisy tomography of the
    nine canonical inputs, then estimates the statistic by averaging over
    n Haar-random probe states; the reported error is the across-trial
    std. The state-sampling contribution dies off with n while the
    channel-fit noise does not, so the curve plateaus at that floor.
    """
    _check_trials(trials)
    if statistic not in _STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")
    score = _STATISTICS[statistic]
    grid = tuple(n_states_grid)
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be ascending")
    if not grid or min(grid) < 1:
        raise ValueError("grid needs at least one probe state per point")
    inputs = tomography.CANONICAL_KETS
    means = _rate_means(_channel_weights(chi, inputs), rate)
    values = np.zeros((trials, len(grid)))
    for t, rng in enumerate(trial_rngs(seed, trials)):
        chi_hat = fit_channel(inputs, rng.poisson(means))
        for g, n in enumerate(grid):
            probes = [algebra.random_pure_state(rng) for _ in range(n)]
            outs = tomography.apply_process(chi_hat, algebra.projector(probes), repair=True)
            values[t, g] = np.mean(score(outs, probes))
    errors = values.std(axis=0, ddof=1)
    return StudyResult(
        x_grid=grid, errors=errors, converged_value=float(values[:, -1].mean())
    )


_DESIGNS = (algebra.MUB_KETS, tomography.CANONICAL_KETS)


@functools.cache
def _design_truth():
    """Read-only ``_born_weights`` of ``tomography.noisy_model_chi()``'s outputs.

    The rows (21, 9) and (21, 1) hold the MUB inputs, then the canonical ones.
    """
    weights = _channel_weights(tomography.noisy_model_chi(), np.concatenate(_DESIGNS))
    for w in weights:
        w.flags.writeable = False
    return weights


@functools.cache
def _linear_scores():
    """Read-only V (21, 9), rows as in ``_design_truth``: the linear chain's unit-table scores.

    A trial's score of a design is sum_i V_i . p_i, p_i input i's ``tomography._frequencies``.
    """
    scores = []
    for kets in _DESIGNS:
        units = np.eye(9 * len(kets)).reshape(-1, len(kets), 9)
        b = tomography._output_vector(tomography._linear_inversion(units))
        chis = tomography._least_squares(tomography._fit_design(kets)[1], b)
        scores.append(tomography.mub_fidelities(chis)[1])
    scores = np.concatenate(scores).reshape(-1, 9)
    scores.flags.writeable = False
    return scores


def mub_design_study(rate=150, trials=100, seed=0, estimator="linear"):
    """Compare MUB-input vs canonical-input process tomography designs.

    The true channel is ``tomography.noisy_model_chi()``, 0.55 * identity +
    0.45 * depolarizing. Each trial refits chi from Poisson tomography with
    either the twelve MUB inputs or the nine canonical ones, then scores the
    mean fidelity of the twelve MUB states through the fitted channel.

    Both chains draw and score a block of trials at a time. The default
    'linear' chain (linear inversion, then the unconstrained least-squares
    chi) is real-linear in the normalized counts, so a block's scores are one
    precomputed functional (``_linear_scores``). It is biased high: linear
    inversion divides each count by its basis-triple sum S, and E[1/S] >
    1/E[S], so the means sit about 0.007 above the true 0.700 at rate 150
    (0.031 at 37.5, 0.0006 at 2000). The 'mle' chain (MLE states, then the
    constrained chi fit, per trial) is physical but biased low at low rates.
    """
    _check_trials(trials)
    if estimator not in ("linear", "mle"):
        raise ValueError(f"unknown estimator {estimator!r}")
    means = _rate_means(_design_truth(), rate)
    rngs = trial_rngs(seed, trials)
    scores = []
    for _ in range(0, trials, _BLOCK):
        # each trial draws its MUB counts, then its canonical ones, in one call
        counts = np.array([rng.poisson(means) for rng in itertools.islice(rngs, _BLOCK)])
        if estimator == "linear":
            per_input = (tomography._frequencies(counts) * _linear_scores()).sum(-1)
            scores.append([s.sum(-1) for s in np.split(per_input, [len(_DESIGNS[0])], -1)])
        else:
            designs = np.split(counts, [len(_DESIGNS[0])], axis=1)
            chis = [[fit_channel(kets, c) for c in cs] for kets, cs in zip(_DESIGNS, designs)]
            scores.append(tomography.mub_fidelities(chis, repair=True)[1])
    scores = np.concatenate(scores, axis=1)
    # one row per design, each reduced as the 1-D array of its scores
    mean, err = scores.mean(axis=1), scores.std(axis=1, ddof=1)
    return {
        "mean_mub": float(mean[0]),
        "err_mub": float(err[0]),
        "mean_nonmub": float(mean[1]),
        "err_nonmub": float(err[1]),
    }


__all__ = [
    "trial_rngs",
    "ResampleEnsemble",
    "poisson_resample",
    "counts_for_state",
    "fit_channel",
    "process_fidelity_study",
    "StudyResult",
    "convergence_study",
    "mub_design_study",
]
