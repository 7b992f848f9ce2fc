"""Poisson Monte Carlo error propagation and tomography design studies.

Every ensemble is a pure function of (inputs, seed, n_trials): trial RNG
streams are spawned from one master SeedSequence, so results do not
depend on execution order.

``poisson_resample`` excludes and counts the trials it cannot estimate;
the design and convergence studies stop at the first one instead (the CLI
exits 4). One shared loop would have to branch on its caller. The design
study draws every trial's counts before it estimates anything, then
raises at its first bad trial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra, certify, tomography
from .errors import IllPosedError, InsufficientDataError, SolverError


def _check_trials(n_trials):
    """Error bars are ensemble stds, which need at least two trials."""
    if n_trials < 2:
        raise ValueError("need at least 2 trials")


def trial_rngs(seed, n_trials):
    """Independent per-trial generators split from a master seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n_trials)]


@dataclass(frozen=True)
class ResampleEnsemble:
    n_trials: int
    seed: int
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
    return ResampleEnsemble(
        n_trials=n_trials, seed=seed, samples=np.array(samples), n_excluded=n_excluded
    )


def _poisson_means(rho, rate):
    """Poisson means (..., 9) of one tomography run per state, over rho's leading axes.

    ``rate`` is the expected total count over all nine settings of each
    state; the exposure is split accordingly.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    probs = np.clip(tomography.born_probabilities(rho), 0.0, None)
    return float(rate) / probs.sum(axis=-1, keepdims=True) * probs


def counts_for_state(rho, rate, rng):
    """Simulate one tomography run of a state at the given counting rate.

    ``rate`` is the expected total count over all nine settings.
    """
    return tomography.CountsTable(rng.poisson(_poisson_means(rho, rate)))


def fit_channel(inputs, counts):
    """Refit chi from counts (n, 9) of each input's output.

    Maximum-likelihood states, then the constrained (PSD +
    trace-preserving) chi fit.
    """
    states = [tomography.reconstruct_state(tomography.CountsTable(c), "mle") for c in counts]
    return tomography.reconstruct_process(list(zip(inputs, states))).chi


# Each convergence statistic scores a stack of probe states after the channel,
# one value per probe.
_STATISTICS = {
    "average_fidelity": lambda outs, probes: [
        algebra.fidelity(rho_out, phi) for rho_out, phi in zip(outs, probes)
    ],
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
    truth = tomography.apply_process(chi, algebra.projector(inputs), repair=True)
    means = _poisson_means(truth, rate)
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


def mub_design_study(rate=150, trials=100, seed=0, estimator="linear"):
    """Compare MUB-input vs canonical-input process tomography designs.

    The true channel is ``tomography.noisy_model_chi()``, 0.55 * identity
    + 0.45 * depolarizing.
    Each trial refits chi from Poisson tomography with either the twelve
    MUB inputs or the nine canonical tomography inputs, then scores the
    mean fidelity of the twelve MUB states through the fitted channel.

    The default 'linear' estimator chain (linear inversion, then the
    unconstrained least-squares chi) is unbiased, every step being linear
    in the counts, so the trial means sit at the true value; it runs as
    array work over all trials. The 'mle' chain (maximum-likelihood
    states, then the constrained chi fit, one trial at a time) is
    physical but noticeably biased low at low counting rates.
    """
    _check_trials(trials)
    if estimator not in ("linear", "mle"):
        raise ValueError(f"unknown estimator {estimator!r}")
    chi_true = tomography.noisy_model_chi()
    designs = (algebra.MUB_KETS, tomography.CANONICAL_KETS)
    outs = [tomography.apply_process(chi_true, algebra.projector(k), repair=True) for k in designs]
    means = [_poisson_means(o, rate) for o in outs]
    # each trial draws its MUB counts, then its canonical ones
    draws = [[rng.poisson(m) for m in means] for rng in trial_rngs(seed, trials)]
    scores = []
    for kets, counts in zip(designs, zip(*draws)):
        if estimator == "linear":
            chis = tomography.linear_process_fit(kets, counts)
        else:
            chis = [fit_channel(kets, c) for c in counts]
        scores.append(tomography.mub_fidelities(chis, repair=(estimator == "mle"))[1])
    mub, nonmub = scores
    return {
        "mean_mub": float(mub.mean()),
        "err_mub": float(mub.std(ddof=1)),
        "mean_nonmub": float(nonmub.mean()),
        "err_nonmub": float(nonmub.std(ddof=1)),
    }


__all__ = [
    "trial_rngs",
    "ResampleEnsemble",
    "poisson_resample",
    "counts_for_state",
    "fit_channel",
    "StudyResult",
    "convergence_study",
    "mub_design_study",
]
