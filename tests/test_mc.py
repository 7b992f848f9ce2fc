import functools

import numpy as np
import pytest

from qutrit_teleport import algebra, certify, mc, tomography
from qutrit_teleport.errors import IllPosedError, InsufficientDataError, SolverError

from helpers import count_calls


def fidelity_statistic(target):
    def stat(tables):
        rho = tomography.reconstruct_state(tables[0], "mle")
        return algebra.fidelity(rho, target)

    return stat


@pytest.fixture
def no_fit(monkeypatch):
    """Fails the test if a study starts a channel fit."""

    def fit(*args, **kwargs):
        raise AssertionError("channel fit started")

    monkeypatch.setattr(mc, "_fit_channel", fit)


@pytest.mark.parametrize(
    "study", [mc.mub_design_study, functools.partial(mc.convergence_study, np.eye(9))]
)
def test_studies_need_two_trials(study, no_fit):
    with pytest.raises(ValueError, match="at least 2 trials"):
        study(trials=1)


class TestTrialRngs:
    def test_deterministic_streams(self):
        a = [r.random() for r in mc.trial_rngs(42, 5)]
        b = [r.random() for r in mc.trial_rngs(42, 5)]
        assert a == b

    def test_streams_independent(self):
        a, b = mc.trial_rngs(0, 2)
        assert a.random() != b.random()


class TestPoissonResample:
    def make_table(self, seed=0, rate=200.0):
        rng = np.random.default_rng(seed)
        rho = algebra.projector(np.ones(3) / np.sqrt(3))
        return rho, mc.counts_for_state(rho, rate, rng)

    def test_requires_two_trials(self):
        _, table = self.make_table()
        with pytest.raises(ValueError):
            mc.poisson_resample([table], lambda t: 1.0, 1, 0)

    def test_seed_determinism(self):
        rho, table = self.make_table()
        phi = np.ones(3) / np.sqrt(3)
        e1 = mc.poisson_resample([table], fidelity_statistic(phi), 20, 7)
        e2 = mc.poisson_resample([table], fidelity_statistic(phi), 20, 7)
        assert np.array_equal(e1.samples, e2.samples)
        e3 = mc.poisson_resample([table], fidelity_statistic(phi), 20, 8)
        assert not np.array_equal(e1.samples, e3.samples)

    def test_mean_close_to_point_estimate(self):
        rho, table = self.make_table(rate=2000.0)
        phi = np.ones(3) / np.sqrt(3)
        point = fidelity_statistic(phi)([table])
        ens = mc.poisson_resample([table], fidelity_statistic(phi), 60, 3)
        assert abs(ens.mean - point) < 3 * ens.std / np.sqrt(ens.n_trials) + 3 * ens.std
        assert ens.n_excluded == 0

    def test_error_scales_like_sqrt_rate(self):
        phi = np.ones(3) / np.sqrt(3)
        stds = []
        for rate in (300.0, 1200.0):  # 4x exposure -> std halves
            _, table = self.make_table(seed=1, rate=rate)
            ens = mc.poisson_resample([table], fidelity_statistic(phi), 120, 5)
            stds.append(ens.std)
        ratio = stds[0] / stds[1]
        assert 2.0 * 0.8 < ratio < 2.0 * 1.2

    def test_failed_trials_excluded(self):
        _, table = self.make_table()

        calls = {"n": 0}
        declared = (InsufficientDataError, IllPosedError, SolverError)

        def flaky(tables):
            calls["n"] += 1
            if calls["n"] % 3 == 0:
                raise declared[calls["n"] // 3 - 1]("synthetic failure")
            return 1.0

        ens = mc.poisson_resample([table], flaky, 9, 0)
        assert ens.n_excluded == 3
        assert len(ens.samples) == 6

    def test_undeclared_errors_propagate(self):
        _, table = self.make_table()

        def broken(tables):
            raise ValueError("programming error")

        with pytest.raises(ValueError, match="programming error"):
            mc.poisson_resample([table], broken, 4, 0)


class TestCountsForState:
    def test_split_rate_default(self):
        rho = np.eye(3) / 3
        table = mc.counts_for_state(rho, 900.0, np.random.default_rng(0))
        # expected total over all settings ~ 900
        assert 700 < sum(table.counts) < 1100

    def test_born_probabilities_once(self, monkeypatch):
        calls = count_calls(monkeypatch, tomography, "born_probabilities")
        mc.counts_for_state(np.eye(3) / 3, 150.0, np.random.default_rng(0))
        assert len(calls) == 1

    def test_counts_are_simulate_counts_at_the_split_exposure(self):
        rho = tomography.apply_process(
            tomography.noisy_model_chi(), algebra.projector(tomography.CANONICAL_KETS[4])
        )
        probs = np.clip(tomography.born_probabilities(rho), 0.0, None)
        for seed in range(5):
            table = mc.counts_for_state(rho, 150.0, np.random.default_rng(seed))
            expected = tomography.simulate_counts(
                rho, 150.0 / probs.sum(), np.random.default_rng(seed)
            )
            assert table == expected

    @pytest.mark.parametrize("rate", [0.0, -1.0])
    def test_rejects_non_positive_rate(self, rate):
        with pytest.raises(ValueError, match="rate must be positive"):
            mc.counts_for_state(np.eye(3) / 3, rate, np.random.default_rng(0))


class TestConvergenceStudy:
    def test_grid_must_ascend(self):
        with pytest.raises(ValueError):
            mc.convergence_study(tomography.noisy_model_chi(), n_states_grid=(5, 2))

    @pytest.mark.parametrize("grid", [(0, 1), ()])
    def test_grid_needs_probe_states(self, grid, no_fit):  # rejected before any fit
        with pytest.raises(ValueError, match="at least one probe state"):
            mc.convergence_study(tomography.noisy_model_chi(), n_states_grid=grid, trials=2)

    def test_unknown_statistic(self, no_fit):  # rejected before any fit
        with pytest.raises(ValueError, match="unknown statistic 'bogus'"):
            mc.convergence_study(
                tomography.noisy_model_chi(), statistic="bogus",
                n_states_grid=(1, 2), trials=2,
            )

    def test_errors_positive_and_deterministic(self):
        chi = tomography.noisy_model_chi()
        r1 = mc.convergence_study(chi, n_states_grid=(1, 4, 16), trials=6, seed=1)
        r2 = mc.convergence_study(chi, n_states_grid=(1, 4, 16), trials=6, seed=1)
        assert np.array_equal(r1.errors, r2.errors)
        assert (r1.errors > 0).all()
        # state-sampling noise shrinks with the number of probes
        assert r1.errors[-1] < r1.errors[0]


@pytest.mark.parametrize(
    "study",
    [
        functools.partial(
            mc.convergence_study, tomography.noisy_model_chi(), statistic="mean_mu",
            n_states_grid=(1, 3), trials=2, seed=4,
        ),
        functools.partial(
            mc.convergence_study, tomography.noisy_model_chi(),
            n_states_grid=(2, 5), trials=2, seed=5,
        ),
        functools.partial(mc.mub_design_study, trials=2, seed=6),
        functools.partial(mc.mub_design_study, trials=2, seed=7, estimator="mle"),
    ],
    ids=["convergence-mean_mu", "convergence-fidelity", "mub-linear", "mub-mle"],
)
def test_stacked_states_match_one_at_a_time(study, monkeypatch):
    stacked = study()
    apply_process, robustness_mu = tomography.apply_process, certify.robustness_mu

    def apply_each(chi, rho, repair=False):
        outs = [apply_process(chi, r, repair) for r in np.reshape(rho, (-1, 3, 3))]
        return np.reshape(outs, np.shape(rho))

    def mu_each(rho):
        return np.array([robustness_mu(r) for r in np.reshape(rho, (-1, 3, 3))])

    monkeypatch.setattr(tomography, "apply_process", apply_each)
    monkeypatch.setattr(certify, "robustness_mu", mu_each)
    one_at_a_time = study()
    if isinstance(stacked, dict):
        assert stacked == one_at_a_time
    else:
        assert np.array_equal(stacked.errors, one_at_a_time.errors)
        assert stacked.converged_value == one_at_a_time.converged_value


class TestMubDesignStudy:
    def test_deterministic(self):
        r1 = mc.mub_design_study(rate=150, trials=5, seed=2)
        r2 = mc.mub_design_study(rate=150, trials=5, seed=2)
        assert r1 == r2

    def test_unbiased_linear_chain_near_truth(self):
        res = mc.mub_design_study(rate=150, trials=30, seed=3)
        # the true channel gives MUB mean 0.700 exactly
        assert abs(res["mean_mub"] - 0.700) < 0.02
        assert abs(res["mean_nonmub"] - 0.700) < 0.02
        assert res["err_mub"] > 0
        assert res["err_nonmub"] > 0
