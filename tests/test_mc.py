import functools
import tracemalloc

import numpy as np
import pytest

from qutrit_teleport import algebra, certify, cli, dataset, mc, tomography
from qutrit_teleport.errors import IllPosedError, InsufficientDataError, SolverError

from helpers import count_calls


def fidelity_statistic(target):
    def stat(tables):
        rho = tomography.reconstruct_state(tables[0], "mle")
        return algebra.fidelity(rho, target)

    return stat


@pytest.fixture
def no_fit(monkeypatch):
    """Fails the test if a study starts a channel fit, or the linear chain's per-block work."""

    def fit(*args, **kwargs):
        raise AssertionError("channel fit started")

    monkeypatch.setattr(mc, "fit_channel", fit)
    monkeypatch.setattr(tomography, "_frequencies", fit)


@pytest.mark.parametrize(
    "study",
    [
        mc.mub_design_study,
        functools.partial(mc.convergence_study, np.eye(9)),
        functools.partial(mc.process_fidelity_study, tomography.noisy_model_chi(), 150, seed=0),
    ],
)
def test_studies_need_two_trials(study, no_fit):
    with pytest.raises(ValueError, match="at least 2 trials"):
        study(trials=1)


def test_no_fit_trips_on_both_design_study_chains(no_fit):
    for estimator in ("linear", "mle"):
        with pytest.raises(AssertionError, match="channel fit started"):
            mc.mub_design_study(trials=2, estimator=estimator)


def test_mc_errors_cli_runs_the_one_refit_chain(no_fit):
    # the CLI's error bar runs the studies' one refit chain, not a copy of it
    with pytest.raises(AssertionError, match="channel fit started"):
        cli.main(["mc_errors", "--trials", "2"])


def test_unknown_estimator_rejected_before_any_draw(no_fit, monkeypatch):
    def draws(*args, **kwargs):
        raise AssertionError("counts drawn")

    monkeypatch.setattr(mc, "trial_rngs", draws)
    with pytest.raises(ValueError, match="unknown estimator 'bogus'"):
        mc.mub_design_study(trials=2, estimator="bogus")


class TestTrialRngs:
    def test_deterministic_streams(self):
        a = [r.random() for r in mc.trial_rngs(42, 5)]
        b = [r.random() for r in mc.trial_rngs(42, 5)]
        assert a == b

    def test_streams_independent(self):
        a, b = mc.trial_rngs(0, 2)
        assert a.random() != b.random()

    @pytest.mark.parametrize("block", [3, mc._BLOCK])
    def test_streams_match_one_spawn(self, block, monkeypatch):
        # spawned a block at a time, the streams are those of one spawn of
        # every trial's seed
        monkeypatch.setattr(mc, "_BLOCK", block)
        for seed in (0, 7):
            for n in (block - 1, block, block + 1, 2 * block + 1):
                one_spawn = [
                    np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(n)
                ]
                states = [r.bit_generator.state for r in mc.trial_rngs(seed, n)]
                assert states == [r.bit_generator.state for r in one_spawn]

    def test_peak_memory_is_bounded(self):
        # the streams are consumed one at a time, so at most one block of
        # seeds is held; a list of every generator made the peak grow with n
        def peak(trials):
            tracemalloc.start()
            try:
                for _ in mc.trial_rngs(0, trials):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4 * mc._BLOCK) < 1.5 * peak(mc._BLOCK)


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
        assert abs(ens.mean - point) < 3 * ens.std / np.sqrt(60) + 3 * ens.std
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

    def test_capped_fit_excluded(self, monkeypatch):
        # the second trial's MLE hits a two-call cap: exactly that trial goes
        _, table = self.make_table()
        stat = fidelity_statistic(np.ones(3) / np.sqrt(3))
        full = mc.poisson_resample([table], stat, 4, 2)
        caps = iter([tomography.MLE_MAX_FUN, 2, tomography.MLE_MAX_FUN, tomography.MLE_MAX_FUN])

        def capped(tables):
            monkeypatch.setattr(tomography, "MLE_MAX_FUN", next(caps))
            return stat(tables)

        ens = mc.poisson_resample([table], capped, 4, 2)
        assert ens.n_excluded == 1
        assert np.array_equal(ens.samples, np.delete(full.samples, 1))

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


class TestProcessFidelityStudy:
    @pytest.mark.parametrize("rate", [0.5, 20, 150, 1e6])
    @pytest.mark.parametrize("seed", [0, 1, 4])
    def test_observed_tables_are_sequential_draws(self, rate, seed, monkeypatch):
        # the one stacked draw gives the tables of counts_for_state on each
        # input's output in turn, from the one generator of the seed
        chi, _ = dataset.reference_chi()
        seen = []

        def resample(tables, statistic, n_trials, resample_seed):
            seen.append((tables, resample_seed))
            return mc.ResampleEnsemble(samples=np.zeros(2), n_excluded=0)

        monkeypatch.setattr(mc, "poisson_resample", resample)
        mc.process_fidelity_study(chi, rate, 2, seed)
        kets = tomography.CANONICAL_KETS
        outs = tomography.apply_process(chi, algebra.projector(kets), repair=True)
        rng = np.random.default_rng(seed)
        assert seen == [([mc.counts_for_state(rho, rate, rng) for rho in outs], seed)]

    def test_needs_two_kept_trials(self):
        # at rate 0.5 every trial lacks basis counts and is excluded
        with pytest.raises(InsufficientDataError, match="0 of 2 trials gave a value"):
            mc.process_fidelity_study(tomography.noisy_model_chi(), 0.5, 2, 0)


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
def test_stacked_states_match_one_at_a_time(study, monkeypatch, request):
    stacked = study()
    apply_process, robustness_mu = tomography.apply_process, certify.robustness_mu

    def apply_each(chi, rho, repair=False):
        # one chi and one state per call, over the broadcast leading axes
        lead = np.broadcast_shapes(np.shape(chi)[:-2], np.shape(rho)[:-2])
        chis = np.broadcast_to(chi, lead + (9, 9)).reshape(-1, 9, 9)
        rhos = np.broadcast_to(rho, lead + (3, 3)).reshape(-1, 3, 3)
        outs = [apply_process(c, r, repair) for c, r in zip(chis, rhos)]
        return np.reshape(outs, lead + (3, 3))

    def mu_each(rho):
        return np.array([robustness_mu(r) for r in np.reshape(rho, (-1, 3, 3))])

    monkeypatch.setattr(tomography, "apply_process", apply_each)
    monkeypatch.setattr(certify, "robustness_mu", mu_each)
    # the design study's fixed outputs and linear scores are cached:
    # recompute them through the patch, and leave no cache built under it
    for cached in (mc._design_truth, mc._linear_scores):
        cached.cache_clear()
        request.addfinalizer(cached.cache_clear)
    one_at_a_time = study()
    if isinstance(stacked, dict):
        assert stacked == one_at_a_time
    else:
        assert np.array_equal(stacked.errors, one_at_a_time.errors)
        assert stacked.converged_value == one_at_a_time.converged_value


def ref_linear_inversion(counts):
    """The one-table linear inversion, kept as the oracle of the stacked one."""
    c = np.asarray(counts.counts, dtype=float)
    basis_total = c[:3].sum()
    if basis_total == 0:
        raise InsufficientDataError("basis-projector counts are all zero")
    p = c / basis_total
    rho = np.zeros((3, 3), dtype=complex)
    rho[0, 0], rho[1, 1], rho[2, 2] = p[0], p[1], p[2]
    for (j, k), (i_re, i_im) in {(0, 1): (3, 4), (0, 2): (5, 6), (1, 2): (7, 8)}.items():
        half = 0.5 * (p[j] + p[k])
        re = p[i_re] - half
        im = half - p[i_im]
        rho[j, k] = re + 1j * im
        rho[k, j] = re - 1j * im
    return rho


def ref_unconstrained_chi(pairs):
    """A^+ b for one set of (input, output) pairs, Hermitian part."""
    outputs = np.array([rho for _, rho in pairs])
    b = np.stack([outputs.real, outputs.imag], axis=1).ravel()
    chi = (tomography._fit_design([phi for phi, _ in pairs])[1] @ b).view(complex).reshape(9, 9)
    return (chi + chi.conj().T) / 2


def ref_mub_design_study(rate, trials, seed, estimator):
    """The design study one trial, one state and one chi at a time.

    Each trial draws each input's nine counts from per-ket Born
    probabilities and estimates its state, fits chi (the constrained fit
    for 'mle', A^+ b for 'linear'), then scores that one chi.
    """
    chi_true = tomography.noisy_model_chi()
    res = {"mub": [], "nonmub": []}
    for rng in mc.trial_rngs(seed, trials):
        for key, inputs in (("mub", algebra.MUB_KETS), ("nonmub", tomography.CANONICAL_KETS)):
            outs = tomography.apply_process(chi_true, algebra.projector(inputs), repair=True)
            pairs = []
            for phi, rho_out in zip(inputs, outs):
                probs = [algebra.fidelity(rho_out, psi) for psi in tomography.CANONICAL_KETS]
                probs = np.clip(probs, 0.0, None)
                counts = tomography.CountsTable(rng.poisson(float(rate) / probs.sum() * probs))
                if estimator == "mle":
                    pairs.append((phi, tomography.reconstruct_state(counts, "mle")))
                else:
                    pairs.append((phi, ref_linear_inversion(counts)))
            if estimator == "mle":
                chi_hat = tomography.reconstruct_process(pairs).chi
            else:
                chi_hat = ref_unconstrained_chi(pairs)
            _, mean_f = tomography.mub_fidelities(chi_hat, repair=(estimator == "mle"))
            res[key].append(mean_f)
    mub, nonmub = np.array(res["mub"]), np.array(res["nonmub"])
    return {
        "mean_mub": float(mub.mean()),
        "err_mub": float(mub.std(ddof=1)),
        "mean_nonmub": float(nonmub.mean()),
        "err_nonmub": float(nonmub.std(ddof=1)),
    }


def study_outcome(study, **kwargs):
    """The result dict, or the type and message of the error raised."""
    try:
        return study(**kwargs)
    except (InsufficientDataError, IllPosedError, SolverError) as exc:
        return type(exc), str(exc)


def assert_study_matches_oracle(**kwargs):
    got = study_outcome(mc.mub_design_study, **kwargs)
    want = study_outcome(ref_mub_design_study, **kwargs)
    if kwargs["estimator"] == "linear" and isinstance(want, dict):
        # the linear chain sums its precomputed score functional, which
        # moves the four values by rounding only (6.3e-16 at most over 300
        # measured cases)
        assert got == pytest.approx(want, rel=0, abs=1e-13)
    else:
        assert got == want


@pytest.fixture
def quick_mle(monkeypatch):
    """Cheap stand-ins for the per-state MLE and the constrained chi fit.

    Deterministic functions of the data, so the MLE chain's draws, pairing
    and stacked scoring can be checked over 100 trials in both runs.
    """

    def state(counts, method="mle"):
        return ref_linear_inversion(counts)

    def fit(pairs):
        return tomography.ProcessFit(chi=ref_unconstrained_chi(pairs), residual=0.0, n_iterations=0)

    monkeypatch.setattr(tomography, "reconstruct_state", state)
    monkeypatch.setattr(tomography, "reconstruct_process", fit)


STUDY_GRID = [
    (rate, trials, seed) for rate in (37.5, 150, 2000) for trials in (2, 7, 100) for seed in (0, 1, 9)
]


class TestDesignStudyOracle:
    """The stacked design study equals the one-trial-at-a-time loop.

    Errors match in type and message. The mle chain's values match bit for
    bit, the linear chain's to 1e-13.
    """

    # at rate 1 some state has no basis counts: the same error (CLI exit 4)
    @pytest.mark.parametrize("rate, trials, seed", STUDY_GRID + [(1, 2, 0)])
    def test_linear(self, rate, trials, seed):
        assert_study_matches_oracle(rate=rate, trials=trials, seed=seed, estimator="linear")

    @pytest.mark.parametrize("rate, trials, seed", STUDY_GRID)
    def test_mle_chain_with_quick_fits(self, rate, trials, seed, quick_mle):
        assert_study_matches_oracle(rate=rate, trials=trials, seed=seed, estimator="mle")

    def test_mle(self):
        # the real fits, at the rate where the MLE chain is most biased
        assert_study_matches_oracle(rate=37.5, trials=2, seed=0, estimator="mle")

    def test_linear_inversion_stack_equals_tables(self):
        rng = np.random.default_rng(4)
        counts = rng.poisson(20.0, size=(5, 12, 9))
        stacked = tomography._linear_inversion(tomography._frequencies(counts))
        for c, rho in zip(counts.reshape(-1, 9), stacked.reshape(-1, 3, 3)):
            ref = ref_linear_inversion(tomography.CountsTable(c))
            assert rho.tobytes() == ref.tobytes()


class TestLinearBlocks:
    """Both design-study chains run in blocks of ``mc._BLOCK`` trials, which leave no trace.

    The mle chain runs with ``quick_mle``'s fits, which the linear one never calls.
    """

    # at rate 14, seed 0 first lacks basis counts at trial 6 and seed 11 at
    # trial 3: in blocks of 3, the third block and the second raise
    @pytest.mark.parametrize(
        "estimator, seed",
        [
            pytest.param("linear", 0, id="0"),
            pytest.param("linear", 11, id="11"),
            pytest.param("mle", 0, id="mle-0"),
            pytest.param("mle", 11, id="mle-11"),
        ],
    )
    def test_small_blocks_match_oracle(self, estimator, seed, quick_mle, monkeypatch):
        monkeypatch.setattr(mc, "_BLOCK", 3)
        for trials in range(2, 8):
            for rate in (150, 14):
                assert_study_matches_oracle(rate=rate, trials=trials, seed=seed, estimator=estimator)

    # a quick mle fit takes about 2 ms per trial, so that chain's edges are
    # those of 64-trial blocks
    @pytest.mark.parametrize(
        "estimator, block, offset",
        [pytest.param("linear", mc._BLOCK, k, id=str(k)) for k in (-1, 0, 1)]
        + [pytest.param("mle", 64, k, id=f"mle-{k}") for k in (-1, 0, 1)],
    )
    def test_block_edges_match_one_block(self, estimator, block, offset, quick_mle, monkeypatch):
        monkeypatch.setattr(mc, "_BLOCK", block)
        trials = block + offset
        blocked = mc.mub_design_study(trials=trials, seed=3, estimator=estimator)
        monkeypatch.setattr(mc, "_BLOCK", trials + 1)
        assert mc.mub_design_study(trials=trials, seed=3, estimator=estimator) == blocked

    def test_peak_memory_is_bounded(self, quick_mle, monkeypatch):
        # one block's generators, draws and estimates are held at a time; a
        # chain holding every trial's grows the peak about fourfold from one
        # block to four (3.5 times on the mle chain in the 64-trial blocks
        # that keep its quick fits short)
        def peak(trials, estimator):
            tracemalloc.start()
            try:
                mc.mub_design_study(trials=trials, estimator=estimator)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for estimator, block in (("linear", mc._BLOCK), ("mle", 64)):
            monkeypatch.setattr(mc, "_BLOCK", block)
            mc.mub_design_study(trials=2, estimator=estimator)  # caches built beforehand
            assert peak(4 * block, estimator) < 1.5 * peak(block, estimator)


class TestLinearScores:
    """The linear chain's scores are one precomputed functional of the frequencies."""

    def test_functional_reproduces_the_chain(self):
        rng = np.random.default_rng(33)
        scores, rows = mc._linear_scores(), np.split(np.arange(21), [12])
        for kets, design in zip(mc._DESIGNS, rows):
            # 40 count sets, each at its own rate from 20 to 2000 counts per state
            rates = rng.uniform(20, 2000, size=(40, 1, 1))
            means = rates * rng.dirichlet(np.ones(9), (40, len(kets)))
            counts = rng.poisson(means)
            functional = (tomography._frequencies(counts) * scores[design]).sum((-2, -1))
            _, chain = tomography.mub_fidelities(tomography.linear_process_fit(kets, counts))
            assert np.abs(functional - chain).max() <= 1e-13

    def test_read_only_and_built_once(self, monkeypatch):
        mc._linear_scores.cache_clear()
        calls = count_calls(monkeypatch, tomography, "mub_fidelities")
        for seed in range(3):
            mc.mub_design_study(trials=2, seed=seed)
        # one stacked call per design, all in the first study's build
        assert len(calls) == len(mc._DESIGNS)
        scores = mc._linear_scores()
        assert scores is mc._linear_scores()
        assert scores.shape == (21, 9)
        with pytest.raises(ValueError, match="read-only"):
            scores[0, 0] = 0.0


def delta_method_std(kets, means, rel_step=1e-4):
    """First-order std of the linear chain's mean MUB fidelity under Poisson counts.

    Central differences of the stacked chain in each mean count, combined
    with the Poisson variances, which equal the means.
    """
    flat = means.ravel()
    h = rel_step * flat
    shifts = np.diag(h).reshape((-1,) + means.shape)
    _, plus = tomography.mub_fidelities(tomography.linear_process_fit(kets, means + shifts))
    _, minus = tomography.mub_fidelities(tomography.linear_process_fit(kets, means - shifts))
    grad = (plus - minus) / (2 * h)
    return float(np.sqrt(np.sum(grad**2 * flat)))


class TestMubDesignStudy:
    def test_deterministic(self):
        r1 = mc.mub_design_study(rate=150, trials=5, seed=2)
        r2 = mc.mub_design_study(rate=150, trials=5, seed=2)
        assert r1 == r2

    def test_linear_chain_biased_high(self):
        # linear inversion divides each count by its basis-triple sum S, and
        # E[1/S] > 1/E[S]: the mean sits above the model's 0.700 by more than
        # 5 standard errors
        trials = 4000
        res = mc.mub_design_study(rate=150, trials=trials, seed=0)
        assert res["mean_mub"] - 0.700 > 5 * res["err_mub"] / np.sqrt(trials)

    def test_error_bars_match_delta_method(self):
        # an oracle that draws nothing: the Monte Carlo std of each design
        # agrees with the delta method within 3 of its own standard errors,
        # about std / sqrt(2 (N - 1))
        rate, trials = 2000, 2000
        res = mc.mub_design_study(rate=rate, trials=trials, seed=0)
        chi = tomography.noisy_model_chi()
        for key, kets in (("err_mub", algebra.MUB_KETS), ("err_nonmub", tomography.CANONICAL_KETS)):
            outs = tomography.apply_process(chi, algebra.projector(kets), repair=True)
            probs = tomography.born_probabilities(outs)
            delta = delta_method_std(kets, rate * probs / probs.sum(axis=-1, keepdims=True))
            assert abs(res[key] - delta) < 3 * res[key] / np.sqrt(2 * (trials - 1))

    def test_unbiased_linear_chain_near_truth(self):
        res = mc.mub_design_study(rate=150, trials=30, seed=3)
        # the true channel gives MUB mean 0.700 exactly
        assert abs(res["mean_mub"] - 0.700) < 0.02
        assert abs(res["mean_nonmub"] - 0.700) < 0.02
        assert res["err_mub"] > 0
        assert res["err_nonmub"] > 0
