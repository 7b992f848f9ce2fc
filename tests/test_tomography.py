import functools
import importlib.machinery
import math
import os
import sys
import threading

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from qutrit_teleport import algebra, certify, dataset, mc, optics, protocol, tomography
from qutrit_teleport.errors import DimensionError, IllPosedError, InsufficientDataError, SolverError

from helpers import count_calls, random_density_matrix


def random_physical_chi(rng):
    """Random Hermitian PSD trace-preserving process matrix."""
    g = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    raw = g @ g.conj().T
    raw /= np.trace(raw).real
    return tomography.project_physical(raw)


class TestProjectors:
    def test_exact_published_set(self):
        kets = tomography.CANONICAL_KETS
        assert kets.shape == (9, 3)
        assert not kets.flags.writeable
        r2 = 1 / math.sqrt(2)
        assert np.abs(kets[3] - r2 * np.array([1, 1, 0])).max() < 1e-12
        assert np.abs(kets[4] - r2 * np.array([1, 1j, 0])).max() < 1e-12
        assert np.abs(kets[8] - r2 * np.array([0, 1, 1j])).max() < 1e-12
        # one definition: the first nine benchmark inputs, byte for byte
        first_nine = [phi.tobytes() for phi in protocol.benchmark_input_states()[:9]]
        assert [k.tobytes() for k in kets] == first_nine

    def test_born_probabilities_basis_triple(self):
        rng = np.random.default_rng(0)
        rho = random_density_matrix(rng)
        p = tomography.born_probabilities(rho)
        assert abs(p[:3].sum() - 1.0) < 1e-9


class TestCountsTable:
    def test_validation(self):
        with pytest.raises(ValueError):
            tomography.CountsTable((1,) * 8)
        with pytest.raises(ValueError):
            tomography.CountsTable((-1,) + (1,) * 8)
        with pytest.raises(ValueError):
            tomography.CountsTable((1.7,) * 9)
        with pytest.raises(ValueError):
            tomography.CountsTable((-0.5,) + (1,) * 8)

    @pytest.mark.parametrize("exposure", [0.0, -1.0])
    def test_simulate_rejects_non_positive_exposure(self, exposure):
        with pytest.raises(ValueError, match="exposure must be positive"):
            tomography.simulate_counts(np.eye(3) / 3, exposure, np.random.default_rng(0))

    def test_integral_floats_accepted(self):
        table = tomography.CountsTable((3.0,) + (1,) * 8)
        assert table.counts == (3,) + (1,) * 8
        assert all(type(c) is int for c in table.counts)

    def test_simulate_deterministic_per_seed(self):
        rho = np.eye(3) / 3
        c1 = tomography.simulate_counts(rho, 100.0, np.random.default_rng(5))
        c2 = tomography.simulate_counts(rho, 100.0, np.random.default_rng(5))
        assert c1.counts == c2.counts


class TestStateReconstruction:
    def exact_counts(self, rho, n=10**7):
        p = tomography.born_probabilities(rho)
        return tomography.CountsTable(tuple(int(round(n * q)) for q in p))

    def test_linear_inversion_recovers_exact_data(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            rho = random_density_matrix(rng)
            est = tomography.reconstruct_state(self.exact_counts(rho), "linear")
            assert np.abs(est - rho).max() < 1e-5

    def test_mle_recovers_exact_data(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            rho = random_density_matrix(rng)
            est = tomography.reconstruct_state(self.exact_counts(rho), "mle")
            assert np.abs(est - rho).max() < 1e-4

    def test_mle_always_physical(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            rho = random_density_matrix(rng)
            counts = tomography.simulate_counts(rho, 30.0, rng)
            est = tomography.reconstruct_state(counts, "mle")
            assert np.abs(est - est.conj().T).max() < 1e-10
            assert abs(np.trace(est).real - 1.0) < 1e-10
            assert np.linalg.eigvalsh(est).min() > -1e-10

    def test_linear_inversion_can_be_indefinite(self):
        # a pure state at low counts typically yields negative eigenvalues
        rng = np.random.default_rng(8)
        rho = algebra.projector(np.ones(3) / math.sqrt(3))
        found = False
        for _ in range(20):
            counts = tomography.simulate_counts(rho, 25.0, rng)
            est = tomography.reconstruct_state(counts, "linear")
            if np.linalg.eigvalsh((est + est.conj().T) / 2).min() < -1e-6:
                found = True
                break
        assert found

    def test_zero_counts_rejected(self):
        counts = tomography.CountsTable((0,) * 9)
        with pytest.raises(InsufficientDataError):
            tomography.reconstruct_state(counts, "mle")
        with pytest.raises(InsufficientDataError):
            tomography.reconstruct_state(counts, "linear")

    def test_mle_without_basis_counts(self):
        # linear inversion needs the basis counts; the MLE seeds from I/3
        counts = tomography.CountsTable((0, 0, 0, 5, 3, 4, 2, 6, 1))
        rho = tomography.reconstruct_state(counts, "mle")
        algebra.check_density_matrix(rho)
        with pytest.raises(InsufficientDataError, match="basis-projector"):
            tomography.reconstruct_state(counts, "linear")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            tomography.reconstruct_state(self.exact_counts(np.eye(3) / 3), "bayes")


def ref_t_to_rho(t):
    """One Cholesky-like factor (9 reals) -> density matrix, written out."""
    T = np.array(
        [
            [t[0], 0, 0],
            [t[3] + 1j * t[4], t[1], 0],
            [t[5] + 1j * t[6], t[7] + 1j * t[8], t[2]],
        ],
        dtype=complex,
    )
    rho = T.conj().T @ T
    tr = np.trace(rho).real
    if tr <= 0:
        return np.eye(3, dtype=complex) / 3.0
    return rho / tr


def ref_mle(counts):
    """The state MLE with scipy's own finite-difference gradient: one scalar
    likelihood call per point and per coordinate. Returns (rho, scipy result)."""
    c = np.asarray(counts.counts, dtype=float)
    kets = tomography.CANONICAL_KETS

    def neg_loglik(t):
        rho = ref_t_to_rho(t)
        p = np.einsum("ij,jk,ik->i", kets.conj(), rho, kets).real
        p = np.clip(p, 1e-12, None)
        s = c.sum() / p.sum()
        lam = s * p
        return float(np.sum(lam - c * np.log(lam)))

    t0 = tomography._rho_to_t(tomography._linear_inversion(tomography._frequencies(c)))
    res = minimize(neg_loglik, t0, method="L-BFGS-B", options={"ftol": 1e-14, "gtol": 1e-10})
    return ref_t_to_rho(res.x), res


# perfbench's teleport_tomography points: 10 inputs under three visibility models
TELEPORT_MODELS = (
    optics.VisibilityModel(),
    optics.VisibilityModel(default=0.9),
    optics.VisibilityModel(default=0.95, pairwise={frozenset(("p1", "p2")): 0.8}),
)

# L-BFGS-B stops on the rank boundary here: it returns a pure state whose
# negative log-likelihood is 3.1e-3 above the full-rank maximum's (an
# mc_errors-style draw: seed 2, trial 7, input 2 at rate 150)
RANK_BOUNDARY_COUNTS = tomography.CountsTable((1, 4, 28, 4, 12, 30, 36, 39, 31))

# L-BFGS-B asks four times for f and g at the point it was just given; a
# teleport_tomography draw (seed 3, point 7)
REPEATED_POINT_COUNTS = tomography.CountsTable((0, 80, 75, 52, 43, 39, 43, 142, 82))

# L-BFGS-B ends ABNORMAL here (scipy's status 2): ref_mle stops after 580
# scalar calls and keeps its last accepted point
ABNORMAL_STOP_COUNTS = tomography.CountsTable((2, 4, 2, 0, 9, 6, 0, 0, 2))


def ref_stacked_mle(counts, max_fun=tomography.MLE_MAX_FUN):
    """The stacked likelihood under scipy's own L-BFGS-B loop, as minimize
    runs it. Returns (rho, scipy's status)."""
    c = np.asarray(counts.counts, dtype=float)
    total = c.sum()
    points = np.empty((10, 9))
    diagonal = points.reshape(-1)[9::10]

    def fun_and_grad(x):
        stepped = x + tomography._FD_STEP
        h = stepped - x
        if not h.all():
            flat = h == 0
            xf = x[flat]
            step = tomography._FD_REL_STEP * np.maximum(1.0, np.abs(xf))
            stepped[flat] = xf + np.copysign(step, xf)
            h = stepped - x
        points[:] = x
        diagonal[:] = stepped
        f = tomography._neg_loglik(points, c, total)
        return f[0], (f[1:] - f[0]) / h

    t0 = tomography._rho_to_t(tomography._linear_inversion(tomography._frequencies(c)))
    res = minimize(
        fun_and_grad,
        t0,
        jac=True,
        method="L-BFGS-B",
        options={"ftol": 1e-14, "gtol": 1e-10, "maxfun": max_fun},
    )
    return tomography._t_to_rho(res.x[None])[0], res.status


def record_stacked_calls(monkeypatch):
    """The number of points in each stacked likelihood call, as they happen."""
    calls = []
    neg_loglik = tomography._neg_loglik

    def counting(t, c, total):
        calls.append(len(t))
        return neg_loglik(t, c, total)

    monkeypatch.setattr(tomography, "_neg_loglik", counting)
    return calls


def mle_optimality_gap(counts, rho):
    """lambda_max(R), in counts, of the state MLE's optimality condition at rho.

    With the exposure s free, the Poisson log-likelihood is concave in
    sigma = s rho over the PSD cone, and at its optimal s its gradient is a
    positive multiple of R = sum_i (c_i / p_i) P_i - (C / sum_j p_j) sum_i P_i,
    with p_i = <psi_i|rho|psi_i> and C the total count. Tr(R rho) = 0 by
    construction, so rho is the maximum iff lambda_max(R) <= 0. A setting
    with c_i = 0 adds nothing to the first sum, even where p_i = 0.
    """
    c = np.asarray(counts.counts, dtype=float)
    p = tomography.born_probabilities(rho)
    projectors = algebra.projector(tomography.CANONICAL_KETS)
    seen = c > 0
    r = np.einsum("i,iab->ab", c[seen] / p[seen], projectors[seen])
    r -= c.sum() / p.sum() * projectors.sum(axis=0)
    return np.linalg.eigvalsh(r)[-1]


def teleport_tomography_counts(seed=3):
    inputs = protocol.benchmark_input_states()
    for k in range(30):
        rho, _ = optics.run_teleportation(inputs[k % 10], visibility=TELEPORT_MODELS[k // 10])
        yield tomography.simulate_counts(rho, 150.0, np.random.default_rng([seed, k]))


class TestBornProbabilities:
    def test_stack_equals_per_ket_fidelity_on_optics_states(self):
        inputs = protocol.benchmark_input_states()
        rhos = np.array(
            [
                optics.run_teleportation(inputs[k % 10], visibility=TELEPORT_MODELS[k // 10])[0]
                for k in range(30)
            ]
        )
        stacked = tomography.born_probabilities(rhos.reshape(3, 10, 3, 3))
        per_ket = [[algebra.fidelity(rho, psi) for psi in tomography.CANONICAL_KETS] for rho in rhos]
        assert stacked.shape == (3, 10, 9)
        assert np.array_equal(stacked.reshape(30, 9), per_ket)
        # exact zeros stay exact: a zero Poisson mean draws no random number
        assert (stacked == 0).sum() == 54
        assert np.array_equal(stacked == 0, np.equal(per_ket, 0).reshape(3, 10, 9))

    def test_stack_rejects_a_complex_probability(self):
        rhos = np.array([np.eye(3) / 3, np.eye(3) / 3], dtype=complex)
        rhos[1, 0, 0] += 1e-6j
        with pytest.raises(ValueError, match="non-negligible imaginary part"):
            tomography.born_probabilities(rhos)

    def test_stack_rejects_wrong_dimension(self):
        with pytest.raises(DimensionError):
            tomography.born_probabilities(np.array([np.eye(2) / 2] * 3))


def mc_errors_counts(seed=0, trials=10):
    """The 90 count tables of an mc_errors run: published chi, rate 150."""
    chi, _ = dataset.reference_chi()
    inputs = dataset.reference_targets()[:9]
    rng = np.random.default_rng(seed)
    outs = tomography.apply_process(chi, algebra.projector(inputs), repair=True)
    tables = [mc.counts_for_state(rho, 150.0, rng) for rho in outs]
    for trial_rng in mc.trial_rngs(seed, trials):
        for t in tables:
            counts = trial_rng.poisson(np.array(t.counts, dtype=float))
            yield tomography.CountsTable(tuple(counts))


def random_state_counts(seed=4):
    """Pure, mixed and near rank-2 states at exposures 2 to 5000."""
    rng = np.random.default_rng(seed)
    for exposure in (2.0, 20.0, 150.0, 5000.0):
        for k in range(12):
            rho = random_density_matrix(rng, rank=(1, 3, 2)[k % 3])
            if k % 3 == 2:
                rho = (1 - 1e-4) * rho + 1e-4 * np.eye(3) / 3
            counts = tomography.simulate_counts(rho, exposure, rng)
            if sum(counts.counts[:3]) > 0:
                yield counts


class TestStackedMle:
    """The stacked likelihood reproduces scipy's finite-difference MLE bit for bit."""

    @pytest.mark.parametrize(
        "ensemble",
        [teleport_tomography_counts, mc_errors_counts, random_state_counts],
        ids=["teleport-tomography", "mc-errors", "random-states"],
    )
    def test_equals_scalar_oracle(self, ensemble):
        tables = list(ensemble())
        assert len(tables) >= 30
        for counts in tables:
            assert np.array_equal(tomography.reconstruct_state(counts, "mle"), ref_mle(counts)[0])

    def test_rank_boundary_case(self):
        rho = tomography.reconstruct_state(RANK_BOUNDARY_COUNTS, "mle")
        # the case's premise: the fit ends on the rank boundary
        assert np.linalg.eigvalsh(rho)[1] < 1e-9
        assert np.array_equal(rho, ref_mle(RANK_BOUNDARY_COUNTS)[0])

    def test_relative_step_fallback(self, monkeypatch):
        # t scaled by 1e9 gives the same rho, but x + 1e-8 rounds back to x,
        # so scipy steps by sqrt(eps) * |x| instead
        seed = tomography._rho_to_t
        monkeypatch.setattr(tomography, "_rho_to_t", lambda rho: 1e9 * seed(rho))
        for counts in list(random_state_counts())[::6]:
            assert np.array_equal(tomography._mle(counts), ref_mle(counts)[0])

    def test_partial_relative_step_fallback(self, monkeypatch):
        # only the diagonal of T scaled by 1e9: those coordinates step by
        # sqrt(eps) * |x| and the off-diagonal ones by 1e-8, in one point
        seed = tomography._rho_to_t
        scale = np.array([1e9, 1e9, 1e9, 1, 1, 1, 1, 1, 1])
        monkeypatch.setattr(tomography, "_rho_to_t", lambda rho: scale * seed(rho))
        relative_steps = []
        neg_loglik = tomography._neg_loglik

        def recording(t, c, total):
            steps = np.diagonal(t[1:] - t[0])
            relative_steps.append(int((np.abs(steps) > 2 * tomography._FD_STEP).sum()))
            return neg_loglik(t, c, total)

        monkeypatch.setattr(tomography, "_neg_loglik", recording)
        for counts in list(random_state_counts())[::6]:
            assert np.array_equal(tomography._mle(counts), ref_mle(counts)[0])
        assert any(0 < n < 9 for n in relative_steps)

    def test_fits_in_two_threads(self):
        # each fit owns its stacked points, so concurrent fits do not mix them;
        # test_equals_scalar_oracle holds the sequential pass to scipy's
        tables = list(mc_errors_counts())
        expected = [tomography.reconstruct_state(counts, "mle") for counts in tables]
        results = [None, None]

        def run(k):
            results[k] = [tomography.reconstruct_state(counts, "mle") for counts in tables]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for rhos in results:
            assert len(rhos) == len(expected)
            assert all(np.array_equal(a, b) for a, b in zip(rhos, expected))

    def test_evaluation_cap_raises(self, monkeypatch):
        monkeypatch.setattr(tomography, "MLE_MAX_FUN", 2)
        with pytest.raises(SolverError, match="cap of 2 likelihood calls"):
            tomography.reconstruct_state(RANK_BOUNDARY_COUNTS, "mle")

    @pytest.mark.parametrize("counts", [RANK_BOUNDARY_COUNTS, ABNORMAL_STOP_COUNTS])
    def test_cap_agrees_with_scipy_loop(self, counts, monkeypatch):
        # the cap is tested where scipy tests it, at each new iterate, and a
        # fit past it raises exactly when scipy's loop reports status 1
        for max_fun in range(1, 21):
            monkeypatch.setattr(tomography, "MLE_MAX_FUN", max_fun)
            rho, status = ref_stacked_mle(counts, max_fun)
            if status == 1:
                with pytest.raises(SolverError):
                    tomography._mle(counts)
            else:
                assert np.array_equal(tomography._mle(counts), rho)

    def test_abnormal_stop_returns_last_point(self, monkeypatch):
        rho, res = ref_mle(ABNORMAL_STOP_COUNTS)
        # the case's premise: scipy's loop ends ABNORMAL after 580 scalar calls
        assert (res.status, res.nfev) == (2, 580)
        calls = record_stacked_calls(monkeypatch)
        assert np.array_equal(tomography.reconstruct_state(ABNORMAL_STOP_COUNTS, "mle"), rho)
        assert calls == [10] * 58

    def test_one_stacked_call_per_point(self, monkeypatch):
        shapes = []
        neg_loglik = tomography._neg_loglik

        def counting(t, c, total):
            shapes.append(np.shape(t))
            return neg_loglik(t, c, total)

        monkeypatch.setattr(tomography, "_neg_loglik", counting)
        for counts in list(mc_errors_counts(trials=1)):
            shapes.clear()
            tomography.reconstruct_state(counts, "mle")
            # scipy's difference costs 1 + 9 scalar calls per point
            assert len(shapes) == ref_mle(counts)[1].nfev // 10
            assert set(shapes) == {(10, 9)}

    def test_repeated_request_reuses_the_point(self, monkeypatch):
        # scipy's loop answers a request at the point just evaluated from its
        # memo, so the evaluation count, and with it the cap, is scipy's
        from scipy.optimize import _lbfgsb

        expected, res = ref_mle(REPEATED_POINT_COUNTS)
        requests, setulb = [], _lbfgsb.setulb

        def recording_setulb(*args):
            setulb(*args)
            requests.append(args[11][0] == 3)  # task FG: f and g at x

        monkeypatch.setattr(_lbfgsb, "setulb", recording_setulb)
        calls = record_stacked_calls(monkeypatch)
        assert np.array_equal(tomography.reconstruct_state(REPEATED_POINT_COUNTS, "mle"), expected)
        assert sum(requests) == 43
        assert len(calls) == res.nfev // 10 == 39

    def test_estimate_owns_its_data(self):
        # a view of the stacked evaluation would keep the stack alive
        assert tomography.reconstruct_state(RANK_BOUNDARY_COUNTS, "mle").base is None

    def test_stacked_factor_map(self):
        rng = np.random.default_rng(9)
        t = rng.normal(size=(6, 9))
        t[2] = 0.0
        rhos = tomography._t_to_rho(t)
        assert all(np.array_equal(rho, ref_t_to_rho(row)) for rho, row in zip(rhos, t))
        assert np.array_equal(rhos[2], np.eye(3) / 3)

    def test_missing_extension_raises_import_error(self, monkeypatch):
        # a scipy without the compiled extension: the finder returns None
        monkeypatch.delitem(sys.modules, tomography._LBFGSB, raising=False)
        find_spec = importlib.machinery.PathFinder.find_spec

        def no_extension(cls, name, path=None, target=None):
            return None if name == tomography._LBFGSB else find_spec(name, path, target)

        monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", classmethod(no_extension))
        where = os.path.join(scipy.__path__[0], "optimize")
        with pytest.raises(ImportError, match="scipy>=1.15") as info:
            tomography.reconstruct_state(REPEATED_POINT_COUNTS, "mle")
        assert where in str(info.value)
        assert tomography._LBFGSB not in sys.modules


class TestMleOptimality:
    """The MLE's own optimality condition, lambda_max(R) <= 0, with no second solver."""

    @pytest.mark.parametrize(
        "ensemble, flagged",
        [(teleport_tomography_counts, [9]), (mc_errors_counts, []), (random_state_counts, [])],
        ids=["teleport-tomography", "mc-errors", "random-states"],
    )
    def test_fits_are_optimal(self, ensemble, flagged):
        # R scales with the total count C: lambda_max(R) is at most 8.1e-7 C
        # on every fit but one (7.4e-5 counts over mc-errors). The flagged
        # draw (seed 3, point 9) ends on the rank boundary as
        # RANK_BOUNDARY_COUNTS does, 1.28 counts from its optimum.
        gaps = [
            mle_optimality_gap(counts, tomography.reconstruct_state(counts, "mle"))
            / sum(counts.counts)
            for counts in ensemble()
        ]
        assert [i for i, gap in enumerate(gaps) if gap > 2e-6] == flagged
        assert all(gaps[i] > 1e-3 for i in flagged)

    def test_flags_the_rank_boundary_stop(self):
        # 0.73 counts; no fit that test_fits_are_optimal bounds reads above 1.9e-4
        rho = tomography.reconstruct_state(RANK_BOUNDARY_COUNTS, "mle")
        assert mle_optimality_gap(RANK_BOUNDARY_COUNTS, rho) > 0.5

    def test_abnormal_stop_is_optimal(self):
        # scipy's abnormal line-search end is a true optimum: 1.3e-14 counts
        rho = tomography.reconstruct_state(ABNORMAL_STOP_COUNTS, "mle")
        assert abs(mle_optimality_gap(ABNORMAL_STOP_COUNTS, rho)) < 1e-12


class TestRepair:
    def test_hermiticity_logged(self):
        mat = np.eye(3, dtype=complex) / 3
        mat[0, 1] = 0.1j
        mat[1, 0] = 0.094j  # inconsistent with (0,1) under conjugation
        rho, log = tomography.repair_density_matrix(mat)
        assert log["hermiticity_residual"] > 0.1
        assert np.abs(rho - rho.conj().T).max() < 1e-12

    def test_eigenvalue_clip_logged(self):
        mat = np.diag([0.7, 0.4, -0.1]).astype(complex)
        rho, log = tomography.repair_density_matrix(mat)
        assert abs(log["eigenvalue_clip"] - 0.1) < 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-12

    def test_trace_renormalized(self):
        mat = 1.02 * np.eye(3, dtype=complex) / 3
        rho, log = tomography.repair_density_matrix(mat)
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert abs(log["trace_adjustment"] - 0.02) < 1e-12

    def test_clean_input_no_repairs(self):
        rho, log = tomography.repair_density_matrix(np.eye(3) / 3)
        assert max(log.values()) < 1e-12

    def test_stack_repairs_each_and_logs_the_largest(self):
        hermiticity = np.eye(3, dtype=complex) / 3
        hermiticity[0, 1], hermiticity[1, 0] = 0.1j, 0.094j
        mats = [hermiticity, np.diag([0.7, 0.4, -0.1]), 1.02 * np.eye(3) / 3]
        rho, log = tomography.repair_density_matrix(np.array(mats).reshape(3, 1, 3, 3))
        singles = [tomography.repair_density_matrix(m) for m in mats]
        assert np.array_equal(rho[:, 0], [r for r, _ in singles])
        assert log == {k: max(lg[k] for _, lg in singles) for k in log}

    def test_stack_rejects_one_non_positive_trace(self):
        mats = np.array([np.eye(3) / 3, -np.eye(3)])
        with pytest.raises(InsufficientDataError, match="non-positive trace"):
            tomography.repair_density_matrix(mats)


class TestModelChannels:
    def test_chi_ideal_is_identity_channel(self):
        rng = np.random.default_rng(4)
        rho = random_density_matrix(rng)
        out = tomography.apply_process(tomography.chi_ideal(), rho)
        assert np.abs(out - rho).max() < 1e-12
        assert tomography.process_fidelity(tomography.chi_ideal()) == 1.0

    def test_depolarizing_chi_maps_to_maximally_mixed(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            rho = random_density_matrix(rng)
            out = tomography.apply_process(tomography.depolarizing_chi(), rho)
            assert np.abs(out - np.eye(3) / 3).max() < 1e-12

    def test_model_channels_trace_preserving(self):
        for chi in (tomography.chi_ideal(), tomography.depolarizing_chi(), tomography.noisy_model_chi()):
            assert np.abs(tomography.tp_matrix(chi) - np.eye(3)).max() < 1e-12
            tomography.check_process_matrix(chi)

    def test_noisy_model_mub_mean_is_exactly_070(self):
        fids, mean = tomography.mub_fidelities(tomography.noisy_model_chi(0.55))
        assert abs(mean - 0.7) < 1e-12
        assert np.abs(fids - 0.7).max() < 1e-12  # depolarizing part is isotropic

    def test_average_fidelity_formula(self):
        chi00 = tomography.process_fidelity(tomography.noisy_model_chi(0.55))
        assert abs(chi00 - 0.6) < 1e-12
        assert abs(tomography.average_fidelity_from_process(chi00) - 0.7) < 1e-12


# Reference oracle for apply_process: the 4-operand einsum over the basis,
# which the 9x9 Liouville matrix replaces.
def ref_apply_process(chi, rho):
    basis = tomography._BASIS
    return np.einsum("lk,lab,bc,kcd->ad", chi, basis, rho, basis)


class TestLiouvilleApply:
    def test_matches_reference(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            chi = random_hermitian_chi(rng)
            rhos = [random_density_matrix(rng) for _ in range(6)]
            stacked = tomography.apply_process(chi, np.array(rhos).reshape(2, 3, 3, 3))
            for rho, out in zip(rhos, stacked.reshape(6, 3, 3)):
                ref = ref_apply_process(chi, rho)
                assert np.abs(tomography.apply_process(chi, rho) - ref).max() <= 1e-15
                assert np.abs(out - ref).max() <= 1e-15

    def test_stack_equals_single_states_on_published_grid(self):
        chi, _ = dataset.reference_chi()
        kets = [psi for _, psi in certify.phase_grid_states(20, 20)]
        stacked = tomography.apply_process(chi, algebra.projector(kets), repair=True)
        for psi, out in zip(kets, stacked):
            single = tomography.apply_process(chi, algebra.projector(psi), repair=True)
            assert np.array_equal(out, single)

    def test_chi_stack_equals_one_chi_at_a_time(self):
        rng = np.random.default_rng(24)
        chis = np.array([random_hermitian_chi(rng) for _ in range(6)]).reshape(2, 3, 1, 9, 9)
        rhos = np.array([random_density_matrix(rng) for _ in range(4)])
        for repair in (False, True):
            stacked = tomography.apply_process(chis, rhos, repair=repair)
            assert stacked.shape == (2, 3, 4, 3, 3)
            for chi, outs in zip(chis.reshape(6, 9, 9), stacked.reshape(6, 4, 3, 3)):
                for rho, out in zip(rhos, outs):
                    single = tomography.apply_process(chi, rho, repair=repair)
                    assert np.array_equal(out, single)

    def test_mub_fidelities_of_chi_stack_equal_one_chi_at_a_time(self):
        rng = np.random.default_rng(25)
        chis = np.array([random_hermitian_chi(rng) for _ in range(6)]).reshape(2, 3, 9, 9)
        for repair in (False, True):
            fids, means = tomography.mub_fidelities(chis, repair=repair)
            assert fids.shape == (2, 3, 12) and means.shape == (2, 3)
            for chi, f, mean in zip(chis.reshape(6, 9, 9), fids.reshape(6, 12), means.ravel()):
                single_fids, single_mean = tomography.mub_fidelities(chi, repair=repair)
                assert np.array_equal(f, single_fids)
                assert mean == single_mean and type(single_mean) is float

    def test_mub_fidelities_equal_per_state_loop(self):
        chi = random_hermitian_chi(np.random.default_rng(20))
        for repair in (False, True):
            loop = []
            for psi in algebra.MUB_KETS:
                out = tomography.apply_process(chi, algebra.projector(psi), repair=repair)
                loop.append(algebra.fidelity((out + out.conj().T) / 2, psi))
            fids, mean = tomography.mub_fidelities(chi, repair=repair)
            assert fids.tolist() == loop
            assert mean == float(np.mean(loop))


class TestTwoDesignConsistency:
    def test_average_fidelity_matches_haar_monte_carlo(self):
        chi = tomography.noisy_model_chi(0.55)
        f_formula = tomography.average_fidelity_from_process(tomography.process_fidelity(chi))
        rng = np.random.default_rng(9)
        vals = []
        for _ in range(10_000):
            psi = algebra.random_pure_state(rng)
            out = tomography.apply_process(chi, algebra.projector(psi))
            vals.append(algebra.fidelity((out + out.conj().T) / 2, psi))
        assert abs(np.mean(vals) - f_formula) < 0.005


def warm_start_arrays(warm):
    """Copies of every array a ProjectionWarmStart holds."""
    return [np.copy(a) for a in (warm.x, warm.dual, *warm.basis, *warm.chord)]


class TestProjections:
    def test_project_physical_idempotent_on_valid_chi(self):
        chi = tomography.noisy_model_chi()
        proj = tomography.project_physical(chi)
        assert np.abs(proj - chi).max() < 1e-8

    def test_project_physical_satisfies_both_constraints(self):
        rng = np.random.default_rng(8)
        chi = tomography.noisy_model_chi() + 0.1 * rng.normal(size=(9, 9))
        chi = (chi + chi.conj().T) / 2
        proj = tomography.project_physical(chi)
        tomography.check_process_matrix(proj)
        assert np.abs(tomography.tp_matrix(proj) - np.eye(3)).max() < 1e-12

    def test_optimality_vs_candidates(self):
        # the projection is the Frobenius-nearest feasible point; any other
        # feasible candidate must be at least as far from the input
        rng = np.random.default_rng(9)
        chi = tomography.noisy_model_chi() + 0.08 * rng.normal(size=(9, 9))
        chi = (chi + chi.conj().T) / 2
        proj = tomography.project_physical(chi)
        d_proj = np.linalg.norm(chi - proj)
        for _ in range(10):
            other = random_physical_chi(rng)
            assert np.linalg.norm(chi - other) >= d_proj - 1e-7

    @pytest.mark.parametrize(
        "chi",
        [-np.eye(9), np.zeros((9, 9)), 100 * tomography.noisy_model_chi()],
        ids=["minus-identity", "zero", "100x-noisy-model"],
    )
    def test_degenerate_inputs_match_reference(self, chi, monkeypatch):
        # -I and 0 have no positive eigenvalue, so the Newton system at the
        # cold start lambda = 0 is all regularization; the result still meets
        # the optimality conditions of the nearest physical point
        certified = certify_projections(monkeypatch)
        proj = tomography.project_physical(chi)
        assert certified == [True]
        tomography.check_process_matrix(proj)

    def test_large_input_is_projected(self, monkeypatch):
        # entries near 100, far outside the feasible set: still the nearest point
        certified = certify_projections(monkeypatch)
        tomography.project_physical(random_hermitian_chi(np.random.default_rng(25), scale=100.0))
        assert certified == [True]

    def test_warm_start_gives_the_cold_point(self):
        # one warm start carried along a sequence of points, as the chi fit
        # carries it: nearby steps, points where the count of nonpositive
        # eigenvalues at the solution changes, a far jump, and -I, which has
        # no positive eigenvalue; each point as from a cold start
        rng = np.random.default_rng(24)
        chi = random_hermitian_chi(rng)
        points = []
        for _ in range(10):
            chi = chi + 1e-3 * random_hermitian_chi(rng, scale=1.0)
            points.append(chi)
        points += [
            tomography.noisy_model_chi(),
            random_hermitian_chi(rng, scale=0.03),
            random_hermitian_chi(rng, scale=10.0),
            -np.eye(9),
            chi,
        ]
        warm = tomography.ProjectionWarmStart()
        ranks = []
        for chi in points:
            proj = tomography.project_physical(chi, warm)
            assert np.abs(proj - tomography.project_physical(chi)).max() < 1e-12
            ranks.append(int((np.linalg.eigvalsh(proj) > 1e-9).sum()))
        assert len(set(ranks)) >= 3
        # the same input again: the same bits, and the warm start as it was
        before = warm_start_arrays(warm)
        assert warm.dual.any()
        assert np.array_equal(tomography.project_physical(chi, warm), proj)
        after = warm_start_arrays(warm)
        assert all(np.array_equal(a, b) for a, b in zip(after, before, strict=True))

    def test_chord_prediction_is_first_order(self, monkeypatch):
        # from a warm start converged at X0, where no eigenvalue of X0 +
        # sum_i lambda0_i G_i is near 0, the chord's multiplier at X0 + eps H
        # misses the cold solve's by O(eps^2): a hundredfold less per decade
        rng = np.random.default_rng(29)
        x0 = random_hermitian_chi(rng)
        h = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        h = (h + h.conj().T) / 2

        def converged():
            warm = tomography.ProjectionWarmStart()
            tomography.project_physical(x0, warm)
            return warm

        shift = (converged().dual @ tomography._TP_ROWS).view(complex).reshape(9, 9)
        assert np.abs(np.linalg.eigvalsh(x0 + shift)).min() > 0.05

        def error(eps):
            x = x0 + eps * h
            cold = tomography.ProjectionWarmStart()
            tomography.project_physical(x, cold)
            warm = converged()
            # the first eigendecomposition is of X + sum_i lambda_i G_i at the
            # predicted lambda
            calls = count_calls(monkeypatch, np.linalg, "eigh")
            tomography.project_physical(x, warm)
            monkeypatch.undo()
            shift = (calls[0][0] - x).view(float).ravel()
            predicted = np.linalg.lstsq(tomography._TP_ROWS.T, shift, rcond=None)[0]
            return np.abs(predicted - cold.dual).max()

        assert error(1e-3) > 50 * error(1e-4)

    @pytest.mark.parametrize("where", [(2, 2), (2, 3)], ids=["diagonal", "off-diagonal"])
    def test_nan_input_raises_linalg_error(self, where):
        # numpy's eigh fails on the NaN, cold and after the warm start has
        # predicted a multiplier from it; the warm start keeps its last point
        rng = np.random.default_rng(26)
        chi = random_hermitian_chi(rng)
        warm = tomography.ProjectionWarmStart()
        for _ in range(3):
            chi = chi + 1e-3 * random_hermitian_chi(rng, scale=1.0)
            tomography.project_physical(chi, warm)
        assert warm.chord is not None
        bad = chi.copy()
        bad[where] = np.nan
        before = warm_start_arrays(warm)
        for start in (None, warm):
            with pytest.raises(np.linalg.LinAlgError):
                tomography.project_physical(bad, start)
        after = warm_start_arrays(warm)
        assert all(np.array_equal(a, b) for a, b in zip(after, before, strict=True))

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(tomography, "PROJECTION_MAX_ITER", 0)
        with pytest.raises(SolverError, match="did not converge"):
            tomography.project_physical(tomography.noisy_model_chi())


class TestProcessReconstruction:
    def make_pairs(self, chi, inputs=None):
        inputs = inputs if inputs is not None else tomography.CANONICAL_KETS
        return [
            (phi, tomography.apply_process(chi, algebra.projector(phi)))
            for phi in inputs
        ]

    def test_round_trip_random_physical_chi(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            chi = random_physical_chi(rng)
            fit = tomography.reconstruct_process(self.make_pairs(chi))
            assert np.abs(fit.chi - chi).max() < 1e-6
            assert fit.residual < 1e-10

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n_kraus=st.integers(1, 9))
    def test_cptp_round_trip_from_kraus_channel(self, seed, n_kraus):
        # An isometry V (3 -> 3 n_kraus) stacks the Kraus operators of a CPTP map.
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(3 * n_kraus, 3)) + 1j * rng.normal(size=(3 * n_kraus, 3))
        kraus = np.linalg.qr(g)[0].reshape(n_kraus, 3, 3)

        def channel(rho):
            return np.einsum("kab,bc,kdc->ad", kraus, rho, kraus.conj())

        pairs = [(phi, channel(algebra.projector(phi))) for phi in tomography.CANONICAL_KETS]
        chi = tomography.reconstruct_process(pairs).chi
        tomography.check_process_matrix(chi)
        rho = random_density_matrix(rng)
        assert np.abs(tomography.apply_process(chi, rho) - channel(rho)).max() < 1e-9

    def test_unconstrained_fit_is_exact_interpolant(self):
        # exact Born probabilities in place of counts: linear inversion
        # returns the outputs, and the least-squares chi the channel
        rng = np.random.default_rng(11)
        chi = random_physical_chi(rng)
        for inputs in (tomography.CANONICAL_KETS, algebra.MUB_KETS):
            outs = [out for _, out in self.make_pairs(chi, inputs)]
            fit = tomography.linear_process_fit(inputs, tomography.born_probabilities(outs))
            assert np.abs(fit - chi).max() < 1e-8

    def test_linear_fit_of_a_stack_equals_one_set_at_a_time(self):
        rng = np.random.default_rng(26)
        for inputs in (tomography.CANONICAL_KETS, algebra.MUB_KETS):
            counts = rng.poisson(30.0, size=(4, 5, len(inputs), 9))
            stacked = tomography.linear_process_fit(inputs, counts)
            assert stacked.shape == (4, 5, 9, 9)
            for c, chi in zip(counts.reshape(20, len(inputs), 9), stacked.reshape(20, 9, 9)):
                assert np.array_equal(chi, tomography.linear_process_fit(inputs, c))

    def test_linear_fit_rejects_mismatched_counts(self):
        with pytest.raises(DimensionError, match="expected counts"):
            tomography.linear_process_fit(algebra.MUB_KETS, np.ones((2, 9, 9)))

    def test_mub_inputs_also_well_posed(self):
        chi = tomography.noisy_model_chi()
        fit = tomography.reconstruct_process(self.make_pairs(chi, algebra.MUB_KETS))
        assert np.abs(fit.chi - chi).max() < 1e-6

    def test_rank_deficient_inputs_rejected(self):
        chi = tomography.chi_ideal()
        pairs = self.make_pairs(chi, [algebra.ket(i) for i in range(3)])
        with pytest.raises(IllPosedError):
            tomography.reconstruct_process(pairs)

    def test_fit_is_always_physical(self):
        # noisy outputs: the constrained fit must still be PSD and TP
        rng = np.random.default_rng(12)
        chi = tomography.noisy_model_chi()
        pairs = []
        for phi in tomography.CANONICAL_KETS:
            out = tomography.apply_process(chi, algebra.projector(phi))
            out = out + 0.02 * rng.normal(size=(3, 3))
            pairs.append((phi, out))
        fit = tomography.reconstruct_process(pairs)
        tomography.check_process_matrix(fit.chi, tp_tol=1e-5)

    @pytest.mark.parametrize("physical", [True, False])
    def test_fit_chi_is_exactly_hermitian(self, physical):
        # noisy data, so the float-view iterate is Hermitian only to rounding
        rng = np.random.default_rng(21)
        if physical:
            pairs = [
                (phi, out + 0.02 * rng.normal(size=(3, 3)))
                for phi, out in self.make_pairs(tomography.noisy_model_chi())
            ]
            chi = tomography.reconstruct_process(pairs).chi
        else:
            chi = tomography.linear_process_fit(
                algebra.MUB_KETS, rng.poisson(30.0, size=(12, 9))
            )
        assert np.array_equal(chi, chi.conj().T)

    def test_fits_pass_default_tolerances_on_mc_errors_draws(self):
        # the projection's point is PSD by construction, so a fitted chi
        # passes the default psd_tol=1e-9 (the Dykstra fit's least eigenvalue
        # was below -1e-9 on four of these ten draws, down to -1.27e-9)
        for draw in noisy_draw_pairs(seed=0, trials=10):
            tomography.check_process_matrix(tomography.reconstruct_process(draw).chi)

    def test_iterations_on_mc_errors_draws(self):
        # the FISTA step counts of three seed-0 draws, as the fit on the 81
        # isometric Hermitian parameters counted them, and of the six certified
        # draws of TestProjectionOracle: a drift in the stopping rule shows here
        draws = noisy_draw_pairs(seed=0, trials=10)[:3] + noisy_draw_pairs()
        n_iterations = [tomography.reconstruct_process(draw).n_iterations for draw in draws]
        assert n_iterations == [226, 179, 215, 232, 244, 197, 225, 238, 210]

    def test_fits_stop_at_their_first_small_step(self):
        # the published fit and six draws end on the first step whose
        # weighted size is below FIT_TOL, and on no earlier one
        for pairs in [published_pairs(), *noisy_draw_pairs()]:
            fit, steps = fista_steps(pairs)
            assert len(steps) == fit.n_iterations
            assert steps[-1] < tomography.FIT_TOL
            assert (steps[:-1] >= tomography.FIT_TOL).all()

    def test_first_small_step_stops_a_fit(self):
        # exact outputs of a full-rank channel, and trials 40 and 49 of
        # convergence --exposure 2000 at seed 0: the projected start is the
        # optimum, so the first step, the fixed-point residual at the start,
        # is below FIT_TOL and ends the fit within the certified distance
        kets = tomography.CANONICAL_KETS
        truth = tomography.apply_process(
            tomography.noisy_model_chi(), algebra.projector(kets), repair=True
        )
        means = mc._poisson_means(truth, 2000)
        rngs = list(mc.trial_rngs(0, 50))
        draws = []
        for t in (40, 49):
            tables = map(tomography.CountsTable, rngs[t].poisson(means))
            draws.append(list(zip(kets, map(tomography.reconstruct_state, tables))))
        for pairs in [self.make_pairs(tomography.noisy_model_chi()), *draws]:
            fit, steps = fista_steps(pairs)
            assert fit.n_iterations == 1
            assert steps[0] < tomography.FIT_TOL
            bound = fit_distance_bound(pairs, fit.chi)
            assert bound <= 1e-12
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(tomography, "FIT_TOL", 1e-13)
                tight = tomography.reconstruct_process(pairs)
            assert np.linalg.norm(tight.chi - fit.chi) <= bound

    def test_rejects_wrong_length_ket(self):
        pairs = self.make_pairs(tomography.chi_ideal())
        pairs[4] = (np.r_[pairs[4][0], 0.0], pairs[4][1])
        with pytest.raises(DimensionError):
            tomography.reconstruct_process(pairs)

    def test_rejects_wrong_size_output(self):
        pairs = self.make_pairs(tomography.chi_ideal())
        pairs[4] = (pairs[4][0], np.eye(4) / 4)
        with pytest.raises(DimensionError):
            tomography.reconstruct_process(pairs)

    def test_rejects_non_finite_output(self):
        pairs = [(phi, np.full((3, 3), np.nan)) for phi in tomography.CANONICAL_KETS]
        with pytest.raises(ValueError, match="non-finite"):
            tomography.reconstruct_process(pairs)

    @pytest.mark.parametrize("n_pairs", [0, 8])
    def test_rejects_fewer_than_nine_pairs(self, n_pairs):
        pairs = self.make_pairs(tomography.chi_ideal())[:n_pairs]
        with pytest.raises(IllPosedError, match="at least 9"):
            tomography.reconstruct_process(pairs)


def fista_steps(pairs):
    """The fit of ``pairs`` and the weighted size of each of its FISTA steps:
    the largest entry of _STEP_WEIGHT times the difference of successive
    projections, the first of which projects the start."""
    points = []
    project = tomography.project_physical

    def recording(chi, warm=None):
        points.append(project(chi, warm).view(float).ravel())
        return points[-1].view(complex).reshape(9, 9)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tomography, "project_physical", recording)
        fit = tomography.reconstruct_process(pairs)
    return fit, np.abs(tomography._STEP_WEIGHT * np.diff(points, axis=0)).max(axis=1)


def unit_chis():
    """The 162 chi's whose float views are the unit vectors, in order."""
    return list(np.eye(162).view(complex).reshape(162, 9, 9))


def probed_design_operator(inputs):
    cols = []
    for chi in unit_chis():
        outs = [ref_apply_process(chi, algebra.projector(phi)) for phi in inputs]
        cols.append(np.concatenate([np.r_[o.real.ravel(), o.imag.ravel()] for o in outs]))
    return np.array(cols).T


def probed_tp_rows(chis):
    rows = []
    for chi in chis:
        t = np.einsum("lk,kab,lbc->ac", chi, tomography._BASIS, tomography._BASIS)
        rows.append(np.r_[t.real.ravel(), t.imag.ravel()])
    return np.array(rows).T


# An orthonormal Hermitian basis of the 3x3 matrices: I / sqrt 3, lambda_a / sqrt 2
TP_BASIS = np.array([np.eye(3) / math.sqrt(3), *(algebra.GELL_MANN[1:] / math.sqrt(2))])


class TestParameterMaps:
    """The real matrices of the chi fit on chi.view(float), probed on the unit chi's."""

    def test_basis_is_read_only(self):
        with pytest.raises(ValueError):
            tomography._UNIT_CHIS[0, 0, 0] = 2.0
        tp = (tomography._TP_ADJOINT, tomography._TP_ROWS, tomography._TP_TARGET)
        A, pinv, gram, _ = tomography._fit_design(tomography.CANONICAL_KETS)
        assert not any(a.flags.writeable for a in (*tp, A, pinv, gram))

    @pytest.mark.parametrize("family", ["mub", "canonical"])
    def test_design_operator_matches_probes(self, family):
        inputs = algebra.MUB_KETS if family == "mub" else tomography.CANONICAL_KETS
        A = tomography._design_operator(inputs)
        assert A.shape == (18 * len(inputs), 162)
        assert np.abs(A - probed_design_operator(inputs)).max() < 1e-12

    def test_tp_basis_is_orthonormal(self):
        gram = np.einsum("iab,jab->ij", TP_BASIS.conj(), TP_BASIS)
        assert np.abs(gram - np.eye(9)).max() < 1e-15
        target = np.trace(TP_BASIS, axis1=1, axis2=2)
        assert np.abs(tomography._TP_TARGET - target).max() < 1e-15

    def test_tp_adjoint_matches_probes(self):
        # Re<G_i, Y> = Re<E_i, tp_matrix(Y)>: on the unit chi's, and so the
        # rows on chi.view(float), and on random Y
        E = TP_BASIS.reshape(9, 9)
        on_units = np.c_[E.real, E.imag] @ probed_tp_rows(unit_chis())
        assert np.abs(tomography._TP_ROWS - on_units).max() < 1e-14
        G = tomography._TP_ADJOINT
        rng = np.random.default_rng(28)
        for _ in range(20):
            y = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
            lhs = np.einsum("ilk,lk->i", G.conj(), y).real
            rhs = np.einsum("iac,ac->i", TP_BASIS.conj(), tomography.tp_matrix(y)).real
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_tp_adjoint_is_hermitian(self):
        G = tomography._TP_ADJOINT
        assert G.shape == (9, 9, 9)
        assert np.array_equal(G, np.swapaxes(G.conj(), -1, -2))

    def test_tp_matrix_batched(self):
        chis = np.array([tomography.chi_ideal(), tomography.noisy_model_chi()])
        assert np.array_equal(
            tomography.tp_matrix(chis), [tomography.tp_matrix(c) for c in chis]
        )


def ref_project_psd(chi):
    """The PSD point nearest to chi's Hermitian part: its eigenvalues clipped at 0."""
    chi = (chi + chi.conj().T) / 2
    w, u = np.linalg.eigh(chi)
    return u @ np.diag(np.clip(w, 0.0, None)) @ u.conj().T


def published_pairs():
    targets = dataset.reference_targets()[:9]
    return [(phi, dataset.reference_rho(i)[0]) for i, phi in enumerate(targets, 1)]


@functools.cache
def noisy_draw_pairs(seed=5, trials=6):
    """The (input, MLE state) pairs of each mc_errors-style draw at rate 150."""
    inputs = dataset.reference_targets()[:9]
    tables = list(mc_errors_counts(seed=seed, trials=trials))
    return [
        list(zip(inputs, [tomography.reconstruct_state(t, "mle") for t in tables[i : i + 9]]))
        for i in range(0, len(tables), 9)
    ]


def random_hermitian_chi(rng, scale=0.1):
    chi = tomography.noisy_model_chi() + scale * (
        rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    )
    return (chi + chi.conj().T) / 2


def certify_projections(monkeypatch):
    """Wrap ``tomography.project_physical``; each call appends whether its
    result Y meets the optimality conditions of the PSD and TP point nearest
    to the Hermitian part X of its input (Malick 2004), with lambda the
    multiplier it leaves in the warm start: |tp_matrix(Y) - I| <= 1e-11,
    |Y - P_psd(X + sum_i lambda_i G_i)| <= 1e-13 and lambda_min(Y) >= -1e-14."""
    certified = []
    original = tomography.project_physical

    def certifying(chi, warm=None):
        warm = warm or tomography.ProjectionWarmStart()
        proj = original(chi, warm)
        shifted = chi + np.einsum("i,ilk->lk", warm.dual, tomography._TP_ADJOINT)
        certified.append(
            np.abs(tomography.tp_matrix(proj) - np.eye(3)).max() <= 1e-11
            and np.abs(proj - ref_project_psd(shifted)).max() <= 1e-13
            and np.linalg.eigvalsh(proj).min() >= -1e-14
        )
        return proj

    monkeypatch.setattr(tomography, "project_physical", certifying)
    return certified


def fit_distance_bound(pairs, chi):
    """A bound on ||chi - chi*||_F, chi* the exact constrained fit of ``pairs``.

    The misfit is strongly convex on chi.view(float), with Gram matrix G. So
    the projected gradient step x -> P(x - s(G x - A^T b)), s = 1 / lambda_max,
    contracts by 1 - lambda_min / lambda_max, and its residual r at x bounds
    ||x - x*|| by r lambda_max / lambda_min (Beck and Teboulle 2009).
    """
    A, _, gram, step = tomography._fit_design([phi for phi, _ in pairs])
    b = tomography._output_vector(np.array([out for _, out in pairs]))
    x = np.ascontiguousarray(chi).view(float).ravel()
    y = (x - step * (gram @ x - A.T @ b)).view(complex).reshape(9, 9)
    moved = tomography.project_physical(y).view(float).ravel()
    w = np.linalg.eigvalsh(gram)
    return np.linalg.norm(x - moved) * w[-1] / w[0]


class TestProjectionOracle:
    def test_project_physical_matches_reference(self, monkeypatch):
        # twenty random inputs, each projection certified by the optimality
        # conditions; test_certificates_flag_loose_solves loosens these ones
        certified = certify_projections(monkeypatch)
        rng = np.random.default_rng(18)
        for _ in range(20):
            tomography.project_physical(random_hermitian_chi(rng))
        assert certified == [True] * 20

    def test_project_physical_of_non_hermitian_chi(self):
        # eigh reads one triangle, so a non-Hermitian input must be
        # symmetrized before the first eigendecomposition
        rng = np.random.default_rng(23)
        for _ in range(10):
            chi = tomography.noisy_model_chi() + 0.1 * (
                rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
            )
            proj = tomography.project_physical(chi)
            hermitian_part = tomography.project_physical((chi + chi.conj().T) / 2)
            assert np.abs(proj - hermitian_part).max() < 1e-12
            assert np.abs(proj - proj.conj().T).max() < 1e-13

    def test_published_fit_is_certified(self, monkeypatch):
        # every projection is the exact nearest point, and the fit is within
        # 5e-8 of the exact optimum, which a fit run to 1e-13 confirms
        certified = certify_projections(monkeypatch)
        fit = tomography.reconstruct_process(published_pairs())
        assert fit.n_iterations == 264
        assert len(certified) == 265 and all(certified)
        monkeypatch.undo()
        bound = fit_distance_bound(published_pairs(), fit.chi)
        assert bound <= 5e-8
        monkeypatch.setattr(tomography, "FIT_TOL", 1e-13)
        tight = tomography.reconstruct_process(published_pairs())
        assert np.linalg.norm(tight.chi - fit.chi) <= bound

    def test_noisy_fits_are_certified(self, monkeypatch):
        # six mc_errors-style draws at rate 150
        certified = certify_projections(monkeypatch)
        for draw in noisy_draw_pairs():
            assert fit_distance_bound(draw, tomography.reconstruct_process(draw).chi) <= 2.5e-7
        assert all(certified)

    def test_certificates_flag_loose_solves(self, monkeypatch):
        # projections to a TP residual of 1e-6, a fit stopped at FIT_TOL = 1e-4
        # (39 steps), and the fit's projected unconstrained start
        certified = certify_projections(monkeypatch)
        monkeypatch.setattr(tomography, "PROJECTION_TOL", 1e-6)
        rng = np.random.default_rng(18)
        for _ in range(20):
            tomography.project_physical(random_hermitian_chi(rng))
        assert certified.count(False) >= 10
        monkeypatch.undo()
        pairs = published_pairs()
        monkeypatch.setattr(tomography, "FIT_TOL", 1e-4)
        assert fit_distance_bound(pairs, tomography.reconstruct_process(pairs).chi) > 5e-8
        inputs, outputs = zip(*pairs)
        start = tomography.linear_process_fit(inputs, tomography.born_probabilities(outputs))
        assert fit_distance_bound(pairs, tomography.project_physical(start)) > 5e-8

    def test_fit_projects_through_module_attribute(self, monkeypatch):
        # perfbench --trace 1 times the projection layer by wrapping this attribute
        calls = count_calls(monkeypatch, tomography, "project_physical")
        fit = tomography.reconstruct_process(published_pairs())
        assert len(calls) == fit.n_iterations + 1

    def test_published_fit_eigendecompositions(self, monkeypatch):
        # the warm start predicts each multiplier to first order, so most
        # projections need one or two eigendecompositions: 453 for the 264
        # steps of the published fit, against 613 from the last multiplier
        # alone. Each Newton step inverts its 9x9 Jacobian and solves nothing.
        pairs = published_pairs()
        calls = count_calls(monkeypatch, np.linalg, "eigh")
        solves = count_calls(monkeypatch, np.linalg, "solve")
        fit = tomography.reconstruct_process(pairs)
        assert fit.n_iterations == 264
        assert {a.shape for a, *_ in calls} == {(9, 9)}
        assert len(calls) <= 500
        assert solves == []


class TestDesignCache:
    def random_kets(self, rng, n=9):
        return [algebra.random_pure_state(rng) for _ in range(n)]

    def test_equal_input_set_hits(self):
        info = tomography._cached_fit_design.cache_info
        A, pinv, gram, step = tomography._fit_design(tomography.CANONICAL_KETS)
        hits = info().hits
        anew = [np.array(k, copy=True) for k in tomography.CANONICAL_KETS]
        again = tomography._fit_design(anew)
        assert info().hits == hits + 1
        assert np.array_equal(again[0], A)
        assert np.array_equal(A, tomography._design_operator(anew))
        assert np.array_equal(pinv, np.linalg.pinv(A))
        assert np.array_equal(gram, A.T @ A)
        assert step == 1.0 / np.linalg.norm(A.T @ A, 2)

    def test_other_input_set_misses(self):
        info = tomography._cached_fit_design.cache_info
        tomography._fit_design(tomography.CANONICAL_KETS)
        misses = info().misses
        kets = self.random_kets(np.random.default_rng(19))
        A, *_ = tomography._fit_design(kets)
        assert info().misses == misses + 1
        assert np.array_equal(A, tomography._design_operator(kets))

    def test_cache_is_bounded(self):
        info = tomography._cached_fit_design.cache_info
        rng = np.random.default_rng(20)
        for _ in range(info().maxsize + 2):
            tomography._fit_design(self.random_kets(rng))
        assert info().currsize == info().maxsize


def chi_to_orthonormal(chi):
    """Inverse of ``tomography.chi_from_orthonormal``: the unit-trace Choi form."""
    scale = np.array([math.sqrt(3.0)] + [math.sqrt(2.0)] * 8)
    return np.asarray(chi, dtype=complex) * np.outer(scale, scale) / 3.0


class TestBasisConversion:
    def test_round_trip(self):
        rng = np.random.default_rng(13)
        chi = random_physical_chi(rng)
        back = tomography.chi_from_orthonormal(chi_to_orthonormal(chi))
        assert np.abs(back - chi).max() < 1e-12

    def test_orthonormal_form_has_unit_trace(self):
        chi = tomography.noisy_model_chi()
        chi_on = chi_to_orthonormal(chi)
        assert abs(np.trace(chi_on).real - 1.0) < 1e-12

    def test_identity_channel_maps_correctly(self):
        # ideal channel in the orthonormal Choi form: chi'_00 = 1
        chi_on = np.zeros((9, 9))
        chi_on[0, 0] = 1.0
        chi = tomography.chi_from_orthonormal(chi_on)
        assert np.abs(chi - tomography.chi_ideal()).max() < 1e-12


class TestCheckProcessMatrix:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        chi = tomography.chi_ideal()
        chi[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            tomography.check_process_matrix(chi)

    def test_rejects_nonhermitian(self):
        chi = tomography.chi_ideal()
        chi[0, 1] = 0.1
        with pytest.raises(ValueError):
            tomography.check_process_matrix(chi)

    def test_rejects_non_tp(self):
        chi = 0.9 * tomography.chi_ideal()
        with pytest.raises(ValueError):
            tomography.check_process_matrix(chi)

    def test_rejects_indefinite(self):
        chi = tomography.chi_ideal()
        chi[1, 1] = -0.01
        with pytest.raises(ValueError):
            tomography.check_process_matrix(chi)
