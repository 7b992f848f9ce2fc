"""Acceptance gate: the ten headline reproduction criteria.

``conftest.py`` prints one `ACCEPTANCE n (name): PASS|FAIL` line per test;
a failing assertion names the criterion it checks.

Criterion 6 refits chi from the nine printed density matrices. The refit
is the CPTP-constrained Frobenius least-squares chi that
``reconstruct_process`` documents: its misfit to the printed matrices is
0.2301, below the 0.2508 of the published chi, so the published chi is
not this estimator's answer on these data. The printed matrices are not
outputs of the published chi (per-state Frobenius distances 0.067 to
0.281), and the exact interpolant is not CPTP (smallest eigenvalue
-0.30), so every CPTP estimate depends on its misfit metric: entrywise
least squares gives F = 0.5753, least squares on the 81 projector
probabilities 0.5972, Pearson-weighted least squares 0.6094 and the
Poisson profile likelihood 0.6400. Rounding does not explain the gap:
perturbing every printed entry by up to 0.0005 keeps F within
0.5749-0.5756. The paper names no estimator, so the refit is held to the
paper's stated uncertainty (0.596 +/- 0.037), to 0.02 entrywise off the
(0,0) entry (which is F itself), to CPTP, and to fitting the printed
data at least as well as the published chi.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from qutrit_teleport import algebra, certify, dataset, mc, optics, protocol, tomography
from qutrit_teleport.optics import Mode, H, V

from helpers import random_density_matrix

S2 = math.sqrt(2)


def test_acceptance_01_ideal_protocol():
    t0 = time.perf_counter()
    chan = protocol.ChannelSpec.maximal()
    worst = 0.0
    for phi in protocol.benchmark_input_states():
        for label in algebra.BELL_LABELS:
            out = protocol.teleport_ideal(chan, phi, label)
            worst = max(worst, abs(abs(np.vdot(phi, out)) ** 2 - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    assert ok, (
        "ACCEPTANCE 1 (ideal protocol, 9 outcomes x 10 inputs, fidelity 1): "
        f"worst deviation {worst:.2e}, elapsed {elapsed:.2f}s"
    )


def test_acceptance_02_optical_golden_path():
    t0 = time.perf_counter()
    alpha, beta, gamma = 0.5, 0.5j, complex(1 / S2)
    phi = np.array([alpha, beta, gamma])
    chan = protocol.ChannelSpec.rebalanced()
    trig = Mode("t", 0, H)

    def amp(state, modes):
        return state.amplitude(tuple(modes) + (trig,))

    def m(arm, rail, pol):
        return Mode(arm, rail, pol)

    deviations = []
    s5 = optics.run_circuit(phi, chan, through_stage="PBS1")
    deviations += [
        amp(s5, (m("a", 0, H), m("b", 0, H), m("p3", 0, H))) - 2 * alpha / 3,
        amp(s5, (m("a", 0, H), m("b", 2, H), m("p3", 2, H))) - alpha / 3,
        amp(s5, (m("a", 1, V), m("b", 1, V), m("p3", 1, V))) - 2 * beta / 3,
        amp(s5, (m("a", 2, H), m("b", 0, H), m("p3", 0, H))) - 2 * gamma / 3,
        amp(s5, (m("a", 2, H), m("b", 2, H), m("p3", 2, H))) - gamma / 3,
    ]
    s6 = optics.run_circuit(phi, chan, through_stage="BD1_BD3")
    deviations += [
        amp(s6, (m("a", 0, V), m("b", 0, V), m("p3", 0, H))) - 2 * alpha / 3,
        amp(s6, (m("a", 0, V), m("b", 1, H), m("p3", 2, H))) - alpha / 3,
        amp(s6, (m("a", 0, H), m("b", 0, H), m("p3", 1, V))) - 2 * beta / 3,
        amp(s6, (m("a", 1, H), m("b", 0, V), m("p3", 0, H))) - 2 * gamma / 3,
        amp(s6, (m("a", 1, H), m("b", 1, H), m("p3", 2, H))) - gamma / 3,
    ]
    s7 = optics.run_circuit(phi, chan, through_stage="HWPS")
    deviations += [
        amp(s7, (m("a", 0, H), m("b", 0, H), m("p3", 0, H))) - alpha / 3,
        amp(s7, (m("a", 0, V), m("b", 0, H), m("p3", 0, H))) + alpha / 3,
        amp(s7, (m("a", 0, H), m("b", 0, H), m("p3", 1, V))) - beta / 3,
        amp(s7, (m("a", 1, H), m("b", 0, V), m("p3", 0, H))) + S2 * gamma / 3,
        amp(s7, (m("a", 1, H), m("b", 1, H), m("p3", 2, H))) - gamma / 3,
    ]
    s8 = optics.run_circuit(phi, chan, through_stage="BD2_BD4")
    deviations += [
        amp(s8, (m("a", 0, H), m("b", 0, H), m("p3", 0, H))) - alpha / 3,
        amp(s8, (m("a", 0, H), m("b", 0, V), m("p3", 2, H))) - S2 * alpha / 6,
        amp(s8, (m("a", 0, H), m("b", 0, H), m("p3", 1, V))) - beta / 3,
        amp(s8, (m("a", 0, V), m("b", 0, H), m("p3", 0, H))) - S2 * gamma / 3,
        amp(s8, (m("a", 0, V), m("b", 0, V), m("p3", 2, H))) - gamma / 3,
    ]
    s9 = optics.run_circuit(phi, chan, through_stage="AUX_PBS")
    four_h = (m("a", 0, H), m("b", 0, H), m("c", 0, H), m("d", 0, H))
    four_v = (m("a", 0, V), m("b", 0, V), m("c", 0, V), m("d", 0, V))
    deviations += [
        amp(s9, four_h + (m("p3", 0, H),)) - S2 * alpha / 6,
        amp(s9, four_h + (m("p3", 1, V),)) - S2 * beta / 6,
        amp(s9, four_v + (m("p3", 2, H),)) - S2 * gamma / 6,
    ]
    s10 = optics.run_circuit(phi, chan, through_stage="HWP1_4")
    for pols in ((H, H, H, H), (H, V, H, H), (V, V, V, V)):
        sign = -1.0 if sum(1 for p in pols if p == V) % 2 else 1.0
        meas = tuple(m(arm, 0, p) for arm, p in zip(("a", "b", "c", "d"), pols))
        deviations += [
            amp(s10, meas + (m("p3", 0, H),)) - S2 * alpha / 24,
            amp(s10, meas + (m("p3", 1, V),)) - S2 * beta / 24,
            amp(s10, meas + (m("p3", 2, H),)) - sign * S2 * gamma / 24,
        ]
    worst = max(abs(d) for d in deviations)

    rho, prob = optics.run_teleportation(phi)
    prob_dev = abs(prob - 1 / 18)
    exact_rational = protocol.success_probability("maximal_single_basis") == Fraction(1, 54)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and prob_dev < 1e-9 and exact_rational and elapsed < 10.0
    assert ok, (
        "ACCEPTANCE 2 (optical golden path, stages + 1/18 + 1/54): "
        f"worst amp dev {worst:.2e}, prob dev {prob_dev:.2e}, elapsed {elapsed:.1f}s"
    )


def test_acceptance_03_noise_term_cancellation():
    phi = np.array([0.5, 0.5j, complex(1 / S2)])
    s9 = optics.run_circuit(phi, protocol.ChannelSpec.rebalanced(), through_stage="AUX_PBS")
    trig = Mode("t", 0, H)
    allowed = {
        tuple(sorted([Mode(a, 0, H) for a in "abcd"] + [Mode("p3", 0, H), trig])),
        tuple(sorted([Mode(a, 0, H) for a in "abcd"] + [Mode("p3", 1, V), trig])),
        tuple(sorted([Mode(a, 0, V) for a in "abcd"] + [Mode("p3", 2, H), trig])),
    }
    leftover = max(
        (abs(a) for p, a in s9.terms.items() if p not in allowed), default=0.0
    )
    ok = leftover < 1e-12
    assert ok, f"ACCEPTANCE 3 (noise terms |02>/|20> cancelled): leftover {leftover:.2e}"


def test_acceptance_04_visibility_claim():
    basis_ok = True
    for v in (1.0, 0.9, 0.8):
        vis = optics.VisibilityModel(default=v)
        for i in range(3):
            rho, _ = optics.run_teleportation(algebra.ket(i), visibility=vis)
            basis_ok &= abs(algebra.fidelity(rho, algebra.ket(i)) - 1.0) < 1e-9
    super_ok = True
    for phi in protocol.benchmark_input_states()[3:]:
        fids = []
        for v in (1.0, 0.9, 0.8):
            rho, _ = optics.run_teleportation(phi, visibility=optics.VisibilityModel(default=v))
            fids.append(algebra.fidelity(rho, phi))
        super_ok &= all(a > b for a, b in zip(fids, fids[1:]))
    ok = basis_ok and super_ok
    assert ok, "ACCEPTANCE 4 (visibility spares basis states, damps superpositions)"


def test_acceptance_05_published_state_fidelities():
    targets = dataset.reference_targets()
    devs = {}
    for i in range(1, 11):
        rho, _ = dataset.reference_rho(i)
        f = algebra.fidelity(rho, targets[i - 1])
        listed = dataset.LISTED_STATE_FIDELITIES[dataset.STATE_FIDELITY_POSITIONS[i]]
        devs[i] = abs(f - listed)
    reconciled_ok = all(devs[i] <= 0.02 for i in range(1, 11) if i != 4)
    # documented anomalies: rho_4 misses its listed value by a little over
    # 0.02, and the ninth listed value (0.643) matches no state
    anomaly_ok = 0.02 < devs[4] < 0.03
    spurious_ok = dataset.LISTED_STATE_FIDELITIES[8] == 0.643
    ok = reconciled_ok and anomaly_ok and spurious_ok
    assert ok, (
        "ACCEPTANCE 5 (published rho fidelities within 0.02 at reconciled positions): "
        f"deviations: { {i: round(d, 4) for i, d in devs.items()} }"
    )


def test_acceptance_06_process_reconstruction():
    t0 = time.perf_counter()
    targets = dataset.reference_targets()
    pairs = [(phi, dataset.reference_rho(i)[0]) for i, phi in enumerate(targets[:9], 1)]
    fit = tomography.reconstruct_process(pairs)
    chi_ref, _ = dataset.reference_chi()
    elapsed = time.perf_counter() - t0
    f_proc = tomography.process_fidelity(fit.chi)
    fidelity_ok = (
        abs(f_proc - dataset.LISTED_PROCESS_FIDELITY) <= dataset.LISTED_PROCESS_FIDELITY_ERR
    )
    # chi[0,0] is the process fidelity, held by the check above
    off_dev = np.abs(fit.chi - chi_ref)
    off_dev[0, 0] = 0.0
    max_off_dev = float(off_dev.max())
    try:
        tomography.check_process_matrix(fit.chi, tp_tol=1e-6, psd_tol=1e-7)
        physical_ok = True
    except ValueError:
        physical_ok = False
    min_eig = float(np.linalg.eigvalsh(fit.chi).min())
    ref_residual = sum(
        float(np.linalg.norm(tomography.apply_process(chi_ref, algebra.projector(phi)) - rho) ** 2)
        for phi, rho in pairs
    )
    ok = (
        fidelity_ok
        and max_off_dev <= 0.02
        and physical_ok
        and fit.residual <= ref_residual
        and elapsed < 30.0
    )
    assert ok, (
        "ACCEPTANCE 6 (chi refit: fidelity 0.596 +/- 0.037, CPTP, misfit <= published): "
        f"refit process fidelity {f_proc:.4f} (target {dataset.LISTED_PROCESS_FIDELITY} "
        f"+/- {dataset.LISTED_PROCESS_FIDELITY_ERR}), max entrywise dev off (0,0) "
        f"{max_off_dev:.4f} (bound 0.02), CPTP {physical_ok} (min eigenvalue {min_eig:.2e}), "
        f"misfit {fit.residual:.4f} vs published chi {ref_residual:.4f}, elapsed {elapsed:.1f}s"
    )


def test_acceptance_07_mub_suite():
    chi_ref, _ = dataset.reference_chi()
    fids, mean_f = tomography.mub_fidelities(chi_ref)
    each_ok = all(
        abs(f - listed) <= 0.01
        for f, listed in zip(fids, dataset.LISTED_MUB_FIDELITIES)
    )
    mean_ok = abs(mean_f - 0.697) <= 0.005
    formula_ok = (Fraction(596, 1000) * 3 + 1) / 4 == Fraction(697, 1000)
    ok = each_ok and mean_ok and formula_ok
    assert ok, (
        "ACCEPTANCE 7 (twelve MUB fidelities + mean 0.697 + formula): "
        f"mean {mean_f:.4f}, max dev "
        f"{max(abs(f - l) for f, l in zip(fids, dataset.LISTED_MUB_FIDELITIES)):.4f}"
    )


def test_acceptance_08_certification():
    t0 = time.perf_counter()
    # (a) maximally coherent state
    rho_mc = algebra.projector(certify.max_coherent_state())
    mu_mc = certify.robustness_mu(rho_mc)
    a_ok = abs(mu_mc - 0.5) < 1e-5 and certify.oracle_feasible(rho_mc, 0.52) and not (
        certify.oracle_feasible(rho_mc, 0.45, slack_tol=0.0)
    )
    # (b) the published nonlinear-beats-witness example
    psi = np.array([math.sqrt(1 / 8), math.sqrt(1 / 8), -math.sqrt(3 / 4)])
    rho_b = algebra.projector(psi)
    nl = certify.nonlinear_criterion(rho_b)
    b_ok = abs(nl - 1.475) < 0.01 and nl > 1 and certify.fidelity_witness(rho_b) < 2 / 3
    # (c) batch over the published process matrix
    chi_ref, _ = dataset.reference_chi()
    summary = certify.batch_certification(
        lambda r: tomography.apply_process(chi_ref, r, repair=True), grid=(20, 20)
    )
    c_ok = (
        abs(summary["n_genuine"] - dataset.LISTED_N_GENUINE) <= 15
        and abs(summary["mean_mu_of_genuine"] - dataset.LISTED_MEAN_MU) <= dataset.LISTED_STD_MU
    )
    elapsed = time.perf_counter() - t0
    ok = a_ok and b_ok and c_ok and elapsed < 300.0
    assert ok, (
        "ACCEPTANCE 8 (certification: mu=0.5, nonlinear 1.475, batch 251 +/- 15): "
        f"mu_mc {mu_mc:.6f}, nonlinear {nl:.4f}, n_genuine {summary['n_genuine']}, "
        f"mean mu {summary['mean_mu_of_genuine']:.4f}, elapsed {elapsed:.1f}s"
    )


def test_acceptance_09_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(900)
    eps = 0.02
    disagreements = 0
    for _ in range(100):
        rho = random_density_matrix(rng)
        mu = certify.robustness_mu(rho)
        if mu + eps <= 1.0 and not certify.oracle_feasible(rho, mu + eps):
            disagreements += 1
        if mu - eps >= -1.0 and certify.oracle_feasible(rho, mu - eps, slack_tol=0.0):
            disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and elapsed < 300.0
    assert ok, (
        "ACCEPTANCE 9 (conic solver vs grid oracle, 100 states): "
        f"{disagreements} disagreements, elapsed {elapsed:.1f}s"
    )


def test_acceptance_10_mc_studies():
    # determinism
    rho = algebra.projector(certify.max_coherent_state())
    table = mc.counts_for_state(rho, 200.0, np.random.default_rng(0))

    def stat(tables):
        est = tomography.reconstruct_state(tables[0], "mle")
        return algebra.fidelity(est, certify.max_coherent_state())

    e1 = mc.poisson_resample([table], stat, 10, 4)
    e2 = mc.poisson_resample([table], stat, 10, 4)
    det_ok = np.array_equal(e1.samples, e2.samples)
    # error-vs-states convergence plateau
    res = mc.convergence_study(
        tomography.noisy_model_chi(), statistic="average_fidelity",
        n_states_grid=(1, 2, 5, 10, 20, 50), trials=40, rate=150, seed=0,
    )
    rel = abs(res.errors[-1] - res.errors[-2]) / res.errors[-2]
    plateau_ok = rel < 0.10
    # MUB vs non-MUB design study
    study = mc.mub_design_study(rate=150, trials=100, seed=0)
    design_ok = (
        abs(study["mean_mub"] - 0.700) <= 0.005
        and abs(study["mean_nonmub"] - 0.699) <= 0.005
    )
    ok = det_ok and plateau_ok and design_ok
    assert ok, (
        "ACCEPTANCE 10 (MC determinism, plateau, MUB design study): "
        f"plateau rel change {rel:.3f}, mub mean {study['mean_mub']:.4f}, "
        f"non-mub mean {study['mean_nonmub']:.4f}"
    )
