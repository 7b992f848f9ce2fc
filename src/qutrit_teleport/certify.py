"""Genuine-qutrit certification.

A state is qubit-simulable when it decomposes as a mixture of states
each confined to one of the two-level subspaces {0,1}, {0,2}, {1,2}.
This module provides the linear and nonlinear coherence criteria, the
fidelity witness, the feasibility test for such a decomposition, and the
white-noise robustness mu (the minimal noise admixture that makes the
state simulable; mu > 0 certifies genuine three-level coherence).

The feasibility problem reduces exactly to one scalar concave
maximization: each off-diagonal of the target belongs to a unique block,
so the block diagonals are the only unknowns, constrained by three
linear budgets and three hyperbolic (2x2 PSD) inequalities. Its
maximizer is closed-form, the slack's stationary point (_best_allocation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algebra
from .errors import SolverError

VERDICT_TOL = 1e-7
BISECT_TOL = 1e-6
RESIDUAL_TOL = 1e-9

LINEAR_TRIPLES = (
    (1, 4, 6),
    (1, 4, 7),
    (1, 5, 6),
    (1, 5, 7),
    (2, 4, 6),
    (2, 4, 7),
    (2, 5, 6),
    (2, 5, 7),
)


def max_coherent_state():
    return algebra.normalize(np.ones(3, dtype=complex))


def linear_criteria(rho):
    """|<l_a> + <l_b> + <l_c>| for the eight coherence triples; >1 certifies."""
    v = algebra.bloch_vector(rho)
    return np.array([abs(v[a - 1] + v[b - 1] + v[c - 1]) for a, b, c in LINEAR_TRIPLES])


def nonlinear_criterion(rho):
    """sqrt(<l1>^2+<l2>^2) + sqrt(<l4>^2+<l5>^2) + sqrt(<l6>^2+<l7>^2)."""
    v = algebra.bloch_vector(rho)
    return float(
        math.hypot(v[0], v[1]) + math.hypot(v[3], v[4]) + math.hypot(v[5], v[6])
    )


def fidelity_witness(rho):
    """Overlap with the maximally coherent state; >2/3 certifies."""
    return algebra.fidelity(rho, max_coherent_state())


@dataclass(frozen=True)
class SubspaceDecomposition:
    """Certificate of qubit-simulability: target = sigma01 + sigma02 + sigma12."""

    sigma_01: np.ndarray
    sigma_02: np.ndarray
    sigma_12: np.ndarray

    def total(self):
        return self.sigma_01 + self.sigma_02 + self.sigma_12

    def check(self, target, atol=1e-7):
        target = np.asarray(target, dtype=complex)
        if np.abs(self.total() - target).max() > atol:
            raise ValueError("decomposition does not reconstruct the target")
        for sig, (j, k) in [
            (self.sigma_01, (0, 1)),
            (self.sigma_02, (0, 2)),
            (self.sigma_12, (1, 2)),
        ]:
            other = 3 - j - k
            if np.abs(sig[other, :]).max() > atol or np.abs(sig[:, other]).max() > atol:
                raise ValueError(f"sigma_{j}{k} leaks outside its subspace")
            if np.linalg.eigvalsh((sig + sig.conj().T) / 2).min() < -atol:
                raise ValueError(f"sigma_{j}{k} is not PSD")
        return True


def _reduction_data(target):
    """Diagonal budgets and squared off-diagonal magnitudes of the target."""
    d = np.diag(target).real
    r = np.array(
        [abs(target[0, 1]) ** 2, abs(target[0, 2]) ** 2, abs(target[1, 2]) ** 2]
    )
    return d, r


def _allocation(d, r, w):
    """Block diagonals (a1, b1, a2, a3) at the w-weighted mean a1 of lo, hi.

    lo = r1/d1 and hi = d0; b1 = r1/a1, a2 = d0 - a1 and a3 = d1 - b1. a2
    and a3 are formed from the weights, not as differences, so a coherence
    many orders below the others cannot round them to zero.
    """
    lo = r[0] / d[1] if (r[0] > 0 and d[1] > 0) else 0.0
    span = (d[0] - lo) / (w[0] + w[1])
    a1 = lo + w[1] * span
    if r[0] == 0:
        return a1, 0.0, w[0] * span, d[1]
    return a1, r[0] / a1, w[0] * span, d[1] * w[1] * span / a1


def _slack(w, d, r):
    """Feasibility slack at the allocation of weights w (larger is better).

    The level-2 budget d2 must cover r2/a2 + r3/a3. The slack is concave
    in a1 (sums of negatives of convex reciprocals).
    """
    _, _, a2, a3 = _allocation(d, r, w)
    need = 0.0
    if r[1] > 0:
        if a2 <= 0:
            return -np.inf
        need += r[1] / a2
    if r[2] > 0:
        if a3 <= 0:
            return -np.inf
        need += r[2] / a3
    if a3 < -1e-15:
        return -np.inf
    return d[2] - need


def _best_allocation(target):
    """Maximize the feasibility slack in closed form; returns (slack, w*).

    In a1 the slack is d2 - r2/(d0 - a1) - r3/(d1 - r1/a1). Its stationary
    point solves sqrt(r2)*(a1*d1 - r1) = sqrt(r1*r3)*(d0 - a1), so a1* is
    the mean of lo and hi weighted by sqrt(r2)*d1 and sqrt(r1*r3). With
    r2 = 0 the slack does not decrease in a1 (take hi); otherwise, with
    r1*r3 = 0, it does not increase (take lo).
    """
    d, r = _reduction_data(target)
    if d.min() < -1e-12:
        return -np.inf, None
    if r[0] > 0 and (d[1] <= 0 or r[0] / d[1] > d[0]):
        return -np.inf, None
    if r[1] == 0:
        w = (0.0, 1.0)
    elif r[0] == 0 or r[2] == 0:
        w = (1.0, 0.0)
    else:
        w = (math.sqrt(r[1]) * d[1], math.sqrt(r[0]) * math.sqrt(r[2]))
    return _slack(w, d, r), w


def _decomposition_from_allocation(target, w):
    d, r = _reduction_data(target)
    a1, b1, a2, a3 = _allocation(d, r, w)
    b2 = min(r[1] / a2 if r[1] > 0 else 0.0, d[2])
    diagonals = ((a1, b1), (a2, b2), (a3, max(d[2] - b2, 0.0)))
    blocks = []
    for (j, k), diag in zip(((0, 1), (0, 2), (1, 2)), diagonals):
        sig = np.zeros((3, 3), dtype=complex)
        sig[j, j], sig[k, k] = diag
        sig[j, k], sig[k, j] = target[j, k], np.conj(target[j, k])
        blocks.append(sig)
    return SubspaceDecomposition(*blocks)


def qubit_mixture_feasibility(rho, slack_tol=RESIDUAL_TOL):
    """A SubspaceDecomposition of rho if one exists, else None."""
    rho = algebra.check_density_matrix(rho, dim=3)
    slack, w = _best_allocation(rho)
    if slack < -slack_tol:
        return None
    dec = _decomposition_from_allocation(rho, w)
    dec.check(rho, atol=1e-7)
    return dec


def _noisy_state(rho, mu):
    return mu * np.eye(3, dtype=complex) / 3.0 + (1 - mu) * rho


def robustness_mu(rho, tol=BISECT_TOL):
    """Minimal mu with mu*I/3 + (1-mu)*rho qubit-simulable, and a certificate.

    Feasibility is monotone in mu (mixing toward I/3 along a line into a
    convex set), so bisection over [-1, 1] applies. Returns (mu,
    decomposition-at-optimum-or-slightly-above).
    """
    rho = algebra.check_density_matrix(rho, dim=3)

    def feasible(mu):
        slack, w = _best_allocation(_noisy_state(rho, mu))
        return slack >= -RESIDUAL_TOL, w

    lo, hi = -1.0, 1.0
    ok_hi, best_w = feasible(hi)
    if not ok_hi:
        raise SolverError("bisection bracket failure: I/3 direction infeasible")
    ok_lo, w = feasible(lo)
    if ok_lo:
        dec = _decomposition_from_allocation(_noisy_state(rho, lo), w)
        return lo, dec
    while hi - lo > tol:
        mid = (lo + hi) / 2
        ok, w = feasible(mid)
        if ok:
            hi, best_w = mid, w
        else:
            lo = mid
    dec = _decomposition_from_allocation(_noisy_state(rho, hi), best_w)
    return hi, dec


def oracle_feasible(rho, mu=0.0, n_grid=200, slack_tol=None):
    """Brute-force grid feasibility check (the solver's independent oracle).

    Scans block-diagonal allocations (a1, b1, b2) on a regular grid and
    checks the three hyperbolic constraints directly.
    """
    target = _noisy_state(np.asarray(rho, dtype=complex), mu)
    d, r = _reduction_data(target)
    if d.min() < -1e-12:
        return False
    if slack_tol is None:
        # grid resolution sets how deep into the feasible set we can see
        slack_tol = 2.0 * max(d.max(), 1.0) / n_grid
    a1 = np.linspace(0, d[0], n_grid)[:, None, None]
    b1 = np.linspace(0, d[1], n_grid)[None, :, None]
    b2 = np.linspace(0, d[2], n_grid)[None, None, :]
    ok = (
        (a1 * b1 >= r[0] - slack_tol)
        & ((d[0] - a1) * b2 >= r[1] - slack_tol)
        & ((d[1] - b1) * (d[2] - b2) >= r[2] - slack_tol)
    )
    return bool(ok.any())


@dataclass(frozen=True)
class CertificationReport:
    linear_values: np.ndarray
    nonlinear_lhs: float
    fidelity_witness: float
    mu: float
    decomposition: SubspaceDecomposition | None
    verdict: str


def certify_state(rho):
    """Run all criteria plus the robustness program on one state."""
    mu, dec = robustness_mu(rho)
    genuine = mu > VERDICT_TOL
    return CertificationReport(
        linear_values=linear_criteria(rho),
        nonlinear_lhs=nonlinear_criterion(rho),
        fidelity_witness=fidelity_witness(rho),
        mu=mu,
        decomposition=None if genuine else dec,
        verdict="genuine_qutrit" if genuine else "qubit_simulable",
    )


def phase_grid_states(n_phi1=20, n_phi2=20, closed_interval=False):
    """Maximally coherent states over the (phi1, phi2) phase grid."""
    end = math.pi
    phis1 = np.linspace(0, end, n_phi1, endpoint=closed_interval)
    phis2 = np.linspace(0, end, n_phi2, endpoint=closed_interval)
    out = []
    for p1 in phis1:
        for p2 in phis2:
            out.append(
                (
                    (p1, p2),
                    np.array([1, np.exp(1j * p1), np.exp(1j * p2)]) / math.sqrt(3),
                )
            )
    return out


def batch_certification(channel, grid=(20, 20), closed_interval=False):
    """Certify the phase-grid states after evolution through a channel.

    ``channel`` maps a density matrix to a density matrix (e.g. a
    process-matrix application). Reports genuine/simulable counts, the
    mean and std of mu over the genuine states (None when there are
    none), and borderline states (|mu| below the verdict tolerance)
    counted separately.
    """
    mus = []
    n_borderline = 0
    for _, psi in phase_grid_states(*grid, closed_interval=closed_interval):
        rho = channel(algebra.projector(psi))
        mu, _ = robustness_mu(rho)
        mus.append(mu)
        if abs(mu) <= VERDICT_TOL:
            n_borderline += 1
    mus = np.array(mus)
    genuine = mus > VERDICT_TOL
    return {
        "n_states": len(mus),
        "n_genuine": int(genuine.sum()),
        "n_simulable": int((~genuine).sum()),
        "n_borderline": n_borderline,
        "mean_mu_of_genuine": float(mus[genuine].mean()) if genuine.any() else None,
        "std_mu_of_genuine": float(mus[genuine].std()) if genuine.any() else None,
        "mus": mus,
    }


__all__ = [
    "LINEAR_TRIPLES",
    "max_coherent_state",
    "linear_criteria",
    "nonlinear_criterion",
    "fidelity_witness",
    "SubspaceDecomposition",
    "qubit_mixture_feasibility",
    "robustness_mu",
    "oracle_feasible",
    "CertificationReport",
    "certify_state",
    "phase_grid_states",
    "batch_certification",
]
