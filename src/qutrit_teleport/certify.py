"""Genuine-qutrit certification.

A state is qubit-simulable when it decomposes as a mixture of states
each confined to one of the two-level subspaces {0,1}, {0,2}, {1,2}.
This module provides the linear and nonlinear coherence criteria, the
fidelity witness, the feasibility test for such a decomposition, and the
white-noise robustness mu (the minimal noise admixture that makes the
state simulable; mu > 0 certifies genuine three-level coherence).

A target is such a mixture iff its comparison matrix M -- the diagonal
kept, each off-diagonal replaced by -|target_jk| -- is PSD (factor width
two is the H-matrix property: Boman, Chen, Parekh and Toledo, Linear
Algebra Appl. 405, 239 (2005)). Noise maps M to (1-mu)*M + (mu/3)*I, so
with lam = lambda_min(M) the robustness is mu* = -3*lam/(1 - 3*lam), or
-1 when lam >= 1/6. mu is reported rounded up onto the grid -1 + j*2**-20,
for one state or a stack of them. The certificate is the closed-form
block allocation at the slack's stationary point (``certificate``), built
only on request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algebra

# mu is reported on the grid -1 + j*MU_STEP, the least point where the
# noisy state's comparison matrix has no eigenvalue below -EIG_TOL.
MU_STEP = 2.0**-20
EIG_TOL = 1e-12
# A verdict resolves on that grid: mu = MU_STEP holds every state with
# 0 < mu* <= MU_STEP, so it is borderline, not genuine.
VERDICT_TOL = MU_STEP
# The certificate is built for target + CERT_SHIFT*I, which is strictly
# feasible when the target's comparison matrix has no eigenvalue below
# -EIG_TOL, so no block diagonal vanishes. It reconstructs the target to
# CERT_SHIFT, inside SubspaceDecomposition.check's default atol of 1e-7.
CERT_SHIFT = 1e-10

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
    """Certificate of qubit-simulability: target = sigma01 + sigma02 + sigma12 (to atol)."""

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


def _comparison_matrix(target):
    """The diagonal with each off-diagonal replaced by -|target_jk|, over leading axes."""
    m = -np.abs(np.triu(target, 1))
    m = m + np.swapaxes(m, -1, -2)
    diag = np.arange(3)
    m[..., diag, diag] = np.diagonal(target, axis1=-2, axis2=-1).real
    return m


def _noisy_state(rho, mu):
    return mu * np.eye(3, dtype=complex) / 3.0 + (1 - mu) * rho


def certificate(rho, mu):
    """Blocks summing to the noisy state mu*I/3 + (1-mu)*rho, plus CERT_SHIFT*I.

    Valid (``SubspaceDecomposition.check``) for mu at or above
    ``robustness_mu(rho)``. With d the diagonal, m = (|t01|, |t02|, |t12|)
    and (a1, b1), (a2, b2), (a3, d2 - b2) the block diagonals, the level-2
    budget d2 must cover m1**2/(d0 - a1) + m2**2/(d1 - m0**2/a1), concave in
    a1. Its stationary point is a1 = m0*q/p with p = m1*d1 + m0*m2 and
    q = m0*m1 + m2*d0, so that b1 = m0*p/q, a2 = m1*D/p and a3 = m2*D/q,
    where D = d0*d1 - m0**2. Every entry is a product of magnitudes, not of
    their squares, so a coherence whose square is subnormal keeps its
    precision, and none is a difference that a coherence many orders below
    the others could round to zero.
    """
    target = _noisy_state(np.asarray(rho, dtype=complex), mu) + CERT_SHIFT * np.eye(3)
    d = np.diag(target).real
    m = np.abs(target[(0, 0, 1), (1, 2, 2)])
    p = m[1] * d[1] + m[0] * m[2]
    q = m[0] * m[1] + m[2] * d[0]
    minor = d[0] * d[1] - m[0] * m[0]
    if m[1] == 0:  # level 0 all in block 01
        a1, b1, a2, a3 = d[0], m[0] * (m[0] / d[0]), 0.0, minor / d[0]
    elif q == 0:  # m2 = 0 and m0*m1 = 0: level 1 all in block 01
        a1, b1, a2, a3 = m[0] * (m[0] / d[1]), d[1], minor / d[1], 0.0
    else:
        a1, b1, a2, a3 = m[0] * (q / p), m[0] * (p / q), m[1] * (minor / p), m[2] * (minor / q)
    b2 = min(m[1] * (m[1] / a2) if m[1] > 0 else 0.0, d[2])
    diagonals = ((a1, b1), (a2, b2), (a3, max(d[2] - b2, 0.0)))
    blocks = []
    for (j, k), diag in zip(((0, 1), (0, 2), (1, 2)), diagonals):
        sig = np.zeros((3, 3), dtype=complex)
        sig[j, j], sig[k, k] = diag
        sig[j, k], sig[k, j] = target[j, k], np.conj(target[j, k])
        blocks.append(sig)
    return SubspaceDecomposition(*blocks)


def robustness_mu(rho):
    """Minimal mu with mu*I/3 + (1-mu)*rho qubit-simulable, over rho's leading axes.

    For mu <= 1 the noisy state's comparison matrix is (1-mu)*M + (mu/3)*I,
    so its least eigenvalue is (1-mu)*lam + mu/3 with lam = lambda_min(M).
    mu is the least point of the grid -1 + j*MU_STEP where that is at least
    -EIG_TOL; it is -1 when lam >= 1/6. Returns a float for one state and
    an array for a stack; ``certificate(rho, mu)`` gives the decomposition.
    """
    rho = algebra.check_density_matrix(rho, dim=3)
    # lam >= 1/6 gives mu = -1; clipping it there keeps 1 - 3*lam positive
    lam = np.minimum(np.linalg.eigvalsh(_comparison_matrix(rho))[..., 0], 1 / 6)
    mu_min = -3 * (lam + EIG_TOL) / (1 - 3 * lam)
    mu = -1.0 + np.maximum(np.ceil((mu_min + 1) / MU_STEP), 0.0) * MU_STEP
    return mu if mu.ndim else float(mu)


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


def verdict(mu):
    """The verdict rule: "genuine_qutrit" where mu > VERDICT_TOL, else "qubit_simulable".

    One mu gives a str, a stack an array of them.
    """
    v = np.where(np.asarray(mu) > VERDICT_TOL, "genuine_qutrit", "qubit_simulable")
    return v if v.ndim else str(v)


@dataclass(frozen=True)
class CertificationReport:
    linear_values: np.ndarray
    nonlinear_lhs: float
    fidelity_witness: float
    mu: float
    verdict: str


def certify_state(rho):
    """Run all criteria plus the robustness program on one state.

    ``certificate(rho, report.mu)`` builds a simulable state's decomposition.
    """
    mu = robustness_mu(rho)
    return CertificationReport(
        linear_values=linear_criteria(rho),
        nonlinear_lhs=nonlinear_criterion(rho),
        fidelity_witness=fidelity_witness(rho),
        mu=mu,
        verdict=verdict(mu),
    )


def phase_grid_states(n_phi1=20, n_phi2=20, closed_interval=False):
    """Maximally coherent states over the (phi1, phi2) phase grid, as ((phi1, phi2), ket)."""
    phis1 = np.linspace(0, math.pi, n_phi1, endpoint=closed_interval)
    phis2 = np.linspace(0, math.pi, n_phi2, endpoint=closed_interval)
    return [
        ((p1, p2), np.array([1, np.exp(1j * p1), np.exp(1j * p2)]) / math.sqrt(3))
        for p1 in phis1
        for p2 in phis2
    ]


def batch_certification(channel, grid=(20, 20), closed_interval=False):
    """Certify the phase-grid states after evolution through a channel.

    ``channel`` maps the grid's (n, 3, 3) stack of density matrices to
    the stack of their images (e.g. a process-matrix application); mu is
    found for the whole stack in one call. Reports genuine/simulable
    counts, the mean and std of mu over the genuine states (None when
    there are none), and borderline states (|mu| at most the verdict
    tolerance) counted separately; ``phases`` and ``mus`` hold each
    state's (phi1, phi2) and mu.
    """
    states = phase_grid_states(*grid, closed_interval=closed_interval)
    mus = robustness_mu(channel(algebra.projector([psi for _, psi in states])))
    genuine = verdict(mus) == "genuine_qutrit"
    return {
        "n_states": len(mus),
        "n_genuine": int(genuine.sum()),
        "n_simulable": int((~genuine).sum()),
        "n_borderline": int((np.abs(mus) <= VERDICT_TOL).sum()),
        "mean_mu_of_genuine": float(mus[genuine].mean()) if genuine.any() else None,
        "std_mu_of_genuine": float(mus[genuine].std()) if genuine.any() else None,
        "phases": [p for p, _ in states],
        "mus": mus,
    }


__all__ = [
    "LINEAR_TRIPLES",
    "max_coherent_state",
    "linear_criteria",
    "nonlinear_criterion",
    "fidelity_witness",
    "SubspaceDecomposition",
    "robustness_mu",
    "certificate",
    "oracle_feasible",
    "verdict",
    "CertificationReport",
    "certify_state",
    "phase_grid_states",
    "batch_certification",
]
