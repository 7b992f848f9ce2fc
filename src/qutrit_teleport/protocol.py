"""Ideal teleportation protocol layer.

Bell decomposition of channel (x) input, per-outcome probabilities and
conditional states, the Weyl-operator corrections, and the analytic
success probabilities of the linear-optical measurement schemes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import algebra
from .errors import DegenerateOutcomeError, DimensionError


@dataclass(frozen=True)
class ChannelSpec:
    """Pure entangled channel sum_k s_k |kk> given by its three Schmidt coefficients.

    This is where a channel's dimension is checked: every layer downstream
    takes the channel to be a qutrit pair.
    """

    schmidt_coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.schmidt_coefficients)
        if len(coeffs) != 3:
            raise DimensionError(f"expected 3 Schmidt coefficients, got {len(coeffs)}")
        if any(c < 0 for c in coeffs):
            raise ValueError("Schmidt coefficients must be non-negative")
        if abs(sum(c * c for c in coeffs) - 1.0) > 1e-12:
            raise ValueError("Schmidt coefficients must square-sum to 1")
        object.__setattr__(self, "schmidt_coefficients", coeffs)

    @classmethod
    def maximal(cls):
        s = 1.0 / math.sqrt(3)
        return cls((s, s, s))

    @classmethod
    def rebalanced(cls):
        """The (2|00> + 2|11> + |22>)/3 channel used to triple the success rate."""
        return cls((2 / 3, 2 / 3, 1 / 3))


@dataclass(frozen=True)
class OutcomeBranch:
    """One Bell-measurement branch: label, probability, conditional state."""

    n: int
    m: int
    probability: float
    conditional_state: np.ndarray


def decompose_input(channel, input_state):
    """Expand |input>_1 (x) |channel>_23 over the nine Bell outcomes on 1-2.

    Returns the nine branches in (n, m) order. Conditional states are
    normalized; branch probabilities sum to 1.
    """
    phi = algebra.check_pure_state(input_state, dim=3)
    s = channel.schmidt_coefficients

    # Tripartite amplitudes Psi[i1, i2, i3] = phi[i1] * s_k delta(i2=i3=k).
    psi = np.zeros((3, 3, 3), dtype=complex)
    for i1 in range(3):
        for k in range(3):
            psi[i1, k, k] = phi[i1] * s[k]

    branches = []
    for n, m in algebra.BELL_LABELS:
        bell = algebra.bell_state(n, m).reshape(3, 3)
        cond = np.einsum("ij,ijk->k", bell.conj(), psi)
        p = float(np.vdot(cond, cond).real)
        state = cond / math.sqrt(p) if p > 0 else cond
        branches.append(OutcomeBranch(n, m, p, state))
    return branches


def teleport_ideal(channel, input_state, label):
    """Output state of photon 3 after correction, for one Bell outcome."""
    n, m = label
    branches = decompose_input(channel, input_state)
    branch = next(b for b in branches if (b.n, b.m) == (n, m))
    if branch.probability <= 1e-15:
        raise DegenerateOutcomeError(f"branch ({n},{m}) has zero probability")
    # Bob's correction U_nm inverts the branch conditional
    out = algebra.weyl_operator(n, m) @ branch.conditional_state
    return algebra.normalize(out)


def success_probability(scheme):
    """Exact success probability of the optical measurement scheme.

    ``maximal_single_basis``: maximally entangled channel, one projection
    basis, auxiliary-pair filtering: 1/9 * 1/3 * 1/2 = 1/54.
    ``nonmaximal_rebalanced``: the (2,2,1)/3 channel with rebalanced
    (|H> +- |V>)/sqrt2 projections: 1/18.
    """
    table = {
        "maximal_single_basis": Fraction(1, 54),
        "nonmaximal_rebalanced": Fraction(1, 18),
    }
    try:
        return table[scheme]
    except KeyError:
        raise ValueError(f"unknown scheme {scheme!r}") from None


def benchmark_input_states():
    """The ten benchmark input states phi_1 .. phi_10."""
    k0, k1, k2 = (algebra.ket(i) for i in range(3))
    r2 = 1 / math.sqrt(2)
    r3 = 1 / math.sqrt(3)
    return [
        k0,
        k1,
        k2,
        r2 * (k0 + k1),
        r2 * (k0 + 1j * k1),
        r2 * (k0 + k2),
        r2 * (k0 + 1j * k2),
        r2 * (k1 + k2),
        r2 * (k1 + 1j * k2),
        r3 * (k0 + k1 + k2),
    ]


__all__ = [
    "ChannelSpec",
    "OutcomeBranch",
    "decompose_input",
    "teleport_ideal",
    "success_probability",
    "benchmark_input_states",
]
