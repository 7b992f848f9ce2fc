"""Helpers shared by the test modules."""

import numpy as np


def random_density_matrix(rng, rank=3):
    """Random qutrit density matrix of the given rank, from a Ginibre factor."""
    g = rng.normal(size=(3, rank)) + 1j * rng.normal(size=(3, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real
