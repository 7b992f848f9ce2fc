"""Helpers shared by the test modules."""

import numpy as np


def random_density_matrix(rng, rank=3):
    """Random qutrit density matrix of the given rank, from a Ginibre factor."""
    g = rng.normal(size=(3, rank)) + 1j * rng.normal(size=(3, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` for the test; returns the list of each call's args."""
    original = getattr(module, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls
