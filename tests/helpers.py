"""Helpers shared by the test modules."""

import json

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


def matrix_to_json(mat):
    """``mat`` in the schema ``dataset.load_matrix`` reads."""
    mat = np.asarray(mat, dtype=complex)
    return {
        "dim": mat.shape[0],
        "entries": [[[float(v.real), float(v.imag)] for v in row] for row in mat],
    }


def save_matrix(mat, path):
    """Write ``mat`` as a matrix JSON file, as ``--matrix`` reads it."""
    with open(path, "w") as f:
        json.dump(matrix_to_json(mat), f, indent=1)
