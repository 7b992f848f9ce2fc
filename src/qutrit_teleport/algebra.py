"""Operator and state families for qudit algebra.

Gell-Mann matrices, Weyl (generalized Pauli) operators, d-dimensional
Bell states, the twelve qutrit MUB vectors, and the Bloch-vector
utilities the tomography and certification layers are built on.

Conventions:
  * ``gell_mann_basis`` index 0 is the unnormalized 3x3 identity, so the
    ideal teleportation process matrix is exactly ``chi[0,0] = 1``.
  * Weyl operators follow U_nm = sum_k exp(i 2 pi k n / d) |k><(k+m) mod d|.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError

OMEGA = np.exp(2j * np.pi / 3)


def ket(index, dim=3):
    """Computational basis column vector |index> in the given dimension."""
    if not 0 <= index < dim:
        raise DimensionError(f"basis index {index} out of range for dim {dim}")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def normalize(vec):
    vec = np.asarray(vec, dtype=complex)
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise ValueError("cannot normalize the zero vector")
    return vec / norm


def projector(vec):
    """|v><v| for a (normalized) state vector, or a stack of them on leading axes."""
    v = np.asarray(vec, dtype=complex)
    return v[..., :, None] * v[..., None, :].conj()


def check_pure_state(vec, dim=None, atol=1e-12):
    vec = np.asarray(vec, dtype=complex)
    if dim is not None and vec.shape != (dim,):
        raise DimensionError(f"expected a length-{dim} vector, got shape {vec.shape}")
    if abs(np.linalg.norm(vec) - 1.0) > atol:
        raise ValueError("state vector is not normalized")
    return vec


def check_density_matrix(rho, dim=None, atol=1e-9):
    """Validate Hermiticity, positivity and unit trace of a density matrix.

    ``rho`` may be a stack of matrices on leading axes; each must pass.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-2] != rho.shape[-1]:
        raise DimensionError(f"density matrix must be square, got {rho.shape}")
    if dim is not None and rho.shape[-1] != dim:
        raise DimensionError(f"expected dim {dim}, got {rho.shape[-1]}")
    adjoint = np.swapaxes(rho.conj(), -1, -2)
    if np.max(np.abs(rho - adjoint)) > atol:
        raise ValueError("density matrix is not Hermitian")
    if np.max(np.abs(np.trace(rho, axis1=-2, axis2=-1).real - 1.0)) > atol:
        raise ValueError("density matrix does not have unit trace")
    if np.min(np.linalg.eigvalsh((rho + adjoint) / 2)) < -atol:
        raise ValueError("density matrix has a negative eigenvalue")
    return rho


def gell_mann_basis(dim=3):
    """The nine-operator basis [I, lambda_1 .. lambda_8] for qutrits.

    Index 0 is the (unnormalized) identity; indices 1-8 are the standard
    traceless Hermitian Gell-Mann matrices with Tr(l_a l_b) = 2 delta_ab.
    """
    if dim != 3:
        raise DimensionError("Gell-Mann basis is only provided for dim 3")
    s3 = 1.0 / math.sqrt(3.0)
    mats = [
        np.eye(3, dtype=complex),
        np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex),
        np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex),
        np.array([[1, 0, 0], [0, -1, 0], [0, 0, 0]], dtype=complex),
        np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex),
        np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex),
        np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex),
        np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex),
        s3 * np.array([[1, 0, 0], [0, 1, 0], [0, 0, -2]], dtype=complex),
    ]
    return mats


def weyl_operator(n, m, dim=3):
    """U_nm = sum_k exp(i 2 pi k n / d) |k><(k+m) mod d|."""
    if not (0 <= n < dim and 0 <= m < dim):
        raise DimensionError(f"Weyl label ({n},{m}) out of range for dim {dim}")
    u = np.zeros((dim, dim), dtype=complex)
    for k in range(dim):
        u[k, (k + m) % dim] = np.exp(2j * np.pi * k * n / dim)
    return u


def bell_state(n, m, dim=3):
    """|psi_nm> = (1/sqrt d) sum_j exp(i 2 pi j n / d) |j>|(j+m) mod d>.

    Returned as a flat vector of length d**2 indexed by (j, k) -> j*d + k.
    """
    if not (0 <= n < dim and 0 <= m < dim):
        raise DimensionError(f"Bell label ({n},{m}) out of range for dim {dim}")
    v = np.zeros(dim * dim, dtype=complex)
    for j in range(dim):
        v[j * dim + (j + m) % dim] = np.exp(2j * np.pi * j * n / dim)
    return v / math.sqrt(dim)


def bell_labels(dim=3):
    return [(n, m) for m in range(dim) for n in range(dim)]


def mub_family(dim=3):
    """The twelve qutrit states forming four mutually unbiased bases.

    Basis 1 is computational; bases 2-4 are phase bases built from
    omega = exp(i 2 pi / 3). Order matches the conventional listing
    |psi_1> .. |psi_12>.
    """
    if dim != 3:
        raise DimensionError("the MUB family is only provided for dim 3")
    w = OMEGA
    s = 1.0 / math.sqrt(3.0)
    kets = [
        ket(0),
        ket(1),
        ket(2),
        s * np.array([1, 1, 1], dtype=complex),
        s * np.array([1, w, w**2], dtype=complex),
        s * np.array([1, w**2, w], dtype=complex),
        s * np.array([w, 1, 1], dtype=complex),
        s * np.array([1, w, 1], dtype=complex),
        s * np.array([1, 1, w], dtype=complex),
        s * np.array([w**2, 1, 1], dtype=complex),
        s * np.array([1, w**2, 1], dtype=complex),
        s * np.array([1, 1, w**2], dtype=complex),
    ]
    return kets


def fidelity(rho, target):
    """<target| rho |target> for a density matrix and a pure target state."""
    rho = np.asarray(rho, dtype=complex)
    target = np.asarray(target, dtype=complex)
    if rho.shape[0] != target.shape[0]:
        raise DimensionError(
            f"dim mismatch: rho {rho.shape[0]} vs target {target.shape[0]}"
        )
    val = target.conj() @ rho @ target
    if abs(val.imag) > 1e-9:
        raise ValueError(f"fidelity has a non-negligible imaginary part: {val.imag}")
    return float(val.real)


def bloch_vector(rho):
    """Expectation values <lambda_1> .. <lambda_8> of a qutrit state."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (3, 3):
        raise DimensionError("Bloch vector is defined for 3x3 density matrices")
    basis = gell_mann_basis()
    return np.array([np.trace(rho @ basis[a]).real for a in range(1, 9)])


def random_pure_state(dim, rng):
    """Haar-random pure state of the given dimension."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return normalize(v)


def random_density_matrix(dim, rng, rank=None):
    """Random full(er)-rank density matrix via a Ginibre factor."""
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


__all__ = [
    "OMEGA",
    "ket",
    "normalize",
    "projector",
    "check_pure_state",
    "check_density_matrix",
    "gell_mann_basis",
    "weyl_operator",
    "bell_state",
    "bell_labels",
    "mub_family",
    "fidelity",
    "bloch_vector",
    "random_pure_state",
    "random_density_matrix",
]
