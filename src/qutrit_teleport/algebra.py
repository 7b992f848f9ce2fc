"""Operator and state families for qutrit algebra.

Gell-Mann matrices, Weyl (generalized Pauli) operators, the nine qutrit
Bell states, the twelve qutrit MUB vectors, and the Bloch-vector
utilities the tomography and certification layers are built on. The
toolkit is qutrit-only: every state and operator here has dimension 3.

Conventions:
  * ``GELL_MANN[0]`` is the unnormalized 3x3 identity, so the ideal
    teleportation process matrix is exactly ``chi[0,0] = 1``.
  * Weyl operators follow U_nm = sum_k exp(i 2 pi k n / 3) |k><(k+m) mod 3|.
  * The module constants are read-only arrays or tuples.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError

OMEGA = np.exp(2j * np.pi / 3)


def ket(index):
    """Computational basis column vector |index>."""
    if not 0 <= index < 3:
        raise DimensionError(f"basis index {index} out of range for dim 3")
    v = np.zeros(3, dtype=complex)
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


def check_pure_state(vec):
    """Validate a normalized length-3 state vector, to 1e-12 in its norm."""
    vec = np.asarray(vec, dtype=complex)
    if vec.shape != (3,):
        raise DimensionError(f"expected a length-3 vector, got shape {vec.shape}")
    if not np.isfinite(vec).all():
        raise ValueError("state vector has non-finite entries")
    if abs(np.linalg.norm(vec) - 1.0) > 1e-12:
        raise ValueError("state vector is not normalized")
    return vec


def check_density_matrix(rho, dim=None):
    """Validate Hermiticity, positivity and unit trace of a density matrix, to 1e-9.

    ``rho`` may be a stack of matrices on leading axes; each must pass.
    """
    atol = 1e-9
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-2] != rho.shape[-1]:
        raise DimensionError(f"density matrix must be square, got {rho.shape}")
    if dim is not None and rho.shape[-1] != dim:
        raise DimensionError(f"expected dim {dim}, got {rho.shape[-1]}")
    if not np.isfinite(rho).all():
        raise ValueError("density matrix has non-finite entries")
    adjoint = np.swapaxes(rho.conj(), -1, -2)
    if np.max(np.abs(rho - adjoint)) > atol:
        raise ValueError("density matrix is not Hermitian")
    if np.max(np.abs(np.trace(rho, axis1=-2, axis2=-1).real - 1.0)) > atol:
        raise ValueError("density matrix does not have unit trace")
    if np.min(np.linalg.eigvalsh((rho + adjoint) / 2)) < -atol:
        raise ValueError("density matrix has a negative eigenvalue")
    return rho


def _read_only(array):
    array.flags.writeable = False
    return array


_S3 = 1.0 / math.sqrt(3.0)

# The nine-operator basis [I, lambda_1 .. lambda_8], shape (9, 3, 3). Index 0
# is the (unnormalized) identity; indices 1-8 are the standard traceless
# Hermitian Gell-Mann matrices with Tr(l_a l_b) = 2 delta_ab.
GELL_MANN = _read_only(
    np.array(
        [
            np.eye(3, dtype=complex),
            np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex),
            np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex),
            np.array([[1, 0, 0], [0, -1, 0], [0, 0, 0]], dtype=complex),
            np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex),
            np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex),
            np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex),
            np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex),
            _S3 * np.array([[1, 0, 0], [0, 1, 0], [0, 0, -2]], dtype=complex),
        ]
    )
)


def weyl_operator(n, m):
    """U_nm = sum_k exp(i 2 pi k n / 3) |k><(k+m) mod 3|."""
    if not (0 <= n < 3 and 0 <= m < 3):
        raise DimensionError(f"Weyl label ({n},{m}) out of range for dim 3")
    u = np.zeros((3, 3), dtype=complex)
    for k in range(3):
        u[k, (k + m) % 3] = np.exp(2j * np.pi * k * n / 3)
    return u


def bell_state(n, m):
    """|psi_nm> = (1/sqrt 3) sum_j exp(i 2 pi j n / 3) |j>|(j+m) mod 3>.

    Returned as a flat vector of length 9 indexed by (j, k) -> j*3 + k.
    """
    if not (0 <= n < 3 and 0 <= m < 3):
        raise DimensionError(f"Bell label ({n},{m}) out of range for dim 3")
    v = np.zeros(9, dtype=complex)
    for j in range(3):
        v[j * 3 + (j + m) % 3] = np.exp(2j * np.pi * j * n / 3)
    return v / math.sqrt(3)


# The nine Bell labels (n, m), n running fastest.
BELL_LABELS = tuple((n, m) for m in range(3) for n in range(3))

# The twelve qutrit states |psi_1> .. |psi_12> forming four mutually unbiased
# bases, shape (12, 3). Basis 1 is computational; bases 2-4 are phase bases
# built from omega = exp(i 2 pi / 3).
MUB_KETS = _read_only(
    np.array(
        [
            ket(0),
            ket(1),
            ket(2),
            _S3 * np.array([1, 1, 1], dtype=complex),
            _S3 * np.array([1, OMEGA, OMEGA**2], dtype=complex),
            _S3 * np.array([1, OMEGA**2, OMEGA], dtype=complex),
            _S3 * np.array([OMEGA, 1, 1], dtype=complex),
            _S3 * np.array([1, OMEGA, 1], dtype=complex),
            _S3 * np.array([1, 1, OMEGA], dtype=complex),
            _S3 * np.array([OMEGA**2, 1, 1], dtype=complex),
            _S3 * np.array([1, OMEGA**2, 1], dtype=complex),
            _S3 * np.array([1, 1, OMEGA**2], dtype=complex),
        ]
    )
)


def fidelity(rho, target):
    """<target| rho |target> for a density matrix and a pure target state.

    ``rho`` (..., 3, 3) and ``target`` (..., 3) broadcast over their
    leading axes, so a stack gives the same bits as its pairs one by one;
    one pair gives a float.
    """
    rho = np.asarray(rho, dtype=complex)
    target = np.asarray(target, dtype=complex)
    if rho.shape[-1] != target.shape[-1]:
        raise DimensionError(
            f"dim mismatch: rho {rho.shape[-1]} vs target {target.shape[-1]}"
        )
    val = (target.conj()[..., None, :] @ rho @ target[..., :, None])[..., 0, 0]
    worst = val.imag.flat[np.abs(val.imag).argmax()]
    if abs(worst) > 1e-9:
        raise ValueError(f"fidelity has a non-negligible imaginary part: {worst}")
    return float(val.real) if val.ndim == 0 else val.real


def bloch_vector(rho):
    """Expectation values <lambda_1> .. <lambda_8> of a qutrit state."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (3, 3):
        raise DimensionError("Bloch vector is defined for 3x3 density matrices")
    return np.array([np.trace(rho @ GELL_MANN[a]).real for a in range(1, 9)])


def random_pure_state(rng):
    """Haar-random pure qutrit state."""
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    return normalize(v)


__all__ = [
    "OMEGA",
    "ket",
    "normalize",
    "projector",
    "check_pure_state",
    "check_density_matrix",
    "GELL_MANN",
    "weyl_operator",
    "bell_state",
    "BELL_LABELS",
    "MUB_KETS",
    "fidelity",
    "bloch_vector",
    "random_pure_state",
]
