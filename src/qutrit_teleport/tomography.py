"""Qutrit state and process tomography.

Nine-projector counting model with Poisson statistics, linear-inversion
and maximum-likelihood density-matrix estimation, chi process-matrix
reconstruction with PSD + trace-preserving constraints, and the fidelity
calculus (process fidelity, average fidelity, the twelve MUB fidelities).

Process matrices are stored in the basis [I, lambda_1 .. lambda_8]
(identity unnormalized), so the ideal teleportation channel is
chi[0,0] = 1 and trace preservation reads sum_lk chi_lk s_k s_l = I.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import algebra, protocol
from .errors import DimensionError, IllPosedError, InsufficientDataError, SolverError

TP_TOL = 1e-6
PSD_TOL = 1e-9

# Stopping rules of the Dykstra projection and of the FISTA chi fit: the
# largest entrywise step (and, for the fit, the relative objective change)
# below the tolerance, or SolverError after the iteration cap.
DYKSTRA_TOL = 1e-9
DYKSTRA_MAX_ITER = 20000
FIT_TOL = 1e-9
FIT_MAX_ITER = 20000
# The state MLE's cap on L-BFGS-B likelihood calls: SolverError when a new
# iterate finds it exceeded, as scipy's minimize tests its maxfun. Each call
# is one stacked point, so 1500 stops where scipy's own difference (ten
# scalar calls per point) stops against its default of 15000.
MLE_MAX_FUN = 1500


# The nine tomography projectors in measurement order, read-only, shape
# (9, 3): the first nine benchmark inputs phi_1 .. phi_9.
CANONICAL_KETS = np.array(protocol.benchmark_input_states()[:9])
CANONICAL_KETS.flags.writeable = False


@dataclass(frozen=True)
class CountsTable:
    """Nine detection counts, in measurement order.

    No estimator needs the exposure: the MLE fits the count scale, and
    linear inversion normalizes by the basis-projector counts.
    """

    counts: tuple

    def __post_init__(self):
        counts = tuple(self.counts)
        if len(counts) != 9:
            raise ValueError("expected 9 counts")
        if not all(float(c).is_integer() for c in counts):
            raise ValueError("counts must be integers")
        counts = tuple(int(c) for c in counts)
        if any(c < 0 for c in counts):
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "counts", counts)


def born_probabilities(rho):
    """<psi_i|rho|psi_i> of the nine settings, shape (..., 9) over rho's leading axes."""
    return algebra.fidelity(np.asarray(rho, dtype=complex)[..., None, :, :], CANONICAL_KETS)


def simulate_counts(rho, exposure, rng):
    """Poisson counts with mean exposure * <psi_i|rho|psi_i> per setting."""
    if exposure <= 0:
        raise ValueError("exposure must be positive")
    return CountsTable(rng.poisson(exposure * np.clip(born_probabilities(rho), 0.0, None)))


def _linear_inversion(counts):
    """Estimates (..., 3, 3) from counts (..., 9), each on its own."""
    c = np.asarray(counts, dtype=float)
    basis_total = c[..., :3].sum(axis=-1, keepdims=True)
    if (basis_total == 0).any():
        raise InsufficientDataError("basis-projector counts are all zero")
    p = c / basis_total  # diagonal normalized to the basis-triple sum
    rho = np.zeros(c.shape[:-1] + (3, 3), dtype=complex)
    for j in range(3):
        rho[..., j, j] = p[..., j]
    for (j, k), (i_re, i_im) in {(0, 1): (3, 4), (0, 2): (5, 6), (1, 2): (7, 8)}.items():
        half = 0.5 * (p[..., j] + p[..., k])
        re = p[..., i_re] - half
        im = half - p[..., i_im]
        rho[..., j, k] = re + 1j * im
        rho[..., k, j] = re - 1j * im
    return rho


# Where a factor's nine reals sit in the float view of its 3x3 T: the
# diagonal, then Re and Im of T[1, 0], T[2, 0] and T[2, 1]
_T_SLOTS = np.array([0, 8, 16, 6, 7, 12, 13, 14, 15])


def _t_to_rho(t):
    """Lower-triangular Cholesky-like factors (n, 9 reals) -> density matrices (n, 3, 3).

    A factor with a zero trace maps to I/3.
    """
    t = np.asarray(t, dtype=float)
    T = np.zeros((len(t), 18))
    T[:, _T_SLOTS] = t
    T = T.view(complex).reshape(-1, 3, 3)
    rho = T.conj().transpose(0, 2, 1) @ T
    tr = rho.trace(axis1=1, axis2=2).real
    empty = tr <= 0
    if empty.any():
        rho[empty], tr[empty] = np.eye(3) / 3.0, 1.0
    rho /= tr[:, None, None]
    return rho


def _rho_to_t(rho):
    """Seed parameters: lower-triangular T with rho = T^dagger T.

    Uses the index-reversal trick: if J rho J = C C^dagger (Cholesky, C
    lower), then rho = D D^dagger with D = J C J upper triangular, so
    T = D^dagger is lower triangular.
    """
    rho = repair_density_matrix(rho)[0]
    J = np.fliplr(np.eye(3))
    C = np.linalg.cholesky(J @ rho @ J + 1e-10 * np.eye(3))
    T = (J @ C @ J).conj().T
    return T.reshape(-1).view(float)[_T_SLOTS]


_KETS_CONJ = CANONICAL_KETS.conj()

# scipy's default finite-difference step for L-BFGS-B, and the relative step
# it falls back to where x + h rounds back to x
_FD_STEP = 1e-8
_FD_REL_STEP = np.finfo(float).eps ** 0.5


def _neg_loglik(t, c, total):
    """Poisson negative log-likelihood (n,) of factors t (n, 9) for counts c summing to total."""
    p = np.einsum("ij,njk,ik->ni", _KETS_CONJ, _t_to_rho(t), CANONICAL_KETS).real
    p = np.maximum(p, 1e-12)
    # analytic optimal exposure scale: s = sum(n) / sum(p)
    lam = total / p.sum(axis=-1, keepdims=True) * p
    return (lam - c * np.log(lam)).sum(axis=-1)


# scipy's L-BFGS-B settings for this fit: 10 corrections, 20 line-search
# steps, ftol 1e-14 (as factr, in units of eps) and gtol 1e-10
_LBFGS_M = 10
_LBFGS_MAXLS = 20
_LBFGS_FACTR = 1e-14 / np.finfo(float).eps
_LBFGS_PGTOL = 1e-10


def _mle(counts):
    # scipy's compiled L-BFGS-B step; imported here, so that runs without a
    # state MLE do not load scipy
    from scipy.optimize._lbfgsb import setulb

    c = np.asarray(counts.counts, dtype=float)
    total = c.sum()
    if total == 0:
        raise InsufficientDataError("all counts are zero")

    # x and its nine perturbed points; this fit's own, so fits in other
    # threads do not share it
    points = np.empty((10, 9))
    diagonal = points.reshape(-1)[9::10]  # points[1 + i, i]

    def fun_and_grad(x):
        # scipy's own 2-point forward difference, with x and its nine
        # perturbed points evaluated as one stack
        stepped = x + _FD_STEP
        h = stepped - x
        if not h.all():
            flat = h == 0
            xf = x[flat]
            stepped[flat] = xf + np.copysign(_FD_REL_STEP * np.maximum(1.0, np.abs(xf)), xf)
            h = stepped - x
        points[:] = x
        diagonal[:] = stepped
        f = _neg_loglik(points, c, total)
        return f[0], (f[1:] - f[0]) / h

    # linear inversion needs the basis counts; without them the seed is I/3
    x = _rho_to_t(np.eye(3) / 3 if c[:3].sum() == 0 else _linear_inversion(c))
    # the loop of scipy's minimize(method="L-BFGS-B") for this problem, with
    # its work arrays and its reverse-communication tasks: 3 asks for f and g
    # at x, 1 reports a new iterate, 4 is convergence, anything else a stop
    n, m = len(x), _LBFGS_M
    bounds = np.zeros(n)
    nbd = np.zeros(n, np.int32)  # no variable is bounded
    f, g = np.array(0.0), np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task, lsave = np.zeros(2, np.int32), np.zeros(2, np.int32), np.zeros(4, np.int32)
    isave, dsave = np.zeros(44, np.int32), np.zeros(29)
    n_fun, x_fun = 0, None
    while True:
        setulb(
            m, x, bounds, bounds, nbd, f, g, _LBFGS_FACTR, _LBFGS_PGTOL,
            wa, iwa, task, lsave, isave, dsave, _LBFGS_MAXLS, ln_task,
        )
        if task[0] == 3:
            # as scipy does, a request at the point just evaluated reuses it
            if x_fun is None or not (x == x_fun).all():
                f, g_fun = fun_and_grad(x)
                n_fun, x_fun = n_fun + 1, x.copy()
            g[:] = g_fun
        elif task[0] != 1 or n_fun > MLE_MAX_FUN:
            break
    # past the cap without convergence is scipy's status 1; any other stop
    # (status 2, an abnormal line-search end) keeps its last accepted point
    if task[0] != 4 and n_fun > MLE_MAX_FUN:
        raise SolverError(f"state MLE stopped at its cap of {MLE_MAX_FUN} likelihood calls")
    # a copy, so that a caller keeping rho does not keep its stack too
    return _t_to_rho(x[None])[0].copy()


def reconstruct_state(counts, method="mle"):
    """Density matrix from a CountsTable; method 'linear' or 'mle'.

    Linear inversion can return a non-physical matrix (Hermitian, trace 1,
    possibly indefinite); the MLE result is PSD and trace 1 by construction.
    """
    if method == "linear":
        return _linear_inversion(counts.counts)
    if method == "mle":
        return _mle(counts)
    raise ValueError(f"unknown method {method!r}")


def repair_density_matrix(mat):
    """Symmetrize, clip negative eigenvalues, renormalize the trace.

    ``mat`` is one matrix or a stack of them on leading axes, each
    repaired on its own. Clipping and then rescaling does not give the
    density matrix nearest to ``mat`` in Frobenius norm: that one lowers
    every eigenvalue by one common shift, chosen so that the clipped
    eigenvalues sum to 1 (Smolin, Gambetta and Smith, PRL 108, 070502
    (2012)).

    Returns (rho, log) where log records the size of each adjustment,
    the largest over the stack.
    """
    mat = np.asarray(mat, dtype=complex)
    adjoint = np.swapaxes(mat.conj(), -1, -2)
    herm_resid = float(np.abs(mat - adjoint).max())
    rho = (mat + adjoint) / 2
    w, u = np.linalg.eigh(rho)
    clip_size = float(max(0.0, -w.min()))
    w = np.clip(w, 0.0, None)
    rho = u @ (w[..., None] * np.eye(w.shape[-1])) @ np.swapaxes(u.conj(), -1, -2)
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    if (tr <= 0).any():
        raise InsufficientDataError("matrix has non-positive trace after clipping")
    rho = rho / tr[..., None, None]
    log = {
        "hermiticity_residual": herm_resid,
        "eigenvalue_clip": clip_size,
        "trace_adjustment": float(np.abs(tr - 1.0).max()),
    }
    return rho, log


# --- process matrices -----------------------------------------------------

_BASIS = algebra.GELL_MANN  # shape (9, 3, 3)
_N = 9


# The 162 unit chi's: the float view of each is one unit vector, in the
# order of chi.view(float). Every real-linear map of the chi fit is the
# matrix of its values on them.
_UNIT_CHIS = np.eye(2 * _N * _N).view(complex).reshape(-1, _N, _N)
_UNIT_CHIS.flags.writeable = False


def _liouville(chi):
    """The 9x9 Liouville matrices of chi, over its leading axes.

    vec(rho_out) = L vec(rho) for row-major vec: B^T chi B (B the basis
    stacked as 9x9 rows) holds sum_lk sigma_l[a, b] chi_lk sigma_k[c, d]
    at ((a, b), (c, d)), and L is that array with the indices regrouped
    as ((a, d), (b, c)).
    """
    basis = _BASIS.reshape(_N, _N)
    product = (basis.T @ chi @ basis).reshape(chi.shape[:-2] + (3, 3, 3, 3))
    return np.moveaxis(product, -1, -3).reshape(chi.shape)


def apply_process(chi, rho, repair=False):
    """rho_out = sum_lk chi_lk sigma_l rho sigma_k, broadcast over the leading axes.

    chi (..., 9, 9) enters as its Liouville matrix, so each pair is one
    matrix-vector product, and stacks of chi's and states give the same
    bits as their pairs one by one.

    With ``repair`` the output is symmetrized, eigenvalue-clipped and
    trace-renormalized; use it when chi is only approximately physical.
    """
    chi = np.asarray(chi, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    out = _liouville(chi) @ rho.reshape(rho.shape[:-2] + (_N, 1))
    out = out.reshape(out.shape[:-2] + (3, 3))
    if repair:
        out, _ = repair_density_matrix(out)
    return out


def tp_matrix(chi):
    """sum_lk chi_lk sigma_k sigma_l, over any leading axes; I iff chi is trace preserving."""
    chi = np.asarray(chi, dtype=complex)
    return np.einsum("...lk,kab,lbc->...ac", chi, _BASIS, _BASIS)


def chi_ideal():
    chi = np.zeros((_N, _N), dtype=complex)
    chi[0, 0] = 1.0
    return chi


def depolarizing_chi():
    """chi of the fully depolarizing channel rho -> I/3 in this basis.

    Using sum_a lambda_a rho lambda_a = 2 I - (2/3) rho, the channel
    (1/9) I rho I + (1/6) sum_a lambda_a rho lambda_a maps every state
    to I/3 and is exactly trace preserving.
    """
    chi = np.zeros((_N, _N), dtype=complex)
    chi[0, 0] = 1.0 / 9.0
    for a in range(1, _N):
        chi[a, a] = 1.0 / 6.0
    return chi


def noisy_model_chi(weight=0.55):
    """weight * chi_ideal + (1 - weight) * (depolarizing chi)."""
    return weight * chi_ideal() + (1 - weight) * depolarizing_chi()


def process_fidelity(chi):
    """Tr(chi_ideal chi) = Re chi[0,0] in this basis."""
    return float(np.asarray(chi)[0, 0].real)


def average_fidelity_from_process(f_process):
    """f_ave = (f_process * d + 1) / (d + 1) with d = 3."""
    return (f_process * 3 + 1) / 4


def mub_fidelities(chi, repair=False):
    """Fidelities (..., 12) of the twelve MUB states through chi (..., 9, 9), plus their mean.

    The mean is a float for one chi and an array over a stack.
    """
    kets = algebra.MUB_KETS
    chi = np.asarray(chi, dtype=complex)
    outs = apply_process(chi[..., None, :, :], algebra.projector(kets), repair=repair)
    outs = (outs + np.swapaxes(outs.conj(), -1, -2)) / 2
    fids = algebra.fidelity(outs, kets)
    mean = fids.mean(axis=-1)
    return fids, float(mean) if mean.ndim == 0 else mean


# --- chi reconstruction ---------------------------------------------------


def _real_rows(values):
    """Values (162, ..., 9) on the unit chi's -> the real matrix of the map.

    Each group of nine entries gives nine rows of real parts, then nine of
    imaginary parts.
    """
    return np.stack([values.real, values.imag], axis=-2).reshape(len(values), -1).T


def _design_operator(inputs):
    """Real (18 n, 162) matrix mapping chi.view(float) to the stacked output entries."""
    rhos = algebra.projector(inputs).reshape(-1, _N, 1)
    return _real_rows((_liouville(_UNIT_CHIS)[:, np.newaxis] @ rhos)[..., 0])


def _output_vector(outputs):
    """Outputs (..., n, 3, 3) -> the data vectors (..., 18 n) that A maps chi onto."""
    stacked = np.stack([outputs.real, outputs.imag], axis=-3)
    return stacked.reshape(outputs.shape[:-3] + (-1,))


def _least_squares(pinv, b):
    """The Hermitian part of the unconstrained fit A^+ b, over b's leading axes."""
    chi = (pinv @ b[..., None])[..., 0].view(complex).reshape(b.shape[:-1] + (_N, _N))
    return (chi + np.swapaxes(chi.conj(), -1, -2)) / 2


def linear_process_fit(inputs, counts):
    """The linear chi estimator on counts (..., n, 9) of the outputs of n inputs.

    Linear inversion of each output, then the unconstrained least-squares
    chi (..., 9, 9). Every step is linear in the counts, so the estimate
    is unbiased under Poisson noise; it is Hermitian but need not be PSD
    or TP. A stack of count sets gives the same bits as its sets one by
    one.
    """
    kets = np.asarray(inputs, dtype=complex)
    counts = np.asarray(counts)
    if kets.ndim != 2 or counts.shape[-2:] != (len(kets), 9):
        raise DimensionError(f"expected counts (..., {len(kets)}, 9), got {counts.shape}")
    _, pinv, _, _ = _fit_design(kets)
    return _least_squares(pinv, _output_vector(_linear_inversion(counts)))


def _fit_design(inputs):
    """Read-only (A, A^+, A^T A, 1 / ||A^T A||_2) for an input set, cached by its kets."""
    kets = np.array(inputs, dtype=complex)
    return _cached_fit_design(kets.tobytes(), kets.shape)


@functools.lru_cache(maxsize=4)
def _cached_fit_design(data, shape):
    kets = np.frombuffer(data, dtype=complex).reshape(shape)
    proj_stack = algebra.projector(kets).reshape(len(kets), -1)
    if np.linalg.matrix_rank(proj_stack, tol=1e-9) < 9:
        raise IllPosedError("input states do not span qutrit operator space")
    A = _design_operator(kets)
    pinv = np.linalg.pinv(A)
    gram = A.T @ A
    for a in (A, pinv, gram):
        a.flags.writeable = False
    return A, pinv, gram, 1.0 / np.linalg.norm(gram, 2)


@functools.cache
def _tp_map():
    """The TP projection as one affine map v -> K v + k on chi.view(float).

    K = I - M^+ M and k = M^+ b, with M the real rows of ``tp_matrix`` on
    the unit chi's and b those of the identity.
    """
    M = _real_rows(tp_matrix(_UNIT_CHIS).reshape(-1, 1, _N))
    Mp = np.linalg.pinv(M)
    K = np.eye(len(_UNIT_CHIS)) - Mp @ M
    k = Mp @ np.r_[np.eye(3).ravel(), np.zeros(_N)]
    for a in (K, k):
        a.flags.writeable = False
    return K, k


def project_physical(chi):
    """Dykstra projection of the Hermitian part of chi onto PSD intersect TP.

    The TP set is affine, so its step needs no correction (Boyle and Dykstra, 1986).
    """
    K, k = _tp_map()
    x = np.asarray(chi, dtype=complex)
    x = (x + x.conj().T) / 2  # once: eigh reads only one triangle
    p = np.zeros_like(x)
    for _ in range(DYKSTRA_MAX_ITER):
        xp = x + p
        w, u = np.linalg.eigh(xp)
        y = (u * np.maximum(w, 0.0)) @ u.conj().T
        p = xp - y
        x_new = (K @ y.view(float).ravel() + k).view(complex).reshape(_N, _N)
        if np.abs(x_new - x).max() < DYKSTRA_TOL:
            return x_new
        x = x_new
    raise SolverError("Dykstra projection did not converge")


@dataclass
class ProcessFit:
    chi: np.ndarray
    residual: float
    n_iterations: int


# Weights that measure a FISTA step on chi.view(float) as the isometric
# Hermitian coordinates do: 1 on the diagonal, sqrt(2) off it.
_STEP_WEIGHT = (np.where(np.eye(_N, dtype=bool), 1, math.sqrt(2)) * (1 + 1j)).view(float).ravel()


def reconstruct_process(pairs):
    """Least-squares chi under PSD and trace-preservation constraints.

    ``pairs`` is a list of at least nine (input pure state, output 3x3
    density matrix). Minimizes the summed Frobenius misfit by projected
    gradient descent on chi.view(float), with Dykstra alternating
    projection onto the PSD cone and the TP affine subspace as the
    projection step. Returns a ProcessFit with the Hermitian part of the
    final iterate and its residual. FISTA starts from the projected
    unconstrained least-squares chi, the fit that ``linear_process_fit``
    makes after its linear inversion.
    """
    if len(pairs) < _N:
        raise IllPosedError(f"need at least {_N} input/output pairs, got {len(pairs)}")
    inputs = [algebra.check_pure_state(p) for p, _ in pairs]
    outputs = [np.asarray(r, dtype=complex) for _, r in pairs]
    if any(o.shape != (3, 3) for o in outputs):
        raise DimensionError("each output must be a 3x3 matrix")
    outputs = np.array(outputs)
    if not np.isfinite(outputs).all():
        raise ValueError("output matrices have non-finite entries")

    A, pinv, gram, step = _fit_design(inputs)
    b = _output_vector(outputs)
    atb = A.T @ b

    def proj(v):
        return project_physical(v.view(complex).reshape(_N, _N)).view(float).ravel()

    # FISTA from the projected unconstrained fit.
    x = project_physical(_least_squares(pinv, b)).view(float).ravel()
    z, t_mom = x.copy(), 1.0
    prev = np.inf
    for n_iterations in range(1, FIT_MAX_ITER + 1):
        x_new = proj(z - step * (gram @ z - atb))
        t_new = (1 + math.sqrt(1 + 4 * t_mom * t_mom)) / 2
        z = x_new + ((t_mom - 1) / t_new) * (x_new - x)
        obj = float(np.sum((A @ x_new - b) ** 2))
        moved = np.abs(_STEP_WEIGHT * (x_new - x)).max()
        x, t_mom = x_new, t_new
        if moved < FIT_TOL and abs(prev - obj) < FIT_TOL * max(1.0, obj):
            break
        prev = obj
    else:
        raise SolverError("projected gradient did not converge")
    chi = x.view(complex).reshape(_N, _N)
    chi = (chi + chi.conj().T) / 2
    residual = float(np.sum((A @ chi.view(float).ravel() - b) ** 2))
    return ProcessFit(chi=chi, residual=residual, n_iterations=n_iterations)


def check_process_matrix(chi, tp_tol=TP_TOL, psd_tol=PSD_TOL):
    """Validate Hermiticity, PSD-ness, and trace preservation of chi."""
    chi = np.asarray(chi, dtype=complex)
    if chi.shape != (_N, _N):
        raise ValueError(f"chi must be 9x9, got {chi.shape}")
    if not np.isfinite(chi).all():
        raise ValueError("chi has non-finite entries")
    if np.abs(chi - chi.conj().T).max() > 1e-9:
        raise ValueError("chi is not Hermitian")
    if np.linalg.eigvalsh((chi + chi.conj().T) / 2).min() < -psd_tol:
        raise ValueError("chi is not positive semidefinite")
    if np.abs(tp_matrix(chi) - np.eye(3)).max() > tp_tol:
        raise ValueError("chi is not trace preserving")
    return chi


def chi_from_orthonormal(chi_on):
    """Convert a chi given in the orthonormal basis {I/sqrt3, lambda/sqrt2}
    and normalized to unit trace (Choi-state form) into this module's basis.

    The channel sum chi'_lk s'_l rho s'_k with Tr chi' = 1 maps states to
    trace-1/3 outputs; multiplying by 3 restores trace preservation, and
    the basis rescaling absorbs sqrt3 / sqrt2 factors per index.
    """
    chi_on = np.asarray(chi_on, dtype=complex)
    scale = np.array([math.sqrt(3.0)] + [math.sqrt(2.0)] * 8)
    return 3.0 * chi_on / np.outer(scale, scale)


__all__ = [
    "CANONICAL_KETS",
    "CountsTable",
    "born_probabilities",
    "simulate_counts",
    "reconstruct_state",
    "repair_density_matrix",
    "apply_process",
    "tp_matrix",
    "chi_ideal",
    "depolarizing_chi",
    "noisy_model_chi",
    "process_fidelity",
    "average_fidelity_from_process",
    "mub_fidelities",
    "linear_process_fit",
    "reconstruct_process",
    "ProcessFit",
    "project_physical",
    "check_process_matrix",
    "chi_from_orthonormal",
]
