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
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from . import algebra, protocol
from .errors import DimensionError, IllPosedError, InsufficientDataError, SolverError

TP_TOL = 1e-6
PSD_TOL = 1e-9

# Stopping rules of the chi projection and of the FISTA chi fit. The
# projection's semismooth Newton solve stops when its TP residual, in the
# nine orthonormal coordinates, is below PROJECTION_TOL, and raises
# SolverError after PROJECTION_MAX_ITER eigendecompositions (about 1.7 per
# projection inside a fit, whose warm start predicts the multiplier). The
# fit stops at its first step whose largest entrywise size is below
# FIT_TOL, and raises SolverError after FIT_MAX_ITER steps.
PROJECTION_TOL = 1e-12
PROJECTION_MAX_ITER = 100
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


def _frequencies(counts):
    """Counts (..., 9) as floats over their basis-triple sums, each table on its own."""
    c = np.asarray(counts, dtype=float)
    basis_total = c[..., :3].sum(axis=-1, keepdims=True)
    if (basis_total == 0).any():
        raise InsufficientDataError("basis-projector counts are all zero")
    return c / basis_total


def _linear_inversion(p):
    """Estimates (..., 3, 3) from ``_frequencies`` (..., 9), each real-linear in its table."""
    rho = np.zeros(p.shape[:-1] + (3, 3), dtype=complex)
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


_LBFGSB = "scipy.optimize._lbfgsb"
_LBFGSB_LOCK = threading.Lock()


def _lbfgsb():
    """scipy's compiled L-BFGS-B extension, loaded without ``scipy.optimize``.

    Importing it by name would first run the whole ``scipy.optimize``
    package. The module is registered under its full name, so a later
    ``from scipy.optimize import _lbfgsb`` (scipy's own route to it) gets
    this object. The lock keeps fits that start in several threads at once
    to one load, and ``setdefault`` keeps an object that an import of
    ``scipy.optimize`` in another thread registered first.

    Python sets a submodule as an attribute of its package only when it
    loads the submodule itself. So once this has run, a later ``import
    scipy.optimize`` leaves ``scipy.optimize._lbfgsb`` unset as an
    attribute: ``from scipy.optimize import _lbfgsb`` reaches the module,
    and attribute access after ``import scipy.optimize._lbfgsb`` raises
    AttributeError.
    """
    with _LBFGSB_LOCK:
        module = sys.modules.get(_LBFGSB)
        if module is None:
            import scipy

            where = os.path.join(scipy.__path__[0], "optimize")
            spec = importlib.machinery.PathFinder.find_spec(_LBFGSB, [where])
            if spec is None:
                raise ImportError(
                    f"no compiled _lbfgsb extension in {where}; the state MLE needs scipy>=1.15"
                )
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            module = sys.modules.setdefault(_LBFGSB, module)
    return module


def _mle(counts):
    # scipy's compiled L-BFGS-B step, read off its module at each fit; the
    # first fit loads only that extension, never scipy.optimize, and runs
    # without a state MLE do not load scipy at all
    setulb = _lbfgsb().setulb

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
    x = _rho_to_t(np.eye(3) / 3 if c[:3].sum() == 0 else _linear_inversion(_frequencies(c)))
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
        return _linear_inversion(_frequencies(counts.counts))
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


def _design_operator(inputs):
    """Real (18 n, 162) matrix mapping chi.view(float) to the outputs' ``_output_vector``."""
    rhos = algebra.projector(inputs).reshape(-1, _N, 1)
    outputs = (_liouville(_UNIT_CHIS)[:, np.newaxis] @ rhos).reshape(len(_UNIT_CHIS), -1, 3, 3)
    return _output_vector(outputs).T


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
    chi (..., 9, 9). It is Hermitian but need not be PSD or TP. It is
    biased under Poisson noise: linear inversion divides each count by the
    basis-triple sum S, and E[1/S] > 1/E[S], so at 150 counts per state
    the MUB fidelity of ``noisy_model_chi`` reads about 0.007 high. A
    stack of count sets gives the same bits as its sets one by one.
    """
    kets = np.asarray(inputs, dtype=complex)
    counts = np.asarray(counts)
    if kets.ndim != 2 or counts.shape[-2:] != (len(kets), 9):
        raise DimensionError(f"expected counts (..., {len(kets)}, 9), got {counts.shape}")
    _, pinv, _, _ = _fit_design(kets)
    return _least_squares(pinv, _output_vector(_linear_inversion(_frequencies(counts))))


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


# The TP constraint in the orthonormal Hermitian basis E_i = I / sqrt 3,
# lambda_a / sqrt 2 of the 3x3 matrices: its target <E_i, I>, and the
# adjoint images G_i of the E_i, with <G_i, Y> = <E_i, tp_matrix(Y)> for
# every 9x9 Y (<A, B> = Re Tr A^dagger B). G_i[l, k] = Tr(s_l s_k E_i), and
# the real rows of the constraint on chi.view(float) are their float views.
_TP_TARGET = np.r_[math.sqrt(3.0), np.zeros(_N - 1)]
_TP_ADJOINT = np.einsum(
    "lab,kbc,ica->ilk", _BASIS, _BASIS, _BASIS / np.linalg.norm(_BASIS, axis=(1, 2))[:, None, None]
)
_TP_TARGET.flags.writeable = False
_TP_ADJOINT.flags.writeable = False
_TP_ROWS = _TP_ADJOINT.reshape(_N, -1).view(float)

# The Newton system's regularization, as a fraction of min(1, |F|); Armijo's
# sufficient-decrease fraction; and the slack, relative to the dual
# objective, within which its rounding hides a decrease near the solution
_NEWTON_REGULARIZATION = 1e-2
_ARMIJO_FRACTION = 1e-4
_ARMIJO_SLACK = 1e-13

# The G_i side by side, _TP_ADJOINT_ROW[l, (i, k)] = G_i[l, k], so that
# U_P^dagger G_i U for all nine is two 2-D products
_TP_ADJOINT_ROW = np.ascontiguousarray(_TP_ADJOINT.transpose(1, 0, 2)).reshape(_N, -1)


class ProjectionWarmStart:
    """What one ``project_physical`` call leaves for the next, nearby one.

    The Hermitian input X0 and the TP multiplier lambda0 of the last
    converged projection, and its last Newton linearization: the
    eigenvectors U with the adjoint U_P^dagger of their positive columns,
    and the pair (J^-1, W) of the chord step, with J the regularized
    Jacobian and W the Omega-weighted images of the G_i in that basis. A
    new one starts the solve at lambda = 0.
    """

    __slots__ = ("x", "dual", "basis", "chord")

    def __init__(self):
        self.x = self.basis = self.chord = None
        self.dual = np.zeros(_N)


def project_physical(chi, warm=None):
    """The PSD and trace-preserving chi nearest to the Hermitian part X of chi.

    Solves min ||Y - X||_F subject to Y >= 0 and tp_matrix(Y) = I through
    its dual (Malick, SIAM J. Matrix Anal. Appl. 26, 272 (2004)). For the
    nine coordinates lambda of the TP multiplier, Y(lambda) = P_psd(X +
    sum_i lambda_i G_i), and the TP residual F(lambda) = <G_i, Y> - <E_i, I>
    is the gradient of the dual objective ||Y||^2 / 2 - <E, I>.lambda.
    Semismooth Newton steps drive F to zero (Qi and Sun, SIAM J. Matrix
    Anal. Appl. 28, 360 (2006)). The generalized Jacobian <U^dagger G_i U,
    Omega o U^dagger G_j U>, with Omega the divided differences of
    max(w, 0), comes from the same eigendecomposition Z = U diag(w)
    U^dagger: Omega is 1 between positive eigenvalues, w_a / (w_a - w_b)
    between a positive w_a and a nonpositive w_b, and 0 between
    nonpositive ones, so only the rows of the positive eigenvalues enter.
    The system is regularized by min(1, |F|) / 100 times I, so that a Z
    with no positive eigenvalue still gives a step, and an Armijo search
    on the dual objective globalizes it. Y is PSD by construction and TP
    to ``PROJECTION_TOL``.

    ``warm`` is an optional ``ProjectionWarmStart``, a new one if omitted:
    its zero multiplier and empty chord are the cold start. From a stored
    linearization, the solve predicts its multiplier to first order before
    any eigendecomposition: one chord step lambda0 - J^-1 <G_i, DP[X - X0]>,
    with the derivative DP of the PSD projection and J taken from that
    linearization: <G_i, DP[H]> is W applied to U_P^dagger H U. Each Newton
    step inverts its 9x9 J once, for its own step and for that chord. Once
    converged, it stores X, its multiplier and its last linearization back,
    so that the chi fit's FISTA steps warm-start each projection from the
    last: about 1.7 eigendecompositions per projection.
    """
    x = np.asarray(chi, dtype=complex)
    x = (x + x.conj().T) / 2  # once: eigh reads only one triangle
    warm = warm or ProjectionWarmStart()
    lam = trial = warm.dual
    linearization = None  # this solve's last (basis, chord)
    if warm.chord is not None:
        back, u = warm.basis
        inverse, weighted = warm.chord
        lam = trial = lam - inverse @ (weighted @ (back @ (x - warm.x) @ u).view(float).ravel())
    accepted = None  # the dual objective at lam, once a Newton step needs it
    for _ in range(PROJECTION_MAX_ITER):
        w, u = np.linalg.eigh(x + (trial @ _TP_ROWS).view(complex).reshape(_N, _N))
        pos = np.maximum(w, 0.0)
        if accepted is not None:
            theta = 0.5 * (pos @ pos) - _TP_TARGET @ trial
            if theta > (
                accepted + _ARMIJO_FRACTION * t * slope + _ARMIJO_SLACK * max(1.0, abs(accepted))
            ):
                t /= 2
                trial = lam + t * d
                continue
            accepted = theta
        lam = trial
        y = (u * pos) @ u.conj().T
        f = _TP_ROWS @ y.view(float).ravel() - _TP_TARGET
        if np.abs(f).max() < PROJECTION_TOL:
            warm.x, warm.dual = x, lam
            if linearization is not None:
                warm.basis, warm.chord = linearization
            return y
        if accepted is None:
            accepted = 0.5 * (pos @ pos) - _TP_TARGET @ lam
        # eigh sorts w ascending: the k nonpositive eigenvalues come first.
        # Over the positive rows a, Omega o (U^dagger G_i U) weighs column b
        # by 1 if w_b > 0 and by w_a / (w_a - w_b) if not; the mirrored
        # block of a nonpositive row adds as much to each real inner
        # product, so those columns take twice that weight.
        k = int(np.searchsorted(w, 0.0, side="right"))
        back = u[:, k:].conj().T
        images = (back @ _TP_ADJOINT_ROW).reshape(-1, _N) @ u
        images = images.reshape(_N - k, _N, _N).transpose(1, 0, 2).reshape(_N, -1)
        weighted = images.copy()
        weighted.reshape(_N, _N - k, _N)[:, :, :k] *= 2 * w[k:, None] / (w[k:, None] - w[:k])
        weighted = weighted.view(float)
        jac = weighted @ images.view(float).T
        jac.flat[:: _N + 1] += _NEWTON_REGULARIZATION * min(1.0, math.sqrt(f @ f))
        inverse = np.linalg.inv(jac)
        d = -(inverse @ f)
        linearization = (back, u), (inverse, weighted)
        slope, t = f @ d, 1.0
        trial = lam + d
    raise SolverError("chi projection did not converge")


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
    density matrix). Minimizes the summed Frobenius misfit by accelerated
    projected gradient descent (FISTA) on chi.view(float), with
    ``project_physical`` onto PSD intersect TP as the projection step.
    One ``ProjectionWarmStart`` is passed to every projection, so each
    predicts its TP multiplier from the last one's linearization: about
    1.7 eigendecompositions per step, 453 for the 264 steps of the
    published fit, and one 9x9 inverse per Newton step. The fit stops at
    the first step whose largest entrywise size, weighted as the isometric
    Hermitian coordinates weigh it, is below ``FIT_TOL``. The first step
    starts where the momentum is zero, so it is the fixed-point residual of
    the projected gradient map at the start. Returns a ProcessFit
    with the Hermitian part of the final iterate and its residual. FISTA
    starts from the projected unconstrained least-squares chi, the fit
    that ``linear_process_fit`` makes after its linear inversion.
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

    # the projection's warm start, carried from each call to the next
    warm = ProjectionWarmStart()

    def proj(v):
        return project_physical(v.view(complex).reshape(_N, _N), warm).view(float).ravel()

    # FISTA from the projected unconstrained fit
    x = project_physical(_least_squares(pinv, b), warm).view(float).ravel()
    z, t_mom = x.copy(), 1.0
    for n_iterations in range(1, FIT_MAX_ITER + 1):
        x_new = proj(z - step * (gram @ z - atb))
        moved = x_new - x
        x = x_new
        if np.abs(_STEP_WEIGHT * moved).max() < FIT_TOL:
            break
        t_new = (1 + math.sqrt(1 + 4 * t_mom * t_mom)) / 2
        z = x + ((t_mom - 1) / t_new) * moved
        t_mom = t_new
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
    "ProjectionWarmStart",
    "check_process_matrix",
    "chi_from_orthonormal",
]
