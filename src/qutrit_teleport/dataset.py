"""Bundled reference data and matrix (de)serialization.

The fixtures directory carries the ten published teleported-state
density matrices (rho1 .. rho10, rounded to three decimals) and the
published 9x9 process matrix. Loading applies the standard invariant
repairs (symmetrize, clip, renormalize / project) and logs every
adjustment; repairs beyond ``REPAIR_CAP`` raise DataQualityError.

The published process matrix is stated in the orthonormal operator basis
{I/sqrt3, lambda_a/sqrt2} and normalized to unit trace (Choi-state
form); ``repair_and_log_process`` detects that convention, for it as
for any 9x9 file, and converts it to this package's (sigma_0 = I, trace
preservation sum chi_lk s_k s_l = I).
"""

from __future__ import annotations

import json
import math
from importlib import resources

import numpy as np

from . import protocol, tomography
from .errors import DataQualityError, ParseError

REPAIR_CAP = 0.05

# Published fidelity list for the teleported states. Eleven values are
# listed for ten states; recomputation from the printed matrices matches
# positions 1-8 at index parity and the last two values, leaving the
# ninth listed value (0.643) unattached. The reconciled positions map
# state i (1-based) to its slot in the list.
LISTED_STATE_FIDELITIES = (
    0.745, 0.715, 0.708, 0.724, 0.693, 0.661, 0.626, 0.668, 0.643, 0.665, 0.647,
)
STATE_FIDELITY_POSITIONS = {i: i - 1 for i in range(1, 9)} | {9: 9, 10: 10}
LISTED_STATE_FIDELITY_MEAN = 0.685

LISTED_MUB_FIDELITIES = (
    0.740, 0.689, 0.713, 0.634, 0.728, 0.687, 0.674, 0.664, 0.751, 0.668, 0.764, 0.648,
)
LISTED_MUB_MEAN = 0.697
LISTED_PROCESS_FIDELITY = 0.596
# Uncertainty the abstract states with it: F = 0.596 +/- 0.037.
LISTED_PROCESS_FIDELITY_ERR = 0.037

# Published batch-certification summary over the 20x20 phase grid.
LISTED_N_SIMULABLE = 149
LISTED_N_GENUINE = 251
LISTED_MEAN_MU = 0.111
LISTED_STD_MU = 0.034


def matrix_to_json(mat):
    mat = np.asarray(mat, dtype=complex)
    return {
        "dim": mat.shape[0],
        "entries": [[[float(v.real), float(v.imag)] for v in row] for row in mat],
    }


def save_matrix(mat, path):
    with open(path, "w") as f:
        json.dump(matrix_to_json(mat), f, indent=1)


def _is_finite_number(v):
    """A JSON number: not a bool, and not NaN or Infinity, which json.load accepts."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def parse_matrix(doc, source="<memory>"):
    """Validate the {"dim", "entries"} schema and return a complex array."""
    if not isinstance(doc, dict):
        raise ParseError(f"{source}: top level must be an object")
    for key in ("dim", "entries"):
        if key not in doc:
            raise ParseError(f"{source}: missing field {key!r}")
    dim = doc["dim"]
    entries = doc["entries"]
    if not isinstance(dim, int) or dim < 1:
        raise ParseError(f"{source}: field 'dim' must be a positive integer")
    if not isinstance(entries, list) or len(entries) != dim:
        raise ParseError(f"{source}: 'entries' must have {dim} rows")
    mat = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != dim:
            raise ParseError(f"{source}: row {i} must have {dim} entries")
        for j, cell in enumerate(row):
            if (
                not isinstance(cell, list)
                or len(cell) != 2
                or not all(_is_finite_number(v) for v in cell)
            ):
                raise ParseError(f"{source}: entry ({i},{j}) must be [re, im] of finite numbers")
            mat[i, j] = complex(cell[0], cell[1])
    return mat


def load_matrix(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from None
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text: {e.reason} at byte {e.start}") from None
    except RecursionError:
        raise ParseError(f"{path}: invalid JSON: nested too deeply") from None
    except OSError as e:
        raise ParseError(f"{path}: cannot read file: {e.strerror}") from None
    return parse_matrix(doc, source=str(path))


def _check_repair(kind, sizes):
    """DataQualityError if the largest repair size exceeds ``REPAIR_CAP`` or is NaN."""
    worst = float(np.max(sizes))
    if not worst <= REPAIR_CAP:
        raise DataQualityError(f"{kind}-matrix repair {worst:.3g} exceeds the cap {REPAIR_CAP}")


# Ingested entries can be finite but so large or so small that the repair
# overflows, underflows or meets a non-finite value on the way: numpy's
# warnings are silenced, and such a matrix fails the cap or its eigensolver.
def repair_and_log_density(mat):
    try:
        with np.errstate(all="ignore"):
            rho, log = tomography.repair_density_matrix(mat)
    except np.linalg.LinAlgError as e:
        raise DataQualityError(f"density-matrix repair failed: {e}") from None
    _check_repair("density", list(log.values()))
    return rho, log


def repair_and_log_process(mat):
    """Repair a 9x9 process matrix; returns (chi, adjustment log).

    The convention is detected: of this package's basis and the published
    one (orthonormal basis, unit trace), the reading whose
    trace-preservation residual is smaller wins -- a matrix stated in the
    operator basis already has sum chi_lk s_k s_l close to I, while a
    Choi-normalized one reaches that only after conversion.
    """
    mat = np.asarray(mat, dtype=complex)
    with np.errstate(all="ignore"):
        readings = (mat, tomography.chi_from_orthonormal(mat))
        resids = [float(np.abs(tomography.tp_matrix(m) - np.eye(3)).max()) for m in readings]
        choi_normalized = resids[1] < resids[0]
        chi, tp_resid = readings[choi_normalized], resids[choi_normalized]
        herm = float(np.abs(chi - chi.conj().T).max())
        try:
            eigs = np.linalg.eigvalsh((chi + chi.conj().T) / 2)
        except np.linalg.LinAlgError as e:
            raise DataQualityError(f"process-matrix repair failed: {e}") from None
    clip = float(max(0.0, -eigs.min()))
    log = {
        "converted_from_choi_normalized": choi_normalized,
        "hermiticity_residual": herm,
        "eigenvalue_clip": clip,
        "tp_residual": tp_resid,
    }
    _check_repair("process", [herm, clip, tp_resid])
    return tomography.project_physical(chi), log


def repair_matrix(mat, source):
    """Repair a matrix read from ``source``, by its size; returns (matrix, kind, log).

    3x3 matrices are treated as density matrices, 9x9 as process
    matrices; anything else is rejected.
    """
    if mat.shape == (3, 3):
        rho, log = repair_and_log_density(mat)
        return rho, "density", log
    if mat.shape == (9, 9):
        chi, log = repair_and_log_process(mat)
        return chi, "process", log
    raise ParseError(f"{source}: unsupported dimension {mat.shape[0]}")


def _fixture(name):
    ref = resources.files("qutrit_teleport") / "fixtures" / name
    with resources.as_file(ref) as path:
        return load_matrix(path)


def reference_rho_raw(i):
    """Printed density matrix rho_i (1-based), exactly as published."""
    if not 1 <= i <= 10:
        raise ValueError("reference states are numbered 1..10")
    return _fixture(f"rho{i}.json")


def reference_rho(i):
    """Printed rho_i after the standard repairs, with the adjustment log."""
    return repair_and_log_density(reference_rho_raw(i))


def reference_chi_raw():
    """The published 9x9 process matrix, exactly as printed."""
    return _fixture("chi.json")


def reference_chi():
    """Published chi converted to this package's basis and made physical."""
    return repair_and_log_process(reference_chi_raw())


def reference_targets():
    """Ideal target states for rho_1 .. rho_10 (the benchmark inputs)."""
    return protocol.benchmark_input_states()


__all__ = [
    "REPAIR_CAP",
    "LISTED_STATE_FIDELITIES",
    "STATE_FIDELITY_POSITIONS",
    "LISTED_STATE_FIDELITY_MEAN",
    "LISTED_MUB_FIDELITIES",
    "LISTED_MUB_MEAN",
    "LISTED_PROCESS_FIDELITY",
    "LISTED_PROCESS_FIDELITY_ERR",
    "LISTED_N_SIMULABLE",
    "LISTED_N_GENUINE",
    "LISTED_MEAN_MU",
    "LISTED_STD_MU",
    "matrix_to_json",
    "save_matrix",
    "parse_matrix",
    "load_matrix",
    "repair_and_log_density",
    "repair_and_log_process",
    "repair_matrix",
    "reference_rho_raw",
    "reference_rho",
    "reference_chi_raw",
    "reference_chi",
    "reference_targets",
]
