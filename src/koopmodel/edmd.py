"""Least-squares fit of the finite-section operator matrix.

The fitted matrix is the minimal-Frobenius-norm minimizer of
``||shifted - B @ current||``, obtained through an SVD-based Moore-Penrose
pseudoinverse with a relative singular-value cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dictionary import LiftedPair
from .errors import ShapeMismatchError

DEFAULT_SVD_TOL = 1e-10


@dataclass(frozen=True)
class KoopmanMatrix:
    """Fitted operator matrix with fit diagnostics; ``decode`` maps lifted
    vectors to outputs when the fit was given them.

    ``row_residuals`` holds the per-row relative misfit
    ``||misfit_row|| / max(1, ||shifted_row||)``: rows with an exact linear
    closure report ~0, rows whose one-step evolution leaves the
    dictionary's linear span report strictly positive values.
    """

    matrix: np.ndarray
    fit_residual: float
    rank_used: int
    svd_tolerance: float
    condition_number: float
    row_residuals: np.ndarray
    decode: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _svd_pseudoinverse(matrix: np.ndarray, tol: float):
    """Pseudoinverse plus the retained rank and condition number."""
    matrix = np.asarray(matrix)
    if not np.iscomplexobj(matrix):
        matrix = matrix.astype(float)
    if matrix.ndim != 2 or matrix.size == 0:
        raise ShapeMismatchError("pseudoinverse needs a non-empty 2-D matrix")
    if not np.all(np.isfinite(matrix)):
        raise ShapeMismatchError("pseudoinverse input must be finite")
    if tol < 0:
        raise ShapeMismatchError("singular-value cutoff must be >= 0")
    u, sigma, vt = np.linalg.svd(matrix, full_matrices=False)
    if sigma[0] == 0.0:
        return np.zeros((matrix.shape[1], matrix.shape[0]), dtype=matrix.dtype), 0, 0.0
    keep = sigma > tol * sigma[0]
    rank = int(np.count_nonzero(keep))
    inv_sigma = np.zeros_like(sigma)
    inv_sigma[keep] = 1.0 / sigma[keep]
    pinv = (vt.conj().T * inv_sigma) @ u.conj().T
    cond = sigma[0] / sigma[keep][-1] if rank else 0.0
    return pinv, rank, float(cond)


def pseudoinverse(matrix: np.ndarray, tol: float = DEFAULT_SVD_TOL) -> np.ndarray:
    """Moore-Penrose inverse with singular values below ``tol * sigma_max``
    treated as zero."""
    pinv, _, _ = _svd_pseudoinverse(matrix, tol)
    return pinv


def _row_residuals(misfit: np.ndarray, shifted: np.ndarray) -> np.ndarray:
    """Per-row ``||misfit_row|| / max(1, ||shifted_row||)``."""
    return (np.linalg.norm(misfit, axis=1)
            / np.maximum(1.0, np.linalg.norm(shifted, axis=1)))


def fit_koopman_matrix(lifted: LiftedPair, tol: float = DEFAULT_SVD_TOL,
                       outputs: np.ndarray | None = None) -> KoopmanMatrix:
    """Fit ``matrix = shifted @ pinv(current)`` and report the residual;
    given (h, K) ``outputs``, the same pseudoinverse gives the decode map
    ``outputs @ pinv(current)``."""
    if outputs is not None:
        outputs = np.atleast_2d(np.asarray(outputs, dtype=float))
        if outputs.shape[1] != lifted.n_columns:
            raise ShapeMismatchError(
                f"outputs have {outputs.shape[1]} columns, lifted data has "
                f"{lifted.n_columns}"
            )
    pinv, rank, cond = _svd_pseudoinverse(lifted.current, tol)
    matrix = lifted.shifted @ pinv
    misfit = lifted.shifted - matrix @ lifted.current
    return KoopmanMatrix(
        matrix=matrix,
        fit_residual=float(np.linalg.norm(misfit)),
        rank_used=rank,
        svd_tolerance=float(tol),
        condition_number=cond,
        row_residuals=_row_residuals(misfit, lifted.shifted),
        decode=None if outputs is None else outputs @ pinv,
    )

