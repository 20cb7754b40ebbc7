"""Least-squares fit of the finite-section operator matrix.

The fitted matrix is the minimal-Frobenius-norm minimizer of
``||shifted - B @ current||``.  The fit folds the K x (2d + h) matrix
``[current; shifted; outputs]^T`` block by block into its triangular QR
factor ``R`` (TSQR), so its memory grows with the block size and d, not
with K.  With ``Rc``, ``Rs``, ``Ro`` the column blocks of ``R``, the
orthonormal factor drops out of every quantity: ``current`` and ``Rc`` share
their singular values (hence the rank and the condition number),
``B = (pinv(Rc) @ Rs)^T``, the decode map is ``(pinv(Rc) @ Ro)^T`` and the
misfit's row norms are the column norms of ``Rs - Rc @ B^T``.  The
pseudoinverse is SVD-based with a relative singular-value cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dictionary import LiftedPair
from .errors import ShapeMismatchError

DEFAULT_SVD_TOL = 1e-10

# Bytes of lifted data folded into the triangular factor at a time: 390
# snapshot pairs at d=83, h=2, and never fewer than 2d + h.
FIT_BLOCK_BYTES = 512 * 1024


@dataclass(frozen=True)
class KoopmanMatrix:
    """Fitted operator matrix with fit diagnostics; ``decode`` maps lifted
    vectors to outputs when the fit was given them.

    ``row_residuals`` holds the per-row relative misfit
    ``||misfit_row|| / max(1, ||shifted_row||)``: rows with an exact linear
    closure report ~0, rows whose one-step evolution leaves the
    dictionary's linear span report strictly positive values.

    ``factor`` is the triangular factor ``R`` the fit folded the data into,
    of shape (min(K, 2d + h), 2d + h): columns ``[:d]`` are ``Rc``,
    ``[d:2d]`` ``Rs`` and the rest ``Ro``.  It stands in for the lifted
    data wherever only inner products of its rows are needed; it is None
    for a matrix that was not fitted from data.
    """

    matrix: np.ndarray
    fit_residual: float
    rank_used: int
    svd_tolerance: float
    condition_number: float
    row_residuals: np.ndarray
    decode: np.ndarray | None = None
    factor: np.ndarray | None = None

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


def _relative_misfit(misfit: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Per-column ``||misfit_col|| / max(1, ||target_col||)``: in ``R``
    space, the columns are the rows of the data."""
    return (np.linalg.norm(misfit, axis=0)
            / np.maximum(1.0, np.linalg.norm(target, axis=0)))


def _fold(blocks) -> np.ndarray:
    """Triangular factor of ``concatenate(blocks).T``, folded from row
    blocks of about FIT_BLOCK_BYTES so no array spans the data length."""
    width = sum(len(b) for b in blocks)
    step = max(width, FIT_BLOCK_BYTES // (8 * width))
    r = np.empty((0, width))
    for start in range(0, blocks[0].shape[1], step):
        block = np.concatenate([b[:, start:start + step] for b in blocks]).T
        r = np.linalg.qr(np.concatenate([r, block]), mode="r")
    return r


def fit_koopman_matrix(lifted: LiftedPair, tol: float = DEFAULT_SVD_TOL,
                       outputs: np.ndarray | None = None) -> KoopmanMatrix:
    """Fit ``matrix = shifted @ pinv(current)`` and report the residual;
    given (h, K) ``outputs``, the same pseudoinverse gives the decode map
    ``outputs @ pinv(current)``.  Everything comes from the triangular
    factor of the stacked data (see the module docstring)."""
    blocks = [lifted.current, lifted.shifted]
    if outputs is not None:
        outputs = np.atleast_2d(np.asarray(outputs, dtype=float))
        if outputs.shape[1] != lifted.n_columns:
            raise ShapeMismatchError(
                f"outputs have {outputs.shape[1]} columns, lifted data has "
                f"{lifted.n_columns}"
            )
        blocks.append(outputs)
    d = lifted.n_observables
    factor = _fold(blocks)
    rc, rs, ro = factor[:, :d], factor[:, d:2 * d], factor[:, 2 * d:]
    pinv, rank, cond = _svd_pseudoinverse(rc, tol)
    coefficients = pinv @ rs  # matrix.T
    misfit = rs - rc @ coefficients
    return KoopmanMatrix(
        matrix=coefficients.T,
        fit_residual=float(np.linalg.norm(misfit)),
        rank_used=rank,
        svd_tolerance=float(tol),
        condition_number=cond,
        row_residuals=_relative_misfit(misfit, rs),
        decode=None if outputs is None else (pinv @ ro).T,
        factor=factor,
    )
