"""Least-squares fit of the finite-section operator matrix.

The fitted matrix is the minimal-Frobenius-norm minimizer of
``||shifted - B @ current||`` over the lifted snapshot pairs.  The fit takes
them as segments, one per trajectory, and folds each segment's columns, as
rows ``[current; shifted; outputs]^T`` of 2d + h entries, into their
triangular QR factor ``R`` block by block (TSQR), so its memory grows with
the block size, d and the largest segment, not with the number of pairs K.
With ``Rc``, ``Rs``, ``Ro`` the column blocks of ``R``, the orthonormal
factor drops out of every quantity: ``current`` and ``Rc`` share their
singular values (hence the rank and the condition number),
``B = (pinv(Rc) @ Rs)^T``, the decode map is ``(pinv(Rc) @ Ro)^T`` and the
misfit's row norms are the column norms of ``Rs - Rc @ B^T``.  The
pseudoinverse is SVD-based with a relative singular-value cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError

DEFAULT_SVD_TOL = 1e-10

# Bytes of lifted data folded into the triangular factor at a time: 390
# snapshot pairs at d=83, h=2, and never fewer than 2d + h.
FIT_BLOCK_BYTES = 512 * 1024


@dataclass(frozen=True)
class KoopmanMatrix:
    """Fitted operator matrix with fit diagnostics; ``decode`` maps lifted
    vectors to outputs when the fit was given them.

    ``initial_lifts`` holds each segment's first ``current`` column, (d, M),
    and ``n_pairs`` the K snapshot pairs fitted (None and 0 for a matrix
    that was not fitted from data).

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
    initial_lifts: np.ndarray | None = None
    n_pairs: int = 0

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


def _segment_arrays(index: int, segment, heights) -> list[np.ndarray]:
    """The arrays of one segment, checked against the first segment's
    row counts ``heights`` (None for the first segment itself)."""
    arrays = [np.asarray(a) for a in segment]
    if (len(arrays) not in (2, 3) or any(a.ndim != 2 for a in arrays)
            or len({a.shape[1] for a in arrays}) != 1 or 0 in arrays[0].shape
            or arrays[0].shape[0] != arrays[1].shape[0]
            or heights is not None and heights != [len(a) for a in arrays]):
        raise ShapeMismatchError(
            f"segment {index}: expected (current, shifted[, outputs]) 2-D "
            f"arrays with one non-zero column count, current and shifted "
            f"of one non-zero height, all as in segment 0, got shapes "
            f"{[np.shape(a) for a in arrays]}")
    return arrays


def _fold(segments):
    """Triangular factor of the segments' columns stacked as rows, folded
    from row blocks of about FIT_BLOCK_BYTES so no array spans the data
    length; with the row counts of a segment's arrays, each segment's
    first current column and the number of columns."""
    heights = r = buffer = None
    fill = n_pairs = 0
    initial = []
    for index, segment in enumerate(segments):
        arrays = _segment_arrays(index, segment, heights)
        if heights is None:
            heights = [len(a) for a in arrays]
            width = sum(heights)
            step = max(width, FIT_BLOCK_BYTES // (8 * width))
            r, buffer = np.empty((0, width)), np.empty((step, width))
        initial.append(arrays[0][:, 0].copy())  # a view would pin the lift
        n = arrays[0].shape[1]
        n_pairs += n
        done = 0
        while done < n:
            take = min(n - done, step - fill)
            buffer[fill:fill + take] = np.concatenate(
                [a[:, done:done + take] for a in arrays]).T
            fill += take
            done += take
            if fill == step:
                r = np.linalg.qr(np.concatenate([r, buffer]), mode="r")
                fill = 0
    if heights is None:
        raise ShapeMismatchError("the fit needs at least one segment")
    if fill:
        r = np.linalg.qr(np.concatenate([r, buffer[:fill]]), mode="r")
    return r, heights, np.stack(initial, axis=1), n_pairs


def fit_koopman_matrix(segments, tol: float = DEFAULT_SVD_TOL
                       ) -> KoopmanMatrix:
    """Fit ``matrix = shifted @ pinv(current)`` over an iterable of segments
    ``(current, shifted)`` or ``(current, shifted, outputs)`` (d, d and h
    rows, each segment's columns in time order) and report the residual;
    segments with (h, n_i) outputs give the decode map
    ``outputs @ pinv(current)`` from the same pseudoinverse.  Everything
    comes from the triangular factor of the stacked data (see the module
    docstring)."""
    factor, heights, initial_lifts, n_pairs = _fold(segments)
    d = heights[0]
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
        decode=(pinv @ ro).T if len(heights) == 3 else None,
        factor=factor,
        initial_lifts=initial_lifts,
        n_pairs=n_pairs,
    )
