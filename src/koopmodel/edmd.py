"""Least-squares fit of the finite-section operator matrix.

The fitted matrix is the minimal-Frobenius-norm minimizer of
``||shifted - B @ current||`` over the lifted snapshot pairs.  The fit takes
them as segments, one or more per trajectory, and folds each segment's
columns, as rows ``[current; shifted; outputs]^T`` of 2d + h entries, into
their triangular QR factor ``R`` block by block (TSQR), so its memory grows
with the block size, d and the largest segment, not with the number of
pairs K.
With ``Rc``, ``Rs``, ``Ro`` the column blocks of ``R``, the orthonormal
factor drops out of every quantity: ``current`` and ``Rc`` share their
singular values (hence the rank and the condition number),
``B = (pinv(Rc) @ Rs)^T``, the decode map is ``(pinv(Rc) @ Ro)^T`` and the
misfit's row norms are the column norms of ``Rs - Rc @ B^T``.  The
pseudoinverse is SVD-based with a relative singular-value cutoff.

Before a row is factored, every entry below ``FLUSH_RATIO`` (2^-500)
times the largest magnitude examined so far, the row's own block included,
is set to zero.  High-degree monomials of a decaying trajectory fall that
far, many to subnormal numbers, and LAPACK's products of such numbers take
a slow path on x86.  Householder QR already makes a backward error of
about 2^-52 times the data's norm, so the flushed entries, below 2^-500 of
it, are about 10^-135 of that error and move no output.  The threshold is
relative, so data in any units are treated alike.

After the first QR, a pair that is negligible in every column is not
folded at all.  Householder QR is columnwise backward stable (Higham 2002,
*Accuracy and Stability of Numerical Algorithms*, Thm 19.4): the factor
is exact for data whose column j is off by up to about ``m n 2^-53`` times
its norm.  The pairs left out keep, in every column j, a sum of squares of
at most ``SKIP_RATIO^2 ||R[:, j]||^2`` with ``SKIP_RATIO`` = 2^-53, so they
stay within that error and weaken no bound of the fit.  Once a stable
map's trajectory settles, its later pairs are that small.  Each time the
block fills, the rows not yet examined share the room left in each column,
``max(0, SKIP_RATIO^2 ||R[:, j]||^2 - skipped_j)`` with ``skipped_j`` the
squares left out so far, equally; a row whose every entry lies within its
share is dropped, and the rows kept wait in the block.  The QR runs once
the block is full of examined rows, and the last, partial, block is folded
whole.  So the flush and the sift act only when the block fills or the
data end: what reaches the QR depends on the sequence of pairs and the
block size, never on where segments split, and every row is still checked
for NaN and infinity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError

DEFAULT_SVD_TOL = 1e-10
# A row whose ``row_residuals`` entry is below this is linearly closed.
DEFAULT_CLOSURE_TOL = 1e-6

# Bytes of lifted data folded into the triangular factor at a time: 387
# snapshot pairs at d=83 with the benchmark's h=3, and never fewer than
# 2d + h.
FIT_BLOCK_BYTES = 512 * 1024

# Entries below this times the largest magnitude examined so far are zeroed
# before they are factored (see the module docstring).
FLUSH_RATIO = 2.0 ** -500

# After the first QR, a snapshot pair is left out of the fold while, in
# every column, the pairs left out stay within this times the column's norm
# in the factor: below the QR's own backward error (see the module
# docstring).
SKIP_RATIO = 2.0 ** -53


class Continued(tuple):
    """A segment that continues the previous segment's trajectory: the fit
    takes no initial lift from it."""


@dataclass(frozen=True)
class KoopmanMatrix:
    """Fitted operator matrix with fit diagnostics; ``decode`` maps lifted
    vectors to outputs when the fit was given them.

    ``initial_lifts`` holds each trajectory's first ``current`` column,
    (d, M), taken from every segment that is not :class:`Continued`, and
    ``n_pairs`` the K snapshot pairs fitted, those the fold left out below
    round-off included (None and 0 for a matrix that was not fitted from
    data).

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


def _sift(block, scale: float, tiny, limit=None, skipped=None):
    """Zero the entries of the rows of ``block`` below ``FLUSH_RATIO``
    times the largest magnitude of ``scale`` and the block.  With
    ``limit``, first drop each row whose entries all lie within
    ``±limit``, adding its squares to ``skipped``, and move the rows kept
    up, in order, to the top of the block.  Return the largest magnitude
    and the number of rows kept.  ``tiny`` is boolean scratch of two
    planes, used on as many rows of the block at a time as it has.
    ShapeMismatchError if the block holds a NaN or an infinity."""
    high, low = block.max(), block.min()
    if not (np.isfinite(high) and np.isfinite(low)):
        raise ShapeMismatchError("fit data must be finite")
    scale = max(scale, high, -low)
    cut = scale * FLUSH_RATIO
    kept = 0
    for start in range(0, len(block), tiny.shape[1]):
        rows = block[start:start + tiny.shape[1]]
        below, above = tiny[:, :len(rows)]
        if limit is not None:
            # Only a row whose first entry lies within the limit can go.
            if np.abs(rows[:, 0]).min() <= limit[0]:
                np.less_equal(rows, limit, out=below)
                np.greater_equal(rows, -limit, out=above)
                np.logical_and(below, above, out=below)
                drop = below.all(axis=1)
                if drop.any():
                    gone = rows[drop]
                    skipped += np.einsum("ij,ij->j", gone, gone)
                    rows = rows[~drop]
            if kept < start or len(rows) < len(below):
                block[kept:kept + len(rows)] = rows
                rows = block[kept:kept + len(rows)]
                below, above = tiny[:, :len(rows)]
        np.less(rows, cut, out=below)
        np.greater(rows, -cut, out=above)
        np.logical_and(below, above, out=below)
        if below.any():
            np.putmask(rows, below, 0.0)
        kept += len(rows)
    return scale, kept


def _fold(segments):
    """Triangular factor of the segments' columns stacked as rows, folded
    from row blocks of about FIT_BLOCK_BYTES so no array spans the data
    length; with the row counts of a segment's arrays, the first current
    column of each segment that is not :class:`Continued` and the number
    of columns.

    One buffer holds the factor so far in its top ``top`` rows and the
    next block below them; each segment's arrays are written straight
    into their column ranges of the block.  The first block is flushed
    (:func:`_sift` without a limit) and factored whole.  After it, each
    time the block fills, its rows from ``examined`` on are sifted with
    an equal share of each column's room ``budget - skipped``, and the
    block is factored once no row was dropped; the last, partial, block
    is flushed and factored whole."""
    heights = r = buffer = tiny = skipped = budget = None
    top = fill = examined = n_pairs = 0
    scale = 0.0
    initial = []
    for index, segment in enumerate(segments):
        arrays = _segment_arrays(index, segment, heights)
        if heights is None:
            heights = [len(a) for a in arrays]
            width = sum(heights)
            step = max(width, FIT_BLOCK_BYTES // (8 * width))
            buffer = np.empty((width + step, width))
            # Scratch planes of 16,384 entries: planes as large as a block
            # raised the peak RSS of `koop reduce` on the benchmark's
            # `analysis` workload by 0.4-0.8 MB.
            tiny = np.empty((2, max(1, 16384 // width), width), dtype=bool)
            columns = np.cumsum([0] + heights)
            skipped = np.zeros(width)
        if not isinstance(segment, Continued):
            initial.append(arrays[0][:, 0].copy())  # a view would pin the lift
        n = arrays[0].shape[1]
        n_pairs += n
        done = 0
        while done < n:
            take = min(n - done, step - fill)
            rows = buffer[top + fill:top + fill + take]
            for a, lo, hi in zip(arrays, columns, columns[1:]):
                rows[:, lo:hi] = a[:, done:done + take].T
            fill += take
            done += take
            if fill < step:
                continue
            block = buffer[top + examined:top + fill]
            if r is None:
                scale = _sift(block, scale, tiny)[0]
            else:
                limit = np.sqrt(np.maximum(budget - skipped, 0.0) / len(block))
                scale, kept = _sift(block, scale, tiny, limit, skipped)
                fill = examined = examined + kept
            if fill == step:
                r = np.linalg.qr(buffer[:top + fill], mode="r")
                top, fill, examined = len(r), 0, 0
                buffer[:top] = r
                budget = SKIP_RATIO ** 2 * np.einsum("ij,ij->j", r, r)
    if heights is None:
        raise ShapeMismatchError("the fit needs at least one segment")
    if fill > examined:
        _sift(buffer[top + examined:top + fill], scale, tiny)
    if fill:
        r = np.linalg.qr(buffer[:top + fill], mode="r")
    return r, heights, np.stack(initial, axis=1), n_pairs


def fit_koopman_matrix(segments, tol: float = DEFAULT_SVD_TOL
                       ) -> KoopmanMatrix:
    """Fit ``matrix = shifted @ pinv(current)`` over an iterable of segments
    ``(current, shifted)`` or ``(current, shifted, outputs)`` (d, d and h
    rows, each segment's columns in time order, a :class:`Continued` one
    after the columns of the segment before it) and report the residual;
    segments with (h, n_i) outputs give the decode map
    ``outputs @ pinv(current)`` from the same pseudoinverse.  Everything
    comes from the triangular factor of the stacked data (see the module
    docstring).  ShapeMismatchError if a value is a NaN or an infinity."""
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
