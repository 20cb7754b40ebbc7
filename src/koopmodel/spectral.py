"""Spectral decomposition of the fitted operator and the reduced model.

The eigensystem carries biorthogonally normalized left and right
eigenvectors. Combining it with the fit yields the compact model:
eigenvalues, eigenfunction values at each initial condition (from the lift
of each trajectory's first snapshot, which the fit keeps), and the mode
vectors that project outputs onto each eigendirection. Prediction is the
geometric sum ``sum_j lambda_j^k phi_j(x0) v_j``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .edmd import KoopmanMatrix, _svd_pseudoinverse
from .errors import (
    DefectiveMatrixError,
    EigenfunctionRankError,
    InputError,
    ShapeMismatchError,
    SpectralOverflowError,
)

# A right-eigenvector matrix short of full rank at relative cutoff 1 / this
# counts as numerically defective (Jordan structure is out of scope).
DEFECTIVE_CONDITION_LIMIT = 1e12

REAL_REPORT_TOL = 1e-8

# Bytes of the complex weight block (steps x N) per chunk of prediction
# steps: 197 steps at N=83. It also sets the split of each power, so that
# prediction's memory does not grow with the number of steps.
PREDICT_CHUNK_BYTES = 256 * 1024


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues with biorthogonally normalized left/right eigenvectors.

    Columns satisfy ``A v_j = lambda_j v_j`` and ``w_j* A = lambda_j w_j*``
    with ``w_i* v_j = delta_ij`` up to ``biorthogonality_error``.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    biorthogonality_error: float

    @property
    def n_eigenvalues(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class ModelMetadata:
    """Bookkeeping carried alongside the spectral data."""

    dict_hash: bytes = bytes(32)
    feature_names: tuple[str, ...] = ()
    output_names: tuple[str, ...] = ()
    trajectory_ids: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.dict_hash) != 32:
            raise InputError("dict_hash must be exactly 32 bytes")
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "output_names", tuple(self.output_names))
        object.__setattr__(self, "trajectory_ids", tuple(self.trajectory_ids))


@dataclass(frozen=True)
class SpectralTriple:
    """The serializable reduced model.

    ``eigenvalues`` (N), ``eigenfunction_values`` (M x N, one row per
    initial condition), and ``modes`` (h x N) make up the triple proper of
    (1 + M + h) x N complex entries; ``decode`` (h x d, real) maps lifted
    vectors to outputs.
    """

    eigenvalues: np.ndarray
    eigenfunction_values: np.ndarray
    modes: np.ndarray
    decode: np.ndarray
    metadata: ModelMetadata = field(default_factory=ModelMetadata)

    def __post_init__(self):
        eigenvalues = np.asarray(self.eigenvalues, dtype=complex).reshape(-1)
        phi = np.atleast_2d(np.asarray(self.eigenfunction_values, dtype=complex))
        modes = np.atleast_2d(np.asarray(self.modes, dtype=complex))
        decode = np.atleast_2d(np.asarray(self.decode, dtype=float))
        n = len(eigenvalues)
        if n < 1:
            raise ShapeMismatchError("a spectral triple needs >= 1 eigenvalue")
        if phi.shape[1] != n or modes.shape[1] != n:
            raise ShapeMismatchError(
                "eigenfunction table and modes must have one column per "
                "eigenvalue"
            )
        if decode.shape[0] != modes.shape[0]:
            raise ShapeMismatchError(
                "decode must have one row per output, matching the modes"
            )
        meta = self.metadata
        if meta.output_names and len(meta.output_names) != len(modes):
            raise ShapeMismatchError(
                f"metadata names {len(meta.output_names)} outputs, the model "
                f"has {len(modes)}")
        if meta.trajectory_ids and len(meta.trajectory_ids) != len(phi):
            raise ShapeMismatchError(
                f"metadata names {len(meta.trajectory_ids)} trajectories, the "
                f"model has {len(phi)} initial conditions")
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "eigenfunction_values", phi)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "decode", decode)

    @property
    def n_eigenvalues(self) -> int:
        return len(self.eigenvalues)

    @property
    def n_initial_conditions(self) -> int:
        return self.eigenfunction_values.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.modes.shape[0]

    @property
    def lifted_dim(self) -> int:
        return self.decode.shape[1]

    @property
    def payload_complex_entries(self) -> int:
        """Complex entries of the triple proper: (1 + M + h) * N."""
        return (1 + self.n_initial_conditions + self.n_outputs) \
            * self.n_eigenvalues


def _spectral_order(eigenvalues: np.ndarray) -> np.ndarray:
    """Descending |lambda|; ties by descending real then imaginary part."""
    return np.lexsort((-eigenvalues.imag, -eigenvalues.real,
                       -np.abs(eigenvalues)))


def eigendecompose(fitted: KoopmanMatrix | np.ndarray) -> EigenSystem:
    """Full eigensystem of the fitted matrix, biorthogonally normalized.

    Left vectors are the rows of V^-1, V the right-eigenvector matrix, so
    ``w_i* v_j = delta_ij`` holds by construction. One SVD of V gives V^-1
    and V's numerical rank; a V of rank < N is defective within tolerance
    and is rejected (generalized eigenvectors are out of scope).
    """
    matrix = fitted.matrix if isinstance(fitted, KoopmanMatrix) else np.asarray(fitted)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.size == 0:
        raise ShapeMismatchError("eigendecomposition needs a square matrix")
    if not np.all(np.isfinite(matrix)):
        raise ShapeMismatchError("eigendecomposition input must be finite")
    eigenvalues, right = np.linalg.eig(matrix)
    order = _spectral_order(eigenvalues)
    eigenvalues = eigenvalues[order]
    right = right[:, order]
    inverse, rank, _ = _svd_pseudoinverse(right, 1 / DEFECTIVE_CONDITION_LIMIT)
    if rank < len(eigenvalues):
        gaps = np.abs(eigenvalues[:, None] - eigenvalues[None, :])
        np.fill_diagonal(gaps, np.inf)
        i, j = np.unravel_index(np.argmin(gaps), gaps.shape)
        raise DefectiveMatrixError(
            f"matrix is not diagonalizable within tolerance (eigenvector "
            f"matrix has numerical rank {rank} < {len(right)} at relative "
            f"cutoff {1 / DEFECTIVE_CONDITION_LIMIT:.3g}); clustered "
            f"eigenvalue near {eigenvalues[i]:.6g}")
    left = inverse.conj().T
    bio_err = float(np.max(np.abs(left.conj().T @ right - np.eye(len(eigenvalues)))))
    return EigenSystem(
        eigenvalues=eigenvalues,
        right_vectors=right,
        left_vectors=left,
        biorthogonality_error=bio_err,
    )


def eigenfunction_values(es: EigenSystem,
                         initial_lifts: np.ndarray) -> np.ndarray:
    """Eigenfunction values ``phi_j(x) = w_j* g(x)`` at the initial
    conditions, given their (d, M) lifts: an (M, N) table, one row per
    trajectory."""
    if es.left_vectors.shape[0] != initial_lifts.shape[0]:
        raise ShapeMismatchError(
            f"eigensystem dimension {es.left_vectors.shape[0]} does not "
            f"match {initial_lifts.shape[0]} observables"
        )
    return (es.left_vectors.conj().T @ initial_lifts).T


def build_spectral_triple(es: EigenSystem, fitted: KoopmanMatrix,
                          metadata: ModelMetadata | None = None
                          ) -> SpectralTriple:
    """Assemble the serializable model from an eigensystem and the fit,
    with its decode map, that it came from. Runs no factorization.

    The modes are ``decode @ V``: the projection of the outputs onto the
    eigenfunction series ``W* current``, whose rank is that of ``current``
    (W is invertible), so the projection is unique only at full rank.
    """
    if fitted.decode is None:
        raise ShapeMismatchError("the fit has no decode map; give "
                                 "fit_koopman_matrix segments with outputs")
    if fitted.rank_used < es.n_eigenvalues:
        raise EigenfunctionRankError(
            f"eigenfunction time series has rank {fitted.rank_used} < "
            f"{es.n_eigenvalues}; reduce clustered eigenvalues before "
            f"projecting modes"
        )
    return SpectralTriple(
        eigenvalues=es.eigenvalues,
        eigenfunction_values=eigenfunction_values(es,
                                                  fitted.initial_lifts),
        modes=fitted.decode @ es.right_vectors,
        decode=fitted.decode,
        metadata=metadata if metadata is not None else ModelMetadata(),
    )


def _checked_steps(triple: SpectralTriple, x0_index: int, k):
    """``k`` as a range or a 1-D int64 array, and its largest entry, once
    the initial condition and the steps are valid and neither
    ``|lambda|^k`` nor a term of the expansion overflows."""
    if not 0 <= x0_index < triple.n_initial_conditions:
        raise InputError(
            f"x0_index {x0_index} out of range for "
            f"{triple.n_initial_conditions} initial conditions"
        )
    if isinstance(k, range):  # whose len() may not fit an index
        steps, ends = k, (k[0], k[-1]) if k else (0,)
    else:
        steps = np.asarray(k)
        if steps.ndim > 1 or not np.issubdtype(steps.dtype, np.integer):
            raise InputError("prediction steps must be an integer, a 1-D "
                             "array of integers or a range")
        steps = steps.reshape(-1)
        ends = (int(steps.min()), int(steps.max())) if steps.size else (0,)
    low, high = min(ends), max(ends)
    if low < 0:
        raise InputError("prediction step k must be non-negative")
    if high > np.iinfo(np.int64).max:
        raise InputError(f"prediction step k={high} is past 2**63 - 1")
    if not isinstance(steps, range):  # no arithmetic in a narrow dtype
        steps = steps.astype(np.int64, copy=False)
    magnitudes = np.abs(triple.eigenvalues)
    growing = magnitudes[magnitudes > 1.0]
    if growing.size:
        # The first step with k * log|lambda| > 700.
        limit = math.floor(700.0 / np.log(np.max(growing))) + 1
        if limit <= high:
            if not isinstance(steps, range):
                first = int(steps[np.argmax(steps >= limit)])
            elif steps[0] >= limit:  # always so when the range descends
                first = steps[0]
            else:
                first = steps[-((steps.start - limit) // steps.step)]
            worst = triple.eigenvalues[int(np.argmax(magnitudes))]
            raise SpectralOverflowError(
                f"|lambda|^k overflows at k={first} for eigenvalue "
                f"{worst:.6g}"
            )
    # Each weight |lambda_j^k phi_j| and each output's sum of |terms| at
    # the largest |lambda_j|^k over the steps: a product or a sum beyond
    # them, with room for rounding, would overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        peak = magnitudes ** np.where(magnitudes > 1.0, float(high),
                                      float(low))
        weights = peak * np.abs(triple.eigenfunction_values[x0_index])
        largest = max(np.max(weights),
                      np.max(np.abs(triple.modes) @ weights, initial=0.0))
    if not largest < np.finfo(float).max / 4:
        raise SpectralOverflowError(
            f"prediction overflows: terms of the expansion reach "
            f"{largest:.3g}")
    return steps, high


def prediction_blocks(triple: SpectralTriple, x0_index: int, k):
    """Check the initial condition and the steps, then return a generator
    of the predictions as complex ``(rows, h)`` blocks, in the order of
    the steps.

    ``k`` is an int, a 1-D integer array or a range of steps in
    ``[0, 2**63)``; a range is never expanded into one array. Every check
    runs before this returns, so a consumer sees an error before the
    first block. Each block covers at most ``PREDICT_CHUNK_BYTES // (16 N)``
    steps, so the memory held does not grow with the number of steps.
    """
    return _blocks(triple, x0_index, *_checked_steps(triple, x0_index, k))


def _blocks(triple: SpectralTriple, x0_index: int, steps, high: int):
    # lambda^k is split as lambda^(qR) * lambda^r, k = qR + r with R rows
    # per chunk: the table lambda^r takes ``**`` once per call, and
    # lambda^(qR) once per distinct q in a chunk, with phi folded in. No
    # power beyond the largest step is taken, so none can overflow.
    eigenvalues = triple.eigenvalues
    phi = triple.eigenfunction_values[x0_index]
    rows = max(1, PREDICT_CHUNK_BYTES // (16 * triple.n_eigenvalues))
    table = eigenvalues ** np.arange(min(rows, high + 1))[:, None].astype(
        complex)
    modes = triple.modes.T
    start = 0
    while len(chunk := steps[start:start + rows]):
        start += rows
        if isinstance(chunk, range):
            chunk = np.arange(chunk.start, chunk.stop, chunk.step)
        q, r = np.divmod(chunk, rows)
        shifts, which = np.unique(q, return_inverse=True)
        scaled = eigenvalues ** (shifts[:, None] * rows).astype(complex) * phi
        weights = table[r]
        weights *= scaled[which] if len(shifts) > 1 else scaled[0]
        block = weights @ modes
        # zgemm can sum underflowed terms to -0.0 where a matvec gives
        # 0.0; adding 0 turns every -0.0 into 0.0 and leaves the rest.
        block += 0.0
        yield block


def predict(triple: SpectralTriple, x0_index: int,
            k: int | np.ndarray | range) -> np.ndarray:
    """Outputs after k steps from the chosen initial condition.

    Evaluates ``sum_j lambda_j^k phi_j(x0) v_j`` for an int ``k``, giving
    shape ``(h,)``, or for each entry of a 1-D integer array or a range of
    steps, giving one row per step, ``(len(k), h)``. The result is
    returned as a real array when every imaginary part is below
    ``REAL_REPORT_TOL`` in magnitude, and complex otherwise.
    """
    blocks = prediction_blocks(triple, x0_index, k)
    count = len(k) if isinstance(k, range) else np.size(k)
    values = np.empty((count, triple.n_outputs), dtype=complex)
    largest_imag, start = 0.0, 0
    for block in blocks:
        values[start:start + len(block)] = block
        start += len(block)
        largest_imag = max(largest_imag,
                           np.max(np.abs(block.imag), initial=0.0))
    if largest_imag < REAL_REPORT_TOL:
        values = values.real.copy()
    return values if isinstance(k, range) or np.ndim(k) else values[0]

