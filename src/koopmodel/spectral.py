"""Spectral decomposition of the fitted operator and the reduced model.

The eigensystem carries biorthogonally normalized left and right
eigenvectors. Combining it with the fit yields the compact model:
eigenvalues, eigenfunction values at each initial condition (from the lift
of each trajectory's first snapshot, which the fit keeps), and the mode
vectors that project outputs onto each eigendirection. Prediction is the
geometric sum ``sum_j lambda_j^k phi_j(x0) v_j``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .edmd import KoopmanMatrix
from .errors import (
    DefectiveMatrixError,
    EigenfunctionRankError,
    InputError,
    ShapeMismatchError,
    SpectralOverflowError,
)

# Right-eigenvector matrices with condition numbers beyond this are treated
# as numerically defective (Jordan structure is out of scope).
DEFECTIVE_CONDITION_LIMIT = 1e12

REAL_REPORT_TOL = 1e-8

# Bytes of complex power table per chunk of prediction steps (197 steps at
# N=83), so that predict's memory does not grow with the horizon.
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

    Left vectors are rows of the inverse right-eigenvector matrix, so
    ``w_i* v_j = delta_ij`` holds by construction. Matrices that are
    defective within tolerance are rejected; generalized eigenvectors are
    out of scope.
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
    cond = np.linalg.cond(right)
    if not np.isfinite(cond) or cond > DEFECTIVE_CONDITION_LIMIT:
        gaps = np.abs(eigenvalues[:, None] - eigenvalues[None, :])
        np.fill_diagonal(gaps, np.inf)
        i, j = np.unravel_index(np.argmin(gaps), gaps.shape)
        raise DefectiveMatrixError(
            f"matrix is not diagonalizable within tolerance (eigenvector "
            f"condition {cond:.3g}); clustered eigenvalue near "
            f"{eigenvalues[i]:.6g}"
        )
    left = np.linalg.inv(right).conj().T
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


def predict(triple: SpectralTriple, x0_index: int,
            k: int | np.ndarray) -> np.ndarray:
    """Outputs after k steps from the chosen initial condition.

    Evaluates ``sum_j lambda_j^k phi_j(x0) v_j`` for an int ``k``, giving
    shape ``(h,)``, or for each entry of a 1-D integer array of steps,
    giving one row per step, ``(len(k), h)``. The result is returned as a
    real array when every imaginary part is below ``REAL_REPORT_TOL`` in
    magnitude, and complex otherwise.
    """
    if not 0 <= x0_index < triple.n_initial_conditions:
        raise InputError(
            f"x0_index {x0_index} out of range for "
            f"{triple.n_initial_conditions} initial conditions"
        )
    steps = np.asarray(k)
    if steps.ndim > 1 or not np.issubdtype(steps.dtype, np.integer):
        raise InputError("prediction steps must be an integer or a 1-D "
                         "array of integers")
    ks = steps.reshape(-1)
    if np.any(ks < 0):
        raise InputError("prediction step k must be non-negative")
    magnitudes = np.abs(triple.eigenvalues)
    growing = magnitudes[magnitudes > 1.0]
    if growing.size:
        overflows = ks * np.log(np.max(growing)) > 700.0
        if overflows.any():
            worst = triple.eigenvalues[int(np.argmax(magnitudes))]
            raise SpectralOverflowError(
                f"|lambda|^k overflows at k={int(ks[np.argmax(overflows)])} "
                f"for eigenvalue {worst:.6g}"
            )
    phi = triple.eigenfunction_values[x0_index]
    values = np.empty((len(ks), triple.n_outputs), dtype=complex)
    largest_imag = 0.0
    rows = max(1, PREDICT_CHUNK_BYTES // (16 * triple.n_eigenvalues))
    for start in range(0, len(ks), rows):
        # A complex exponent gives ``lambda ** int(k)`` bit for bit, bar
        # k = 2, which numpy's int power computes as lambda * lambda.
        table = triple.eigenvalues ** ks[start:start + rows, None].astype(
            complex) * phi
        block = np.matmul(table, triple.modes.T, out=values[start:start + rows])
        # Keep the abs after the GEMM: it clears a CPU state zgemm leaves
        # that slows the next chunk's powers 6-10 times (measured on x86-64).
        largest_imag = np.maximum(
            largest_imag, np.max(np.abs(block.imag), initial=0.0))
    # zgemm can sum underflowed terms to -0.0 where a matvec gives 0.0;
    # adding 0 turns every -0.0 into 0.0 and leaves other values as they are.
    values += 0.0
    if largest_imag < REAL_REPORT_TOL:
        values = values.real.copy()
    return values if steps.ndim else values[0]


def _conjugate_units(eigenvalues: np.ndarray) -> list[tuple[int, ...]]:
    """Group sorted eigenvalue indices into singletons and conjugate pairs."""
    n = len(eigenvalues)
    used = np.zeros(n, dtype=bool)
    units: list[tuple[int, ...]] = []
    for i in range(n):
        if used[i]:
            continue
        used[i] = True
        partner = None
        if eigenvalues[i].imag != 0.0:
            target = np.conj(eigenvalues[i])
            for j in range(i + 1, n):
                if used[j]:
                    continue
                if abs(eigenvalues[j] - target) <= 1e-12 * (1.0 + abs(target)):
                    partner = j
                    break
        if partner is None:
            units.append((i,))
        else:
            used[partner] = True
            units.append((i, partner))
    return units


def _exact_fill_possible(capacity: int, singles: int, pairs: int) -> bool:
    if capacity < 0:
        return False
    if capacity > singles + 2 * pairs:
        return False
    return capacity % 2 == 0 or singles >= 1


def truncate_spectrum(triple: SpectralTriple, n_keep: int) -> SpectralTriple:
    """Keep the n_keep largest-|lambda| eigen-triples without splitting
    conjugate pairs.

    When pair preservation makes an exact-size selection impossible at the
    cut, the largest selection of that size skipping the unsplittable pair
    is chosen (so a boundary pair may displace a larger lone eigenvalue).
    If no exact-size selection exists at all, the result keeps one extra
    eigenvalue instead.
    """
    n = triple.n_eigenvalues
    if not 1 <= n_keep <= n:
        raise InputError(f"n_keep must be in [1, {n}], got {n_keep}")
    units = _conjugate_units(triple.eigenvalues)
    singles = sum(1 for u in units if len(u) == 1)
    pairs = len(units) - singles
    capacity = n_keep
    if not _exact_fill_possible(capacity, singles, pairs):
        capacity = n_keep + 1
    selected: list[int] = []
    remaining_singles, remaining_pairs = singles, pairs
    budget = capacity
    for unit in units:
        if len(unit) == 1:
            remaining_singles -= 1
        else:
            remaining_pairs -= 1
        if len(unit) <= budget and _exact_fill_possible(
                budget - len(unit), remaining_singles, remaining_pairs):
            selected.extend(unit)
            budget -= len(unit)
    keep = sorted(selected)
    return replace(
        triple,
        eigenvalues=triple.eigenvalues[keep],
        eigenfunction_values=triple.eigenfunction_values[:, keep],
        modes=triple.modes[:, keep],
    )
