"""Least-squares operator fitting and pseudoinverse diagnostics."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopmodel import (
    Dictionary,
    InputError,
    ShapeMismatchError,
    Trajectory,
    TrajectorySet,
    fit_koopman_matrix,
    lift_trajectories,
    pseudoinverse,
)
from koopmodel import edmd
from koopmodel.edmd import DEFAULT_SVD_TOL
from conftest import (fold_rows, identity_dictionary, simulate_linear,
                      stacked_lift)


def mp_identities_hold(matrix, pinv, tol=1e-10):
    scale = max(1.0, float(np.linalg.norm(matrix)))
    pscale = max(1.0, float(np.linalg.norm(pinv)))
    checks = [
        (np.linalg.norm(matrix @ pinv @ matrix - matrix), scale),
        (np.linalg.norm(pinv @ matrix @ pinv - pinv), pscale),
        (np.linalg.norm((matrix @ pinv).conj().T - matrix @ pinv), 1.0),
        (np.linalg.norm((pinv @ matrix).conj().T - pinv @ matrix), 1.0),
    ]
    return all(err <= tol * ref for err, ref in checks)


def lift_series(series, id="s"):
    dic = identity_dictionary(1)
    traj = Trajectory(np.asarray(series, dtype=float), id=id)
    data = TrajectorySet(trajectories=(traj,), feature_names=("x0",))
    return lift_trajectories(dic, data)


# -- pseudoinverse -----------------------------------------------------------

def test_pinv_of_known_rank2_svd_factors():
    # Oracle built from explicit SVD factors, never from the code under test.
    rng = np.random.default_rng(7)
    u, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    v, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    sigma = np.array([3.0, 0.5])
    matrix = u[:, :2] @ np.diag(sigma) @ v[:, :2].T
    expected = v[:, :2] @ np.diag(1.0 / sigma) @ u[:, :2].T
    result = pseudoinverse(matrix)
    assert np.allclose(result, expected, atol=1e-10)
    assert mp_identities_hold(matrix, result)


def test_pinv_respects_relative_cutoff():
    matrix = np.diag([1.0, 1e-14])
    result = pseudoinverse(matrix, tol=1e-10)
    assert np.allclose(result, np.diag([1.0, 0.0]))


def test_pinv_zero_and_empty():
    assert np.array_equal(pseudoinverse(np.zeros((3, 2))), np.zeros((2, 3)))
    with pytest.raises(InputError):
        pseudoinverse(np.zeros((0, 2)))


def test_pinv_square_invertible_matches_inverse():
    rng = np.random.default_rng(11)
    matrix = rng.normal(size=(4, 4)) + 4 * np.eye(4)
    assert np.allclose(pseudoinverse(matrix), np.linalg.inv(matrix),
                       atol=1e-10)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_pinv_identities_on_random_shapes(seed):
    rng = np.random.default_rng(seed)
    p, q = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    rank = int(rng.integers(1, min(p, q) + 1))
    matrix = rng.normal(size=(p, rank)) @ rng.normal(size=(rank, q))
    assert mp_identities_hold(matrix, pseudoinverse(matrix), tol=1e-8)


# -- fitting -----------------------------------------------------------------

def test_scalar_geometric_decay():
    fitted = fit_koopman_matrix(lift_series([1.0, 0.9, 0.81]))
    assert np.allclose(fitted.matrix, [[0.9]], atol=1e-14)
    assert fitted.fit_residual < 1e-14
    assert fitted.rank_used == 1


def test_planar_rotation_recovery():
    theta = np.pi / 4
    rotation = np.array([[np.cos(theta), -np.sin(theta)],
                         [np.sin(theta), np.cos(theta)]])
    data = simulate_linear(rotation, np.array([[1.0, 0.25]]), 16)
    fitted = fit_koopman_matrix(lift_trajectories(identity_dictionary(2),
                                                  data))
    assert np.max(np.abs(fitted.matrix - rotation)) < 1e-8


def test_worked_example_rows(worked_fit):
    fitted, residuals = worked_fit, worked_fit.row_residuals
    assert np.max(np.abs(fitted.matrix[0] - [1.0, 1.0, 0.0])) < 1e-6
    assert np.max(np.abs(fitted.matrix[2] - [1.0, 0.0, 1.0])) < 1e-6
    assert abs(fitted.matrix[0, 2]) < 1e-6
    assert residuals[0] < 1e-8 and residuals[2] < 1e-8
    assert residuals[1] > 1e-3


def svd_reference(current, shifted, outputs, tol=DEFAULT_SVD_TOL):
    """The fit by one SVD of ``current`` in plain numpy, with the singular
    values of ``current`` it was computed from."""
    u, sigma, vt = np.linalg.svd(current, full_matrices=False)
    keep = sigma > tol * sigma[0]
    pinv = (vt[keep].T / sigma[keep]) @ u[:, keep].T
    matrix = shifted @ pinv
    misfit = shifted - matrix @ current
    return {
        "matrix": matrix,
        "decode": outputs @ pinv,
        "rank_used": int(np.count_nonzero(keep)),
        "sigma": sigma[keep],
        "fit_residual": float(np.linalg.norm(misfit)),
        "row_residuals": (np.linalg.norm(misfit, axis=1)
                          / np.maximum(1.0, np.linalg.norm(shifted, axis=1))),
    }


def assert_matches_svd_reference(current, shifted, outputs):
    """The factor-based fit agrees with :func:`svd_reference` to
    ``100 * eps * cond(current)`` (criterion 7's scale, cond over the
    retained singular values) times each quantity's natural magnitude:
    ``||shifted_i|| / sigma_min`` for row i of the matrix (the decode map
    likewise), the condition number itself, and ``||shifted_i|| +
    ||matrix_i|| * sigma_max`` for the misfit of row i (its total over all
    rows for the fit residual)."""
    fitted = fit_koopman_matrix([(current, shifted, outputs)])
    ref = svd_reference(current, shifted, outputs)
    sigma = ref["sigma"]
    cond = sigma[0] / sigma[-1]
    scale = 100 * np.finfo(float).eps * cond
    target = np.linalg.norm(shifted, axis=1)
    misfit_scale = target + np.linalg.norm(ref["matrix"], axis=1) * sigma[0]

    def row_gap(a, b):
        return np.linalg.norm(a - b, axis=1)

    assert fitted.rank_used == ref["rank_used"]
    assert np.all(row_gap(fitted.matrix, ref["matrix"])
                  <= scale * target / sigma[-1])
    assert np.all(row_gap(fitted.decode, ref["decode"])
                  <= scale * np.linalg.norm(outputs, axis=1) / sigma[-1])
    assert abs(fitted.condition_number - cond) <= scale * cond
    assert (abs(fitted.fit_residual - ref["fit_residual"])
            <= scale * np.linalg.norm(misfit_scale))
    assert fitted.row_residuals.shape == target.shape
    assert np.all(np.abs(fitted.row_residuals - ref["row_residuals"])
                  <= scale * misfit_scale / np.maximum(1.0, target))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["short", "one", "folds"]))
def test_factor_fit_matches_the_svd_path(seed, length):
    # ``short`` has fewer columns than the 2d + h of a factor row, ``one``
    # fits in one fold and ``folds`` spans two to four folds.  The rank is
    # drawn below min(d, K) to include rank-deficient inputs, and half the
    # rows of ``shifted`` are exact linear images of ``current``.
    rng = np.random.default_rng(seed)
    d, h = int(rng.integers(1, 7)), int(rng.integers(1, 4))
    width = 2 * d + h
    k = {"short": lambda: int(rng.integers(1, width)),
         "one": lambda: int(rng.integers(width, 80)),
         "folds": lambda: int(rng.integers(2 * fold_rows(width) + 1,
                                           4 * fold_rows(width)))}[length]()
    rank = int(rng.integers(1, min(d, k) + 1))
    left, _ = np.linalg.qr(rng.normal(size=(d, rank)))
    right, _ = np.linalg.qr(rng.normal(size=(k, rank)))
    sigma = 10.0 ** rng.uniform(-3, 0, rank)
    current = 10.0 ** rng.uniform(-2, 2, (d, 1)) * (left * sigma) @ right.T
    noise = 10.0 ** rng.uniform(-2, 2, (d, 1)) * rng.normal(size=(d, k))
    shifted = np.where(rng.random((d, 1)) < 0.5,
                       rng.normal(size=(d, d)) @ current, noise)
    assert_matches_svd_reference(current, shifted, rng.normal(size=(h, k)))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_row_residuals_are_the_relative_row_misfit(seed):
    # Oracle: ||misfit_row|| / max(1, ||shifted_row||) in plain numpy, on
    # rows scaled so that both branches of the max occur, to the bound of
    # the factor-based fit.
    rng = np.random.default_rng(seed)
    d, k = int(rng.integers(1, 6)), int(rng.integers(2, 30))
    scales = 10.0 ** rng.uniform(-3, 3, size=(d, 1))
    current = scales * rng.normal(size=(d, k))
    shifted = scales * rng.normal(size=(d, k))
    assert_matches_svd_reference(current, shifted, rng.normal(size=(1, k)))


def test_fit_memory_does_not_grow_with_the_data_length():
    # Every array the fit allocates is a fold of at most FIT_BLOCK_BYTES or
    # a few (2d + h)-sided squares, so 8 times the columns adds no memory.
    rng = np.random.default_rng(4)

    def peak_bytes(k):
        segment = (rng.normal(size=(20, k)), rng.normal(size=(20, k)),
                   rng.normal(size=(2, k)))
        tracemalloc.start()
        try:
            fit_koopman_matrix([segment])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak_bytes(5_000), peak_bytes(40_000)
    assert 5_000 > 2 * fold_rows(42)  # both lengths span several folds
    assert abs(large - small) < 2**20


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_fit_does_not_depend_on_where_segments_split(seed, data):
    # The fold copies each segment's columns into the same blocks whatever
    # the split, so every fit quantity is bit-equal to the one-segment fit.
    # Folds of ``rows`` pairs make cuts inside a block and on its edges.
    rng = np.random.default_rng(seed)
    d, h = int(rng.integers(1, 5)), int(rng.integers(0, 3))
    rows = 2 * d + h + int(rng.integers(0, 4))
    k = data.draw(st.integers(1, 4 * rows), label="k")
    cuts = sorted(data.draw(st.sets(st.integers(1, k - 1)), label="cuts")
                  if k > 1 else ())
    arrays = [rng.normal(size=(d, k)), rng.normal(size=(d, k))]
    if h:
        arrays.append(rng.normal(size=(h, k)))
    bounds = [0, *cuts, k]
    split = [tuple(a[:, start:stop] for a in arrays)
             for start, stop in zip(bounds, bounds[1:])]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(edmd, "FIT_BLOCK_BYTES", 8 * (2 * d + h) * rows)
        whole = fit_koopman_matrix([tuple(arrays)])
        parts = fit_koopman_matrix(iter(split))
    for name in ("factor", "matrix", "row_residuals"):
        assert np.array_equal(getattr(parts, name), getattr(whole, name))
    assert (parts.decode is None) == (h == 0)
    if h:
        assert np.array_equal(parts.decode, whole.decode)
    assert parts.rank_used == whole.rank_used
    assert parts.n_pairs == whole.n_pairs == k
    assert np.array_equal(parts.initial_lifts, arrays[0][:, bounds[:-1]])


@pytest.mark.parametrize("segments", [
    [],
    [(np.ones((2, 3)), np.ones((2, 4)))],
    [(np.ones((2, 3)), np.ones((3, 3)))],
    [(np.ones((2, 3)), np.ones((2, 3)), np.ones((1, 2)))],
    [(np.ones((2, 0)), np.ones((2, 0)))],
    [(np.ones((2, 3)),)],
    [(np.ones(3), np.ones(3))],
    [(np.ones((2, 3)), np.ones((2, 3))), (np.ones((3, 3)), np.ones((3, 3)))],
    [(np.ones((2, 3)), np.ones((2, 3)), np.ones((1, 3))),
     (np.ones((2, 3)), np.ones((2, 3)))],
], ids=["empty", "columns", "rows", "output-columns", "no-columns",
        "one-array", "one-dimensional", "rows-change", "outputs-dropped"])
def test_fit_rejects_mismatched_segments(segments):
    with pytest.raises(ShapeMismatchError):
        fit_koopman_matrix(segments)


def test_fit_memory_does_not_grow_with_the_number_of_trajectories():
    # Lifting yields one trajectory at a time and the fit keeps only each
    # one's first lifted column, copied: a view would pin the whole lift.
    dictionary = identity_dictionary(10)
    rng = np.random.default_rng(9)

    def peak_bytes(n_trajectories):
        data = TrajectorySet(
            trajectories=tuple(Trajectory(rng.normal(size=(200, 10)),
                                          id=f"t{i}")
                               for i in range(n_trajectories)),
            feature_names=tuple(f"x{i}" for i in range(10)))
        tracemalloc.start()
        try:
            fit_koopman_matrix(lift_trajectories(dictionary, data,
                                                 outputs=True))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak_bytes(20), peak_bytes(80)
    lifted_pair_bytes = 2 * 10 * 80 * 199 * 8  # 2.5 MB: current and shifted
    assert large - small < 64 * 1024 < lifted_pair_bytes // 32


def test_zero_targets_give_zero_matrix():
    fitted = fit_koopman_matrix([(np.array([[1.0, 2.0, 3.0]]),
                                  np.zeros((1, 3)))])
    assert np.array_equal(fitted.matrix, [[0.0]])
    assert np.allclose(fitted.row_residuals, [0.0])


def test_rank_deficient_fit_is_minimal_norm():
    # Duplicated rows of G make the minimizer non-unique; the pseudoinverse
    # picks the minimal-Frobenius-norm one, which splits weight evenly.
    current = np.array([[1.0, 2.0], [1.0, 2.0]])
    shifted = np.array([[2.0, 4.0], [2.0, 4.0]])
    fitted = fit_koopman_matrix([(current, shifted)])
    assert np.allclose(fitted.matrix, np.full((2, 2), 1.0))
    assert fitted.rank_used == 1


def test_fit_minimality_against_perturbations(worked_fit, worked_data,
                                              worked_dict):
    fitted = worked_fit
    current, shifted, _ = stacked_lift(worked_dict, worked_data)
    base = np.linalg.norm(shifted - fitted.matrix @ current)
    rng = np.random.default_rng(5)
    for _ in range(20):
        delta = rng.normal(size=fitted.matrix.shape)
        delta *= 1e-3 / np.linalg.norm(delta)
        perturbed = np.linalg.norm(
            shifted - (fitted.matrix + delta) @ current
        )
        assert perturbed >= base - 1e-12


def test_fit_determinism(worked_data, worked_dict):
    a = fit_koopman_matrix(lift_trajectories(worked_dict, worked_data))
    b = fit_koopman_matrix(lift_trajectories(worked_dict, worked_data))
    assert np.array_equal(a.matrix, b.matrix)
    assert a.fit_residual == b.fit_residual


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False))
def test_scale_equivariance_of_fit(seed, scale):
    # Scaling every data column by one positive constant leaves A unchanged.
    rng = np.random.default_rng(seed)
    d, k = int(rng.integers(1, 5)), int(rng.integers(2, 9))
    current = rng.normal(size=(d, k))
    shifted = rng.normal(size=(d, k))
    a = fit_koopman_matrix([(current, shifted)])
    b = fit_koopman_matrix([(scale * current, scale * shifted)])
    assert np.max(np.abs(a.matrix - b.matrix)) < 1e-12 * max(
        1.0, float(np.max(np.abs(a.matrix)))
    )


def test_condition_number_tracks_singular_values():
    assert fit_koopman_matrix(
        lift_series([1.0, 0.9, 0.81])).condition_number == pytest.approx(1.0)
    rng = np.random.default_rng(3)
    current = np.diag([10.0, 0.1]) @ rng.normal(size=(2, 40))
    pair = (current, np.zeros_like(current))
    assert fit_koopman_matrix([pair]).condition_number > 10.0
