"""Least-squares operator fitting and pseudoinverse diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopmodel import (
    Dictionary,
    InputError,
    Trajectory,
    TrajectorySet,
    fit_koopman_matrix,
    lift_trajectories,
    pseudoinverse,
)
from conftest import identity_dictionary, simulate_linear


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
    lifted = lift_series([1.0, 0.9, 0.81])
    fitted = fit_koopman_matrix(lifted)
    assert np.allclose(fitted.matrix, [[0.9]], atol=1e-14)
    assert fitted.fit_residual < 1e-14
    assert fitted.rank_used == 1


def test_planar_rotation_recovery():
    theta = np.pi / 4
    rotation = np.array([[np.cos(theta), -np.sin(theta)],
                         [np.sin(theta), np.cos(theta)]])
    data = simulate_linear(rotation, np.array([[1.0, 0.25]]), 16)
    lifted = lift_trajectories(identity_dictionary(2), data)
    fitted = fit_koopman_matrix(lifted)
    assert np.max(np.abs(fitted.matrix - rotation)) < 1e-8


def test_worked_example_rows(worked_fit):
    _, _, fitted, residuals = worked_fit
    assert np.max(np.abs(fitted.matrix[0] - [1.0, 1.0, 0.0])) < 1e-6
    assert np.max(np.abs(fitted.matrix[2] - [1.0, 0.0, 1.0])) < 1e-6
    assert abs(fitted.matrix[0, 2]) < 1e-6
    assert residuals[0] < 1e-8 and residuals[2] < 1e-8
    assert residuals[1] > 1e-3


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_row_residuals_are_the_relative_row_misfit(seed):
    # Oracle: ||misfit_row|| / max(1, ||shifted_row||) in plain numpy, on
    # rows scaled so that both branches of the max occur.
    from koopmodel import LiftedPair

    rng = np.random.default_rng(seed)
    d, k = int(rng.integers(1, 6)), int(rng.integers(2, 30))
    scales = 10.0 ** rng.uniform(-3, 3, size=(d, 1))
    current = scales * rng.normal(size=(d, k))
    shifted = scales * rng.normal(size=(d, k))
    lifted = LiftedPair(current=current, shifted=shifted, x0_columns=(0,))
    fitted = fit_koopman_matrix(lifted)
    misfit = shifted - fitted.matrix @ current
    expected = (np.sqrt((misfit * misfit).sum(axis=1))
                / np.maximum(1.0, np.sqrt((shifted * shifted).sum(axis=1))))
    assert fitted.row_residuals.shape == (d,)
    assert np.array_equal(fitted.row_residuals, expected)


def test_zero_targets_give_zero_matrix():
    from koopmodel import LiftedPair

    lifted = LiftedPair(
        current=np.array([[1.0, 2.0, 3.0]]),
        shifted=np.zeros((1, 3)),
        x0_columns=(0,),
    )
    fitted = fit_koopman_matrix(lifted)
    assert np.array_equal(fitted.matrix, [[0.0]])
    assert np.allclose(fitted.row_residuals, [0.0])


def test_rank_deficient_fit_is_minimal_norm():
    # Duplicated rows of G make the minimizer non-unique; the pseudoinverse
    # picks the minimal-Frobenius-norm one, which splits weight evenly.
    from koopmodel import LiftedPair

    current = np.array([[1.0, 2.0], [1.0, 2.0]])
    shifted = np.array([[2.0, 4.0], [2.0, 4.0]])
    lifted = LiftedPair(current=current, shifted=shifted, x0_columns=(0,))
    fitted = fit_koopman_matrix(lifted)
    assert np.allclose(fitted.matrix, np.full((2, 2), 1.0))
    assert fitted.rank_used == 1


def test_fit_minimality_against_perturbations(worked_fit):
    lifted, _, fitted, _ = worked_fit
    base = np.linalg.norm(lifted.shifted - fitted.matrix @ lifted.current)
    rng = np.random.default_rng(5)
    for _ in range(20):
        delta = rng.normal(size=fitted.matrix.shape)
        delta *= 1e-3 / np.linalg.norm(delta)
        perturbed = np.linalg.norm(
            lifted.shifted - (fitted.matrix + delta) @ lifted.current
        )
        assert perturbed >= base - 1e-12


def test_fit_determinism(worked_data, worked_dict):
    lifted = lift_trajectories(worked_dict, worked_data)
    a = fit_koopman_matrix(lifted)
    b = fit_koopman_matrix(lifted)
    assert np.array_equal(a.matrix, b.matrix)
    assert a.fit_residual == b.fit_residual


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False))
def test_scale_equivariance_of_fit(seed, scale):
    # Scaling every data column by one positive constant leaves A unchanged.
    from koopmodel import LiftedPair

    rng = np.random.default_rng(seed)
    d, k = int(rng.integers(1, 5)), int(rng.integers(2, 9))
    current = rng.normal(size=(d, k))
    shifted = rng.normal(size=(d, k))
    base = LiftedPair(current=current, shifted=shifted, x0_columns=(0,))
    scaled = LiftedPair(current=scale * current, shifted=scale * shifted,
                        x0_columns=(0,))
    a = fit_koopman_matrix(base)
    b = fit_koopman_matrix(scaled)
    assert np.max(np.abs(a.matrix - b.matrix)) < 1e-12 * max(
        1.0, float(np.max(np.abs(a.matrix)))
    )


def test_condition_number_tracks_singular_values():
    lifted = lift_series([1.0, 0.9, 0.81])
    assert fit_koopman_matrix(lifted).condition_number == pytest.approx(1.0)
    rng = np.random.default_rng(3)
    from koopmodel import LiftedPair

    current = np.diag([10.0, 0.1]) @ rng.normal(size=(2, 40))
    pair = LiftedPair(current=current, shifted=np.zeros_like(current),
                      x0_columns=(0,))
    assert fit_koopman_matrix(pair).condition_number > 10.0
