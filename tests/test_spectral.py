"""Eigensystem extraction, the spectral triple, prediction, truncation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopmodel import (
    DefectiveMatrixError,
    Dictionary,
    EigenfunctionRankError,
    InputError,
    ModelMetadata,
    ShapeMismatchError,
    SpectralOverflowError,
    SpectralTriple,
    Trajectory,
    TrajectorySet,
    build_spectral_triple,
    eigendecompose,
    eigenfunction_values,
    features_at_columns,
    fit_koopman_matrix,
    lift_trajectories,
    predict,
    truncate_spectrum,
)
from conftest import (
    identity_dictionary,
    random_contraction,
    simulate_linear,
    triple_pipeline,
)


def rotation_matrix(theta):
    return np.array([[np.cos(theta), -np.sin(theta)],
                     [np.sin(theta), np.cos(theta)]])


def make_triple(eigenvalues, n_outputs=1):
    eigenvalues = np.asarray(eigenvalues, dtype=complex)
    n = len(eigenvalues)
    rng = np.random.default_rng(42)
    return SpectralTriple(
        eigenvalues=eigenvalues,
        eigenfunction_values=rng.normal(size=(2, n))
        + 1j * rng.normal(size=(2, n)),
        modes=rng.normal(size=(n_outputs, n))
        + 1j * rng.normal(size=(n_outputs, n)),
        decode=rng.normal(size=(n_outputs, n)),
    )


# -- eigendecomposition ------------------------------------------------------

def test_eigensystem_satisfies_definitions():
    rng = np.random.default_rng(1)
    matrix = random_contraction(rng, dim=5)
    system = eigendecompose(matrix)
    for j in range(5):
        v = system.right_vectors[:, j]
        w = system.left_vectors[:, j]
        lam = system.eigenvalues[j]
        assert np.linalg.norm(matrix @ v - lam * v) < 1e-10
        assert np.linalg.norm(w.conj() @ matrix - lam * w.conj()) < 1e-10
    gram = system.left_vectors.conj().T @ system.right_vectors
    assert np.max(np.abs(gram - np.eye(5))) < 1e-10
    assert system.biorthogonality_error < 1e-10


def test_eigenvalues_sorted_by_magnitude_then_real_then_imag():
    matrix = np.diag([0.2, -0.8, 0.5])
    system = eigendecompose(matrix)
    assert np.allclose(system.eigenvalues, [-0.8, 0.5, 0.2])

    rot = rotation_matrix(np.pi / 4)
    system = eigendecompose(rot)
    # Conjugate pair: equal magnitude and real part, +imag listed first.
    assert system.eigenvalues[0].imag > 0 > system.eigenvalues[1].imag
    assert np.conj(system.eigenvalues[0]) == pytest.approx(
        system.eigenvalues[1]
    )


def test_real_matrix_spectrum_closed_under_conjugation():
    rng = np.random.default_rng(9)
    matrix = random_contraction(rng, dim=6)
    eigenvalues = eigendecompose(matrix).eigenvalues
    conjugated = np.sort_complex(np.conj(eigenvalues))
    assert np.allclose(np.sort_complex(eigenvalues), conjugated, atol=1e-12)


def test_defective_matrix_rejected():
    with pytest.raises(DefectiveMatrixError, match="not diagonalizable"):
        eigendecompose(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_eigendecompose_input_validation():
    with pytest.raises(ShapeMismatchError):
        eigendecompose(np.zeros((2, 3)))
    with pytest.raises(ShapeMismatchError):
        eigendecompose(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# -- eigenfunction values ----------------------------------------------------

def test_eigenfunction_dynamics_along_trajectories():
    # phi(x+) = lambda * phi(x) on exact linear data.
    rng = np.random.default_rng(2)
    matrix = random_contraction(rng, dim=3)
    data = simulate_linear(matrix, rng.normal(size=(2, 3)), 12)
    lifted = lift_trajectories(identity_dictionary(3), data)
    system = eigendecompose(fit_koopman_matrix(lifted))
    full = (system.left_vectors.conj().T @ lifted.current).T
    at_x0 = eigenfunction_values(system, lifted)
    assert at_x0.shape == (2, 3)
    assert np.array_equal(at_x0, full[list(lifted.x0_columns)])
    for k in range(lifted.n_columns - 1):
        if k + 1 in lifted.x0_columns:  # column k + 1 starts a trajectory
            continue
        advanced = system.eigenvalues * full[k]
        assert np.max(np.abs(full[k + 1] - advanced)) < 1e-8


def test_eigenfunction_values_dimension_check(worked_fit):
    lifted, _, _, _ = worked_fit
    system = eigendecompose(np.diag([0.5, 0.25]))
    with pytest.raises(ShapeMismatchError):
        eigenfunction_values(system, lifted)


# -- modes, decode, prediction ----------------------------------------------

def test_prediction_matches_linear_truth():
    rng = np.random.default_rng(3)
    matrix = random_contraction(rng, dim=4)
    x0s = rng.normal(size=(3, 4))
    data = simulate_linear(matrix, x0s, 30)
    _, _, _, triple = triple_pipeline(data, identity_dictionary(4))
    for i, x0 in enumerate(x0s):
        state = x0.copy()
        for k in range(20):
            value = predict(triple, i, k)
            assert np.max(np.abs(value - state)) < 1e-8
            state = matrix @ state


def test_prediction_matches_matrix_power_oracle(worked_triple):
    lifted, fitted, _, triple = worked_triple
    power = np.eye(fitted.dim)
    g0 = lifted.current[:, lifted.x0_columns[0]]
    for k in range(40):
        oracle = triple.decode @ power @ g0
        value = predict(triple, 0, k)
        assert np.max(np.abs(value - oracle)) < 1e-6 * max(
            1.0, float(np.max(np.abs(oracle)))
        )
        power = fitted.matrix @ power


def test_prediction_is_real_for_real_systems(worked_triple):
    *_, triple = worked_triple
    value = predict(triple, 0, 7)
    assert value.dtype == np.float64


def test_predict_range_checks(worked_triple):
    *_, triple = worked_triple
    with pytest.raises(InputError):
        predict(triple, -1, 0)
    with pytest.raises(InputError):
        predict(triple, triple.n_initial_conditions, 0)
    with pytest.raises(InputError):
        predict(triple, 0, -1)


def test_predict_overflow_guard():
    triple = make_triple([2.0])
    assert np.all(np.isfinite(np.atleast_1d(predict(triple, 0, 100))))
    with pytest.raises(SpectralOverflowError, match="overflow"):
        predict(triple, 0, 2000)


def test_mode_projection_needs_full_rank():
    # One trajectory of a repeated eigenvalue gives proportional
    # eigenfunction series: the projection must refuse, not alias.
    data = simulate_linear(0.5 * np.eye(2), np.array([[1.0, 1.0]]), 10)
    lifted = lift_trajectories(identity_dictionary(2), data)
    fitted = fit_koopman_matrix(lifted,
                                outputs=features_at_columns(data, lifted))
    system = eigendecompose(0.5 * np.eye(2))
    with pytest.raises(EigenfunctionRankError):
        build_spectral_triple(system, lifted, fitted)


@st.composite
def full_rank_fits(draw):
    """Noisy trajectories of a random linear contraction of n <= 3 features,
    lifted by the coordinates plus distinct sin/cos observables (d <= 8)
    through at least d + 1 columns per trajectory: ``current`` has full row
    rank and the fitted matrix distinct eigenvalues."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3))
    extra = draw(st.lists(st.tuples(st.sampled_from(["sin", "cos"]),
                                    st.integers(0, n - 1)),
                          unique=True, max_size=min(2 * n, 8 - n)))
    entries = [{"id": f"c{i}", "kind": "coordinate", "params": {"index": i}}
               for i in range(n)]
    entries += [{"id": f"e{j}", "kind": kind, "params": {"of": f"c{i}"}}
                for j, (kind, i) in enumerate(extra)]
    steps = len(entries) + draw(st.integers(1, 5))
    matrix = random_contraction(rng, dim=n)
    trajectories = []
    for t in range(draw(st.integers(2, 4))):
        rows = [rng.uniform(-2.0, 2.0, size=n)]
        for _ in range(steps):
            rows.append(matrix @ rows[-1] + 0.1 * rng.normal(size=n))
        trajectories.append(Trajectory(rows, id=f"r{t}"))
    data = TrajectorySet(tuple(trajectories),
                         tuple(f"x{i}" for i in range(n)))
    return data, Dictionary.from_spec(entries, n)


@settings(max_examples=100, deadline=None)
@given(full_rank_fits())
def test_modes_are_decode_times_right_vectors(case):
    # Identity 1: with ``current`` of full row rank, the modes decode @ V
    # are the least-squares projection of the outputs onto the
    # eigenfunction series W* current, and the spectral expansion
    # reproduces the rollout decode @ A^k @ g(x0).
    data, dictionary = case
    lifted, fitted, _, triple = triple_pipeline(data, dictionary)
    outputs = features_at_columns(data, lifted)
    system = eigendecompose(fitted)
    assert fitted.rank_used == lifted.n_observables
    # Rounding of either side grows with the conditioning of both factors.
    error_scale = (100 * np.finfo(float).eps * np.linalg.cond(lifted.current)
                   * np.linalg.cond(system.right_vectors))

    series = system.left_vectors.conj().T @ lifted.current
    projection = np.linalg.lstsq(series.T, outputs.T.astype(complex),
                                 rcond=None)[0].T
    assert np.max(np.abs(triple.modes - projection)) <= error_scale * max(
        1.0, float(np.max(np.abs(projection))))

    decode_norm = np.linalg.norm(triple.decode, 2)
    for i, column in enumerate(lifted.x0_columns):
        g0 = lifted.current[:, column]
        power = np.eye(fitted.dim)
        for k in range(12):
            rollout = triple.decode @ power @ g0
            scale = max(1.0, decode_norm * np.linalg.norm(power, 2)
                        * np.linalg.norm(g0))
            assert np.max(np.abs(predict(triple, i, k) - rollout)) <= (
                error_scale * scale)
            power = fitted.matrix @ power


def test_triple_payload_size(worked_triple):
    *_, triple = worked_triple
    assert triple.n_eigenvalues == 3
    assert triple.n_initial_conditions == 20
    assert triple.n_outputs == 2
    assert triple.payload_complex_entries == (1 + 20 + 2) * 3


def test_metadata_recorded(worked_triple, worked_dict):
    *_, triple = worked_triple
    assert triple.metadata.dict_hash == worked_dict.spec_hash()
    assert triple.metadata.feature_names == ("x", "y")
    assert len(triple.metadata.trajectory_ids) == 20


# -- truncation --------------------------------------------------------------

def test_truncation_never_splits_conjugate_pairs():
    pair = 0.5 * np.exp(1j * np.pi / 3)
    triple = make_triple([0.9, pair, np.conj(pair)])
    reduced = truncate_spectrum(triple, 2)
    assert np.allclose(sorted(reduced.eigenvalues.imag),
                       sorted([pair.imag, -pair.imag]))
    assert 0.9 not in reduced.eigenvalues


def test_truncation_keeps_largest_single_when_it_fits():
    pair = 0.5 * np.exp(1j * np.pi / 3)
    triple = make_triple([0.9, pair, np.conj(pair)])
    reduced = truncate_spectrum(triple, 1)
    assert np.allclose(reduced.eigenvalues, [0.9])


def test_truncation_full_keep_is_identity():
    pair = 0.5 * np.exp(1j * np.pi / 3)
    triple = make_triple([0.9, pair, np.conj(pair)])
    reduced = truncate_spectrum(triple, 3)
    assert np.array_equal(reduced.eigenvalues, triple.eigenvalues)
    assert np.array_equal(reduced.modes, triple.modes)


def test_truncation_overflows_by_one_when_exact_fill_impossible():
    p1 = 0.9 * np.exp(0.3j)
    p2 = 0.4 * np.exp(1.1j)
    triple = make_triple([p1, np.conj(p1), p2, np.conj(p2)])
    reduced = truncate_spectrum(triple, 1)
    assert reduced.n_eigenvalues == 2
    assert np.allclose(np.abs(reduced.eigenvalues), [0.9, 0.9])


def test_truncation_slices_table_and_modes_consistently():
    pair = 0.5 * np.exp(1j * np.pi / 3)
    triple = make_triple([0.9, pair, np.conj(pair)], n_outputs=2)
    reduced = truncate_spectrum(triple, 2)
    keep = [1, 2]
    assert np.array_equal(reduced.eigenfunction_values,
                          triple.eigenfunction_values[:, keep])
    assert np.array_equal(reduced.modes, triple.modes[:, keep])
    assert np.array_equal(reduced.decode, triple.decode)
    assert reduced.metadata == triple.metadata


def test_truncation_range_check():
    triple = make_triple([0.9, 0.5])
    with pytest.raises(InputError):
        truncate_spectrum(triple, 0)
    with pytest.raises(InputError):
        truncate_spectrum(triple, 3)
