"""Eigensystem extraction, the spectral triple and prediction."""

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
    fit_koopman_matrix,
    lift_trajectories,
    predict,
)
from koopmodel.spectral import PREDICT_CHUNK_BYTES, prediction_blocks
from conftest import (
    identity_dictionary,
    random_contraction,
    simulate_linear,
    stacked_lift,
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


def conditioned_matrix(kappa, pairs, seed, n=6):
    """P D P^-1 with cond(P) = kappa: D holds distinct real eigenvalues,
    or three rotation-scale blocks whose eigenvalues are conjugate pairs."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(n, n)))
    w, _ = np.linalg.qr(rng.normal(size=(n, n)))
    p = (u * np.geomspace(1.0, kappa, n)) @ w.T
    if pairs:
        d = np.zeros((n, n))
        for b, (r, theta) in enumerate(((0.95, 0.3), (0.7, 1.1), (0.4, 2.0))):
            c, s = r * np.cos(theta), r * np.sin(theta)
            d[2 * b:2 * b + 2, 2 * b:2 * b + 2] = [[c, -s], [s, c]]
    else:
        d = np.diag(np.linspace(-0.9, 0.95, n))
    return p @ d @ np.linalg.inv(p)


@pytest.mark.parametrize("pairs", [False, True])
@pytest.mark.parametrize("kappa", [1.0, 1e3, 1e6])
def test_left_vectors_are_the_inverse_of_the_right_vectors(kappa, pairs):
    eps = np.finfo(float).eps
    for seed in range(10):
        system = eigendecompose(conditioned_matrix(kappa, pairs, seed))
        right = system.right_vectors
        cond = np.linalg.cond(right)
        assert kappa / 10 <= cond <= kappa * 10  # far from the 1e12 limit
        reference = np.linalg.inv(right).conj().T
        error = np.linalg.norm(system.left_vectors - reference, 2)
        assert error <= 64 * cond * eps * np.linalg.norm(reference, 2)
        gram = system.left_vectors.conj().T @ right
        assert np.max(np.abs(gram - np.eye(len(gram)))) <= 64 * cond * eps


def test_defective_matrix_rejected():
    # A Jordan block, and a pair of eigenvector condition about 2e15: both
    # far from the 1e12 limit.
    for matrix in ([[1.0, 1.0], [0.0, 1.0]], [[1.0, 1.0], [0.0, 1 + 1e-15]]):
        assert np.linalg.cond(np.linalg.eig(matrix)[1]) > 1e14
        with pytest.raises(DefectiveMatrixError, match="not diagonalizable"
                           ".*numerical rank 1 < 2 at relative cutoff 1e-12"):
            eigendecompose(np.array(matrix))


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
    dictionary = identity_dictionary(3)
    fitted = fit_koopman_matrix(lift_trajectories(dictionary, data))
    system = eigendecompose(fitted)
    at_x0 = eigenfunction_values(system, fitted.initial_lifts)
    assert at_x0.shape == (2, 3)
    for i, (current, _) in enumerate(lift_trajectories(dictionary, data)):
        series = (system.left_vectors.conj().T @ current).T
        assert np.array_equal(at_x0[i], series[0])
        advanced = system.eigenvalues * series[:-1]
        assert np.max(np.abs(series[1:] - advanced)) < 1e-8


def test_eigenfunction_values_dimension_check(worked_fit):
    system = eigendecompose(np.diag([0.5, 0.25]))
    with pytest.raises(ShapeMismatchError):
        eigenfunction_values(system, worked_fit.initial_lifts)


# -- modes, decode, prediction ----------------------------------------------

def test_prediction_matches_linear_truth():
    rng = np.random.default_rng(3)
    matrix = random_contraction(rng, dim=4)
    x0s = rng.normal(size=(3, 4))
    data = simulate_linear(matrix, x0s, 30)
    _, triple = triple_pipeline(data, identity_dictionary(4))
    for i, x0 in enumerate(x0s):
        state = x0.copy()
        for k in range(20):
            value = predict(triple, i, k)
            assert np.max(np.abs(value - state)) < 1e-8
            state = matrix @ state


def test_prediction_matches_matrix_power_oracle(worked_triple):
    fitted, triple = worked_triple
    power = np.eye(fitted.dim)
    g0 = fitted.initial_lifts[:, 0]
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
    assert value.shape == (triple.n_outputs,)
    table = predict(triple, 0, np.arange(5))
    assert table.dtype == np.float64
    assert table.shape == (5, triple.n_outputs)
    assert predict(triple, 0, np.arange(0)).shape == (0, triple.n_outputs)
    # Narrow integer steps cannot hold a chunk's row count.
    for dtype in (np.int8, np.uint8):
        assert np.array_equal(predict(triple, 0, np.arange(5, dtype=dtype)),
                              table)



def test_batch_is_complex_when_any_step_is():
    # The imaginary part of the first step, in the first chunk, keeps the
    # whole table complex; the later chunks alone are real.
    triple = SpectralTriple([0.5j], [[1.0]], [[1.0]], [[1.0]])
    steps = np.r_[1, np.zeros(PREDICT_CHUNK_BYTES // 16 + 5, dtype=int)]
    values = predict(triple, 0, steps)
    assert values.dtype == complex and values[0, 0] == 0.5j
    assert predict(triple, 0, steps[1:]).dtype == np.float64


def test_underflowed_steps_are_positive_zero():
    # Every term underflows to a signed zero; the GEMM of a batch sums
    # these to -0.0 for this triple, a matvec to 0.0.
    triple = SpectralTriple([0.9, 0.81, 0.5], [[0.46, 0.25, -0.58]],
                            [[-1.0, 1e-15, 1e-15], [1e-15, 0.54, 1.0]],
                            np.eye(2, 3))
    values = predict(triple, 0, np.arange(40000, 40010))
    assert np.all(values == 0.0) and not np.any(np.signbit(values))

def test_predict_range_checks(worked_triple):
    *_, triple = worked_triple
    with pytest.raises(InputError):
        predict(triple, -1, 0)
    with pytest.raises(InputError):
        predict(triple, triple.n_initial_conditions, 0)
    with pytest.raises(InputError):
        predict(triple, 0, -1)
    for steps in (np.array([0, 3, -1]), 1.5, np.zeros((2, 2), dtype=int),
                  np.array([0, 2**63], dtype=np.uint64),
                  range(2**63 - 1, 2**63 + 1)):
        with pytest.raises(InputError):
            predict(triple, 0, steps)


def test_predict_overflow_guard():
    triple = make_triple([2.0])
    assert np.all(np.isfinite(np.atleast_1d(predict(triple, 0, 100))))
    with pytest.raises(SpectralOverflowError, match="overflow"):
        predict(triple, 0, 2000)
    # Both forms name the first overflowing step in the order given, also
    # when it sits past the first chunk (N = 1: 16 bytes per step).
    assert np.all(np.isfinite(predict(triple, 0, 1009)))
    later = np.r_[np.zeros(PREDICT_CHUNK_BYTES // 16 + 5, dtype=int),
                  np.arange(1000, 1100), 5000]
    for steps in (1010, later):
        with pytest.raises(SpectralOverflowError, match="at k=1010 for"):
            predict(triple, 0, steps)


def test_predict_guards_terms_that_overflow():
    # |lambda| <= 1, but a weight lambda^k phi or a sum of terms would
    # pass the double range; a huge phi of a vanished power is harmless.
    for phi, modes in (([[1e308, 1.0]], [[1.0, 1.0]]),
                       ([[1.0, 1.0]], [[1e308, 1e308]])):
        triple = SpectralTriple([1.0, 0.5], phi, modes, [[1.0]])
        with pytest.raises(SpectralOverflowError, match="terms"):
            prediction_blocks(triple, 0, range(3))
    triple = SpectralTriple([1.0, 0.0], [[1.0, 1e308]], [[1.0, 1.0]],
                            [[1.0]])
    assert predict(triple, 0, 2)[0] == 1.0
    with pytest.raises(SpectralOverflowError, match="terms"):
        predict(triple, 0, range(2))


@st.composite
def stable_batches(draw):
    """A random triple with N in [1, 90] and h in [1, 4], and steps below
    ``top`` filling three or four chunks. Most |lambda| <= 1 (some exactly
    0 or 1); about a tenth exceed 1, by as much as ``top`` allows below
    the overflow limit."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 90))
    h = draw(st.integers(1, 4))
    top = draw(st.sampled_from([3, 100, 3000, 30000]))
    radius = rng.uniform(0.0, 1.0, n)
    radius[rng.random(n) < 0.1] = 1.0
    radius[rng.random(n) < 0.1] = 0.0
    growing = rng.random(n) < 0.1
    radius[growing] = np.exp(rng.uniform(0.0, 600.0 / top, growing.sum()))
    eigenvalues = radius * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    triple = SpectralTriple(
        eigenvalues=eigenvalues,
        eigenfunction_values=rng.normal(size=(1, n))
        + 1j * rng.normal(size=(1, n)),
        modes=rng.normal(size=(h, n)) + 1j * rng.normal(size=(h, n)),
        decode=np.zeros((h, 1)),
    )
    rows = PREDICT_CHUNK_BYTES // (16 * n)
    length = rows * draw(st.integers(2, 3)) + draw(st.integers(1, rows))
    steps = rng.integers(0, top, length)
    return triple, steps


@settings(max_examples=100, deadline=None)
@given(stable_batches())
def test_batch_prediction_matches_per_step_expansion(case):
    mpmath = pytest.importorskip("mpmath")
    triple, steps = case
    eigenvalues = triple.eigenvalues
    phi = triple.eigenfunction_values[0]
    values = predict(triple, 0, steps)
    # With phi = 1 and the identity as modes, the prediction is the power
    # table itself: every product and sum in the GEMM is exact.
    n = triple.n_eigenvalues
    table = predict(SpectralTriple(eigenvalues, np.ones((1, n)), np.eye(n),
                                   np.zeros((n, 1))), 0, steps)
    assert values.shape == (len(steps), triple.n_outputs)
    distinct, first, row_step = np.unique(steps, return_index=True,
                                          return_inverse=True)
    # The powers of every eigenvalue, against 40 digits, at up to 50
    # distinct steps spread from the smallest to the largest. numpy's
    # lambda ** complex(m) squares for m < 100, off by up to about m eps
    # relative, and calls libm's cpow, exp(m log lambda), from m = 100 on,
    # off by up to about (m |log lambda| + 1) eps from rounding
    # m log lambda. The split lambda^(qR) * lambda^r sums both factors'
    # errors and adds one product, so with k = qR + r it must stay within
    # eps |lambda|^k (2 k |log lambda| + 2 min(k, 200) + 8), a bound
    # numpy's own lambda ** complex(k) meets too; below the normal range
    # it is absolute.
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    real = not np.iscomplexobj(table)
    picks = np.unique(np.linspace(0, len(distinct) - 1, 50).astype(int))
    logs = np.abs(np.log(np.where(eigenvalues == 0, 1, eigenvalues)))
    with mpmath.workdps(40):
        bases = [mpmath.mpc(lam.real, lam.imag) for lam in eigenvalues]
        for k, row in zip(distinct[picks].tolist(), first[picks].tolist()):
            own = eigenvalues ** complex(k)
            for i, base in enumerate(bases):
                exact = base ** k
                bound = eps * float(abs(exact)) * (
                    2 * k * logs[i] + 2 * min(k, 200) + 8) + tiny
                if real:
                    exact = exact.real
                for value in (table[row, i], own[i].real if real else own[i]):
                    assert float(abs(value - exact)) <= bound, (k, i)
    # Per distinct step: the weights (lambda^(qR) phi) lambda^r, split as
    # prediction splits them, and the matvec, within 8 eps of the sum of
    # |terms| as before the split when every |lambda| <= 1. Each side sums
    # N rounded terms; with high probability that errs by under about
    # sqrt(N) eps/2 of the sum of |terms| (Higham and Mary, SIAM J. Sci.
    # Comput. 2019). A term much larger than the rest, as |lambda| > 1
    # gives, brings zgemm near that: 9.2 eps at N = 85. Hence 2 sqrt(N)
    # eps when some |lambda| > 1.
    grows = np.any(np.abs(eigenvalues) > 1)
    r = distinct % (PREDICT_CHUNK_BYTES // (16 * n))
    weights = eigenvalues ** r[:, None].astype(complex) * (
        eigenvalues ** (distinct - r)[:, None].astype(complex) * phi)
    expected = np.array([triple.modes @ w for w in weights])
    scale = np.abs(weights) @ np.abs(triple.modes).T
    if not np.iscomplexobj(values):
        expected = expected.real
    assert np.all(np.abs(values - expected[row_step])
                  <= (max(8, 2 * np.sqrt(n)) if grows else 8)
                  * eps * scale[row_step])


def test_prediction_blocks_check_everything_before_the_first_block():
    triple = make_triple([2.0, 0.5])
    for steps in (range(2000), np.arange(2000), range(1010, 0, -1)):
        with pytest.raises(SpectralOverflowError, match="at k=1010 for"):
            prediction_blocks(triple, 0, steps)
    for x0, steps in ((2, range(3)), (0, range(-1, 3)), (0, [0.5])):
        with pytest.raises(InputError):
            prediction_blocks(triple, x0, steps)
    # N = 2: 16 * 2 bytes per step.
    blocks = prediction_blocks(make_triple([0.9, 0.5]), 1, range(20000))
    rows = PREDICT_CHUNK_BYTES // 32
    assert [len(block) for block in blocks] == [rows, rows, 20000 - 2 * rows]
    # A range is never one array: 2**62 steps, an int64 array too large
    # for numpy, cost one chunk.
    blocks = prediction_blocks(make_triple([0.9, 0.5]), 1, range(2**62))
    assert next(blocks).shape == (rows, 1)


@pytest.mark.parametrize("steps", [
    range(3000), range(5, 3000, 7), range(2999, -1, -3), range(4, 4),
    range(1010, 1012), range(1005, 1020), range(7, 5000, 9),
    range(5000, 0, -9), range(1009, 0, -1)])
def test_range_steps_predict_as_their_array(steps):
    # N = 90 gives 182 steps per chunk; |lambda| = 2 first overflows at
    # k = 1010, so some ranges must stop there, in either direction.
    rng = np.random.default_rng(7)
    eigenvalues = rng.uniform(0.5, 1.0, 90) * np.exp(
        1j * rng.uniform(-np.pi, np.pi, 90))
    eigenvalues[0] = 2.0
    triple = make_triple(eigenvalues, n_outputs=3)
    array = np.array(steps, dtype=np.int64)
    if array.max(initial=0) < 1010:
        assert np.array_equal(predict(triple, 1, steps),
                              predict(triple, 1, array))
        return
    errors = []
    for form in (steps, array):
        with pytest.raises(SpectralOverflowError) as caught:
            predict(triple, 1, form)
        errors.append(str(caught.value))
    assert errors[0] == errors[1]
    assert f"at k={array[array >= 1010][0]} for" in errors[0]


@pytest.mark.parametrize("eigenvalues,phi,modes,decode,message", [
    ([], [[]], [[]], [[1.0]], "needs >= 1 eigenvalue"),
    ([0.5], [[1.0, 2.0]], [[1.0]], [[1.0]], "one column per eigenvalue"),
    ([0.5], [[1.0]], [[1.0, 2.0]], [[1.0]], "one column per eigenvalue"),
    ([0.5], [[1.0]], [[1.0]], [[1.0], [2.0]], "one row per output"),
])
def test_triple_shapes_are_checked(eigenvalues, phi, modes, decode, message):
    with pytest.raises(ShapeMismatchError, match=message):
        SpectralTriple(eigenvalues, phi, modes, decode)


def test_triple_needs_a_fit_with_a_decode_map():
    data = simulate_linear(0.5 * np.eye(2), np.eye(2), 10)
    fitted = fit_koopman_matrix(lift_trajectories(identity_dictionary(2),
                                                  data))
    assert fitted.decode is None
    with pytest.raises(ShapeMismatchError, match="no decode map"):
        build_spectral_triple(eigendecompose(fitted), fitted)


def test_mode_projection_needs_full_rank():
    # One trajectory of a repeated eigenvalue gives proportional
    # eigenfunction series: the projection must refuse, not alias.
    data = simulate_linear(0.5 * np.eye(2), np.array([[1.0, 1.0]]), 10)
    fitted = fit_koopman_matrix(lift_trajectories(identity_dictionary(2),
                                                  data, outputs=True))
    system = eigendecompose(0.5 * np.eye(2))
    with pytest.raises(EigenfunctionRankError):
        build_spectral_triple(system, fitted)


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
    fitted, triple = triple_pipeline(data, dictionary)
    current, _, outputs = stacked_lift(dictionary, data)
    system = eigendecompose(fitted)
    assert fitted.rank_used == len(dictionary)
    # Rounding of either side grows with the conditioning of both factors.
    error_scale = (100 * np.finfo(float).eps * np.linalg.cond(current)
                   * np.linalg.cond(system.right_vectors))

    series = system.left_vectors.conj().T @ current
    projection = np.linalg.lstsq(series.T, outputs.T.astype(complex),
                                 rcond=None)[0].T
    assert np.max(np.abs(triple.modes - projection)) <= error_scale * max(
        1.0, float(np.max(np.abs(projection))))

    decode_norm = np.linalg.norm(triple.decode, 2)
    for i, g0 in enumerate(fitted.initial_lifts.T):
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


def test_metadata_hash_must_be_32_bytes():
    with pytest.raises(InputError, match="^dict_hash must be exactly 32 "
                                         "bytes$"):
        ModelMetadata(dict_hash=bytes(31))
