"""Least-squares operator fitting and pseudoinverse diagnostics."""

import contextlib
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
    with pytest.raises(ShapeMismatchError, match="finite"):
        pseudoinverse(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ShapeMismatchError, match="cutoff"):
        pseudoinverse(np.eye(2), tol=-1e-10)


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


def delay_dictionary(n_features: int, lags) -> Dictionary:
    """Every feature's coordinate and its sine, then a delay of the first
    coordinate or of a sine at each lag in ``lags``."""
    entries = [{"id": f"x{i}", "kind": "coordinate", "params": {"index": i}}
               for i in range(n_features)]
    entries += [{"id": f"s{i}", "kind": "sin", "params": {"of": f"x{i}"}}
                for i in range(n_features)]
    entries += [{"id": f"d{j}", "kind": "delay",
                 "params": {"of": ("x0", "s0")[j % 2], "lag": lag}}
                for j, lag in enumerate(lags)]
    return Dictionary.from_spec(entries, n_features)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_windowed_lift_fits_as_the_whole_lift(seed, data):
    # FIT_BLOCK_BYTES is shrunk so a trajectory is lifted in windows of
    # ``rows`` snapshots, or of lag + 2 when the delay depth needs more.
    # Columns are copied into the same fold blocks whatever the windows,
    # so the fit is bit-equal to one whole lift per trajectory, and each
    # trajectory gives one initial lift.
    rng = np.random.default_rng(seed)
    n = data.draw(st.integers(1, 2), label="n")
    rows = data.draw(st.integers(2, 12), label="rows")
    lags = data.draw(st.lists(st.integers(1, rows + 3), min_size=1,
                              max_size=3), label="lags")
    dictionary = delay_dictionary(n, lags)
    lag = dictionary.max_lag
    lengths = data.draw(st.lists(st.integers(lag + 2, lag + 6 * rows),
                                 min_size=1, max_size=2), label="lengths")
    trajectories = tuple(Trajectory(rng.normal(size=(m, n)), id=f"t{i}")
                         for i, m in enumerate(lengths))
    data_set = TrajectorySet(trajectories=trajectories,
                             feature_names=tuple(f"f{i}" for i in range(n)))
    whole = []
    for traj in trajectories:
        lifted = dictionary.evaluate(traj.values)[:, lag:]
        whole.append((lifted[:, :-1], lifted[:, 1:], traj.values[lag:-1].T))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(edmd, "FIT_BLOCK_BYTES", 8 * len(dictionary) * rows)
        segments = list(lift_trajectories(dictionary, data_set,
                                          outputs=True))
        windowed = fit_koopman_matrix(iter(segments))
        expected = fit_koopman_matrix(whole)
    span = max(1, rows - lag - 1)
    assert [type(s) is edmd.Continued for s in segments] == [
        k > 0 for m in lengths for k in range(-(-(m - 1 - lag) // span))]
    for name in ("factor", "matrix", "decode", "row_residuals",
                 "initial_lifts"):
        assert np.array_equal(getattr(windowed, name),
                              getattr(expected, name)), name
    assert windowed.initial_lifts.shape == (len(dictionary), len(lengths))
    assert windowed.n_pairs == expected.n_pairs == sum(lengths) \
        - len(lengths) * (lag + 1)


def test_no_value_far_below_the_largest_reaches_the_qr():
    # Monomials of degree 1..6 of x+ = 0.5 x decay to subnormal numbers and
    # to zero within the 1,500 steps.  Every new block the fold hands to
    # the QR holds no nonzero entry below FLUSH_RATIO times the largest
    # value folded so far, and the fit still matches the SVD path.
    entries = [{"id": f"x{k}", "kind": "monomial", "params": {"exponents": [k]}}
               for k in range(1, 7)]
    dictionary = Dictionary.from_spec(entries, 1)
    data = TrajectorySet(
        trajectories=(Trajectory(0.9 * 0.5 ** np.arange(1500.0)[:, None],
                                 id="decay"),),
        feature_names=("x",))
    (segment,) = lift_trajectories(dictionary, data, outputs=True)
    lifted = np.concatenate(segment)
    assert np.any((lifted != 0) & (np.abs(lifted) < np.finfo(float).tiny))
    qr, received = np.linalg.qr, []

    def spy(a, mode):
        received.append(a.copy())
        return qr(a, mode=mode)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "qr", spy)
        assert_matches_svd_reference(*segment)
    assert received
    largest, top = 0.0, 0
    for a in received:
        block = np.abs(a[top:])  # the rows above are the factor so far
        largest = max(largest, block.max())
        assert not np.any((block != 0) & (block < largest * edmd.FLUSH_RATIO))
        top = min(len(a), a.shape[1])


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_blocks_below_the_flush_threshold_change_nothing(seed, data):
    # FIT_BLOCK_BYTES is shrunk to blocks of ``rows`` pairs.  Whole blocks
    # of pairs below the threshold, after at least one block of data in
    # units ``scale``, are zeroed and fold as no pairs at all.
    rng = np.random.default_rng(seed)
    d, h = int(rng.integers(1, 5)), int(rng.integers(0, 3))
    rows = 2 * d + h + int(rng.integers(0, 4))
    head, tiny = (data.draw(st.integers(1, 3), label=label) * rows
                  for label in ("head blocks", "tiny blocks"))
    tail = data.draw(st.integers(1, 3 * rows), label="tail")
    scale = 10.0 ** rng.uniform(-100, 100)
    normal = scale * rng.normal(size=(2 * d + h, head + tail))
    largest = np.abs(normal[:, :head]).max()
    small = (largest * edmd.FLUSH_RATIO * rng.uniform(-1, 1, (2 * d + h, tiny))
             * 10.0 ** -rng.uniform(0, 200, (2 * d + h, tiny)))
    small[:, ::7] = 0.0

    def segment(columns):
        return tuple(columns[lo:hi] for lo, hi in
                     ((0, d), (d, 2 * d), (2 * d, 2 * d + h)) if hi > lo)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(edmd, "FIT_BLOCK_BYTES", 8 * (2 * d + h) * rows)
        plain = fit_koopman_matrix([segment(normal)])
        flushed = fit_koopman_matrix([
            segment(normal[:, :head]), segment(small),
            segment(normal[:, head:])])
    for name in ("factor", "matrix", "row_residuals") + ("decode",) * (h > 0):
        assert np.array_equal(getattr(flushed, name), getattr(plain, name)), name


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("column", [3, 700, 1000, 1399, 1520])
def test_a_non_finite_value_still_fails_the_fit(value, column):
    # Blocks of 100 pairs, so the value sits in the first, a middle or the
    # last, partial, block of current or shifted; half the data lies below
    # the flush threshold.  Pairs 900 to 1399 lie far below SKIP_RATIO of
    # every column, so the fold would leave out the pairs 1000 and 1399.
    rng = np.random.default_rng(column)
    for array in range(2):
        data = [rng.normal(size=(3, 1550)), rng.normal(size=(3, 1550)),
                rng.normal(size=(1, 1550))]
        data[0][:, ::2] *= 1e-200
        for part in data:
            part[:, 900:1400] *= 1e-30
        data[array][-1, column] = value
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(edmd, "FIT_BLOCK_BYTES", 8 * 7 * 100)
            with pytest.raises(ShapeMismatchError,
                               match="fit data must be finite"):
                fit_koopman_matrix([tuple(data)])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_output_leaves_its_block_alone(value):
    # The outputs come after current and shifted in the factor, so a
    # non-finite one would reach only the decode map.  Its block is not
    # folded: the fit refuses it instead of returning a non-finite decode.
    rng = np.random.default_rng(5)
    current = rng.normal(size=(3, 1550))
    shifted = 0.5 * current + 0.1 * rng.normal(size=(3, 1550))
    outputs = rng.normal(size=(1, 1550))
    outputs[0, 700] = value
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(edmd, "FIT_BLOCK_BYTES", 8 * 7 * 100)
        with pytest.raises(ShapeMismatchError,
                           match="fit data must be finite"):
            fit_koopman_matrix([(current, shifted, outputs)])
        plain = fit_koopman_matrix([(current, shifted)])
    assert np.all(np.isfinite(plain.matrix))


def test_the_flush_allocates_no_array():
    # One boolean scratch per fit serves every block, a few rows at a time
    # (here 96 rows of a 390-row block, the last time 6).
    rng = np.random.default_rng(2)
    block = (rng.normal(size=(390, 169))
             * 10.0 ** rng.integers(-400, 1, size=(390, 169)))
    largest = np.abs(block).max()
    expected = np.where(np.abs(block) < largest * edmd.FLUSH_RATIO, 0.0, block)
    assert 0 < np.count_nonzero(expected != block) < block.size // 2
    tiny = np.empty((2, 96, 169), dtype=bool)
    tracemalloc.start()
    try:
        scale = edmd._sift(block, 0.0, tiny)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096 < tiny.size
    assert scale == largest
    assert np.array_equal(block, expected)


def decaying(rng, width, lengths, floor=0.0):
    """``width`` rows by ``sum(lengths)`` columns, trajectories side by
    side: in each, row i starts at a normal draw and shrinks by its own
    rate from (0.3, 0.95) per step, down to ``floor`` times the start, and
    each entry is scaled by a factor from (0.5, 1.5)."""
    rates = rng.uniform(0.3, 0.95, (width, 1))
    return np.concatenate([
        rng.normal(size=(width, 1))
        * np.maximum(rates ** np.arange(n), floor)
        * rng.uniform(0.5, 1.5, (width, n)) for n in lengths], axis=1)


def decay_lengths(data, rows):
    """One to three trajectory lengths, each long enough that every rate of
    :func:`decaying` falls below e^-60 and two blocks of ``rows`` pairs lie
    past that point, so the fold leaves out some pairs."""
    steps = int(np.ceil(60 / -np.log(0.95))) + 2 * rows
    return data.draw(st.lists(st.integers(steps, 2 * steps), min_size=1,
                              max_size=3), label="lengths")


def as_segment(columns, d, h):
    """``(current, shifted[, outputs])`` from the rows of ``columns``."""
    return tuple(columns[lo:hi] for lo, hi in
                 ((0, d), (d, 2 * d), (2 * d, 2 * d + h)) if hi > lo)


@contextlib.contextmanager
def folded_rows():
    """Collect, for one fit, the rows each ``np.linalg.qr`` call receives
    below the factor so far: the pairs the fold factors, in order."""
    qr, blocks, top = np.linalg.qr, [], [0]

    def spy(a, mode):
        blocks.append(a[top[0]:].copy())
        top[0] = min(a.shape)
        return qr(a, mode=mode)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "qr", spy)
        yield blocks


def left_out(rows, folded):
    """Mask of the rows of ``rows`` that ``folded``, a subsequence of
    them, does not hold."""
    kept, j = np.zeros(len(rows), dtype=bool), 0
    for i, row in enumerate(rows):
        if j < len(folded) and np.array_equal(row, folded[j]):
            kept[i], j = True, j + 1
    assert j == len(folded)
    return ~kept


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_decaying_fit_does_not_depend_on_where_segments_split(seed, data):
    # Decayed pairs are left out of the fold, and which ones depends only on
    # the sequence of pairs, not on the segments' split: every fit quantity
    # is bit-equal to the one-segment fit.  FIT_BLOCK_BYTES is shrunk to
    # blocks of ``rows`` pairs; the decays reach the flush threshold too.
    rng = np.random.default_rng(seed)
    d, h = int(rng.integers(1, 5)), int(rng.integers(0, 3))
    width = 2 * d + h
    rows = width + data.draw(st.integers(0, 3 * width), label="extra rows")
    columns = decaying(rng, width, decay_lengths(data, rows))
    k = columns.shape[1]
    density = data.draw(st.sampled_from([0.01, 0.1, 0.5]), label="cuts")
    bounds = [0, *(np.flatnonzero(rng.random(k - 1) < density) + 1), k]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(edmd, "FIT_BLOCK_BYTES", 8 * width * rows)
        with folded_rows() as blocks:
            whole = fit_koopman_matrix([as_segment(columns, d, h)])
        parts = fit_koopman_matrix(iter(
            [as_segment(columns[:, start:stop], d, h)
             for start, stop in zip(bounds, bounds[1:])]))
    assert sum(map(len, blocks)) < k
    for name in ("factor", "matrix", "row_residuals") + ("decode",) * (h > 0):
        assert np.array_equal(getattr(parts, name), getattr(whole, name)), name
    assert parts.n_pairs == whole.n_pairs == k


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_pairs_left_out_stay_below_the_skip_ratio(seed, data):
    # Per column, the squares of the pairs the fold leaves out sum to at
    # most SKIP_RATIO^2 times the squares of the pairs it folds, in plain
    # numpy.  The fold takes its room from the factor's column norms, which
    # agree with the folded pairs' to rounding, and passes of one row can
    # use up the room: hence the slack of 1e-9 of the bound.  The decays
    # stop at 1e-100 of their start, above the flush threshold, so each
    # folded pair reaches the QR as it was given.
    rng = np.random.default_rng(seed)
    d, h = int(rng.integers(1, 5)), int(rng.integers(0, 3))
    width = 2 * d + h
    rows = width + data.draw(st.integers(0, 3 * width), label="extra rows")
    columns = decaying(rng, width, decay_lengths(data, rows), floor=1e-100)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(edmd, "FIT_BLOCK_BYTES", 8 * width * rows)
        with folded_rows() as blocks:
            fit_koopman_matrix([as_segment(columns, d, h)])
    folded = np.concatenate(blocks)
    out = left_out(columns.T, folded)
    assert out.any()
    assert np.all(np.sum(columns.T[out] ** 2, axis=0) <= (1 + 1e-9)
                  * edmd.SKIP_RATIO ** 2 * np.sum(folded ** 2, axis=0))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_decaying_fit_matches_the_svd_path(seed, data):
    # The pairs left out lie below the QR's own backward error, so the fit
    # keeps the SVD path's error bound.
    rng = np.random.default_rng(seed)
    d, h = int(rng.integers(1, 5)), int(rng.integers(1, 3))
    width = 2 * d + h
    rows = width + data.draw(st.integers(0, 3 * width), label="extra rows")
    columns = decaying(rng, width, decay_lengths(data, rows))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(edmd, "FIT_BLOCK_BYTES", 8 * width * rows)
        with folded_rows() as blocks:
            assert_matches_svd_reference(*as_segment(columns, d, h))
    assert sum(map(len, blocks)) < columns.shape[1]


def test_a_column_of_zero_mass_leaves_out_only_pairs_zero_in_it():
    # The output is 0 in the first block, so its column in the factor has
    # norm 0.  After it, current and shifted lie far below their columns'
    # norms: a pair is left out where its output is exactly 0 and folded
    # where it is not, however small.  Normal pairs at the end make the
    # fold examine every small one.
    rng = np.random.default_rng(12)
    d, rows = 2, 10
    first = rng.normal(size=(2 * d + 1, rows))
    first[-1] = 0.0
    small = 1e-30 * rng.normal(size=(2 * d + 1, 6 * rows))
    small[-1] = 0.0
    small[-1, [0, 17, 18, 59]] = 1e-40 * np.array([1.0, -2.0, 3.0, -4.0])
    last = rng.normal(size=(2 * d + 1, rows))
    columns = np.concatenate([first, small, last], axis=1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(edmd, "FIT_BLOCK_BYTES", 8 * (2 * d + 1) * rows)
        with folded_rows() as blocks:
            fit_koopman_matrix([as_segment(columns, d, 1)])
    kept = np.r_[:rows, rows + np.array([0, 17, 18, 59]), 7 * rows:8 * rows]
    assert np.array_equal(np.concatenate(blocks), columns.T[kept])


def test_the_sift_allocates_no_block_sized_array():
    # The sift moves the rows it keeps up the block one scratch plane of
    # rows at a time (here 96 of 3,000), so what it allocates stays within
    # two planes of doubles.  It keeps, in order, the rows with an entry
    # beyond ``limit``, and adds the squares of the others to ``skipped``.
    rng = np.random.default_rng(3)
    block = rng.normal(size=(3000, 169))
    small = rng.random(3000) < 0.5
    block[small] *= 1e-20
    expected = block[~small]
    squares = np.sum(block[small] ** 2, axis=0)
    tiny = np.empty((2, 96, 169), dtype=bool)
    skipped = np.zeros(169)
    tracemalloc.start()
    try:
        scale, kept = edmd._sift(block, 0.0, tiny, np.full(169, 1e-10),
                                 skipped)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 96 * 169 * 8 + 4096 < block.nbytes // 8
    assert scale == np.abs(expected).max()
    assert kept == len(expected)
    assert np.array_equal(block[:kept], expected)
    assert np.allclose(skipped, squares, rtol=1e-12, atol=0.0)


def test_fit_memory_does_not_grow_with_a_trajectory_length():
    # One trajectory is lifted window by window, so 8 times its rows add
    # no memory to the lift and the fit (d = 12, delays up to 4).
    dictionary = delay_dictionary(3, [1, 2, 3, 4, 1, 2])
    assert len(dictionary) == 12
    rng = np.random.default_rng(6)

    def peak_bytes(m):
        data = TrajectorySet(
            trajectories=(Trajectory(rng.normal(size=(m, 3)), id="long"),),
            feature_names=("a", "b", "c"))
        tracemalloc.start()
        try:
            fitted = fit_koopman_matrix(lift_trajectories(dictionary, data,
                                                          outputs=True))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fitted.initial_lifts.shape == (12, 1)
        return peak

    small, large = peak_bytes(20_000), peak_bytes(160_000)
    lift_bytes = 12 * 160_000 * 8  # 15 MB: the whole lift of the long one
    assert abs(large - small) < 2**20 < lift_bytes // 8


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
