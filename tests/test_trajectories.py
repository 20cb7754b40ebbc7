"""Trajectory container validation and accessors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from koopmodel import InputError, Snapshot, Trajectory, TrajectorySet
from koopmodel.cli import read_trajectories


def make_trajectory(values, id="t0", t0=0):
    return Trajectory.from_array(np.asarray(values, dtype=float), id=id, t0=t0)


def test_snapshot_coerces_to_float_vector():
    snap = Snapshot(values=[1, 2, 3], time_index=0)
    assert snap.values.dtype == float
    assert snap.values.shape == (3,)


def test_snapshot_rejects_nan_and_matrix_and_negative_time():
    with pytest.raises(InputError):
        Snapshot(values=[1.0, np.nan], time_index=0)
    with pytest.raises(InputError):
        Snapshot(values=[[1.0]], time_index=0)
    with pytest.raises(InputError):
        Snapshot(values=[1.0], time_index=-1)


def read_csv_text(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text)
    return read_trajectories(path)


def test_trajectory_requires_consecutive_times(tmp_path):
    # Times are t0, t0 + 1, ... by construction; the CSV reader is where
    # non-consecutive times can still appear, and it rejects them.
    good = make_trajectory([0.0, 1.0, 2.0], id="run", t0=3)
    assert len(good) == 3 and good.t0 == 3
    with pytest.raises(InputError, match="increase by 1"):
        read_csv_text(tmp_path, "trajectory_id,t,x\nbad,0,0.0\nbad,2,1.0\n")


def test_trajectory_requires_two_snapshots_and_constant_width(tmp_path):
    with pytest.raises(InputError, match="at least 2"):
        make_trajectory([[0.0]], id="short")
    with pytest.raises(ValueError):
        Trajectory.from_array([[0.0], [1.0, 2.0]], id="ragged")
    with pytest.raises(InputError, match="expected 3 columns"):
        read_csv_text(tmp_path, "trajectory_id,t,x\nr,0,0.0\nr,1,1.0,2.0\n")


def test_trajectory_rejects_nan_and_negative_t0():
    with pytest.raises(InputError, match="snapshot at t=6 contains NaN/Inf"):
        make_trajectory([[1.0, 2.0], [3.0, 4.0], [np.inf, 0.0]], t0=4)
    with pytest.raises(InputError, match="snapshot at t=0 contains NaN/Inf"):
        make_trajectory([np.nan, 1.0])
    with pytest.raises(InputError, match="time_index must be non-negative"):
        make_trajectory([1.0, 2.0], t0=-1)
    with pytest.raises(TypeError):
        make_trajectory([1.0, 2.0], t0=1.5)


def test_trajectory_values_are_a_read_only_copy():
    source = np.array([[1.0, 2.0], [3.0, 4.0]])
    traj = make_trajectory(source)
    source[0, 0] = 99.0
    assert traj.values[0, 0] == 1.0
    with pytest.raises(ValueError):
        traj.values[0, 0] = 5.0
    with pytest.raises(ValueError):
        traj.feature_series(1)[0] = 5.0


def test_from_array_promotes_1d_to_single_feature():
    traj = make_trajectory([1.0, 2.0, 3.0])
    assert traj.n_features == 1
    assert np.array_equal(traj.feature_series(0), [1.0, 2.0, 3.0])


def test_from_array_rows_are_snapshots():
    traj = make_trajectory([[1.0, 10.0], [2.0, 20.0]], t0=7)
    assert traj.t0 == 7 and len(traj) == 2
    assert np.array_equal(traj.values[1], [2.0, 20.0])
    assert np.array_equal(traj.feature_series(1), [10.0, 20.0])


def test_from_array_rejects_3d():
    with pytest.raises(InputError):
        Trajectory.from_array(np.zeros((2, 2, 2)), id="cube")


def test_set_requires_matching_feature_count():
    t0 = make_trajectory([[1.0, 2.0], [3.0, 4.0]], id="a")
    t1 = make_trajectory([1.0, 2.0], id="b")
    with pytest.raises(InputError, match="features"):
        TrajectorySet(trajectories=(t0, t1), feature_names=("u", "v"))


def test_set_requires_unique_ids_and_resolves_lookups():
    t0 = make_trajectory([1.0, 2.0], id="a")
    t1 = make_trajectory([3.0, 4.0], id="b")
    data = TrajectorySet(trajectories=(t0, t1), feature_names=("u",))
    assert data.trajectory_ids == ("a", "b")
    assert data.feature_index("u") == 0
    assert data.trajectory("b") is t1
    with pytest.raises(InputError):
        data.feature_index("w")
    with pytest.raises(InputError):
        data.trajectory("c")
    with pytest.raises(InputError, match="unique"):
        TrajectorySet(trajectories=(t0, t0), feature_names=("u",))


@settings(max_examples=100, deadline=None)
@given(
    arrays(
        dtype=float,
        shape=st.tuples(st.integers(2, 12), st.integers(1, 4)),
        elements=st.floats(-1e6, 1e6, allow_nan=False),
    ),
    st.integers(0, 1000),
)
def test_from_array_round_trips_values(values, t0):
    traj = Trajectory.from_array(values, id="rt", t0=t0)
    assert traj.t0 == t0
    assert np.array_equal(traj.values, values)
    for j in range(values.shape[1]):
        assert np.array_equal(traj.feature_series(j), values[:, j])
