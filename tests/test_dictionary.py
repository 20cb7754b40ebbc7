"""Observable dictionaries: grammar, evaluation, lifting, dependence."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopmodel import (
    ConfigError,
    Dictionary,
    EvaluationError,
    LiftError,
    ShapeMismatchError,
    Trajectory,
    TrajectorySet,
    UnknownObservableError,
    dependence_closure,
    generator_features,
    lift_trajectories,
)
from conftest import worked_dictionary


def at_last_row(dictionary, *rows):
    """The lift of the last of ``rows``, consecutive snapshots."""
    return dictionary.evaluate(np.array(rows, dtype=float))[:, -1]


def single_feature_set(series, id="s"):
    traj = Trajectory(np.asarray(series, dtype=float), id=id)
    return TrajectorySet(trajectories=(traj,), feature_names=("x",))


# -- grammar -----------------------------------------------------------------

def test_kind_grammar_round_trip():
    entries = [
        {"id": "x", "kind": "coordinate", "params": {"index": 0}},
        {"id": "sx", "kind": "sin", "params": {"of": "x"}},
        {"id": "cx", "kind": "cos", "params": {"of": 0}},
        {"id": "xy", "kind": "monomial", "params": {"exponents": [1, 1]}},
        {"id": "dx", "kind": "delay", "params": {"of": "x", "lag": 2}},
        {"id": "tx", "kind": "composition", "params": {"fn": "tanh", "of": "x"}},
        {"id": "lin", "kind": "composition",
         "params": {"weights": {"x": 2.0, "sx": -1.0}, "bias": 0.5}},
    ]
    dic = Dictionary.from_spec(entries, 2)
    assert dic.ids == ("x", "sx", "cx", "xy", "dx", "tx", "lin")
    assert dic.max_lag == 2


@pytest.mark.parametrize("entry,message", [
    ({"id": "a", "kind": "warp", "params": {}}, "kind"),
    ({"id": "a", "kind": "coordinate", "params": {"index": 3}}, "index"),
    ({"id": "a", "kind": "sin", "params": {"of": "missing"}}, "missing"),
    ({"id": "a", "kind": "monomial", "params": {"exponents": [1]}}, "exponent"),
    ({"id": "a", "kind": "monomial", "params": {"exponents": [1, -1]}},
     "exponent"),
    ({"id": "a", "kind": "delay", "params": {"of": "a", "lag": 1}}, "a"),
    ({"id": "a", "kind": "composition", "params": {"fn": "foo", "of": 0}},
     "foo"),
    ({"id": "a", "kind": "coordinate", "params": "abc"},
     "params must be an object"),
    ({"id": "a", "kind": "coordinate", "params": {"index": 0},
      "depends_on": 5}, "depends_on must be a list"),
    ({"id": "a", "kind": "coordinate", "params": {"index": 0},
      "depends_on": "x"}, "depends_on must be a list"),
])
def test_bad_entries_rejected(entry, message):
    with pytest.raises(ConfigError, match=message):
        Dictionary.from_spec([entry], 2)


def test_forward_references_rejected():
    entries = [
        {"id": "sx", "kind": "sin", "params": {"of": "x"}},
        {"id": "x", "kind": "coordinate", "params": {"index": 0}},
    ]
    with pytest.raises(ConfigError):
        Dictionary.from_spec(entries, 1)


def test_duplicate_ids_rejected():
    entry = {"id": "x", "kind": "coordinate", "params": {"index": 0}}
    with pytest.raises(ConfigError, match="duplicate"):
        Dictionary.from_spec([entry, dict(entry)], 1)


def test_spec_hash_is_stable_and_distinguishes():
    a = worked_dictionary()
    b = worked_dictionary()
    assert a.spec_hash() == b.spec_hash()
    assert len(a.spec_hash()) == 32
    other = Dictionary.from_spec(
        [{"id": "x", "kind": "coordinate", "params": {"index": 0}}], 2
    )
    assert a.spec_hash() != other.spec_hash()


# -- evaluation --------------------------------------------------------------

def test_worked_dict_at_origin():
    dic = worked_dictionary()
    out = at_last_row(dic, [0.0, 5.0])
    assert np.allclose(out, [0.0, 0.0, 5.0])


def test_worked_dict_at_half_pi():
    dic = worked_dictionary()
    out = at_last_row(dic, [math.pi / 2, 1.0])
    assert np.allclose(out, [math.pi / 2, 1.0, 1.0])


def test_delay_reads_previous_snapshot():
    dic = Dictionary.from_spec([
        {"id": "x", "kind": "coordinate", "params": {"index": 0}},
        {"id": "px", "kind": "delay", "params": {"of": "x", "lag": 1}},
    ], 1)
    out = at_last_row(dic, [1.0], [2.0])
    assert np.allclose(out, [2.0, 1.0])


def test_evaluate_checks_feature_count():
    dic = worked_dictionary()
    with pytest.raises(ShapeMismatchError, match=r"\(m, 2\)"):
        dic.evaluate(np.zeros((3, 3)))
    with pytest.raises(ShapeMismatchError):
        dic.evaluate(np.zeros(2))


def test_evaluation_error_names_observable():
    dic = Dictionary.from_spec([
        {"id": "x", "kind": "coordinate", "params": {"index": 0}},
        {"id": "logx", "kind": "composition", "params": {"fn": "log", "of": "x"}},
    ], 1)
    with pytest.raises(EvaluationError, match="logx"):
        at_last_row(dic, [-1.0])


def test_monomial_and_linear_combination_values():
    dic = Dictionary.from_spec([
        {"id": "x", "kind": "coordinate", "params": {"index": 0}},
        {"id": "y", "kind": "coordinate", "params": {"index": 1}},
        {"id": "x2y", "kind": "monomial", "params": {"exponents": [2, 1]}},
        {"id": "aff", "kind": "composition",
         "params": {"weights": {"x": 2.0, "y": -3.0}, "bias": 1.0}},
    ], 2)
    out = at_last_row(dic, [3.0, 4.0])
    assert np.allclose(out, [3.0, 4.0, 36.0, 2 * 3.0 - 3 * 4.0 + 1.0])


def test_monomials_share_powers_bit_for_bit():
    # Every monomial of degree <= 6 in 3 features (83 entries over 18
    # distinct powers), against the product of uncached powers in the same
    # order.
    exponents = [e for e in itertools.product(range(7), repeat=3)
                 if 1 <= sum(e) <= 6]
    dic = Dictionary.from_spec(
        [{"id": f"m{i}", "kind": "monomial", "params": {"exponents": list(e)}}
         for i, e in enumerate(exponents)], 3)
    values = np.random.default_rng(9).uniform(-1.5, 1.5, size=(200, 3))
    expected = np.empty((len(exponents), len(values)))
    for row, e in enumerate(exponents):
        s = np.ones(len(values))
        for i, power in enumerate(e):
            if power:
                s = s * values[:, i] ** power
        expected[row] = s
    assert len(exponents) == 83
    assert np.array_equal(dic.evaluate(values), expected)


# -- lifting -----------------------------------------------------------------

def test_identity_lift_is_shift_pairing():
    dic = Dictionary.from_spec(
        [{"id": "x", "kind": "coordinate", "params": {"index": 0}}], 1
    )
    [(current, shifted)] = lift_trajectories(
        dic, single_feature_set([1.0, 2.0, 3.0]))
    assert np.array_equal(current, [[1.0, 2.0]])
    assert np.array_equal(shifted, [[2.0, 3.0]])


def test_column_count_across_trajectories():
    dic = Dictionary.from_spec(
        [{"id": "x", "kind": "coordinate", "params": {"index": 0}}], 1
    )
    t0 = Trajectory([1.0, 2.0, 3.0, 4.0], id="a")
    t1 = Trajectory([5.0, 6.0, 7.0], id="b")
    data = TrajectorySet(trajectories=(t0, t1), feature_names=("x",))
    (c0, s0), (c1, s1) = lift_trajectories(dic, data)
    assert (c0.shape[1], c1.shape[1]) == (4 - 1, 3 - 1)
    # Never pair across the trajectory boundary.
    assert c1[0, 0] == 5.0 and s0[0, -1] == 4.0


def test_worked_example_column_pairing(worked_data, worked_dict):
    segments = list(lift_trajectories(worked_dict, worked_data))
    # Each worked trajectory fills len - 1 columns (no delays).
    assert [c.shape[1] for c, _ in segments] == [
        len(t) - 1 for t in worked_data.trajectories]
    current, shifted = segments[1]
    x, y = worked_data.trajectories[1].values[3]
    assert np.allclose(current[:, 3], [x, math.sin(x), y])
    assert np.allclose(shifted[:, 3],
                       [x + math.sin(x), math.sin(x + math.sin(x)), y + x])


def test_delay_lag_shrinks_column_count():
    dic = Dictionary.from_spec([
        {"id": "x", "kind": "coordinate", "params": {"index": 0}},
        {"id": "px", "kind": "delay", "params": {"of": "x", "lag": 2}},
    ], 1)
    [(current, shifted, outputs)] = lift_trajectories(
        dic, single_feature_set([1.0, 2.0, 3.0, 4.0, 5.0]), outputs=True)
    # length m = 5, max lag L = 2 -> m - 1 - L = 2 column pairs
    assert np.array_equal(current, [[3.0, 4.0], [1.0, 2.0]])
    assert np.array_equal(shifted, [[4.0, 5.0], [2.0, 3.0]])
    assert np.array_equal(outputs, [[3.0, 4.0]])


def test_too_short_trajectory_is_named():
    dic = Dictionary.from_spec([
        {"id": "x", "kind": "coordinate", "params": {"index": 0}},
        {"id": "px", "kind": "delay", "params": {"of": "x", "lag": 3}},
    ], 1)
    segments = lift_trajectories(
        dic, single_feature_set([1.0, 2.0, 3.0], id="shorty"))
    with pytest.raises(LiftError, match="shorty"):
        next(segments)


def test_feature_count_is_checked_before_any_lift(worked_dict):
    with pytest.raises(ShapeMismatchError, match="dictionary expects 2"):
        next(lift_trajectories(worked_dict, single_feature_set([1.0, 2.0])))


# -- dependence --------------------------------------------------------------

def test_closure_of_first_coordinate_reaches_sine(worked_dict):
    assert dependence_closure(worked_dict, {"x"}) == {"x", "sinx"}


def test_closure_fixed_points(worked_dict):
    assert dependence_closure(worked_dict, {"y"}) == {"y"}
    everything = set(worked_dict.ids)
    assert dependence_closure(worked_dict, everything) == everything


def test_closure_unknown_id(worked_dict):
    with pytest.raises(UnknownObservableError):
        dependence_closure(worked_dict, {"nope"})


def test_generator_features(worked_dict):
    assert generator_features(worked_dict, {"x"}) == {0}
    assert generator_features(worked_dict, {"sinx"}) == {0}
    assert generator_features(worked_dict, {"x", "y"}) == {0, 1}


@st.composite
def dictionaries_and_seeds(draw):
    n_features = draw(st.integers(1, 3))
    entries = [{"id": f"c{i}", "kind": "coordinate", "params": {"index": i}}
               for i in range(n_features)]
    n_extra = draw(st.integers(0, 4))
    for j in range(n_extra):
        base = draw(st.sampled_from([e["id"] for e in entries]))
        kind = draw(st.sampled_from(["sin", "cos"]))
        entries.append({"id": f"e{j}", "kind": kind, "params": {"of": base}})
    ids = [e["id"] for e in entries]
    small = draw(st.sets(st.sampled_from(ids), max_size=len(ids)))
    big = small | draw(st.sets(st.sampled_from(ids), max_size=len(ids)))
    return Dictionary.from_spec(entries, n_features), small, big


@settings(max_examples=100, deadline=None)
@given(dictionaries_and_seeds())
def test_closure_monotone_and_idempotent(case):
    dic, small, big = case
    closed_small = dependence_closure(dic, small)
    closed_big = dependence_closure(dic, big)
    assert closed_small <= closed_big
    assert dependence_closure(dic, closed_small) == closed_small


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=3, max_size=12))
def test_shift_consistency_single_trajectory(series):
    dic = Dictionary.from_spec([
        {"id": "x", "kind": "coordinate", "params": {"index": 0}},
        {"id": "sx", "kind": "sin", "params": {"of": "x"}},
    ], 1)
    [(current, shifted)] = lift_trajectories(dic, single_feature_set(series))
    assert np.array_equal(shifted[:, :-1], current[:, 1:])


# -- lifting identity --------------------------------------------------------

@st.composite
def lifting_cases(draw):
    """Several trajectories with nonzero start times and a delay dictionary."""
    n_features = draw(st.integers(1, 3))
    entries = [{"id": f"c{i}", "kind": "coordinate", "params": {"index": i}}
               for i in range(n_features)]
    entries.append({"id": "s0", "kind": "sin", "params": {"of": "c0"}})
    entries.append({"id": "m", "kind": "monomial",
                    "params": {"exponents": [2] + [1] * (n_features - 1)}})
    for j in range(draw(st.integers(1, 3))):
        base = draw(st.sampled_from([e["id"] for e in entries]))
        entries.append({"id": f"d{j}", "kind": "delay",
                        "params": {"of": base, "lag": draw(st.integers(1, 2))}})
    dictionary = Dictionary.from_spec(entries, n_features)
    trajectories = []
    for i in range(draw(st.integers(1, 4))):
        m = draw(st.integers(dictionary.max_lag + 2, dictionary.max_lag + 8))
        rows = draw(st.lists(
            st.lists(st.floats(-10, 10, allow_nan=False),
                     min_size=n_features, max_size=n_features),
            min_size=m, max_size=m))
        trajectories.append(Trajectory(
            rows, id=f"t{i}", t0=draw(st.integers(1, 50))))
    data = TrajectorySet(trajectories=tuple(trajectories),
                         feature_names=tuple(f"f{i}" for i in range(n_features)))
    return dictionary, data


@settings(max_examples=100, deadline=None)
@given(lifting_cases())
def test_lifted_columns_match_window_evaluation(case):
    dictionary, data = case
    segments = list(lift_trajectories(dictionary, data, outputs=True))
    lag = dictionary.max_lag
    assert len(segments) == len(data.trajectories)
    for traj, (current, shifted, outputs) in zip(data.trajectories, segments):
        rows = range(lag, len(traj) - 1)
        assert current.shape[1] == shifted.shape[1] == outputs.shape[1] \
            == len(rows)
        values = traj.values
        for k, row in enumerate(rows):
            assert np.array_equal(current[:, k], dictionary.evaluate(
                values[row - lag:row + 1])[:, -1])
            assert np.array_equal(shifted[:, k], dictionary.evaluate(
                values[row - lag + 1:row + 2])[:, -1])
            assert np.array_equal(outputs[:, k], values[row])
