"""Observable dictionaries: grammar, evaluation, lifting, dependence."""

import hashlib
import itertools
import math
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from koopmodel import edmd
from koopmodel.dictionary import UNARY_FUNCTIONS
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
    ("abc", "entry #1 must be an object"),
    ({"id": "a", "kind": "coordinate", "params": {"index": 0}, "of": "x"},
     r"unknown keys \['of'\]"),
    ({"id": "", "kind": "coordinate", "params": {"index": 0}},
     "non-empty string id"),
    ({"id": "a", "kind": "coordinate", "params": {"index": 0},
      "depends_on": ["zz"]}, "'zz', which is not a previously defined id"),
    ({"id": "a", "kind": "coordinate", "params": {"index": 0},
      "depends_on": [2]}, "feature index 2 out of range for 2 features"),
    ({"id": "a", "kind": "coordinate", "params": {"index": 0},
      "depends_on": [1.0]},
     "observable 'a': 'depends_on' must be an observable id or a feature "
     "index"),
    ({"id": "a", "kind": "sin", "params": {"of": -1}},
     "feature index -1 out of range"),
    ({"id": "a", "kind": "cos", "params": {"of": [0]}},
     "'of' must be an observable id or a feature index"),
    ({"id": "a", "kind": "sin", "params": {}}, "sin needs 'of'"),
    ({"id": "a", "kind": "cos", "params": {"x": 0}}, "cos needs 'of'"),
    ({"id": "a", "kind": "delay", "params": {"lag": 1}}, "delay needs 'of'"),
    ({"id": "a", "kind": "delay", "params": {"of": 0, "lag": 1}},
     "delay needs 'of'"),
    ({"id": "a", "kind": "delay", "params": {"of": "x"}}, "integer 'lag'"),
    ({"id": "a", "kind": "delay", "params": {"of": "x", "lag": 0}},
     "integer 'lag'"),
    ({"id": "a", "kind": "delay", "params": {"of": "x", "lag": True}},
     "integer 'lag'"),
    ({"id": "a", "kind": "composition", "params": {"fn": "exp", "of": 0}},
     "composition with 'fn' needs 'of'"),
    ({"id": "a", "kind": "composition", "params": {"weights": {}}},
     "'weights' must be a non-empty mapping"),
    ({"id": "a", "kind": "composition", "params": {"weights": ["x"]}},
     "'weights' must be a non-empty mapping"),
    ({"id": "a", "kind": "composition", "params": {"weights": {"x": "1"}}},
     "weight for 'x' must be a finite double, got '1'"),
    ({"id": "a", "kind": "composition", "params": {"weights": {"x": None}}},
     "weight for 'x' must be a finite double"),
    ({"id": "a", "kind": "composition",
      "params": {"weights": {"x": 10**400}}},
     "weight for 'x' must be a finite double"),
    ({"id": "a", "kind": "composition",
      "params": {"weights": {"x": float("nan")}}},
     "weight for 'x' must be a finite double, got nan"),
    ({"id": "a", "kind": "composition",
      "params": {"weights": {"x": 1.0}, "bias": "0"}},
     "'bias' must be a finite double, got '0'"),
    ({"id": "a", "kind": "composition",
      "params": {"weights": {"x": 1.0}, "bias": False}},
     "'bias' must be a finite double"),
    ({"id": "a", "kind": "composition",
      "params": {"weights": {"x": 1.0}, "bias": -10**400}},
     "'bias' must be a finite double"),
    ({"id": "a", "kind": "composition",
      "params": {"weights": {"x": 1.0}, "bias": float("-inf")}},
     "'bias' must be a finite double, got -inf"),
    ({"id": "a", "kind": "composition", "params": {"of": "x"}},
     "composition needs 'fn'/'of' or 'weights'"),
    ({"id": "a", "kind": "composition", "params": {"fn": ["exp"], "of": "x"}},
     "unknown function"),
    ({"id": "a", "kind": "monomial", "params": {"exponents": [10**400, 1]}},
     "integers within the double range"),
    ({"id": "a", "kind": "composition",
      "params": {"weights": {"x": 1.0}, "bais": 0.5}},
     r"composition does not read params \['bais'\]"),
    ({"id": "a", "kind": "composition",
      "params": {"fn": "exp", "of": "x", "weights": {"x": 1.0}}},
     r"composition does not read params \['weights'\]"),
    ({"id": "a", "kind": "sin", "params": {"of": "x", "fn": "exp"}},
     r"sin does not read params \['fn'\]"),
])
def test_bad_entries_rejected(entry, message):
    # Each entry follows a valid coordinate ``x`` that it may reference.
    x = {"id": "x", "kind": "coordinate", "params": {"index": 0}}
    with pytest.raises(ConfigError, match=message):
        Dictionary.from_spec([x, entry], 2)


def test_references_and_delay_depth():
    # A reference is an earlier id or a feature index, whether a kind makes
    # it or ``depends_on`` declares it; only the kind's own references add
    # delay depth, so ``p`` lags 1 although it declares the 2-lag ``dx``.
    entries = [
        {"id": "x", "kind": "coordinate", "params": {"index": 0}},
        {"id": "dx", "kind": "delay", "params": {"of": "x", "lag": 2}},
        {"id": "p", "kind": "delay", "params": {"of": "x", "lag": 1},
         "depends_on": ["dx", 1]},
        {"id": "sdx", "kind": "sin", "params": {"of": "dx"}},
        {"id": "w", "kind": "composition",
         "params": {"weights": {"dx": 0.5, "x": -1.0}, "bias": 1.0}},
    ]
    dic = Dictionary.from_spec(entries, 2)
    assert [(o.id, o.lag, o.depends_on, o.feature_depends)
            for o in dic.observables] == [
        ("x", 0, frozenset(), {0}),
        ("dx", 2, {"x"}, frozenset()),
        ("p", 1, {"x", "dx"}, {1}),
        ("sdx", 2, {"dx"}, frozenset()),
        ("w", 2, {"x", "dx"}, frozenset()),
    ]
    assert dic.needs == ((0, 0b01), (0b1, 0), (0b11, 0b10), (0b10, 0),
                         (0b11, 0))
    assert dic.max_lag == 2


def test_empty_dictionary_and_featureless_data_rejected():
    x = {"id": "x", "kind": "coordinate", "params": {"index": 0}}
    with pytest.raises(ConfigError, match="at least one observable"):
        Dictionary.from_spec([], 2)
    with pytest.raises(ConfigError, match="n_features must be >= 1"):
        Dictionary.from_spec([x], 0)


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


def test_spec_hash_of_every_kind_is_pinned():
    # Model files store this hash, so a refactor must not move it: declared
    # id and feature dependences, weights with a bias, fn and delay.
    spec = [
        {"id": "x", "kind": "coordinate", "params": {"index": 0}},
        {"id": "y", "kind": "coordinate", "params": {"index": 1}},
        {"id": "sx", "kind": "sin", "params": {"of": "x"},
         "depends_on": ["y", 1]},
        {"id": "cy", "kind": "cos", "params": {"of": 1}},
        {"id": "m", "kind": "monomial", "params": {"exponents": [2, 1]}},
        {"id": "dx", "kind": "delay", "params": {"of": "x", "lag": 2}},
        {"id": "w", "kind": "composition",
         "params": {"weights": {"x": 0.5, "m": -1.25}, "bias": 0.75}},
        {"id": "tx", "kind": "composition",
         "params": {"fn": "tanh", "of": "dx"}},
    ]
    dictionary = Dictionary.from_spec(spec, 2)
    assert dictionary.canonical_json() == (
        '{"n_features":2,"observables":['
        '{"depends_on":[0],"id":"x","kind":"coordinate","params":{"index":0}},'
        '{"depends_on":[1],"id":"y","kind":"coordinate","params":{"index":1}},'
        '{"depends_on":["x","y",1],"id":"sx","kind":"sin",'
        '"params":{"of":"x"}},'
        '{"depends_on":[1],"id":"cy","kind":"cos","params":{"of":1}},'
        '{"depends_on":[0,1],"id":"m","kind":"monomial",'
        '"params":{"exponents":[2,1]}},'
        '{"depends_on":["x"],"id":"dx","kind":"delay",'
        '"params":{"lag":2,"of":"x"}},'
        '{"depends_on":["m","x"],"id":"w","kind":"composition",'
        '"params":{"bias":0.75,"weights":{"m":-1.25,"x":0.5}}},'
        '{"depends_on":["dx"],"id":"tx","kind":"composition",'
        '"params":{"fn":"tanh","of":"dx"}}]}')
    assert dictionary.spec_hash().hex() == (
        "a2b8b84a43a4dee94e946af3842d2f5dddeddad8641b5d62566299d70ed5e567")
    assert dictionary.spec_hash() == hashlib.sha256(
        dictionary.canonical_json().encode()).digest()


def test_spec_hash_falls_back_to_hashlib(monkeypatch):
    dictionary = worked_dictionary()
    builtin = dictionary.spec_hash()
    # None in sys.modules makes the import of a built-in module fail.
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    assert dictionary.spec_hash() == builtin == hashlib.sha256(
        dictionary.canonical_json().encode()).digest()


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


def test_delay_of_a_block_shorter_than_its_lag():
    # Until m exceeds the lag, every delayed entry is a placeholder.
    lag = 5
    dic = Dictionary.from_spec([
        {"id": "x", "kind": "coordinate", "params": {"index": 0}},
        {"id": "dx", "kind": "delay", "params": {"of": "x", "lag": lag}},
    ], 1)
    for m in range(1, lag + 2):
        x = np.arange(1.0, m + 1)
        out = dic.evaluate(x[:, None])
        assert out.shape == (2, m)
        assert np.array_equal(out[0], x)
        assert np.isnan(out[1, :lag]).all()
        assert np.array_equal(out[1, lag:], x[:max(m - lag, 0)])


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


def binary_power(x, e):
    """x^e by the lift's rule, in plain multiplications: the squares
    x^(2^j) of e's set bits multiplied lowest bit first."""
    result, square = np.ones_like(x), x
    first = True
    while e:
        if e & 1:
            result = square if first else result * square
            first = False
        e >>= 1
        if e:
            square = square * square
    return result


def test_monomials_share_powers_bit_for_bit():
    # Every monomial of degree <= 6 in 3 features (83 entries over 18
    # distinct powers), against each monomial's own powers, taken by plain
    # multiplications and multiplied in feature order.
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
                s = s * binary_power(values[:, i], power)
        expected[row] = s
    assert len(exponents) == 83
    assert dic.evaluate(values).tobytes() == expected.tobytes()


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_shared_powers_match_binary_powering_bit_for_bit(data):
    # Monomials over 1-4 features, each taking none or one of a few
    # exponents per feature (up to 2^12), so that they share powers and
    # skip features, against each monomial's own binary powers multiplied
    # in feature order.  Values lie within 2^-12 of +-1, where even
    # x^(2^12) stays finite, or are +-0.
    n = data.draw(st.integers(1, 4))
    exponent = st.one_of(st.integers(1, 16), st.integers(1, 2**12))
    choices = [[0] + data.draw(st.lists(exponent, min_size=1, max_size=3))
               for _ in range(n)]
    exponents = data.draw(st.lists(
        st.tuples(*(st.sampled_from(c) for c in choices)),
        min_size=1, max_size=8))
    magnitude = st.one_of(st.just(0.0), st.floats(-2.0**-12, 2.0**-12).map(
        lambda v: 1.0 + v))
    value = st.tuples(magnitude, st.booleans()).map(
        lambda v: v[0] if v[1] else -v[0])
    values = np.array(data.draw(st.lists(
        st.lists(value, min_size=n, max_size=n), min_size=1, max_size=5)))
    dic = Dictionary.from_spec(
        [{"id": f"m{i}", "kind": "monomial", "params": {"exponents": list(e)}}
         for i, e in enumerate(exponents)], n)
    expected = np.empty((len(exponents), len(values)))
    for row, e in enumerate(exponents):
        s = np.ones(len(values))
        for i, power in enumerate(e):
            if power:
                s = s * binary_power(values[:, i], power)
        expected[row] = s
    assert dic.evaluate(values).tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(e=st.lists(st.integers(0, 8), min_size=2, max_size=2),
       x=st.lists(st.tuples(st.floats(2.0**-10, 2.0**10), st.booleans()),
                  min_size=2, max_size=2))
def test_small_powers_match_numpy_pow(e, x):
    # Binary powering rounds at most a few times per power, so it stays
    # within a few ulps of numpy's ``**`` for small exponents.
    values = np.array([[v if positive else -v for v, positive in x]])
    dic = Dictionary.from_spec(
        [{"id": "m", "kind": "monomial", "params": {"exponents": e}}], 2)
    expected = values[0, 0] ** e[0] * values[0, 1] ** e[1]
    assert dic.evaluate(values)[0, 0] == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("e", [2**53 + 1, 2**60 + 1])
def test_odd_exponents_beyond_doubles_keep_their_sign(e):
    # ``x ** e`` rounds e to an even double here and lifts -1 to +1.
    dic = Dictionary.from_spec(
        [{"id": "m", "kind": "monomial", "params": {"exponents": [e]}}], 1)
    out = dic.evaluate(np.array([[-1.0], [0.5]]))[0]
    assert out.tolist() == [-1.0, 0.0]
    assert math.copysign(1.0, out[1]) == 1.0


def test_a_huge_exponent_needs_no_row_per_exponent():
    # A table of x^1 .. x^e would take 2^40 rows; binary powering keeps
    # the distinct exponents and one running square.
    dic = Dictionary.from_spec(
        [{"id": "m", "kind": "monomial", "params": {"exponents": [2**40]}}], 1)
    values = np.full((4000, 1), -1.0)
    values[1::2] = 1.0 + 2.0**-52
    tracemalloc.start()
    try:
        begin = time.perf_counter()
        out = dic.evaluate(values)
        seconds = time.perf_counter() - begin
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seconds < 0.5
    assert peak < 8 * 8 * 4000
    assert out[0, 0] == 1.0
    assert out[0, 1] == binary_power(1.0 + 2.0**-52, 2**40)


def test_the_power_pass_takes_one_scratch_row():
    # Squares and products are taken in place: beyond the power table and
    # the product block, the lift holds one more row at a time, the
    # scratch square or then a gathered factor.  A loop that allocated
    # x * x or power * square would hold two.
    dic = Dictionary.from_spec(
        [{"id": "m", "kind": "monomial",
          "params": {"exponents": [2**12 - 1, 2**11 + 1]}}], 2)
    m = 4000
    values = np.random.default_rng(4).uniform(1 - 2.0**-14, 1 + 2.0**-14,
                                              size=(m, 2))
    row = 8 * m
    tracemalloc.start()
    try:
        out = dic.evaluate(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table, block = 3 * row, out.nbytes
    assert table + block + row <= peak < table + block + 1.5 * row
    assert out.tobytes() == (binary_power(values[:, 0], 2**12 - 1)
                             * binary_power(values[:, 1], 2**11 + 1)).tobytes()


def test_a_monomial_of_zero_exponents_is_one():
    dic = Dictionary.from_spec([
        {"id": "one", "kind": "monomial", "params": {"exponents": [0, 0]}},
        {"id": "y", "kind": "coordinate", "params": {"index": 1}},
    ], 2)
    out = dic.evaluate(np.array([[np.nan, 2.0], [-3.0, 0.5]]))
    assert out.tolist() == [[1.0, 1.0], [2.0, 0.5]]
    only = Dictionary.from_spec(
        [{"id": "one", "kind": "monomial", "params": {"exponents": [0]}}], 1)
    assert only.evaluate(np.zeros((3, 1))).tolist() == [[1.0, 1.0, 1.0]]


# Products mixed with the other kinds, so that each of them can meet the
# first non-finite value: ``big`` overflows where x is large, ``logx`` is
# -inf or NaN where x <= 0, ``sq`` overflows where y is large, ``w`` where
# the delayed y is, and ``e`` where y reaches 1000.
MIXED_KINDS = [
    {"id": "x", "kind": "coordinate", "params": {"index": 0}},
    {"id": "logx", "kind": "composition", "params": {"fn": "log", "of": "x"}},
    {"id": "y", "kind": "coordinate", "params": {"index": 1}},
    {"id": "big", "kind": "monomial", "params": {"exponents": [40, 1]}},
    {"id": "s", "kind": "sin", "params": {"of": "y"}},
    {"id": "dy", "kind": "delay", "params": {"of": "y", "lag": 1}},
    {"id": "sq", "kind": "monomial", "params": {"exponents": [0, 2]}},
    {"id": "w", "kind": "composition", "params": {"weights": {"dy": 1e307}}},
    {"id": "e", "kind": "composition", "params": {"fn": "exp", "of": "y"}},
]


@pytest.mark.parametrize("x, y, first", [
    ([1, 2, 1e10, 1], [1, 1, 1, 1], "'big' produced a non-finite value "
                                    "at window position 2"),
    ([1, 2, 1e10, -1], [1, 1, 1, 1], "'logx' produced a non-finite value "
                                     "at window position 3"),
    ([1, 2, 1e10, 1], [1, np.inf, 1, 1], "'y' produced a non-finite value "
                                         "at window position 1"),
    ([np.inf, 2, 3, 1], [1, 1, 1, np.nan], "'x' produced a non-finite "
                                           "value at window position 0"),
    ([1, 2, 3, 1], [1, 1, 1e200, 1], "'sq' produced a non-finite value "
                                     "at window position 2"),
    ([1, 2, 3, 4], [1, 100, 1, 1], "'w' produced a non-finite value at "
                                   "window position 2"),
    ([1, 2, 3, 4], [1, 1, 1, 1000], "'e' produced a non-finite value at "
                                    "window position 3"),
])
def test_the_first_non_finite_observable_is_named(x, y, first):
    # Dictionary order decides, not the kind or the window position.
    dic = Dictionary.from_spec(MIXED_KINDS, 2)
    with pytest.raises(EvaluationError) as caught:
        dic.evaluate(np.array([x, y], dtype=float).T)
    assert str(caught.value) == f"observable {first}"
    assert np.isfinite(dic.evaluate(np.ones((4, 2)))[:, 1:]).all()


# One observable of each kind and of each unary function, with delays of
# delays and functions of delayed rows; every value stays finite on
# features in [0.1, 2].
EVERY_KIND = [
    {"id": "c0", "kind": "coordinate", "params": {"index": 0}},
    {"id": "c1", "kind": "coordinate", "params": {"index": 1}},
    {"id": "s", "kind": "sin", "params": {"of": "c0"}},
    {"id": "k", "kind": "cos", "params": {"of": 1}},
    {"id": "m", "kind": "monomial", "params": {"exponents": [2, 1]}},
    {"id": "d1", "kind": "delay", "params": {"of": "s", "lag": 1}},
    {"id": "d3", "kind": "delay", "params": {"of": "d1", "lag": 2}},
    {"id": "sd", "kind": "sin", "params": {"of": "d3"}},
    {"id": "w", "kind": "composition",
     "params": {"weights": {"c1": 0.5, "d1": -1.5, "m": 2}, "bias": 0.25}},
] + [{"id": f"f{name}", "kind": "composition",
      "params": {"fn": name, "of": "c0"}} for name in UNARY_FUNCTIONS]


def fresh_array_lift(entries, values):
    """Each observable as a new array computed from earlier ones, the way
    the lift was built before it wrote into one (d, m) array."""
    m, series = len(values), {}

    def operand(ref):
        return series[ref] if isinstance(ref, str) else values[:, ref]

    for entry in entries:
        p, kind = entry["params"], entry["kind"]
        with np.errstate(all="ignore"):
            if kind == "coordinate":
                s = values[:, p["index"]].copy()
            elif kind in ("sin", "cos") or "fn" in p:
                s = UNARY_FUNCTIONS[p.get("fn", kind)](operand(p["of"]))
            elif kind == "monomial":
                s = np.ones(m)
                for i, e in enumerate(p["exponents"]):
                    if e:
                        s = s * values[:, i] ** e
            elif kind == "delay":
                s = np.full(m, np.nan)
                s[p["lag"]:] = series[p["of"]][:max(m - p["lag"], 0)]
            else:
                s = np.full(m, float(p["bias"]))
                for key, w in p["weights"].items():
                    s = s + float(w) * operand(key)
        series[entry["id"]] = s
    return np.array(list(series.values()))


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 600), start=st.integers(0, 8),
       seed=st.integers(0, 2**32 - 1))
@example(m=4097, start=3, seed=0)
def test_lift_matches_fresh_arrays_bit_for_bit(m, start, seed):
    # ``start`` shifts the feature columns against SIMD alignment.
    dic = Dictionary.from_spec(EVERY_KIND, 2)
    values = np.random.default_rng(seed).uniform(0.1, 2.0, (start + m, 2))
    expected = fresh_array_lift(EVERY_KIND, values[start:])
    assert dic.evaluate(values[start:]).tobytes() == expected.tobytes()


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


def test_lift_error_names_the_window_of_a_long_trajectory(monkeypatch):
    # Windows of 4 snapshots start at rows 0, 3, 6 and 9: log(x) first
    # fails at row 9 in the window from row 6, at its position 3.
    dic = Dictionary.from_spec([
        {"id": "x", "kind": "coordinate", "params": {"index": 0}},
        {"id": "logx", "kind": "composition", "params": {"fn": "log", "of": "x"}},
    ], 1)
    monkeypatch.setattr(edmd, "FIT_BLOCK_BYTES", 8 * len(dic) * 4)
    series = np.ones(12)
    series[9] = -1.0
    with pytest.raises(EvaluationError) as caught:
        list(lift_trajectories(dic, single_feature_set(series)))
    assert str(caught.value) == (
        "observable 'logx' produced a non-finite value at window position 3 "
        "(the window starts at row 6 of trajectory 's')")


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
