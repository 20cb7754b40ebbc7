"""Zero patterns, closed subsets, and representation classification."""

import functools
import itertools
import operator
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from koopmodel import (
    Dictionary,
    InputError,
    KoopmanMatrix,
    ShapeMismatchError,
    ZeroPattern,
    analyze_representation,
    closed_subsets,
    dependence_closure,
    fit_koopman_matrix,
    zero_pattern,
)
from koopmodel import representation
from koopmodel.representation import _subset_is_linear
from conftest import (
    fit_pipeline,
    fold_rows,
    identity_dictionary,
    simulate_linear,
    worked_dictionary,
)

DENSE_CONTRACTION = np.array([
    [0.60, -0.50, 0.20],
    [0.50, 0.60, -0.30],
    [0.20, 0.30, 0.50],
])


def as_koopman(matrix, residuals):
    matrix = np.asarray(matrix, dtype=float)
    return KoopmanMatrix(matrix=matrix, fit_residual=0.0,
                         rank_used=matrix.shape[0], svd_tolerance=1e-10,
                         condition_number=1.0,
                         row_residuals=np.asarray(residuals, dtype=float))


def subsets_by_ids(report):
    return {s.observable_ids: s for s in report.subsets}


# -- zero pattern ------------------------------------------------------------

def test_worked_example_pattern(worked_fit):
    fitted = worked_fit
    pattern = zero_pattern(fitted, threshold=0.05)
    assert np.array_equal(pattern.mask[0], [True, True, False])
    assert np.array_equal(pattern.mask[2], [True, False, True])
    assert pattern.closed_rows == {0, 2}


def test_identity_matrix_pattern_is_diagonal():
    pattern = zero_pattern(as_koopman(np.eye(4), np.zeros(4)), threshold=0.5)
    assert np.array_equal(pattern.mask, np.eye(4, dtype=bool))
    assert pattern.closed_rows == {0, 1, 2, 3}


def test_small_entries_yield_empty_mask():
    pattern = zero_pattern(as_koopman(np.full((3, 3), 0.01), np.zeros(3)),
                           threshold=0.05)
    assert not pattern.mask.any()


def test_pattern_validation():
    with pytest.raises(InputError):
        zero_pattern(as_koopman(np.eye(2), np.zeros(2)), threshold=0.0)
    with pytest.raises(ShapeMismatchError):
        zero_pattern(as_koopman(np.eye(2), np.zeros(3)))
    with pytest.raises(ShapeMismatchError, match="square"):
        ZeroPattern(mask=np.ones((2, 3), dtype=bool), threshold=0.05,
                    closed_rows=frozenset())
    for row in (2, -1):
        with pytest.raises(InputError, match="out of range"):
            ZeroPattern(mask=np.eye(2, dtype=bool), threshold=0.05,
                        closed_rows=frozenset({0, row}))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.01, 1.0), st.floats(0.01, 1.0))
def test_mask_monotone_in_threshold(seed, t_low, t_high):
    rng = np.random.default_rng(seed)
    t_low, t_high = sorted([t_low, t_high])
    fitted = as_koopman(rng.normal(size=(3, 3)), np.zeros(3))
    low = zero_pattern(fitted, threshold=t_low)
    high = zero_pattern(fitted, threshold=t_high)
    assert not np.any(high.mask & ~low.mask)


# -- closed subsets ----------------------------------------------------------

def test_worked_example_closed_subsets(worked_fit, worked_dict):
    fitted = worked_fit
    pattern = zero_pattern(fitted)
    found = closed_subsets(pattern, worked_dict)
    assert found.subsets == (("x",), ("x", "y"))
    assert not found.truncated


def test_diagonal_pattern_every_singleton_closed():
    dic = identity_dictionary(3)
    pattern = zero_pattern(as_koopman(np.diag([0.9, 0.5, 0.3]), np.zeros(3)))
    found = closed_subsets(pattern, dic)
    singletons = [s for s in found.subsets if len(s) == 1]
    assert singletons == [("x0",), ("x1",), ("x2",)]
    # Unions of closed sets are reported too, up to the full set.
    assert ("x0", "x1", "x2") in found.subsets


def test_dense_pattern_only_full_set_closed():
    dic = identity_dictionary(3)
    pattern = zero_pattern(as_koopman(DENSE_CONTRACTION, np.zeros(3)))
    found = closed_subsets(pattern, dic)
    assert found.subsets == (("x0", "x1", "x2"),)


def test_union_of_reported_subsets_is_closed(worked_fit, worked_dict):
    fitted = worked_fit
    pattern = zero_pattern(fitted)
    found = closed_subsets(pattern, worked_dict)
    for a in found.subsets:
        for b in found.subsets:
            assert is_closed(pattern, worked_dict, set(a) | set(b))


def test_nine_independent_coordinates_are_reported_in_full():
    dic = identity_dictionary(9)
    pattern = zero_pattern(as_koopman(np.diag([0.9] * 9), np.zeros(9)))
    found = closed_subsets(pattern, dic)
    assert not found.truncated
    assert len(found.subsets) == 2**9 - 1
    assert len(set(found.subsets)) == len(found.subsets)


def test_more_classes_than_the_cap_sets_truncation_flag():
    dic = identity_dictionary(10)
    fitted = as_koopman(np.diag([0.9] * 10), np.zeros(10))
    found = closed_subsets(zero_pattern(fitted), dic)
    assert found.truncated
    assert 0 < len(found.subsets) <= 512
    current = np.random.default_rng(3).normal(size=(10, 20))
    report = analyze_representation(
        fit_koopman_matrix([(current, 0.9 * current)]), dic)
    assert report.truncated
    assert "More than 512 classes" in report.narrative


def chain(n_blocks):
    """Blocks (x_k, y_k, sin x_k) where x_k is driven by sin x_{k-1}: the
    dictionary and the pattern of its fit, where only the sine rows are
    not closed."""
    entries = []
    for k in range(n_blocks):
        entries += [
            {"id": f"x{k}", "kind": "coordinate", "params": {"index": 2 * k}},
            {"id": f"y{k}", "kind": "coordinate",
             "params": {"index": 2 * k + 1}},
            {"id": f"s{k}", "kind": "sin", "params": {"of": f"x{k}"}},
        ]
    d = 3 * n_blocks
    matrix, residuals = np.zeros((d, d)), np.zeros(d)
    for k in range(n_blocks):
        x, y, s = 3 * k, 3 * k + 1, 3 * k + 2
        matrix[x, [x, y]] = [0.8, -0.5]
        matrix[y, [x, y]] = [0.5, 0.8]
        if k:
            matrix[x, s - 3] = 0.3
        matrix[s, [x, y, s]] = [0.2, 0.2, 0.6]
        residuals[s] = 0.1
    return (Dictionary.from_spec(entries, 2 * n_blocks),
            zero_pattern(as_koopman(matrix, residuals)))


def test_chain_reports_exactly_its_prefixes():
    dic, pattern = chain(4)
    found = closed_subsets(pattern, dic)
    assert not found.truncated
    assert found.subsets == tuple(
        tuple(f"{v}{k}" for k in range(top) for v in "xy")
        for top in range(1, 5))
    # The whole dictionary is generated by its 8 coordinates.
    assert dependence_closure(dic, set(found.subsets[-1])) == set(dic.ids)


DRAWN_KINDS = ("coordinate", "constant", "monomial", "sin", "cos", "delay",
         "function", "weights")


@st.composite
def dictionaries_and_patterns(draw):
    """Dictionaries of up to 8 observables over up to 3 features, with a
    random mask and random closed rows.  Coordinates may share a feature,
    and every kind may declare extra dependencies."""
    n_features = draw(st.integers(1, 3))
    feature = st.integers(0, n_features - 1)
    entries = []
    for j in range(draw(st.integers(1, 8))):
        ids = [e["id"] for e in entries]
        kind = draw(st.sampled_from(DRAWN_KINDS if ids else DRAWN_KINDS[:3]))
        ref = st.sampled_from(ids) if ids else None
        if kind == "coordinate":
            params = {"index": draw(feature)}
        elif kind == "constant":
            kind, params = "monomial", {"exponents": [0] * n_features}
        elif kind == "monomial":
            params = {"exponents": draw(st.lists(st.integers(0, 2),
                                                 min_size=n_features,
                                                 max_size=n_features))}
        elif kind in ("sin", "cos"):
            params = {"of": draw(ref | feature)}
        elif kind == "delay":
            params = {"of": draw(ref), "lag": 1}
        elif kind == "function":
            kind, params = "composition", {"fn": "tanh", "of": draw(ref)}
        else:
            keys = draw(st.sets(ref, min_size=1, max_size=3))
            kind, params = "composition", {"weights": dict.fromkeys(keys, 1.0)}
        extra = draw(st.lists(ref | feature if ids else feature, max_size=1))
        entries.append({"id": f"o{j}", "kind": kind, "params": params,
                        "depends_on": extra})
    dic = Dictionary.from_spec(entries, n_features)
    d = len(entries)
    mask = draw(st.lists(st.lists(st.booleans(), min_size=d, max_size=d),
                         min_size=d, max_size=d))
    closed = draw(st.sets(st.integers(0, d - 1)))
    return dic, ZeroPattern(mask=np.array(mask), threshold=0.05,
                            closed_rows=closed)


def fixpoint_closure(dic, seed):
    """The dependence closure by its definition: add every observable whose
    observable dependencies are in and whose features a member coordinate
    reads, until nothing changes."""
    closed = set(seed)
    while True:
        feats = {o.params["index"] for o in dic.observables
                 if o.id in closed and o.kind == "coordinate"}
        new = {o.id for o in dic.observables
               if o.depends_on <= closed and o.feature_depends <= feats}
        if new <= closed:
            return frozenset(closed)
        closed |= new


def is_closed(pattern, dic, subset):
    """Closedness by its definition: each member has a closed row whose
    support lies in the subset's dependence closure, or lies in the
    dependence closure of the other members."""
    subset = set(subset)
    closure = dependence_closure(dic, subset)
    return all(
        (dic.index_of(i) in pattern.closed_rows
         and {dic.ids[j] for j in np.flatnonzero(
             pattern.mask[dic.index_of(i)])} <= closure)
        or i in dependence_closure(dic, subset - {i})
        for i in subset)


def brute_force_closed_subsets(pattern, dic):
    """Every non-empty closed subset, grouped by dependence closure, keeping
    the minimal-cardinality generator sets of each group."""
    classes = {}
    for size in range(1, len(dic.ids) + 1):
        for subset in itertools.combinations(dic.ids, size):
            if is_closed(pattern, dic, subset):
                classes.setdefault(dependence_closure(dic, set(subset)),
                                   []).append(subset)
    kept = [s for group in classes.values() for s in group
            if len(s) == min(map(len, group))]
    return tuple(sorted(kept, key=lambda s: (len(s), list(map(dic.index_of,
                                                                s)))))


@settings(max_examples=300, deadline=None)
@given(dictionaries_and_patterns())
def test_dependence_closure_is_the_fixpoint(case):
    dic, _ = case
    for size in range(len(dic.ids) + 1):
        for seed in itertools.combinations(dic.ids, size):
            assert dependence_closure(dic, set(seed)) == \
                fixpoint_closure(dic, seed)


# Two coordinates read feature 0, the second and the one reading feature 1
# also declare dependencies, and the rest lean on both features.
SHARED_READS = Dictionary.from_spec([
    {"id": "a", "kind": "coordinate", "params": {"index": 0}},
    {"id": "b", "kind": "coordinate", "params": {"index": 0},
     "depends_on": ["a"]},
    {"id": "c", "kind": "coordinate", "params": {"index": 1},
     "depends_on": [0]},
    {"id": "s", "kind": "sin", "params": {"of": "a"}, "depends_on": [1]},
    {"id": "m", "kind": "monomial", "params": {"exponents": [1, 1]}},
    {"id": "w", "kind": "composition", "params": {"weights": {"b": 1.0,
                                                             "c": 1.0}}},
], 2)


@settings(max_examples=300, deadline=None)
@given(dictionaries_and_patterns())
@example((SHARED_READS, None))
def test_regenerated_members_are_those_the_others_close_over(case):
    # The walk's membership rule against its definition: member i is
    # regenerated when the closure of the other members holds it.
    dic, _ = case
    for mask in range(1 << len(dic)):
        expected = sum(1 << i for i in range(len(dic)) if mask >> i & 1
                       and dic.closure_mask(mask & ~(1 << i)) >> i & 1)
        assert dic.regenerated(mask, dic.closure_mask(mask)) == expected


@settings(max_examples=300, deadline=None)
@given(dictionaries_and_patterns())
def test_closed_subsets_match_brute_force(case):
    dic, pattern = case
    found = closed_subsets(pattern, dic)
    assert found.subsets == brute_force_closed_subsets(pattern, dic)
    assert not found.truncated


@settings(max_examples=300, deadline=None)
@given(dictionaries_and_patterns())
def test_the_walk_reaches_every_join_irreducible_class(case):
    # The classes the repair walk finds closed, before any generators are
    # sought, are the ones the search joins.  A join-irreducible class is
    # no join of smaller ones, so the walk itself must reach it.
    dic, pattern = case
    reached, walking = set(), [True]
    first_break = representation._first_break
    smallest_generators = representation._smallest_generators

    def spy(dictionary, rows, members, closure):
        i = first_break(dictionary, rows, members, closure)
        if walking[0] and i is None:
            reached.add(members)
        return i

    def stop_walking(*args):
        walking[0] = False
        return smallest_generators(*args)

    with mock.patch.object(representation, "_first_break", spy), \
            mock.patch.object(representation, "_smallest_generators",
                              stop_walking):
        found = closed_subsets(pattern, dic)

    def join(classes):
        return dic.closure_mask(functools.reduce(operator.or_, classes, 0))

    lattice = {dic.closure_mask(dic.mask_of(s))
               for s in brute_force_closed_subsets(pattern, dic)}
    assert reached <= lattice
    for cls in lattice:
        below = [x for x in lattice if x != cls and not x & ~cls]
        if not below or join(below) != cls:
            assert cls in reached
    for ids in found.subsets:
        cls = dic.closure_mask(dic.mask_of(ids))
        assert join(r for r in reached if not r & ~cls) == cls


def test_analysis_needs_a_fitted_factor(worked_dict):
    # A matrix built by hand has no factor to test subset linearity on.
    with pytest.raises(ShapeMismatchError, match="factor"):
        analyze_representation(as_koopman(np.eye(3), np.zeros(3)),
                               worked_dict)


def test_dimension_mismatch_rejected(worked_dict):
    pattern = zero_pattern(as_koopman(np.eye(2), np.zeros(2)))
    with pytest.raises(ShapeMismatchError):
        closed_subsets(pattern, worked_dict)


# -- full analysis -----------------------------------------------------------

def test_worked_example_report(worked_fit, worked_dict):
    fitted = worked_fit
    report = analyze_representation(fitted, worked_dict)
    by_ids = subsets_by_ids(report)
    reduced = by_ids[("x",)]
    assert reduced.dimension == 1
    assert reduced.kind == "nonlinear"
    assert not reduced.faithful
    assert reduced.generator_features == (0,)
    faithful = by_ids[("x", "y")]
    assert faithful.dimension == 2
    assert faithful.kind == "nonlinear"
    assert faithful.faithful
    assert "1-dimensional nonlinear representation generated by x" \
        in report.narrative
    assert "faithful" in report.narrative


def test_exactly_linear_system_is_one_faithful_linear_block():
    data = simulate_linear(DENSE_CONTRACTION,
                           np.random.default_rng(8).normal(size=(3, 3)), 20)
    dic = identity_dictionary(3)
    fitted = fit_pipeline(data, dic)
    report = analyze_representation(fitted, dic)
    assert len(report.subsets) == 1
    block = report.subsets[0]
    assert block.observable_ids == ("x0", "x1", "x2")
    assert block.dimension == 3
    assert block.kind == "linear"
    assert block.faithful


def test_constant_observable_yields_linear_singleton():
    rng = np.random.default_rng(12)
    data = simulate_linear(np.array([[0.8]]), rng.normal(size=(3, 1)), 15)
    dic = Dictionary.from_spec([
        {"id": "x", "kind": "coordinate", "params": {"index": 0}},
        {"id": "one", "kind": "monomial", "params": {"exponents": [0]}},
    ], 1)
    fitted = fit_pipeline(data, dic)
    # The fitted row of a constant observable is the unit row, eigenvalue 1.
    assert np.max(np.abs(fitted.matrix[1] - [0.0, 1.0])) < 1e-6
    report = analyze_representation(fitted, dic)
    by_ids = subsets_by_ids(report)
    const = by_ids[("one",)]
    assert const.kind == "linear"
    assert not const.faithful
    coord = by_ids[("x",)]
    assert coord.kind == "linear"
    assert coord.faithful


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_subset_linearity_from_the_factor_matches_the_data(seed, folds):
    # Oracle: one pass over the data, ||shifted[S] - A[S, S] @ current[S]||
    # per member row over max(1, ||shifted row||), below closure_tol, with
    # every member row closed.  ``shifted`` follows a sparse linear map plus
    # noise on about half the rows; subsets with a residual within a factor
    # 100 of closure_tol are skipped.  ``folds`` spans two to three folds.
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    rows = fold_rows(2 * d)
    k = int(rng.integers(2 * rows + 1, 3 * rows) if folds
            else rng.integers(2 * d + 1, 60))
    step = rng.uniform(-0.9, 0.9, (d, d)) * (
        (rng.random((d, d)) < 0.4) | np.eye(d, dtype=bool))
    current = 10.0 ** rng.uniform(-1, 1, (d, 1)) * rng.normal(size=(d, k))
    noise = (10.0 ** rng.uniform(-10, -2, (d, 1)) * (rng.random((d, 1)) < 0.5)
             * rng.normal(size=(d, k)))
    shifted = step @ current + noise
    fitted = fit_koopman_matrix([(current, shifted)])
    dic = identity_dictionary(d)
    closure_tol = 1e-6
    pattern = zero_pattern(fitted, closure_tol=closure_tol)
    for size in range(1, d + 1):
        for subset in itertools.combinations(range(d), size):
            idx = list(subset)
            misfit = (shifted[idx]
                      - fitted.matrix[np.ix_(idx, idx)] @ current[idx])
            residual = (np.linalg.norm(misfit, axis=1) / np.maximum(
                1.0, np.linalg.norm(shifted[idx], axis=1)))
            if np.any((residual > closure_tol / 100)
                      & (residual < closure_tol * 100)):
                continue
            expected = (all(i in pattern.closed_rows for i in idx)
                        and bool(np.all(residual < closure_tol)))
            assert _subset_is_linear(fitted, pattern, dic,
                                     [dic.ids[i] for i in idx],
                                     closure_tol) == expected


def test_report_is_deterministic(worked_fit, worked_dict):
    fitted = worked_fit
    first = analyze_representation(fitted, worked_dict)
    second = analyze_representation(fitted, worked_dict)
    assert first.as_dict() == second.as_dict()
    assert first.narrative == second.narrative


def test_report_as_dict_shape(worked_fit, worked_dict):
    fitted = worked_fit
    report = analyze_representation(fitted, worked_dict)
    doc = report.as_dict()
    assert set(doc) == {"subsets", "narrative", "truncated"}
    assert doc["subsets"][0] == {
        "observables": ["x"],
        "generator_features": [0],
        "dimension": 1,
        "kind": "nonlinear",
        "faithful": False,
    }
