"""Zero patterns, closed subsets, and representation classification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopmodel import (
    Dictionary,
    InputError,
    KoopmanMatrix,
    ShapeMismatchError,
    analyze_representation,
    closed_subsets,
    is_closed_subset,
    zero_pattern,
)
from conftest import (
    fit_pipeline,
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
    _, _, fitted, _ = worked_fit
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
    _, _, fitted, _ = worked_fit
    pattern = zero_pattern(fitted)
    assert is_closed_subset(pattern, worked_dict, {"x"})
    assert is_closed_subset(pattern, worked_dict, {"x", "y"})
    assert not is_closed_subset(pattern, worked_dict, {"y"})
    assert not is_closed_subset(pattern, worked_dict, {"sinx"})
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
    _, _, fitted, _ = worked_fit
    pattern = zero_pattern(fitted)
    found = closed_subsets(pattern, worked_dict)
    for a in found.subsets:
        for b in found.subsets:
            assert is_closed_subset(pattern, worked_dict, set(a) | set(b))


def test_seed_cap_sets_truncation_flag():
    dic = identity_dictionary(5)
    pattern = zero_pattern(as_koopman(np.diag([0.9] * 5), np.zeros(5)))
    capped = closed_subsets(pattern, dic, max_seed_size=2)
    assert capped.truncated
    full = closed_subsets(pattern, dic, full_enumeration=True)
    assert not full.truncated
    assert set(capped.subsets) <= set(full.subsets)


def test_empty_subset_is_not_closed(worked_fit, worked_dict):
    _, _, fitted, _ = worked_fit
    pattern = zero_pattern(fitted)
    assert not is_closed_subset(pattern, worked_dict, set())


def test_dimension_mismatch_rejected(worked_dict):
    pattern = zero_pattern(as_koopman(np.eye(2), np.zeros(2)))
    with pytest.raises(ShapeMismatchError):
        closed_subsets(pattern, worked_dict)


# -- full analysis -----------------------------------------------------------

def test_worked_example_report(worked_fit, worked_dict):
    lifted, _, fitted, _ = worked_fit
    report = analyze_representation(fitted, worked_dict,
                                    lifted=lifted)
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


def test_worked_example_report_without_lifted_data(worked_fit, worked_dict):
    _, _, fitted, _ = worked_fit
    report = analyze_representation(fitted, worked_dict)
    kinds = {s.observable_ids: s.kind for s in report.subsets}
    assert kinds == {("x",): "nonlinear", ("x", "y"): "nonlinear"}


def test_exactly_linear_system_is_one_faithful_linear_block():
    data = simulate_linear(DENSE_CONTRACTION,
                           np.random.default_rng(8).normal(size=(3, 3)), 20)
    dic = identity_dictionary(3)
    lifted, _, fitted, _ = fit_pipeline(data, dic)
    report = analyze_representation(fitted, dic, lifted=lifted)
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
    lifted, _, fitted, _ = fit_pipeline(data, dic)
    # The fitted row of a constant observable is the unit row, eigenvalue 1.
    assert np.max(np.abs(fitted.matrix[1] - [0.0, 1.0])) < 1e-6
    report = analyze_representation(fitted, dic, lifted=lifted)
    by_ids = subsets_by_ids(report)
    const = by_ids[("one",)]
    assert const.kind == "linear"
    assert not const.faithful
    coord = by_ids[("x",)]
    assert coord.kind == "linear"
    assert coord.faithful


def test_report_is_deterministic(worked_fit, worked_dict):
    lifted, _, fitted, _ = worked_fit
    first = analyze_representation(fitted, worked_dict,
                                   lifted=lifted)
    second = analyze_representation(fitted, worked_dict,
                                    lifted=lifted)
    assert first.as_dict() == second.as_dict()
    assert first.narrative == second.narrative


def test_report_as_dict_shape(worked_fit, worked_dict):
    lifted, _, fitted, _ = worked_fit
    report = analyze_representation(fitted, worked_dict,
                                    lifted=lifted)
    doc = report.as_dict()
    assert set(doc) == {"subsets", "narrative", "truncated"}
    assert doc["subsets"][0] == {
        "observables": ["x"],
        "generator_features": [0],
        "dimension": 1,
        "kind": "nonlinear",
        "faithful": False,
    }
