"""Acceptance gate: one test per shipped end-to-end guarantee.

Each criterion runs at its pinned tolerance; the terminal summary prints
one ``ACCEPTANCE CRITERION n: PASS``/``FAIL`` line per criterion (see the
``pytest_terminal_summary`` hook in ``conftest.py``).
"""

import functools
import math
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from koopmodel import cli
from koopmodel.dictionary import (
    Dictionary,
    dependence_closure,
    lift_trajectories,
)
from koopmodel.edmd import fit_koopman_matrix, pseudoinverse
from koopmodel.errors import DefectiveMatrixError, ModelTruncatedError
from koopmodel.harmonic import find_eigenfrequencies, harmonic_average
from koopmodel.model_io import file_layout, load_model, save_model
from koopmodel.representation import analyze_representation
from koopmodel.spectral import eigendecompose, predict
from koopmodel.trajectories import Trajectory, TrajectorySet

from conftest import (
    WORKED_DICT_ENTRIES,
    fit_pipeline,
    identity_dictionary,
    random_contraction,
    random_triple,
    simulate_linear,
    simulate_worked_example,
    triple_pipeline,
    worked_dictionary,
    write_data_csv,
    write_json,
)


# -- criterion 1: worked-example golden run ----------------------------------

def test_criterion_1_worked_example(tmp_path, capsys):
    start = time.perf_counter()
    data = simulate_worked_example()
    fitted = fit_pipeline(data, worked_dictionary())
    residuals = fitted.row_residuals

    assert np.max(np.abs(fitted.matrix[0] - [1.0, 1.0, 0.0])) <= 1e-6
    assert np.max(np.abs(fitted.matrix[2] - [1.0, 0.0, 1.0])) <= 1e-6
    assert residuals[1] > 1e-3

    write_data_csv(tmp_path / "data.csv", data)
    write_json(tmp_path / "dict.json", WORKED_DICT_ENTRIES)
    write_json(tmp_path / "reduce.json",
               {"data": "data.csv", "dictionary": "dict.json"})
    assert cli.main(["reduce", "--config", str(tmp_path / "reduce.json")]) == 0
    narrative = capsys.readouterr().out
    assert ("1-dimensional nonlinear representation generated by x "
            "(reduced, 1 of 2 features)") in narrative
    assert ("2-dimensional nonlinear representation generated by x, y "
            "(faithful)") in narrative

    assert time.perf_counter() - start < 1.0


# -- criteria 2 and 3: linear identification and spectral expansion ----------

@functools.lru_cache(maxsize=1)
def _linear_instances():
    """50 seeded diagonalizable 4x4 contractions with 3x30-step runs."""
    rng = np.random.default_rng(715)
    instances = []
    for _ in range(50):
        matrix = random_contraction(rng, dim=4, max_radius=0.95)
        starts = rng.uniform(-1.0, 1.0, size=(3, 4))
        instances.append((matrix, simulate_linear(matrix, starts, 30)))
    return instances


def test_criterion_2_linear_identification():
    start = time.perf_counter()
    dictionary = identity_dictionary(4)
    for true_matrix, data in _linear_instances():
        fitted = fit_pipeline(data, dictionary)
        assert np.max(np.abs(fitted.matrix - true_matrix)) <= 1e-8
        expected = np.sort_complex(np.linalg.eigvals(true_matrix))
        recovered = np.sort_complex(eigendecompose(fitted).eigenvalues)
        assert np.max(np.abs(recovered - expected)) <= 1e-8
    assert time.perf_counter() - start < 5.0


def test_criterion_3_spectral_expansion_equivalence():
    dictionary = identity_dictionary(4)
    for _, data in _linear_instances():
        fitted, triple = triple_pipeline(data, dictionary)
        for x0_index, g0 in enumerate(fitted.initial_lifts.T):
            power = np.eye(4)
            for k in range(101):
                direct = triple.decode @ power @ g0
                spectral = np.asarray(predict(triple, x0_index, k))
                scale = max(1.0, float(np.linalg.norm(direct)))
                assert np.linalg.norm(spectral - direct) <= 1e-6 * scale
                power = power @ fitted.matrix


# -- criterion 4: harmonic frequency detection -------------------------------

def test_criterion_4_harmonic_detection():
    n = 4096
    omega = 0.15
    series = np.exp(2j * np.pi * omega * np.arange(n))

    peaks = find_eigenfrequencies(series, refine=True)
    assert len(peaks) == 1
    assert abs(peaks[0].omega - omega) <= 1e-4
    assert peaks[0].amplitude > 0.99

    off_resonance = abs(harmonic_average(series, 0.10))
    assert off_resonance < 1.0 / (n * abs(math.sin(math.pi * 0.05)))


# -- criterion 5: pseudoinverse identity suite -------------------------------

def _assert_pseudoinverse_identities(matrix, pinv, tol):
    products = [
        (matrix @ pinv @ matrix, matrix),
        (pinv @ matrix @ pinv, pinv),
        ((matrix @ pinv).conj().T, matrix @ pinv),
        ((pinv @ matrix).conj().T, pinv @ matrix),
    ]
    for candidate, reference in products:
        scale = max(1.0, float(np.linalg.norm(reference)))
        assert np.linalg.norm(candidate - reference) <= tol * scale


def test_criterion_5_pseudoinverse_identities():
    rng = np.random.default_rng(425)
    for _ in range(100):
        m = int(rng.integers(1, 21))
        n = int(rng.integers(1, 13))
        rank = int(rng.integers(0, min(m, n) + 1))
        if rank == 0:
            matrix = np.zeros((m, n))
        else:
            matrix = rng.standard_normal((m, rank)) @ \
                rng.standard_normal((rank, n))
        _assert_pseudoinverse_identities(matrix, pseudoinverse(matrix), 1e-8)


# -- criterion 6: model-file contract ----------------------------------------

def test_criterion_6_model_file_contract(tmp_path):
    rng = np.random.default_rng(86)
    for case in range(20):
        triple = random_triple(rng)
        n = triple.eigenvalues.shape[0]
        m, h = triple.eigenfunction_values.shape[0], triple.modes.shape[0]
        d = triple.decode.shape[1]
        assert triple.payload_complex_entries == (1 + m + h) * n

        path = tmp_path / f"model_{case}.bin"
        save_model(triple, path)
        raw = path.read_bytes()

        fixed = (len(b"KOOPMDL1") + 20 + 32 + 16 * (1 + m + h) * n
                 + 8 * h * d + 4 + 4)
        metadata_bytes = len(raw) - fixed
        assert metadata_bytes > 0
        assert file_layout(n, m, h, d, metadata_bytes)["total"] == len(raw)

        loaded = load_model(path)
        assert np.array_equal(loaded.eigenvalues, triple.eigenvalues)
        assert np.array_equal(loaded.eigenfunction_values,
                              triple.eigenfunction_values)
        assert np.array_equal(loaded.modes, triple.modes)
        assert np.array_equal(loaded.decode, triple.decode)
        assert loaded.metadata == triple.metadata

        copy = tmp_path / f"model_{case}_copy.bin"
        save_model(loaded, copy)
        assert copy.read_bytes() == raw

        truncated = tmp_path / f"model_{case}_cut.bin"
        truncated.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(ModelTruncatedError):
            load_model(truncated)


# -- criterion 7: invariant suites (>= 100 cases each) -----------------------

_SHIFT_DICTIONARY = Dictionary.from_spec([
    {"id": "x", "kind": "coordinate", "params": {"index": 0}},
    {"id": "sx", "kind": "sin", "params": {"of": "x"}},
    {"id": "c0", "kind": "cos", "params": {"of": 0}},
], 1)

_FINITE = st.floats(min_value=-100.0, max_value=100.0,
                    allow_nan=False, allow_infinity=False)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_criterion_7_shift_consistency(data):
    # Shifted columns are the next time step's evaluations, bit for bit,
    # and trajectory boundaries are never bridged.
    n_traj = data.draw(st.integers(1, 3))
    trajectories = []
    for i in range(n_traj):
        values = data.draw(st.lists(_FINITE, min_size=2, max_size=8))
        trajectories.append(Trajectory(values, f"t{i}"))
    dataset = TrajectorySet(trajectories=tuple(trajectories),
                            feature_names=("x",))
    segments = list(lift_trajectories(_SHIFT_DICTIONARY, dataset))
    # Without delays, trajectory i fills len_i - 1 columns, each segment
    # one trajectory.
    assert len(segments) == n_traj
    for trajectory, (current, shifted) in zip(trajectories, segments):
        assert current.shape[1] == shifted.shape[1] == len(trajectory) - 1
        assert np.array_equal(shifted[:, :-1], current[:, 1:])


@st.composite
def _dictionary_and_subsets(draw):
    n = draw(st.integers(1, 3))
    entries = [{"id": f"x{i}", "kind": "coordinate", "params": {"index": i}}
               for i in range(n)]
    for j in range(draw(st.integers(0, 3))):
        base = draw(st.one_of(
            st.sampled_from([e["id"] for e in entries]),
            st.integers(0, n - 1),
        ))
        entries.append({"id": f"s{j}", "kind": "sin", "params": {"of": base}})
    dictionary = Dictionary.from_spec(entries, n)
    ids = list(dictionary.ids)
    small = draw(st.sets(st.sampled_from(ids)))
    extra = draw(st.sets(st.sampled_from(ids)))
    return dictionary, small, small | extra


@settings(max_examples=150, deadline=None)
@given(drawn=_dictionary_and_subsets())
def test_criterion_7_closure_monotonicity(drawn):
    dictionary, small, large = drawn
    closed_small = dependence_closure(dictionary, small)
    closed_large = dependence_closure(dictionary, large)
    assert closed_small <= closed_large
    assert dependence_closure(dictionary, set(closed_small)) == closed_small
    assert closed_large <= frozenset(dictionary.ids)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(data=st.data())
def test_criterion_7_conjugate_symmetry(data):
    # Real matrices have a conjugation-closed spectrum, with the +imag
    # member of each pair listed first.
    n = data.draw(st.integers(1, 5))
    flat = data.draw(st.lists(st.floats(-3.0, 3.0, allow_nan=False),
                              min_size=n * n, max_size=n * n))
    matrix = np.asarray(flat).reshape(n, n)
    try:
        system = eigendecompose(matrix)
    except DefectiveMatrixError:
        return  # the property concerns diagonalizable matrices only
    values = system.eigenvalues
    for lam in values:
        gap = float(np.min(np.abs(values - np.conj(lam))))
        assert gap <= 1e-12 * max(1.0, abs(lam))
    for first, second in zip(values, values[1:]):
        if abs(first - np.conj(second)) <= 1e-12 * max(1.0, abs(first)) \
                and abs(first.imag) > 1e-12:
            assert first.imag > second.imag


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       scale=st.floats(0.01, 100.0, allow_nan=False))
# d = k = 3 with cond(current) ~ 4e4 and rank 3 in both fits: the error is
# 2.3e-8, five times a fixed 1e-12 * max(1, max|A|) bound.
@example(seed=123636510, scale=3.0)
def test_criterion_7_scale_equivariance(seed, scale):
    # One uniform positive rescaling of all data columns leaves the fitted
    # operator unchanged. ``shifted @ pinv(current)`` is scale-invariant in
    # exact arithmetic, but rounding in the scaled data and the SVD gives a
    # forward error that grows with the condition number of the retained
    # part of ``current``. No documented figure bounds it, so the limit is
    # the least-squares error model eps * cond * max(1, max|A|) with a
    # factor of 100; over 20,000 uniform (seed, scale) draws the measured
    # error stayed below 8 times that model.
    rng = np.random.default_rng(seed)
    d, k = int(rng.integers(1, 5)), int(rng.integers(2, 9))
    current = rng.normal(size=(d, k))
    shifted = rng.normal(size=(d, k))
    base = fit_koopman_matrix([(current, shifted)])
    scaled = fit_koopman_matrix([(scale * current, scale * shifted)])
    sigma = np.linalg.svd(current, compute_uv=False)
    retained = sigma[sigma > 1e-10 * sigma[0]]  # the fit's default cutoff
    cond = float(retained[0] / retained[-1])
    limit = (100 * np.finfo(float).eps * max(1.0, cond)
             * max(1.0, float(np.max(np.abs(base.matrix)))))
    assert np.max(np.abs(base.matrix - scaled.matrix)) <= limit


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       threshold=st.floats(0.01, 0.5, allow_nan=False))
def test_criterion_7_report_determinism(seed, threshold):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    matrix = random_contraction(rng, dim=dim, max_radius=0.9)
    data = simulate_linear(matrix, rng.uniform(-1.0, 1.0, (2, dim)), 10)
    dictionary = identity_dictionary(dim)
    fitted = fit_pipeline(data, dictionary)
    first = analyze_representation(fitted, dictionary,
                                   zero_threshold=threshold)
    second = analyze_representation(fitted, dictionary,
                                    zero_threshold=threshold)
    assert first.as_dict() == second.as_dict()
    assert first.narrative == second.narrative
