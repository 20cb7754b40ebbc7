"""Shared generators for the test suite.

Everything randomized is seeded so runs are reproducible; the oracles here
mirror the library's inputs, not its internals.
"""

from __future__ import annotations

import csv
import io
import json
import math
import struct
import zlib

import numpy as np
import pytest

from koopmodel import (
    Dictionary,
    ModelMetadata,
    SpectralTriple,
    Trajectory,
    TrajectorySet,
    build_spectral_triple,
    eigendecompose,
    fit_koopman_matrix,
    lift_trajectories,
)
from koopmodel.edmd import FIT_BLOCK_BYTES

WORKED_SEED = 20240817

WORKED_DICT_ENTRIES = [
    {"id": "x", "kind": "coordinate", "params": {"index": 0}},
    {"id": "sinx", "kind": "sin", "params": {"of": "x"}, "depends_on": ["x"]},
    {"id": "y", "kind": "coordinate", "params": {"index": 1}},
]


def simulate_worked_example(n_trajectories: int = 20, n_steps: int = 50,
                            seed: int = WORKED_SEED) -> TrajectorySet:
    """Trajectories of x+ = x + sin x, y+ = y + x from seeded uniforms."""
    rng = np.random.default_rng(seed)
    trajectories = []
    for i in range(n_trajectories):
        x = rng.uniform(-3.0, 3.0)
        y = rng.uniform(-1.0, 1.0)
        rows = []
        for _ in range(n_steps):
            rows.append([x, y])
            x, y = x + math.sin(x), y + x
        trajectories.append(Trajectory(rows, id=f"traj{i:02d}"))
    return TrajectorySet(trajectories=tuple(trajectories),
                         feature_names=("x", "y"))


def worked_dictionary() -> Dictionary:
    return Dictionary.from_spec(WORKED_DICT_ENTRIES, 2)


def identity_dictionary(n: int) -> Dictionary:
    entries = [{"id": f"x{i}", "kind": "coordinate", "params": {"index": i}}
               for i in range(n)]
    return Dictionary.from_spec(entries, n)


def random_contraction(rng: np.random.Generator, dim: int = 4,
                       max_radius: float = 0.95) -> np.ndarray:
    """Random real diagonalizable matrix with spectral radius <= max_radius."""
    while True:
        matrix = rng.normal(size=(dim, dim))
        radius = max(abs(np.linalg.eigvals(matrix)))
        matrix *= max_radius * rng.uniform(0.5, 1.0) / radius
        _, vectors = np.linalg.eig(matrix)
        if np.linalg.cond(vectors) < 1e6:
            return matrix


def simulate_linear(matrix: np.ndarray, initial_states: np.ndarray,
                    n_steps: int) -> TrajectorySet:
    """Exact trajectories of x+ = matrix x from the given initial states."""
    dim = matrix.shape[0]
    trajectories = []
    for i, x0 in enumerate(np.atleast_2d(initial_states)):
        state = np.asarray(x0, dtype=float)
        rows = []
        for _ in range(n_steps):
            rows.append(state)
            state = matrix @ state
        trajectories.append(Trajectory(rows, id=f"lin{i}"))
    return TrajectorySet(trajectories=tuple(trajectories),
                         feature_names=tuple(f"x{i}" for i in range(dim)))


def fold_rows(width: int) -> int:
    """Snapshot pairs per fold of the fit for ``width`` = 2d + h stacked
    rows: FIT_BLOCK_BYTES of doubles, and never fewer than ``width``."""
    return max(width, FIT_BLOCK_BYTES // (8 * width))


def stacked_lift(dictionary: Dictionary, data: TrajectorySet):
    """(current, shifted, outputs): every trajectory's lifted segment side
    by side, the d x K data matrices the fit itself never builds."""
    return tuple(np.concatenate(parts, axis=1) for parts in
                 zip(*lift_trajectories(dictionary, data, outputs=True)))


def fit_pipeline(data: TrajectorySet, dictionary: Dictionary):
    """The fit of ``data`` with default tolerances and the decode map to
    the features."""
    return fit_koopman_matrix(lift_trajectories(dictionary, data,
                                                outputs=True))


def triple_pipeline(data: TrajectorySet, dictionary: Dictionary):
    """Full model build; returns (fitted, triple)."""
    fitted = fit_pipeline(data, dictionary)
    system = eigendecompose(fitted)
    metadata = ModelMetadata(
        dict_hash=dictionary.spec_hash(),
        feature_names=data.feature_names,
        output_names=data.feature_names,
        trajectory_ids=data.trajectory_ids,
    )
    return fitted, build_spectral_triple(system, fitted, metadata)


def random_triple(rng: np.random.Generator) -> SpectralTriple:
    """Random well-formed spectral triple for serialization tests."""
    n = int(rng.integers(1, 7))
    m = int(rng.integers(1, 6))
    h = int(rng.integers(1, 5))
    d = int(rng.integers(n, n + 4))

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    metadata = ModelMetadata(
        dict_hash=rng.bytes(32),
        feature_names=tuple(f"f{i}" for i in range(d)),
        output_names=tuple(f"out{i}" for i in range(h)),
        trajectory_ids=tuple(f"t{i}" for i in range(m)),
    )
    return SpectralTriple(
        eigenvalues=cplx(n),
        eigenfunction_values=cplx(m, n),
        modes=cplx(h, n),
        decode=rng.normal(size=(h, d)),
        metadata=metadata,
    )


def with_metadata(model: bytes, meta: bytes) -> bytes:
    """A model file's bytes with its metadata block replaced by ``meta``
    and the CRC recomputed; offsets follow the documented layout."""
    n, m, h, d = struct.unpack_from("<4I", model, 12)
    start = 60 + 16 * (1 + m + h) * n + 8 * h * d
    body = model[:start] + struct.pack("<I", len(meta)) + meta
    return body + struct.pack("<I", zlib.crc32(body))


def write_data_csv(path, data: TrajectorySet) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["trajectory_id", "t"] + list(data.feature_names))
    for trajectory in data.trajectories:
        for t, row in enumerate(trajectory.values, start=trajectory.t0):
            writer.writerow([trajectory.id, t]
                            + [repr(float(v)) for v in row])
    path.write_text(buffer.getvalue())


def write_json(path, document) -> None:
    path.write_text(json.dumps(document, indent=2) + "\n")


@pytest.fixture(scope="session")
def worked_data() -> TrajectorySet:
    return simulate_worked_example()


@pytest.fixture(scope="session")
def worked_dict() -> Dictionary:
    return worked_dictionary()


@pytest.fixture(scope="session")
def worked_fit(worked_data, worked_dict):
    return fit_pipeline(worked_data, worked_dict)


@pytest.fixture(scope="session")
def worked_triple(worked_data, worked_dict):
    return triple_pipeline(worked_data, worked_dict)


# -- acceptance summary ------------------------------------------------------

# Criterion label per acceptance test; several tests may share one criterion.
ACCEPTANCE_LABELS = {
    "test_criterion_1_worked_example": "1 (worked-example golden run)",
    "test_criterion_2_linear_identification": "2 (linear identification)",
    "test_criterion_3_spectral_expansion_equivalence":
        "3 (spectral-expansion equivalence)",
    "test_criterion_4_harmonic_detection": "4 (harmonic detection)",
    "test_criterion_5_pseudoinverse_identities":
        "5 (pseudoinverse identities)",
    "test_criterion_6_model_file_contract": "6 (model-file contract)",
    "test_criterion_7_shift_consistency": "7 (invariant suites)",
    "test_criterion_7_closure_monotonicity": "7 (invariant suites)",
    "test_criterion_7_conjugate_symmetry": "7 (invariant suites)",
    "test_criterion_7_scale_equivariance": "7 (invariant suites)",
    "test_criterion_7_report_determinism": "7 (invariant suites)",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL line per acceptance criterion."""
    verdicts: dict[str, bool] = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, ()):
            when = getattr(report, "when", "call")
            if when != "call" and status == "passed":
                continue
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py" not in nodeid:
                continue
            name = nodeid.split("::")[-1].split("[")[0]
            label = ACCEPTANCE_LABELS.get(name)
            if label is None:
                continue
            verdicts[label] = verdicts.get(label, True) and status == "passed"
    if verdicts:
        terminalreporter.write_line("")
        for label in sorted(verdicts):
            outcome = "PASS" if verdicts[label] else "FAIL"
            terminalreporter.write_line(f"ACCEPTANCE CRITERION {label}: {outcome}")
