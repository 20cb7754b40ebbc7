"""Seeded inputs and package-independent oracles for the koop benchmark.

Nothing here imports ``koopmodel``.  Every expected output comes from the
generating dynamics or is recomputed with plain numpy, so a defect in the
package cannot hide in its own oracle.

Each workload runs all four commands, because every end-to-end metric is
reported on every workload.  The commands a workload is built around carry
its cost; the others are companions that read the same data files and show
what ingest and start-up cost there.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

SVD_TOL = 1e-10  # the package default relative singular-value cutoff


class OracleError(Exception):
    """A command's output disagrees with the benchmark's own expectation."""


@dataclass
class Command:
    """One ``koop`` invocation: its config file and the check of its outputs."""

    name: str
    config: dict
    check: Callable[[Path], None]

    @property
    def outputs(self) -> list[str]:
        return [self.config[k] for k in ("out", "report") if k in self.config]


@dataclass
class Workload:
    name: str
    files: dict[str, str]
    commands: list[Command]
    data_rows: dict[str, int] = field(default_factory=dict)

    def write(self, work: Path) -> None:
        for name, text in self.files.items():
            (work / name).write_text(text)
        for cmd in self.commands:
            (work / f"{cmd.name}.json").write_text(json.dumps(cmd.config))


# -- helpers -----------------------------------------------------------------

def _csv(feature_names, trajectories: dict[str, np.ndarray]) -> str:
    lines = [",".join(["trajectory_id", "t", *feature_names])]
    for tid, values in trajectories.items():
        for t, row in enumerate(values.tolist()):
            lines.append(f"{tid},{t}," + ",".join(repr(v) for v in row))
    return "\n".join(lines) + "\n"


def _coordinate(oid: str, index: int) -> dict:
    return {"id": oid, "kind": "coordinate", "params": {"index": index}}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OracleError(message)


def _table(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _report(path: Path) -> dict:
    return json.loads(path.read_text())


def _check_matrix(report_path: Path, expected: np.ndarray, rtol: float):
    matrix = np.array(_report(report_path)["matrix"])
    _require(matrix.shape == expected.shape,
             f"matrix shape {matrix.shape}, expected {expected.shape}")
    err = np.linalg.norm(matrix - expected) / np.linalg.norm(expected)
    _require(err <= rtol, f"fitted matrix off by {err:.3g} (relative)")


def _check_prediction(path: Path, expected: np.ndarray, atol: float):
    table = _table(path)
    _require(table.shape == (expected.shape[0], expected.shape[1] + 1),
             f"prediction table shape {table.shape}, expected "
             f"{(expected.shape[0], expected.shape[1] + 1)}")
    _require(np.array_equal(table[:, 0], np.arange(expected.shape[0])),
             "prediction steps are not 0..horizon")
    err = float(np.max(np.abs(table[:, 1:] - expected)))
    _require(err <= atol, f"prediction off by {err:.3g}")


def _check_decay_spectrum(path: Path, series: np.ndarray):
    """A geometric decay a^k x0 (0 < a < 1) has one peak, at frequency 0.

    Its DFT magnitude falls strictly from bin 0 to bin N/2, and the harmonic
    average of a one-signed series is largest at 0, where it is the mean.
    """
    table = _table(path)
    _require(table.shape[0] == 1, f"{table.shape[0]} peaks, expected 1")
    omega, _, _, _, avg_re, avg_im = table[0]
    mean = float(np.mean(series))
    _require(abs(omega) <= 1e-12, f"peak at {omega}, expected 0")
    _require(abs(avg_re - mean) <= 1e-9 * abs(mean) and abs(avg_im) <= 1e-12,
             f"average {avg_re}{avg_im:+}j, expected {mean}")


def _lifted_pair(blocks: list[np.ndarray]):
    """Stack per-trajectory (d, m) lifts into (current, shifted)."""
    return (np.concatenate([b[:, :-1] for b in blocks], axis=1),
            np.concatenate([b[:, 1:] for b in blocks], axis=1))


def _linear_rollout(matrix, decode, g0, horizon: int) -> np.ndarray:
    """decode @ matrix^k @ g0 for k = 0..horizon, by repeated products."""
    out = np.empty((horizon + 1, decode.shape[0]))
    g = g0.copy()
    for k in range(horizon + 1):
        out[k] = decode @ g
        g = matrix @ g
    return out


# -- x+ = a x, y+ = b y + c x^2 on the dictionary {x, y, x^2} ----------------
#
# Shared by tall (fit/predict/reduce) and wide (reduce companion).  On
# {x, y, x^2} the map is exactly linear, so the fitted operator is known in
# closed form and the closed subsets follow from its zero pattern: x^2 is
# generated by the coordinate x, y needs x^2, so the minimal generator sets
# of the closure classes are {x}, {x2}, {y, x2} (linear) and {x, y}
# (nonlinear: y's update needs x^2, which {x, y} only generates).

QUAD = (0.9, 0.5, 0.2)
QUAD_SUBSETS = {("x",): "linear", ("x2",): "linear",
                ("y", "x2"): "linear", ("x", "y"): "nonlinear"}


def _quad_dictionary(n_features: int) -> str:
    return json.dumps([
        _coordinate("x", 0), _coordinate("y", 1),
        {"id": "x2", "kind": "monomial",
         "params": {"exponents": [2] + [0] * (n_features - 1)}}])


def _quad_operator() -> np.ndarray:
    a, b, c = QUAD
    return np.array([[a, 0.0, 0.0], [0.0, b, c], [0.0, 0.0, a * a]])


def _check_quad_reduce(path: Path):
    subsets = {tuple(s["observables"]): s["kind"]
               for s in _report(path)["subsets"]}
    _require(subsets == QUAD_SUBSETS,
             f"closed subsets {subsets}, expected {QUAD_SUBSETS}")


def _simulate_quad(x, y, steps: int, z=None):
    """(trajectories, steps, features) array from initial values; with
    initial ``z`` a third feature follows z+ = 0.7 z + 0.3 x y."""
    a, b, c = QUAD
    out = np.empty((x.size, steps, 2 if z is None else 3))
    for t in range(steps):
        out[:, t, 0], out[:, t, 1] = x, y
        if z is not None:
            out[:, t, 2] = z
            z = 0.7 * z + 0.3 * x * y
        x, y = a * x, b * y + c * x * x
    return out


def _signed_uniform(rng, n):
    """Draws from +-[0.2, 1], so no geometric decay starts near zero."""
    return rng.uniform(0.2, 1.0, n) * rng.choice([-1.0, 1.0], n)


# -- tall ----------------------------------------------------------------------

def tall(seed: int, small: bool = False) -> Workload:
    """The ROADMAP baseline at half size: 100 x 500 steps of the quadratic
    map, d=3."""
    n_traj, steps, horizon = (20, 50, 1_000) if small else (100, 500, 50_000)
    rng = np.random.default_rng(seed)
    values = _simulate_quad(_signed_uniform(rng, n_traj),
                            rng.uniform(-1.0, 1.0, n_traj), steps)
    trajs = {f"T{i:03d}": values[i] for i in range(n_traj)}

    a, b, c = QUAD
    x, y = values[0, 0]
    expected = np.empty((horizon + 1, 2))
    for k in range(horizon + 1):
        expected[k] = x, y
        x, y = a * x, b * y + c * x * x

    data = {"data": "tall.csv", "dictionary": "tall_dict.json"}
    return Workload(
        name="tall",
        files={"tall.csv": _csv(["x", "y"], trajs),
               "tall_dict.json": _quad_dictionary(2)},
        data_rows={"tall.csv": n_traj * steps},
        commands=[
            Command("fit", {**data, "out": "tall.koop",
                            "report": "tall_fit.json"},
                    lambda w: _check_matrix(w / "tall_fit.json",
                                            _quad_operator(), 1e-12)),
            Command("predict", {"model": "tall.koop", "horizon": horizon,
                                "x0": 0, "out": "tall_pred.csv"},
                    lambda w: _check_prediction(w / "tall_pred.csv",
                                                expected, 1e-12)),
            Command("reduce", {**data, "out": "tall_reduce.json"},
                    lambda w: _check_quad_reduce(w / "tall_reduce.json")),
            Command("spectrum", {"data": "tall.csv", "column": "x",
                                 "trajectory": "T000",
                                 "out": "tall_spectrum.csv"},
                    lambda w: _check_decay_spectrum(w / "tall_spectrum.csv",
                                                    values[0, :, 0])),
        ],
    )


# -- wide ----------------------------------------------------------------------

def _monomial_exponents(n_features: int, max_degree: int):
    """Every exponent tuple of total degree 1..max_degree, by degree."""
    return [e for deg in range(1, max_degree + 1)
            for e in sorted(itertools.product(range(deg + 1),
                                              repeat=n_features),
                            reverse=True)
            if sum(e) == deg]


def wide(seed: int, small: bool = False) -> Workload:
    """A 3-feature polynomial map with every monomial of degree <= 6 (d=83)."""
    n_traj, steps, horizon = (20, 100, 500) if small else (20, 1_000, 10_000)
    rng = np.random.default_rng(seed)
    values = _simulate_quad(_signed_uniform(rng, n_traj),
                            rng.uniform(-1.0, 1.0, n_traj), steps,
                            z=rng.uniform(-1.0, 1.0, n_traj))
    trajs = {f"W{i:02d}": values[i] for i in range(n_traj)}
    exponents = np.array(_monomial_exponents(3, 6))
    dictionary = [{"id": "m" + "".join(map(str, e)), "kind": "monomial",
                   "params": {"exponents": e.tolist()}} for e in exponents]

    def expected():
        """Least-squares operator and decode map on lifts built here."""
        lifts = [np.prod(v[None, :, :] ** exponents[:, None, :], axis=2)
                 for v in values]
        current, shifted = _lifted_pair(lifts)
        pinv = np.linalg.pinv(current, rcond=SVD_TOL)
        features = np.concatenate([v[:-1].T for v in values], axis=1)
        return shifted @ pinv, features @ pinv, lifts[0][:, 0]

    cache = {}

    def oracle():
        if not cache:
            cache["matrix"], decode, g0 = expected()
            cache["prediction"] = _linear_rollout(cache["matrix"], decode,
                                                  g0, horizon)
        return cache

    return Workload(
        name="wide",
        files={"wide.csv": _csv(["x", "y", "z"], trajs),
               "wide_dict.json": json.dumps(dictionary),
               "quad_dict.json": _quad_dictionary(3)},
        data_rows={"wide.csv": n_traj * steps},
        commands=[
            Command("fit", {"data": "wide.csv", "dictionary": "wide_dict.json",
                            "out": "wide.koop", "report": "wide_fit.json"},
                    lambda w: _check_matrix(w / "wide_fit.json",
                                            oracle()["matrix"], 1e-8)),
            Command("predict", {"model": "wide.koop", "horizon": horizon,
                                "x0": 0, "out": "wide_pred.csv"},
                    lambda w: _check_prediction(w / "wide_pred.csv",
                                                oracle()["prediction"], 1e-8)),
            Command("reduce", {"data": "wide.csv",
                               "dictionary": "quad_dict.json",
                               "out": "wide_reduce.json"},
                    lambda w: _check_quad_reduce(w / "wide_reduce.json")),
            Command("spectrum", {"data": "wide.csv", "column": "x",
                                 "trajectory": "W00",
                                 "out": "wide_spectrum.csv"},
                    lambda w: _check_decay_spectrum(w / "wide_spectrum.csv",
                                                    values[0, :, 0])),
        ],
    )


# -- analysis ------------------------------------------------------------------

def _chain(rng, n_blocks: int, n_traj: int, steps: int):
    """Blocks (x_k, y_k): a rotation by theta_k scaled by r_k, with x_k also
    driven by 0.3 sin(x_{k-1}).  Block 1 is undamped, so every block keeps
    an O(1) amplitude and x_k, y_k, sin x_k stay linearly independent.
    """
    theta = rng.permutation(np.linspace(0.3, 1.2, n_blocks))
    radius = np.where(np.arange(n_blocks) == 0, 1.0, 0.9)
    cos_t, sin_t = radius * np.cos(theta), radius * np.sin(theta)
    x = rng.uniform(0.5, 1.5, (n_traj, n_blocks))
    y = rng.uniform(-1.0, 1.0, (n_traj, n_blocks))
    out = np.empty((n_traj, steps, 2 * n_blocks))
    for t in range(steps):
        out[:, t, 0::2], out[:, t, 1::2] = x, y
        drive = np.zeros_like(x)
        drive[:, 1:] = 0.3 * np.sin(x[:, :-1])
        x, y = cos_t * x - sin_t * y + drive, sin_t * x + cos_t * y
    return out


def _check_chain_prefixes(path: Path, n_blocks: int):
    """Every reported closed subset must be a prefix of the chain: blocks
    1..K with each block's generators x_j and y_j present.  How many
    prefixes are found is measured, not checked (the search is capped)."""
    subsets = _report(path)["subsets"]
    _require(subsets, "no closed subset reported")
    for s in subsets:
        ids = set(s["observables"])
        top = max(int(oid[1:]) for oid in ids)
        _require(top <= n_blocks, f"unknown observable in {sorted(ids)}")
        generators = {f"{v}{k:02d}" for k in range(1, top + 1) for v in "xy"}
        allowed = generators | {f"s{k:02d}" for k in range(1, top + 1)}
        _require(generators <= ids <= allowed,
                 f"closed subset {sorted(ids)} is not a chain prefix")


def _tones(rng, n_samples: int):
    """Six real tones at well separated, incommensurate frequencies."""
    omega = 0.04 + 0.07 * np.arange(6) + rng.uniform(0.0, 0.03, 6)
    amp = rng.uniform(0.5, 1.0, 6)
    phase = rng.uniform(0.0, 2.0 * math.pi, 6)

    def series(t):
        t = np.asarray(t, dtype=float)[:, None]
        return np.sum(amp * np.cos(2.0 * math.pi * omega * t + phase), axis=1)

    return omega, series(np.arange(n_samples)), series


def _check_tone_spectrum(path: Path, omega: np.ndarray):
    table = _table(path)
    _require(table.shape[0] == omega.size,
             f"{table.shape[0]} peaks, expected {omega.size}")
    err = float(np.max(np.abs(np.sort(table[:, 0]) - omega)))
    _require(err <= 1e-6, f"tone frequency off by {err:.3g}")


def _check_tone_eigenvalues(path: Path, omega: np.ndarray):
    eig = np.array([complex(re, im)
                    for re, im in _report(path)["eigenvalues"]])
    truth = np.exp(2j * math.pi * np.concatenate([omega, -omega]))
    _require(eig.size == truth.size,
             f"{eig.size} eigenvalues, expected {truth.size}")
    err = max(float(np.min(np.abs(eig - z))) for z in truth)
    _require(err <= 1e-8, f"tone eigenvalue off by {err:.3g}")


TONE_LAGS = 11  # 6 real tones are 12 exponentials: u and 11 delays


def analysis(seed: int, small: bool = False) -> Workload:
    """Representation search on a 16-block chain (d=48) and harmonic
    analysis of one 32,769-sample series of six tones."""
    n_blocks, n_traj, steps = (4, 4, 100) if small else (16, 10, 200)
    n_samples, horizon = (4_097, 500) if small else (32_769, 10_000)
    rng = np.random.default_rng(seed)
    chain = _chain(rng, n_blocks, n_traj, steps)
    chain_names = [f"{v}{k:02d}" for k in range(1, n_blocks + 1) for v in "xy"]
    chain_dict = []
    for k in range(1, n_blocks + 1):
        chain_dict += [_coordinate(f"x{k:02d}", 2 * k - 2),
                       _coordinate(f"y{k:02d}", 2 * k - 1),
                       {"id": f"s{k:02d}", "kind": "sin",
                        "params": {"of": f"x{k:02d}"}}]
    omega, series, tone = _tones(rng, n_samples)
    tone_dict = [_coordinate("u00", 0)] + [
        {"id": f"u{lag:02d}", "kind": "delay",
         "params": {"of": "u00", "lag": lag}}
        for lag in range(1, TONE_LAGS + 1)]
    # The model's first initial condition is the first column with a full
    # delay history, at t = TONE_LAGS.
    expected = tone(np.arange(TONE_LAGS, TONE_LAGS + horizon + 1))[:, None]
    tones = {"data": "tones.csv", "dictionary": "tones_dict.json"}
    return Workload(
        name="analysis",
        files={"chain.csv": _csv(chain_names,
                                 {f"C{i}": chain[i] for i in range(n_traj)}),
               "chain_dict.json": json.dumps(chain_dict),
               "tones.csv": _csv(["u"], {"S": series[:, None]}),
               "tones_dict.json": json.dumps(tone_dict)},
        data_rows={"chain.csv": n_traj * steps, "tones.csv": n_samples},
        commands=[
            Command("fit", {**tones, "out": "tones.koop",
                            "report": "tones_fit.json"},
                    lambda w: _check_tone_eigenvalues(w / "tones_fit.json",
                                                      omega)),
            Command("predict", {"model": "tones.koop", "horizon": horizon,
                                "x0": 0, "out": "tones_pred.csv"},
                    lambda w: _check_prediction(w / "tones_pred.csv",
                                                expected, 1e-6)),
            Command("reduce", {"data": "chain.csv",
                               "dictionary": "chain_dict.json",
                               "out": "chain_reduce.json"},
                    lambda w: _check_chain_prefixes(w / "chain_reduce.json",
                                                    n_blocks)),
            Command("spectrum", {"data": "tones.csv", "column": "u",
                                 "out": "tones_spectrum.csv"},
                    lambda w: _check_tone_spectrum(w / "tones_spectrum.csv",
                                                   omega)),
        ],
    )


WORKLOADS = {"tall": tall, "wide": wide, "analysis": analysis}
