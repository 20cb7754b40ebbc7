"""Command-line front end: ``koop fit|predict|spectrum|reduce``.

Exit codes: 0 success, 2 malformed input (data, config, or model file),
3 numerical failure.  All output files are written atomically after the
computation finishes, so a failed command never leaves partial results.

Input data is CSV with a ``trajectory_id`` column, an integer ``t``
column, and one column per feature; rows of a trajectory are contiguous
and sorted by ``t``.  The observable dictionary is a JSON list of
``{id, kind, params, depends_on}`` entries; its canonical hash is stored
in model files and checked by ``predict``/``reduce`` so a model is never
combined with a different dictionary.

``KOOP_THREADS`` caps BLAS/FFT parallelism; it is applied before the
numerical libraries load, and explicitly set library-specific variables
(e.g. ``OMP_NUM_THREADS``) still win.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path

from .atomic import write_atomically
from .errors import InputError, KoopmodelError, NumericalError

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

_TOLERANCE_KEYS = ("svd_tolerance", "zero_threshold", "closure_tol",
                   "peak_threshold")
_FLAG_KEYS = ("refine", "json_sidecar")
# Each override flag sets one option per command it means something for;
# the other commands reject it.
_SCOPED_FLAGS = {
    "--tol": {"fit": "svd_tolerance", "reduce": "svd_tolerance"},
    "--threshold": {"reduce": "zero_threshold", "spectrum": "peak_threshold"},
}
_INPUT_PATH_KEYS = ("data", "dictionary", "model")


def _apply_thread_cap() -> None:
    cap = os.environ.get("KOOP_THREADS")
    if not cap:
        return
    if not (cap.isascii() and cap.isdigit()) or int(cap) < 1:
        raise InputError(f"KOOP_THREADS must be a positive integer, "
                         f"got {cap!r}")
    for var in _THREAD_VARS:
        os.environ.setdefault(var, cap)


def fmt(value) -> str:
    """Fixed 17-significant-digit rendering; round-trip safe for doubles."""
    return format(float(value), ".17g")


@dataclass
class RunConfig:
    """Merged file + command-line options for one command."""

    options: dict = field(default_factory=dict)

    @classmethod
    def load(cls, args) -> "RunConfig":
        options: dict = {}
        if args.config is not None:
            path = Path(args.config)
            if not path.is_file():
                raise InputError(f"config file not found: {path}")
            try:
                loaded = json.loads(path.read_text())
            except json.JSONDecodeError as exc:
                raise InputError(f"config file {path} is not valid JSON: "
                                 f"{exc}") from exc
            if not isinstance(loaded, dict):
                raise InputError("config file must hold a JSON object")
            options.update(loaded)
            # Relative paths in the config resolve against its directory.
            base = path.parent
            for key in _INPUT_PATH_KEYS + ("out", "report", "text_out"):
                if isinstance(options.get(key), str):
                    options[key] = str((base / options[key]))
        for key in _TOLERANCE_KEYS:
            if getattr(args, key, None) is not None:
                options[key] = getattr(args, key)
        if args.out is not None:
            options["out"] = args.out
        config = cls(options)
        config._validate()
        return config

    def _validate(self) -> None:
        for key in _TOLERANCE_KEYS:
            if key in self.options:
                self.tolerance(key, None)
        for key in _FLAG_KEYS:
            if key in self.options:
                self.flag(key, None)
        for key in _INPUT_PATH_KEYS:
            value = self.options.get(key)
            if isinstance(value, str) and not Path(value).is_file():
                raise InputError(f"config option {key!r} references a "
                                 f"missing file: {value}")

    def require(self, key: str, kind: str = "option"):
        if key not in self.options:
            raise InputError(f"missing required {kind} {key!r} "
                             f"(set it in the --config file)")
        return self.options[key]

    def get(self, key: str, default=None):
        return self.options.get(key, default)

    def tolerance(self, key: str, default: float) -> float:
        value = self.options.get(key, default)
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or value <= 0):
            raise InputError(f"config option {key!r} must be a positive "
                             f"number, got {value!r}")
        return float(value)

    def flag(self, key: str, default: bool) -> bool:
        value = self.options.get(key, default)
        if not isinstance(value, bool):
            raise InputError(f"config option {key!r} must be true or false, "
                             f"got {value!r}")
        return value


@contextlib.contextmanager
def _stage(name: str):
    """Prefix any package error raised inside with the pipeline stage."""
    try:
        yield
    except KoopmodelError as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def _parse_column(rows, col, convert, dtype):
    """``(array, None)`` of column ``col`` converted, or ``(None, i)`` where
    row ``i`` holds the first cell that ``convert`` or ``dtype`` rejects."""
    import numpy as np

    try:
        return np.fromiter(map(convert, map(itemgetter(col), rows)), dtype,
                           len(rows)), None
    except (ValueError, OverflowError):
        for i, row in enumerate(rows):
            try:
                np.array(convert(row[col]), dtype)
            except (ValueError, OverflowError):
                return None, i
        raise


def read_trajectories(path):
    """Parse the trajectory CSV into a TrajectorySet.

    Cells are parsed column by column straight into per-trajectory arrays.
    A malformed row is reported as ``file:line`` with its physical line
    number; of several, the first in the file is reported.
    """
    import numpy as np

    from .trajectories import Trajectory, TrajectorySet

    path = Path(path)
    rows, lines = [], []
    try:
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            for row in reader:
                if any(map(str.strip, row)):
                    rows.append(row)
                    lines.append(reader.line_num)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"cannot read data file {path}: {exc}") from exc
    if not rows:
        raise InputError(f"data file {path} is empty")
    header = [cell.strip() for cell in rows[0]]
    for required in ("trajectory_id", "t"):
        if required not in header:
            raise InputError(f"data file {path} lacks required column "
                             f"{required!r}")
    id_col, t_col = header.index("trajectory_id"), header.index("t")
    feature_cols = [i for i in range(len(header)) if i not in (id_col, t_col)]
    if not feature_cols:
        raise InputError(f"data file {path} has no feature columns")
    body, lines = rows[1:], lines[1:]
    if not body:
        raise InputError(f"data file {path} has a header but no data rows")

    # Each check sees only the rows before the earliest failure found so
    # far, so the failure reported is the first in file order.
    error = None
    bad = next((i for i, row in enumerate(body) if len(row) != len(header)),
               None)
    if bad is not None:
        body, error = body[:bad], (bad, f"expected {len(header)} columns, "
                                        f"got {len(body[bad])}")
    t, bad = _parse_column(body, t_col, int, np.int64)
    if bad is not None:
        body, error = body[:bad], (bad, f"t must be an integer, got "
                                        f"{body[bad][t_col]!r}")
    # Filled column by column: one data-sized array, not one per column
    # plus a stacked copy.
    values = np.empty((len(body), len(feature_cols)))
    for j, col in enumerate(feature_cols):
        column, bad = _parse_column(body, col, float, float)
        if bad is None:
            values[:len(column), j] = column
        else:
            body, error = body[:bad], (bad, f"column {header[col]!r} is not "
                                            f"a number: {body[bad][col]!r}")
    ids = [row[id_col].strip() for row in body]
    starts = [i for i in range(len(ids)) if i == 0 or ids[i] != ids[i - 1]]
    first: dict[str, int] = {}
    repeated = [s for s in starts if first.setdefault(ids[s], s) != s]
    if repeated:
        error = (repeated[0], f"rows of trajectory {ids[repeated[0]]!r} are "
                              f"not contiguous")
    if error is not None:
        raise InputError(f"{path}:{lines[error[0]]}: {error[1]}")

    gaps = np.setdiff1d(np.flatnonzero(np.diff(t) != 1) + 1, starts)
    if gaps.size:
        g = int(gaps[0])
        raise InputError(f"{path}:{lines[g]}: trajectory {ids[g]!r}: time "
                         f"indices must increase by 1 (got {t[g - 1]} -> "
                         f"{t[g]})")
    values.flags.writeable = False  # trajectories share it instead of copying
    trajectories = []
    for a, b in zip(starts, starts[1:] + [len(ids)]):
        try:
            trajectories.append(Trajectory(values[a:b], ids[a], t0=t[a]))
        except InputError as exc:  # too short or t0 < 0: the first row
            bad = int(np.isfinite(values[a:b]).all(axis=1).argmin())
            row = a if b - a < 2 or t[a] < 0 else a + bad
            raise InputError(f"{path}:{lines[row]}: {exc}") from exc
    return TrajectorySet(trajectories=tuple(trajectories),
                         feature_names=tuple(header[c] for c in feature_cols))


def read_dictionary(path, n_features: int):
    from .dictionary import Dictionary

    path = Path(path)
    try:
        entries = json.loads(path.read_text())
    except OSError as exc:
        raise InputError(f"cannot read dictionary file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"dictionary file {path} is not valid JSON: "
                         f"{exc}") from exc
    if isinstance(entries, dict) and "observables" in entries:
        entries = entries["observables"]
    if not isinstance(entries, list):
        raise InputError(f"dictionary file {path} must hold a JSON list "
                         f"of observable entries")
    return Dictionary.from_spec(entries, n_features)


def _publish(outputs) -> None:
    """Write all outputs or none; an OS failure exits 2."""
    try:
        write_atomically(outputs)
    except OSError as exc:
        raise InputError(f"writing outputs: {exc}") from exc


def _csv_text(header, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _fit_pipeline(config: RunConfig, decode: bool):
    """Shared fit path: data -> dictionary -> lifted pair -> matrix (with
    the decode map to the features if ``decode``)."""
    from .dictionary import features_at_columns, lift_trajectories
    from .edmd import DEFAULT_SVD_TOL, fit_koopman_matrix

    with _stage("reading data"):
        data = read_trajectories(config.require("data", "input"))
    with _stage("reading dictionary"):
        dictionary = read_dictionary(config.require("dictionary", "input"),
                                     data.n_features)
    with _stage("lifting"):
        lifted = lift_trajectories(dictionary, data)
        outputs = features_at_columns(data, lifted) if decode else None
    with _stage("fitting"):
        tol = config.tolerance("svd_tolerance", DEFAULT_SVD_TOL)
        fitted = fit_koopman_matrix(lifted, tol, outputs)
    return data, dictionary, lifted, fitted


def cmd_fit(config: RunConfig) -> int:
    from .model_io import _encode, complex_pairs, model_json
    from .spectral import ModelMetadata, build_spectral_triple, eigendecompose

    data, dictionary, lifted, fitted = _fit_pipeline(config, decode=True)
    with _stage("eigendecomposition"):
        system = eigendecompose(fitted)
    metadata = ModelMetadata(
        dict_hash=dictionary.spec_hash(),
        feature_names=data.feature_names,
        output_names=data.feature_names,
        trajectory_ids=data.trajectory_ids,
    )
    with _stage("building spectral triple"):
        triple = build_spectral_triple(system, lifted, fitted, metadata)

    from .representation import DEFAULT_CLOSURE_TOL

    closure_tol = config.tolerance("closure_tol", DEFAULT_CLOSURE_TOL)
    report = {
        "command": "fit",
        "n_observables": fitted.dim,
        "n_outputs": data.n_features,
        "n_trajectories": len(data.trajectory_ids),
        "n_snapshot_pairs": lifted.n_columns,
        "svd_tolerance": fitted.svd_tolerance,
        "rank_used": fitted.rank_used,
        "fit_residual": fitted.fit_residual,
        "condition_number": fitted.condition_number,
        "matrix": [[float(x) for x in row] for row in fitted.matrix],
        "row_residuals": {oid: float(fitted.row_residuals[i])
                          for i, oid in enumerate(dictionary.ids)},
        "closed_rows": [oid for i, oid in enumerate(dictionary.ids)
                        if fitted.row_residuals[i] < closure_tol],
        "closure_tol": closure_tol,
        "eigenvalues": complex_pairs(triple.eigenvalues),
        "biorthogonality_error": system.biorthogonality_error,
    }

    model_path = config.require("out", "output path")
    with _stage("serializing model"):
        pending = [(model_path, _encode(triple))]
        if config.flag("json_sidecar", False):
            pending.append((str(model_path) + ".json",
                            model_json(triple).encode()))
    report_path = config.get("report")
    if report_path:
        pending.append((report_path, (json.dumps(report, sort_keys=True,
                                                 indent=2) + "\n").encode()))
    _publish(pending)

    not_closed = [oid for oid in dictionary.ids
                  if oid not in report["closed_rows"]]
    print(f"fitted {fitted.dim}x{fitted.dim} operator from "
          f"{lifted.n_columns} snapshot pairs "
          f"({len(data.trajectory_ids)} trajectories)")
    print(f"rank {fitted.rank_used}, fit residual {fmt(fitted.fit_residual)}, "
          f"condition number {fmt(report['condition_number'])}")
    top = triple.eigenvalues[:min(5, triple.n_eigenvalues)]
    print("leading eigenvalues: "
          + ", ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in top))
    if not_closed:
        print("rows without linear closure: " + ", ".join(not_closed))
    else:
        print("all rows linearly closed")
    print(f"model written to {model_path}")
    return 0


def _resolve_x0(triple, selector) -> int:
    ids = triple.metadata.trajectory_ids
    if isinstance(selector, bool):
        raise InputError(f"x0 selector must be an id or index, "
                         f"got {selector!r}")
    if isinstance(selector, int):
        if not 0 <= selector < triple.n_initial_conditions:
            raise InputError(
                f"x0 index {selector} out of range "
                f"(model has {triple.n_initial_conditions} initial "
                f"conditions)"
            )
        return selector
    if isinstance(selector, str):
        if selector in ids:
            return ids.index(selector)
        raise InputError(
            f"unknown trajectory id {selector!r}; model knows "
            f"{list(ids)}"
        )
    raise InputError(f"x0 selector must be an id or index, got {selector!r}")


def cmd_predict(config: RunConfig) -> int:
    import numpy as np

    from .model_io import load_model
    from .spectral import predict

    with _stage("loading model"):
        triple = load_model(config.require("model", "input"))
    horizon = config.get("horizon", 10)
    if not isinstance(horizon, int) or isinstance(horizon, bool) or horizon < 0:
        raise InputError(f"horizon must be a non-negative integer, "
                         f"got {horizon!r}")
    x0 = _resolve_x0(triple, config.get("x0", 0))

    names = triple.metadata.output_names or tuple(
        f"y{i}" for i in range(triple.n_outputs)
    )
    rows = []
    with _stage("predicting"):
        for k in range(horizon + 1):
            values = np.asarray(predict(triple, x0, k))
            rows.append([str(k)] + [fmt(v.real if np.iscomplexobj(values)
                                        else v) for v in values])
    text = _csv_text(["k"] + list(names), rows)

    out = config.get("out")
    if out:
        _publish([(out, text.encode())])
        print(f"wrote {horizon + 1} prediction rows to {out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_spectrum(config: RunConfig) -> int:
    from .harmonic import find_eigenfrequencies

    with _stage("reading data"):
        data = read_trajectories(config.require("data", "input"))
    column = config.require("column", "series selector")
    if column not in data.feature_names:
        raise InputError(f"column {column!r} not in data "
                         f"(features: {list(data.feature_names)})")
    traj_id = config.get("trajectory")
    if traj_id is None:
        if len(data.trajectory_ids) > 1:
            raise InputError("data holds multiple trajectories; select one "
                             "with the 'trajectory' option")
        traj_id = data.trajectory_ids[0]
    with _stage("selecting series"):
        trajectory = data.trajectory(traj_id)
        series = trajectory.feature_series(data.feature_index(column))

    threshold = config.tolerance("peak_threshold", 0.1)
    refine = config.flag("refine", True)
    with _stage("analyzing spectrum"):
        peaks = find_eigenfrequencies(series, peak_threshold=threshold,
                                      refine=refine)

    rows = [[fmt(p.omega), fmt(p.amplitude),
             fmt(p.eigenvalue.real), fmt(p.eigenvalue.imag),
             fmt(p.average.real), fmt(p.average.imag)] for p in peaks]
    text = _csv_text(
        ["omega", "amplitude", "eigenvalue_re", "eigenvalue_im",
         "average_re", "average_im"],
        rows,
    )
    out = config.get("out")
    if out:
        _publish([(out, text.encode())])
        print(f"wrote {len(peaks)} detected frequencies to {out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_reduce(config: RunConfig) -> int:
    from .model_io import load_model
    from .representation import (DEFAULT_CLOSURE_TOL, DEFAULT_ZERO_THRESHOLD,
                                 analyze_representation)

    for key in ("max_seed_size", "full_enumeration"):
        if key in config.options:
            raise InputError(f"config option {key!r} was removed: the "
                             f"closed-subset search is now exact")
    data, dictionary, lifted, fitted = _fit_pipeline(config, decode=False)
    model_path = config.get("model")
    if model_path:
        with _stage("loading model"):
            triple = load_model(model_path)
        if triple.metadata.dict_hash != dictionary.spec_hash():
            raise InputError(
                "dictionary does not match the model file (the model was "
                "fitted with a different dictionary configuration)"
            )

    threshold = config.tolerance("zero_threshold", DEFAULT_ZERO_THRESHOLD)
    closure_tol = config.tolerance("closure_tol", DEFAULT_CLOSURE_TOL)
    with _stage("analyzing representation"):
        report = analyze_representation(fitted, dictionary, threshold,
                                        closure_tol, lifted)

    doc = report.as_dict()
    doc.update({
        "command": "reduce",
        "zero_threshold": threshold,
        "closure_tol": closure_tol,
        "matrix": [[float(x) for x in row] for row in fitted.matrix],
        "row_residuals": {oid: float(fitted.row_residuals[i])
                          for i, oid in enumerate(dictionary.ids)},
    })
    out = config.get("out")
    pending = []
    if out:
        pending.append((out, (json.dumps(doc, sort_keys=True,
                                         indent=2) + "\n").encode()))
    if config.get("text_out"):
        pending.append((config.get("text_out"),
                        (report.narrative + "\n").encode()))
    _publish(pending)
    print(report.narrative)
    if out:
        print(f"report written to {out}")
    return 0


_COMMANDS = {
    "fit": cmd_fit,
    "predict": cmd_predict,
    "spectrum": cmd_spectrum,
    "reduce": cmd_reduce,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koop",
        description="Data-driven Koopman-operator modeling toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    help_text = {
        "fit": "fit a lifted linear operator and save the spectral model",
        "predict": "roll a saved model forward with the spectral expansion",
        "spectrum": "detect unit-circle eigenvalues of a series by FFT",
        "reduce": "discover reduced linear/nonlinear representations",
    }
    for name in _COMMANDS:
        p = sub.add_parser(name, help=help_text[name])
        p.add_argument("--config", metavar="PATH",
                       help="JSON file with inputs and options")
        for flag, keys in _SCOPED_FLAGS.items():
            if name in keys:
                p.add_argument(flag, type=float, metavar="X", dest=keys[name],
                               help=f"sets {keys[name]}")
        p.add_argument("--out", metavar="PATH",
                       help="primary output path")
    return parser


def main(argv=None) -> int:
    try:
        _apply_thread_cap()
        args = _build_parser().parse_args(argv)
        config = RunConfig.load(args)
        return _COMMANDS[args.command](config)
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
