"""Command-line front end: ``koop fit|predict|spectrum|reduce``.

Exit codes: 0 success, 2 malformed input (data, config, or model file),
3 numerical failure.  All output files are written atomically after the
computation finishes, so a failed command never leaves partial results.

Input data is CSV with a ``trajectory_id`` column, an integer ``t``
column, and one column per feature; rows of a trajectory are contiguous
and sorted by ``t``.  Data files are UTF-8; numpy's parser reads a
well-formed one, and an exact reader the rest.  The observable dictionary
is a JSON list of ``{id, kind, params, depends_on}`` entries; its
canonical hash is stored in model files and checked by
``predict``/``reduce`` so a model is never combined with a different
dictionary.

Each command reads a closed set of options (``_OPTIONS``) from its
``--config`` JSON object.  A key the command does not read, a value of the
wrong kind (such as a path that is not a string), and a config or
dictionary file that is not UTF-8 JSON all exit 2.

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
import math
import os
import sys
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

# What each command reads from its --config file, by kind: "input" (a
# string naming an existing file), "output" (a string path), "positive" (a
# finite double > 0), "flag" (true or false), "count" (an integer >= 0), or
# None (checked where it is used).  Any other key is rejected.
_OPTIONS = {
    "fit": {"data": "input", "dictionary": "input", "out": "output",
            "report": "output", "svd_tolerance": "positive",
            "closure_tol": "positive", "json_sidecar": "flag"},
    "predict": {"model": "input", "out": "output", "horizon": "count",
                "x0": None},
    "spectrum": {"data": "input", "out": "output", "column": None,
                 "trajectory": None, "peak_threshold": "positive",
                 "refine": "flag"},
    "reduce": {"data": "input", "dictionary": "input", "model": "input",
               "out": "output", "text_out": "output",
               "svd_tolerance": "positive", "zero_threshold": "positive",
               "closure_tol": "positive"},
}
# Each override flag sets whichever of its keys the command reads (no
# command reads two); commands that read none of them reject the flag.
_OVERRIDES = {"--tol": ("svd_tolerance",),
              "--threshold": ("zero_threshold", "peak_threshold")}


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


def _read_json(path: Path, what: str):
    """The JSON value in a UTF-8 file; any failure to read it exits 2."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # also an integer too long to convert
        raise InputError(f"{what} {path} is not valid JSON: {exc}") from exc


def _finite_double(value) -> float | None:
    """``value`` as a finite double, or None if it is not a JSON number or
    is infinite, NaN or beyond the double range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the double range
        return None
    return number if math.isfinite(number) else None


def load_options(command: str, args) -> dict:
    """The options of ``command``: its --config file, with relative paths
    resolved against the file's directory, then the command-line
    overrides, each key and value checked against its kind in _OPTIONS."""
    kinds = _OPTIONS[command]
    options: dict = {}
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise InputError(f"config file not found: {path}")
        options = _read_json(path, "config file")
        if not isinstance(options, dict):
            raise InputError("config file must hold a JSON object")
        for key in options:
            if key in ("max_seed_size", "full_enumeration"):
                raise InputError(f"config option {key!r} was removed: the "
                                 f"closed-subset search is now exact")
            if key not in kinds:
                raise InputError(f"config option {key!r} is not read by "
                                 f"{command}; it reads {', '.join(kinds)}")
        for key, value in options.items():
            if kinds[key] in ("input", "output") and isinstance(value, str):
                options[key] = str(path.parent / value)
    options.update((key, value) for key in kinds
                   if (value := getattr(args, key, None)) is not None)
    for key, value in options.items():
        kind = kinds[key]
        if kind in ("input", "output") and not isinstance(value, str):
            raise InputError(f"config option {key!r} must be a path string, "
                             f"got {value!r}")
        if kind == "input" and not Path(value).is_file():
            raise InputError(f"config option {key!r} references a "
                             f"missing file: {value}")
        if kind == "positive":
            number = _finite_double(value)
            if number is None or number <= 0:
                raise InputError(f"config option {key!r} must be a positive "
                                 f"number, got {value!r} (a finite double "
                                 f"> 0 is required)")
            options[key] = number
        if kind == "flag" and not isinstance(value, bool):
            raise InputError(f"config option {key!r} must be true or false, "
                             f"got {value!r}")
        if kind == "count" and (isinstance(value, bool)
                                or not isinstance(value, int) or value < 0):
            raise InputError(f"{key} must be a non-negative integer, "
                             f"got {value!r}")
    return options


def _require(options: dict, key: str, what: str):
    if key not in options:
        raise InputError(f"missing required {what} {key!r} "
                         f"(set it in the --config file)")
    return options[key]


@contextlib.contextmanager
def _stage(name: str):
    """Prefix any package error raised inside with the pipeline stage."""
    try:
        yield
    except KoopmodelError as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def read_trajectories(path):
    """Parse the trajectory CSV into a TrajectorySet.

    numpy's C parser reads a well-formed file (`data_io.read_fast`).  A
    file it does not take, whether malformed or only outside what it
    models, is read again by the exact reader (`data_io.read_exact`),
    which returns the same set and alone reports faults, as ``file:line``
    messages.
    """
    from .data_io import read_exact, read_fast

    path = Path(path)
    try:
        return read_fast(path)
    except (ValueError, OSError, csv.Error, InputError, Warning):
        return read_exact(path)


def read_dictionary(path, n_features: int):
    from .dictionary import Dictionary

    entries = _read_json(Path(path), "dictionary file")
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


def _fit_pipeline(options: dict, decode: bool):
    """Shared fit path: data -> dictionary -> lifted segments folded into
    the matrix (with the decode map to the features if ``decode``)."""
    from .dictionary import lift_trajectories
    from .edmd import DEFAULT_SVD_TOL, fit_koopman_matrix

    with _stage("reading data"):
        data = read_trajectories(_require(options, "data", "input"))
    with _stage("reading dictionary"):
        dictionary = read_dictionary(_require(options, "dictionary", "input"),
                                     data.n_features)
    with _stage("lifting and fitting"):
        tol = options.get("svd_tolerance", DEFAULT_SVD_TOL)
        fitted = fit_koopman_matrix(
            lift_trajectories(dictionary, data, outputs=decode), tol)
    return data, dictionary, fitted


def cmd_fit(options: dict) -> int:
    from .model_io import _encode, complex_pairs, model_json
    from .spectral import ModelMetadata, build_spectral_triple, eigendecompose

    data, dictionary, fitted = _fit_pipeline(options, decode=True)
    with _stage("eigendecomposition"):
        system = eigendecompose(fitted)
    metadata = ModelMetadata(
        dict_hash=dictionary.spec_hash(),
        feature_names=data.feature_names,
        output_names=data.feature_names,
        trajectory_ids=data.trajectory_ids,
    )
    with _stage("building spectral triple"):
        triple = build_spectral_triple(system, fitted, metadata)

    from .representation import DEFAULT_CLOSURE_TOL

    closure_tol = options.get("closure_tol", DEFAULT_CLOSURE_TOL)
    report = {
        "command": "fit",
        "n_observables": fitted.dim,
        "n_outputs": data.n_features,
        "n_trajectories": len(data.trajectory_ids),
        "n_snapshot_pairs": fitted.n_pairs,
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

    model_path = _require(options, "out", "output path")
    with _stage("serializing model"):
        pending = [(model_path, _encode(triple))]
        if options.get("json_sidecar", False):
            pending.append((str(model_path) + ".json",
                            model_json(triple).encode()))
    report_path = options.get("report")
    if report_path:
        pending.append((report_path, (json.dumps(report, sort_keys=True,
                                                 indent=2) + "\n").encode()))
    _publish(pending)

    not_closed = [oid for oid in dictionary.ids
                  if oid not in report["closed_rows"]]
    print(f"fitted {fitted.dim}x{fitted.dim} operator from "
          f"{fitted.n_pairs} snapshot pairs "
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


def cmd_predict(options: dict) -> int:
    import numpy as np

    from .model_io import load_model
    from .spectral import predict

    with _stage("loading model"):
        triple = load_model(_require(options, "model", "input"))
    horizon = options.get("horizon", 10)
    x0 = _resolve_x0(triple, options.get("x0", 0))

    names = triple.metadata.output_names or tuple(
        f"y{i}" for i in range(triple.n_outputs)
    )
    with _stage("predicting"):
        values = predict(triple, x0, np.arange(horizon + 1))
    if np.iscomplexobj(values):
        dropped = np.abs(values.imag)
        k, i = np.unravel_index(np.argmax(dropped), dropped.shape)
        ratio = dropped[k, i] / np.max(np.abs(values[k]))
        print(f"warning: dropped imaginary parts up to {dropped[k, i]:.3g} "
              f"(k={k}, {names[i]}), {ratio:.3g} of that row's largest "
              f"|value|", file=sys.stderr)
    # "%.17g" renders a float exactly as fmt() does.
    row = "%d" + ",%.17g" * triple.n_outputs + "\n"
    text = _csv_text(["k", *names], ()) + "".join(
        row % (k, *v) for k, v in enumerate(values.real.tolist()))

    out = options.get("out")
    if out:
        _publish([(out, text.encode())])
        print(f"wrote {horizon + 1} prediction rows to {out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_spectrum(options: dict) -> int:
    from .harmonic import find_eigenfrequencies

    with _stage("reading data"):
        data = read_trajectories(_require(options, "data", "input"))
    column = _require(options, "column", "series selector")
    if column not in data.feature_names:
        raise InputError(f"column {column!r} not in data "
                         f"(features: {list(data.feature_names)})")
    traj_id = options.get("trajectory")
    if traj_id is None:
        if len(data.trajectory_ids) > 1:
            raise InputError("data holds multiple trajectories; select one "
                             "with the 'trajectory' option")
        traj_id = data.trajectory_ids[0]
    with _stage("selecting series"):
        trajectory = data.trajectory(traj_id)
        series = trajectory.feature_series(data.feature_index(column))

    threshold = options.get("peak_threshold", 0.1)
    refine = options.get("refine", True)
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
    out = options.get("out")
    if out:
        _publish([(out, text.encode())])
        print(f"wrote {len(peaks)} detected frequencies to {out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_reduce(options: dict) -> int:
    from .model_io import load_model
    from .representation import (DEFAULT_CLOSURE_TOL, DEFAULT_ZERO_THRESHOLD,
                                 analyze_representation)

    _, dictionary, fitted = _fit_pipeline(options, decode=False)
    model_path = options.get("model")
    if model_path:
        with _stage("loading model"):
            triple = load_model(model_path)
        if triple.metadata.dict_hash != dictionary.spec_hash():
            raise InputError(
                "dictionary does not match the model file (the model was "
                "fitted with a different dictionary configuration)"
            )

    threshold = options.get("zero_threshold", DEFAULT_ZERO_THRESHOLD)
    closure_tol = options.get("closure_tol", DEFAULT_CLOSURE_TOL)
    with _stage("analyzing representation"):
        report = analyze_representation(fitted, dictionary, threshold,
                                        closure_tol)

    doc = report.as_dict()
    doc.update({
        "command": "reduce",
        "zero_threshold": threshold,
        "closure_tol": closure_tol,
        "matrix": [[float(x) for x in row] for row in fitted.matrix],
        "row_residuals": {oid: float(fitted.row_residuals[i])
                          for i, oid in enumerate(dictionary.ids)},
    })
    out = options.get("out")
    pending = []
    if out:
        pending.append((out, (json.dumps(doc, sort_keys=True,
                                         indent=2) + "\n").encode()))
    if options.get("text_out"):
        pending.append((options["text_out"],
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
        for flag, keys in _OVERRIDES.items():
            for key in keys:
                if key in _OPTIONS[name]:
                    p.add_argument(flag, type=float, metavar="X", dest=key,
                                   help=f"sets {key}")
        p.add_argument("--out", metavar="PATH",
                       help="primary output path")
    return parser


def main(argv=None) -> int:
    try:
        _apply_thread_cap()
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](load_options(args.command, args))
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # such as a horizon too long to allocate
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
