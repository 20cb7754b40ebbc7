"""End-to-end command-line workflows, exit codes, and output hygiene."""

import codecs
import csv
import importlib.util
import json
import os
import shutil
import struct
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import koopmodel
from koopmodel import SpectralTriple, cli
from koopmodel.model_io import _encode as model_bytes
from koopmodel.model_io import load_model, model_json, save_model
from koopmodel.spectral import PREDICT_CHUNK_BYTES
from conftest import (
    PEAK_RSS,
    WORKED_DICT_ENTRIES,
    child_env,
    random_triple,
    simulate_worked_example,
    with_metadata,
    write_data_csv,
    write_json,
)


@pytest.fixture
def workspace(tmp_path):
    """Worked-example data plus dictionary and config files."""
    data = simulate_worked_example()
    write_data_csv(tmp_path / "data.csv", data)
    write_json(tmp_path / "dict.json", WORKED_DICT_ENTRIES)
    write_json(tmp_path / "fit.json", {
        "data": "data.csv",
        "dictionary": "dict.json",
        "out": "model.bin",
        "report": "fit_report.json",
    })
    return tmp_path


def run(args):
    return cli.main([str(a) for a in args])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# -- fit ---------------------------------------------------------------------

def test_fit_writes_model_and_report(workspace, capsys):
    assert run(["fit", "--config", workspace / "fit.json"]) == 0
    out = capsys.readouterr().out
    assert "rows without linear closure: sinx" in out
    report = json.loads((workspace / "fit_report.json").read_text())
    assert report["closed_rows"] == ["x", "y"]
    assert report["row_residuals"]["sinx"] > 1e-3
    matrix = np.asarray(report["matrix"])
    assert np.max(np.abs(matrix[0] - [1, 1, 0])) < 1e-6
    assert np.max(np.abs(matrix[2] - [1, 0, 1])) < 1e-6
    assert (workspace / "model.bin").exists()


def test_fit_reruns_are_byte_identical(workspace):
    assert run(["fit", "--config", workspace / "fit.json"]) == 0
    model1 = (workspace / "model.bin").read_bytes()
    report1 = (workspace / "fit_report.json").read_bytes()
    assert run(["fit", "--config", workspace / "fit.json"]) == 0
    assert (workspace / "model.bin").read_bytes() == model1
    assert (workspace / "fit_report.json").read_bytes() == report1


def test_fit_json_sidecar_is_published_with_model(workspace):
    write_json(workspace / "fit.json", {
        "data": "data.csv", "dictionary": "dict.json", "out": "model.bin",
        "json_sidecar": True,
    })
    assert run(["fit", "--config", workspace / "fit.json"]) == 0
    triple = koopmodel.load_model(workspace / "model.bin")
    sidecar = (workspace / "model.bin.json").read_text()
    assert sidecar == model_json(triple)


@pytest.mark.parametrize("blocked", ["sidecar_is_directory",
                                     "out_directory_missing"])
def test_fit_publishing_error_exits_2_and_changes_no_output(workspace, capsys,
                                                            blocked):
    out = "model.bin" if blocked == "sidecar_is_directory" else "gone/m.bin"
    write_json(workspace / "fit.json", {
        "data": "data.csv", "dictionary": "dict.json", "out": out,
        "report": "fit_report.json", "json_sidecar": True,
    })
    (workspace / "model.bin").write_bytes(b"old model")
    (workspace / "model.bin.json").mkdir()
    before = sorted(p.name for p in workspace.iterdir())
    assert run(["fit", "--config", workspace / "fit.json"]) == 2
    assert "error: writing outputs: " in capsys.readouterr().err
    assert sorted(p.name for p in workspace.iterdir()) == before
    assert (workspace / "model.bin").read_bytes() == b"old model"
    assert not any((workspace / "model.bin.json").iterdir())


@pytest.mark.parametrize("command, config, clash, path", [
    ("fit", {"out": "m.koop", "report": "m.koop"}, "'out' and 'report'",
     "m.koop"),
    ("fit", {"out": "data.csv"}, "'data' and 'out'", "data.csv"),
    ("fit", {"out": "m2.koop", "json_sidecar": True,
             "report": "./m2.koop.json"}, "'report' and 'json_sidecar'",
     "m2.koop.json"),
    ("reduce", {"out": "r.json", "text_out": "r.json"},
     "'out' and 'text_out'", "r.json"),
], ids=["out-report", "out-data", "sidecar-report", "out-text_out"])
def test_outputs_on_one_file_exit_2_before_any_write(workspace, capsys,
                                                     command, config, clash,
                                                     path):
    write_json(workspace / "clash.json",
               {"data": "data.csv", "dictionary": "dict.json", **config})
    before = {p.name: p.read_bytes() for p in workspace.iterdir()}
    assert run([command, "--config", workspace / "clash.json"]) == 2
    assert capsys.readouterr().err == (f"error: config options {clash} name "
                                       f"one file: {workspace / path}\n")
    assert {p.name: p.read_bytes() for p in workspace.iterdir()} == before


def test_fit_factorizes_the_lifted_data_once(workspace, monkeypatch):
    # The lifted data is folded into one triangular factor: each QR call
    # takes the factor so far plus fresh data rows, every data row enters
    # exactly one call, and no SVD sees a side as long as the data.  The
    # 20 x 450 rows make 8,980 pairs, more than one 8,192-row fold of
    # 2d + h = 8 columns.
    write_data_csv(workspace / "data.csv",
                   simulate_worked_example(n_steps=450))
    svd_sides, qr_rows = [], []
    svd, qr = np.linalg.svd, np.linalg.qr

    def recording_svd(matrix, *args, **kwargs):
        svd_sides.append(max(np.shape(matrix)))
        return svd(matrix, *args, **kwargs)

    def recording_qr(matrix, *args, **kwargs):
        factor = qr(matrix, *args, **kwargs)
        qr_rows.append((np.shape(matrix)[0], np.shape(factor)[0]))
        return factor

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    monkeypatch.setattr(np.linalg, "qr", recording_qr)
    assert run(["fit", "--config", workspace / "fit.json"]) == 0
    pairs = json.loads(
        (workspace / "fit_report.json").read_text())["n_snapshot_pairs"]
    assert pairs == 20 * 449
    fresh = [rows - previous for (rows, _), previous
             in zip(qr_rows, [0] + [out for _, out in qr_rows[:-1]])]
    assert len(fresh) >= 2 and min(fresh) > 0 and sum(fresh) == pairs
    assert svd_sides and max(svd_sides) < pairs


def test_fit_empty_csv_exits_2_without_outputs(workspace, capsys):
    (workspace / "data.csv").write_text("")
    assert run(["fit", "--config", workspace / "fit.json"]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (workspace / "model.bin").exists()
    assert not (workspace / "fit_report.json").exists()


def test_fit_header_only_csv_exits_2(workspace):
    (workspace / "data.csv").write_text("trajectory_id,t,x,y\n")
    assert run(["fit", "--config", workspace / "fit.json"]) == 2


def test_fit_lift_error_exits_2_naming_the_observable(workspace, capsys):
    # The worked example's x runs negative, where log(x) is not finite: the
    # error surfaces while the fit is folding, and still leaves no output.
    write_json(workspace / "dict.json", [
        {"id": "x", "kind": "coordinate", "params": {"index": 0}},
        {"id": "logx", "kind": "composition",
         "params": {"fn": "log", "of": "x"}},
    ])
    before = sorted(p.name for p in workspace.iterdir())
    assert run(["fit", "--config", workspace / "fit.json"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: lifting and fitting: observable "
                                   "'logx' produced a non-finite value")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert sorted(p.name for p in workspace.iterdir()) == before


def test_fit_underdetermined_eigenfunctions_exit_3(tmp_path, capsys):
    # Proportional coordinates decaying at the same rate span a single
    # direction, so one eigenfunction is identically zero on the data and
    # building the spectral model must refuse with a numerical error.
    rows = [["trajectory_id", "t", "u", "v"]]
    u, v = 1.0, 3.0
    for t in range(12):
        rows.append(["only", t, repr(u), repr(v)])
        u, v = 0.5 * u, 0.5 * v
    with open(tmp_path / "data.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    write_json(tmp_path / "dict.json", [
        {"id": "u", "kind": "coordinate", "params": {"index": 0}},
        {"id": "v", "kind": "coordinate", "params": {"index": 1}},
    ])
    write_json(tmp_path / "cfg.json", {
        "data": "data.csv", "dictionary": "dict.json", "out": "model.bin",
    })
    assert run(["fit", "--config", tmp_path / "cfg.json"]) == 3
    assert "numerical error:" in capsys.readouterr().err
    assert not (tmp_path / "model.bin").exists()


def test_fit_rank_deficient_current_exits_3_without_outputs(tmp_path,
                                                            capsys):
    # x+ = 0.5x, y+ = 0.5y from (1, 1) keeps x == y, so with the dictionary
    # {x, y} the lifted data has rank 1 < 2 and no spectral model exists.
    rows = [["trajectory_id", "t", "x", "y"]]
    x = 1.0
    for t in range(12):
        rows.append(["only", t, repr(x), repr(x)])
        x *= 0.5
    with open(tmp_path / "data.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    write_json(tmp_path / "dict.json", [
        {"id": "x", "kind": "coordinate", "params": {"index": 0}},
        {"id": "y", "kind": "coordinate", "params": {"index": 1}},
    ])
    write_json(tmp_path / "cfg.json", {
        "data": "data.csv", "dictionary": "dict.json", "out": "model.bin",
        "report": "report.json", "json_sidecar": True,
    })
    assert run(["fit", "--config", tmp_path / "cfg.json"]) == 3
    assert "numerical error:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cfg.json", "data.csv", "dict.json"]


def test_predict_overflow_exits_3(tmp_path, capsys):
    # Doubling dynamics give an eigenvalue of 2; a 2000-step horizon
    # overflows the spectral powers and must map to exit code 3.
    rows = [["trajectory_id", "t", "x"]]
    for t in range(12):
        rows.append(["g2", t, repr(float(2 ** t))])
    with open(tmp_path / "data.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    write_json(tmp_path / "dict.json", [
        {"id": "x", "kind": "coordinate", "params": {"index": 0}},
    ])
    write_json(tmp_path / "fit.json", {
        "data": "data.csv", "dictionary": "dict.json", "out": "model.bin",
    })
    assert run(["fit", "--config", tmp_path / "fit.json"]) == 0
    write_json(tmp_path / "predict.json", {
        "model": "model.bin", "x0": "g2", "horizon": 2000, "out": "pred.csv",
    })
    assert run(["predict", "--config", tmp_path / "predict.json"]) == 3
    assert "numerical error:" in capsys.readouterr().err
    assert not (tmp_path / "pred.csv").exists()


def test_missing_config_keys_exit_2(tmp_path):
    write_json(tmp_path / "cfg.json", {})
    assert run(["fit", "--config", tmp_path / "cfg.json"]) == 2


def test_nonexistent_input_path_exits_2(tmp_path):
    write_json(tmp_path / "cfg.json", {
        "data": "missing.csv", "dictionary": "also_missing.json",
        "out": "model.bin",
    })
    assert run(["fit", "--config", tmp_path / "cfg.json"]) == 2


def test_malformed_config_json_exits_2(tmp_path):
    (tmp_path / "cfg.json").write_text("{not json")
    assert run(["fit", "--config", tmp_path / "cfg.json"]) == 2


@pytest.mark.parametrize("document, message", [
    (None, "config file not found"),
    (["data.csv", "dict.json", "model.bin"],
     "config file must hold a JSON object"),
])
def test_unusable_config_file_exits_2_without_output(tmp_path, capsys,
                                                     document, message):
    if document is not None:
        write_json(tmp_path / "cfg.json", document)
    before = sorted(tmp_path.iterdir())
    assert run(["fit", "--config", tmp_path / "cfg.json"]) == 2
    assert message in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


def test_fit_ignores_a_leading_byte_order_mark(workspace):
    assert run(["fit", "--config", workspace / "fit.json"]) == 0
    outputs = [(workspace / name).read_bytes()
               for name in ("model.bin", "fit_report.json")]
    for name in ("data.csv", "dict.json", "fit.json"):
        path = workspace / name
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    assert run(["fit", "--config", workspace / "fit.json"]) == 0
    assert [(workspace / name).read_bytes()
            for name in ("model.bin", "fit_report.json")] == outputs


def test_non_utf8_config_exits_2(workspace, capsys):
    (workspace / "fit.json").write_bytes(b"\xff\xfe[")
    assert run(["fit", "--config", workspace / "fit.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config file "
                          f"{workspace / 'fit.json'}: ")
    assert not (workspace / "model.bin").exists()


# The options each command reads, as the README lists them.
ACCEPTED_KEYS = {
    "fit": {"data", "dictionary", "out", "report", "svd_tolerance",
            "closure_tol", "json_sidecar"},
    "predict": {"model", "out", "horizon", "x0"},
    "spectrum": {"data", "out", "column", "trajectory", "peak_threshold",
                 "refine"},
    "reduce": {"data", "dictionary", "model", "out", "text_out",
               "svd_tolerance", "zero_threshold", "closure_tol"},
}
# A valid config per command (predict needs a fitted model.bin), and one
# bad key of each kind per command.
VALID_CONFIG = {
    "fit": {"data": "data.csv", "dictionary": "dict.json", "out": "out.bin"},
    "predict": {"model": "model.bin", "out": "out.bin"},
    "spectrum": {"data": "data.csv", "column": "x", "trajectory": "traj00",
                 "out": "out.bin"},
    "reduce": {"data": "data.csv", "dictionary": "dict.json",
               "out": "out.bin"},
}
BAD_KEYS = {
    "fit": {"misspelt": ("svd_tol", 0.5), "foreign": ("horizon", 5),
            "input": ("data", 5)},
    "predict": {"misspelt": ("horizn", 5), "foreign": ("svd_tolerance", 0.5),
                "input": ("model", 5)},
    "spectrum": {"misspelt": ("peak_treshold", 0.5),
                 "foreign": ("dictionary", "dict.json"),
                 "input": ("data", 5)},
    "reduce": {"misspelt": ("zero_treshold", 0.5), "foreign": ("column", "x"),
               "input": ("dictionary", 5)},
}


@pytest.mark.parametrize("command", sorted(ACCEPTED_KEYS))
def test_each_command_reads_a_closed_set_of_options(workspace, capsys,
                                                    command):
    write_json(workspace / "cfg.json", {"unknown": 1})
    assert run([command, "--config", workspace / "cfg.json"]) == 2
    err = capsys.readouterr().err
    assert f"'unknown' is not read by {command}; it reads " in err
    listed = err.rstrip("\n").rsplit("it reads ", 1)[1].split(", ")
    assert set(listed) == ACCEPTED_KEYS[command]


@pytest.mark.parametrize("case", ["misspelt", "foreign", "input", "output"])
@pytest.mark.parametrize("command", sorted(ACCEPTED_KEYS))
def test_bad_option_exits_2_naming_it_without_output(workspace, capsys,
                                                     command, case):
    if command == "predict":
        assert run(["fit", "--config", workspace / "fit.json"]) == 0
    key, value = ("out", 7) if case == "output" else BAD_KEYS[command][case]
    write_json(workspace / "cfg.json", {**VALID_CONFIG[command], key: value})
    assert run([command, "--config", workspace / "cfg.json"]) == 2
    assert f"config option {key!r} " in capsys.readouterr().err
    assert not (workspace / "out.bin").exists()


# -- malformed data ----------------------------------------------------------

# Each case is one fault in an otherwise valid file, with the message the
# reader gives for it; a ``{path}`` prefix means the message names the line.
MALFORMED_CSV = {
    "column_count": ("trajectory_id,t,x\na,0,1.0\na,1\na,2,3.0\n",
                     "{path}:3: expected 3 columns, got 2"),
    "t_not_integer": ("trajectory_id,t,x\na,0,1.0\na,1.5,2.0\na,2,3.0\n",
                      "{path}:3: t must be an integer, got '1.5'"),
    "cell_not_numeric": ("trajectory_id,t,x\na,0,1.0\na,1,oops\na,2,3.0\n",
                         "{path}:3: column 'x' is not a number: 'oops'"),
    "split_trajectory": ("trajectory_id,t,x\na,0,1.0\na,1,2.0\nb,0,5.0\n"
                         "b,1,6.0\na,2,3.0\n",
                         "{path}:6: rows of trajectory 'a' are not "
                         "contiguous"),
    "time_gap": ("trajectory_id,t,x\na,0,1.0\na,1,2.0\na,3,3.0\n",
                 "{path}:4: trajectory 'a': time indices must increase by 1 "
                 "(got 1 -> 3)"),
    "nan_value": ("trajectory_id,t,x\na,0,1.0\na,1,nan\na,2,3.0\n",
                  "{path}:3: snapshot at t=1 contains NaN/Inf entries"),
    "inf_value": ("trajectory_id,t,x\na,4,1.0\na,5,2.0\na,6,-inf\n",
                  "{path}:4: snapshot at t=6 contains NaN/Inf entries"),
    "negative_t": ("trajectory_id,t,x\na,-1,1.0\na,0,2.0\na,1,3.0\n",
                   "{path}:2: trajectory 'a': time_index must be "
                   "non-negative, got t0=-1"),
    "one_row_trajectory": ("trajectory_id,t,x\na,0,1.0\na,1,2.0\nb,0,5.0\n",
                           "{path}:4: trajectory 'b' needs at least 2 "
                           "snapshots"),
    "blank_lines": ("trajectory_id,t,x\n\na,0,1.0\na,1,2.0\n\na,2,oops\n",
                    "{path}:6: column 'x' is not a number: 'oops'"),
    "no_t_column": ("trajectory_id,x\na,1.0\na,2.0\n",
                    "data file {path} lacks required column 't'"),
    "repeated_column": ("trajectory_id,t,x,x\na,0,1.0,2.0\na,1,2.0,3.0\n",
                        "data file {path} names column 'x' more than once"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CSV))
def test_malformed_csv_exits_2_with_message(tmp_path, capsys, case):
    text, message = MALFORMED_CSV[case]
    data_path = tmp_path / f"{case}.csv"
    data_path.write_text(text)
    write_json(tmp_path / "dict.json", [
        {"id": "x", "kind": "coordinate", "params": {"index": 0}},
    ])
    write_json(tmp_path / "fit.json", {
        "data": data_path.name, "dictionary": "dict.json",
        "out": "model.bin", "report": "report.json",
    })
    assert run(["fit", "--config", tmp_path / "fit.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: reading data: ")
    assert message.format(path=data_path) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [data_path.name, "dict.json", "fit.json"])


@pytest.mark.parametrize("command,key", [
    ("fit", "svd_tolerance"),
    ("reduce", "svd_tolerance"),
    ("reduce", "zero_threshold"),
    ("reduce", "closure_tol"),
    ("spectrum", "peak_threshold"),
])
def test_boolean_tolerance_exits_2(workspace, capsys, command, key):
    write_json(workspace / "cfg.json", {**VALID_CONFIG[command], key: True})
    assert run([command, "--config", workspace / "cfg.json"]) == 2
    assert f"{key!r} must be a positive number, got True" in (
        capsys.readouterr().err)
    assert not (workspace / "out.bin").exists()


@pytest.mark.parametrize("command,key", [
    ("fit", "svd_tolerance"),
    ("reduce", "closure_tol"),
    ("spectrum", "peak_threshold"),
])
@pytest.mark.parametrize("literal", ["9" * 400, "1e999", "-0.0", "NaN"])
def test_positive_option_must_be_a_finite_double(workspace, capsys, command,
                                                 key, literal):
    # A 400-digit integer has no double, 1e999 parses as inf and -0.0 is
    # not > 0; the JSON literal is written as is.
    config = json.dumps(VALID_CONFIG[command])[:-1] + f', "{key}": {literal}}}'
    (workspace / "cfg.json").write_text(config)
    assert run([command, "--config", workspace / "cfg.json"]) == 2
    assert f"config option {key!r} must be a positive number" in (
        capsys.readouterr().err)
    assert not (workspace / "out.bin").exists()


def test_infinite_tol_flag_and_overlong_integer_exit_2(workspace, capsys):
    write_json(workspace / "cfg.json", VALID_CONFIG["fit"])
    assert run(["fit", "--config", workspace / "cfg.json",
                "--tol", "inf"]) == 2
    assert "'svd_tolerance' must be a positive number, got inf" in (
        capsys.readouterr().err)
    # Past Python's 4,300-digit limit json itself refuses the integer.
    (workspace / "cfg.json").write_text('{"svd_tolerance": ' + "9" * 5000
                                        + "}")
    assert run(["fit", "--config", workspace / "cfg.json"]) == 2
    assert "is not valid JSON" in capsys.readouterr().err
    assert not (workspace / "out.bin").exists()


@pytest.mark.parametrize("command,key", [
    ("spectrum", "refine"),
    ("fit", "json_sidecar"),
])
@pytest.mark.parametrize("value", ["false", 1, None])
def test_non_boolean_flag_exits_2(workspace, capsys, command, key, value):
    write_json(workspace / "cfg.json", {**VALID_CONFIG[command], key: value})
    assert run([command, "--config", workspace / "cfg.json"]) == 2
    assert f"{key!r} must be true or false, got {value!r}" in (
        capsys.readouterr().err)
    assert not (workspace / "out.bin").exists()


@pytest.mark.parametrize("key,value", [("max_seed_size", 3),
                                       ("full_enumeration", True)])
def test_removed_search_option_exits_2(workspace, capsys, key, value):
    # The seed-search options of the old capped search are unknown keys.
    write_json(workspace / "cfg.json", {**VALID_CONFIG["reduce"], key: value})
    assert run(["reduce", "--config", workspace / "cfg.json"]) == 2
    assert f"config option {key!r} is not read by reduce; it reads " in (
        capsys.readouterr().err)
    assert not (workspace / "out.bin").exists()


def test_threshold_flag_sets_only_the_zero_threshold(workspace):
    write_json(workspace / "reduce.json", {
        "data": "data.csv", "dictionary": "dict.json",
        "out": "reduce_report.json",
    })
    assert run(["reduce", "--config", workspace / "reduce.json"]) == 0
    default = json.loads((workspace / "reduce_report.json").read_text())
    assert run(["reduce", "--config", workspace / "reduce.json",
                "--threshold", "0.2"]) == 0
    doc = json.loads((workspace / "reduce_report.json").read_text())
    assert doc["zero_threshold"] == 0.2
    # The closure tolerance and the fit's singular-value cutoff keep their
    # defaults, so the fitted matrix and residuals do not move.
    assert doc["closure_tol"] == default["closure_tol"] == 1e-6
    assert doc["matrix"] == default["matrix"]
    assert doc["row_residuals"] == default["row_residuals"]


@pytest.mark.parametrize("flag, command", [
    pytest.param("--threshold", "fit", id="fit"),
    pytest.param("--threshold", "predict", id="predict"),
    pytest.param("--tol", "predict", id="tol-predict"),
    pytest.param("--tol", "spectrum", id="tol-spectrum"),
])
def test_threshold_flag_is_rejected_where_it_has_no_meaning(workspace, flag,
                                                            command):
    with pytest.raises(SystemExit) as exc:
        run([command, "--config", workspace / "fit.json", flag, "0.5"])
    assert exc.value.code == 2
    assert not (workspace / "model.bin").exists()


def test_malformed_dictionary_entry_exits_2(workspace, capsys):
    write_json(workspace / "dict.json", [
        {"id": "x", "kind": "coordinate", "params": "abc"},
    ])
    assert run(["fit", "--config", workspace / "fit.json"]) == 2
    assert "params must be an object" in capsys.readouterr().err
    assert not (workspace / "model.bin").exists()


@pytest.mark.parametrize("command", ["fit", "reduce"])
@pytest.mark.parametrize("params", [
    {"weights": {"x": 1.0}, "bias": 10**400},
    {"weights": {"x": -10**400}},
])
def test_huge_integer_coefficient_exits_2_with_one_line(workspace, capsys,
                                                        command, params):
    write_json(workspace / "dict.json", WORKED_DICT_ENTRIES + [
        {"id": "huge", "kind": "composition", "params": params}])
    write_json(workspace / "cfg.json", {"data": "data.csv",
                                        "dictionary": "dict.json",
                                        "out": "out.bin"})
    capsys.readouterr()
    assert run([command, "--config", workspace / "cfg.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: reading dictionary: observable 'huge': ")
    assert "must be a finite double" in err and err.count("\n") == 1
    assert not (workspace / "out.bin").exists()


@pytest.mark.parametrize("content, message", [
    pytest.param(b"\xff\xfe[", "cannot read dictionary file", id="non-utf8"),
    pytest.param(json.dumps({"observables": WORKED_DICT_ENTRIES}).encode(),
                 "must hold a JSON list", id="object"),
])
def test_unreadable_dictionary_file_exits_2(workspace, capsys, content,
                                            message):
    (workspace / "dict.json").write_bytes(content)
    assert run(["fit", "--config", workspace / "fit.json"]) == 2
    err = capsys.readouterr().err
    assert f"dictionary file {workspace / 'dict.json'}" in err
    assert message in err
    assert not (workspace / "model.bin").exists()


def test_tol_flag_sets_the_svd_cutoff(workspace):
    assert run(["fit", "--config", workspace / "fit.json",
                "--tol", "1e-9"]) == 0
    report = json.loads((workspace / "fit_report.json").read_text())
    assert report["svd_tolerance"] == 1e-9


def test_out_flag_overrides_config(workspace):
    assert run(["fit", "--config", workspace / "fit.json",
                "--out", workspace / "other.bin"]) == 0
    assert (workspace / "other.bin").exists()
    assert not (workspace / "model.bin").exists()


# -- predict -----------------------------------------------------------------

def geometric_workspace(tmp_path):
    rows = [["trajectory_id", "t", "x"]]
    value = 1.0
    for t in range(12):
        rows.append(["g", t, repr(value)])
        value *= 0.5
    with open(tmp_path / "geo.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    write_json(tmp_path / "geo_dict.json", [
        {"id": "x", "kind": "coordinate", "params": {"index": 0}},
    ])
    write_json(tmp_path / "geo_fit.json", {
        "data": "geo.csv", "dictionary": "geo_dict.json",
        "out": "geo_model.bin",
    })
    assert run(["fit", "--config", tmp_path / "geo_fit.json"]) == 0


def test_predict_geometric_decay(tmp_path, capsys):
    geometric_workspace(tmp_path)
    write_json(tmp_path / "predict.json", {
        "model": "geo_model.bin", "x0": "g", "horizon": 3,
    })
    capsys.readouterr()
    assert run(["predict", "--config", tmp_path / "predict.json"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0] == "k,x"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == pytest.approx([1.0, 0.5, 0.25, 0.125], abs=1e-10)
    assert captured.err == ""


@example(-0.0)
@example(5e-324)
@example(-5e-324)
@example(2.2250738585072014e-308)
@example(float("nan"))
@example(float("inf"))
@example(float("-inf"))
@given(st.floats())
def test_prediction_row_template_renders_like_fmt(value):
    assert "%.17g" % value == cli.fmt(value)


def test_predict_reports_dropped_imaginary_parts(tmp_path, capsys):
    # lambda = 0.5j with phi = v = 1 predicts 1, 0.5j, -0.25: the CSV on
    # stdout keeps the real parts and stderr names the largest |imag|.
    save_model(SpectralTriple([0.5j], [[1.0]], [[1.0]], [[1.0]]),
               tmp_path / "model.bin")
    write_json(tmp_path / "predict.json", {"model": "model.bin",
                                           "horizon": 2})
    assert run(["predict", "--config", tmp_path / "predict.json"]) == 0
    captured = capsys.readouterr()
    table = list(csv.reader(captured.out.splitlines()))
    assert table[0] == ["k", "y0"]
    assert [[float(v) for v in row] for row in table[1:]] == [
        [0, 1.0], [1, 0.0], [2, -0.25]]
    assert captured.err.count("\n") == 1
    assert "dropped imaginary parts up to 0.5 (k=1, y0), 1 of" in captured.err


def test_predict_into_missing_directory_exits_2_without_output(tmp_path,
                                                               capsys):
    save_model(SpectralTriple([0.5], [[1.0]], [[1.0]], [[1.0]]),
               tmp_path / "model.bin")
    write_json(tmp_path / "predict.json", {"model": "model.bin",
                                           "horizon": 2,
                                           "out": "gone/pred.csv"})
    before = sorted(p.name for p in tmp_path.iterdir())
    assert run(["predict", "--config", tmp_path / "predict.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: writing outputs: " in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_predict_warning_names_the_first_largest_drop(tmp_path, capsys):
    # lambda = 1j predicts 1, 1j, -1, -1j, ...: |imag| = 1 at every odd k,
    # in both chunks of 16384 steps (N = 1); the warning names k = 1.
    save_model(SpectralTriple([1j], [[1.0]], [[1.0]], [[1.0]]),
               tmp_path / "model.bin")
    write_json(tmp_path / "predict.json", {"model": "model.bin",
                                           "horizon": 20000})
    assert run(["predict", "--config", tmp_path / "predict.json"]) == 0
    captured = capsys.readouterr()
    assert captured.out.count("\n") == 20002
    assert captured.err == ("warning: dropped imaginary parts up to 1 (k=1, "
                            "y0), 1 of that row's largest |value|\n")


def test_predict_horizon_zero_is_reconstruction(workspace, capsys):
    assert run(["fit", "--config", workspace / "fit.json"]) == 0
    write_json(workspace / "predict.json", {
        "model": "model.bin", "x0": "traj04", "horizon": 0,
    })
    capsys.readouterr()
    assert run(["predict", "--config", workspace / "predict.json"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    data = simulate_worked_example()
    x0 = data.trajectory("traj04").values[0]
    values = [float(v) for v in lines[1].split(",")[1:]]
    assert values == pytest.approx(list(x0), abs=1e-8)


def test_predict_to_file_and_rerun_identical(workspace):
    assert run(["fit", "--config", workspace / "fit.json"]) == 0
    write_json(workspace / "predict.json", {
        "model": "model.bin", "x0": 0, "horizon": 25, "out": "pred.csv",
    })
    assert run(["predict", "--config", workspace / "predict.json"]) == 0
    first = (workspace / "pred.csv").read_bytes()
    assert run(["predict", "--config", workspace / "predict.json"]) == 0
    assert (workspace / "pred.csv").read_bytes() == first
    assert len(read_csv(workspace / "pred.csv")) == 27


def test_predict_unknown_x0_exits_2(workspace, capsys):
    assert run(["fit", "--config", workspace / "fit.json"]) == 0
    write_json(workspace / "predict.json", {
        "model": "model.bin", "x0": "nope", "horizon": 3,
    })
    assert run(["predict", "--config", workspace / "predict.json"]) == 2
    assert "unknown trajectory id" in capsys.readouterr().err


def test_predict_out_of_range_x0_index_exits_2(workspace, capsys):
    assert run(["fit", "--config", workspace / "fit.json"]) == 0
    for x0 in (20, -1, 10**400):  # the model has 20 initial conditions
        write_json(workspace / "predict.json", {
            "model": "model.bin", "x0": x0, "horizon": 3, "out": "pred.csv",
        })
        capsys.readouterr()
        assert run(["predict", "--config", workspace / "predict.json"]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: predicting: x0_index {x0} out of range for "
                       f"20 initial conditions\n")
        assert not (workspace / "pred.csv").exists()


def test_predict_bad_horizon_exits_2(workspace):
    assert run(["fit", "--config", workspace / "fit.json"]) == 0
    write_json(workspace / "predict.json", {
        "model": "model.bin", "x0": 0, "horizon": -1,
    })
    assert run(["predict", "--config", workspace / "predict.json"]) == 2



def test_out_of_memory_exits_2_without_output(workspace, capsys,
                                              monkeypatch):
    # Memory runs out after the first block has reached the temp file.
    assert run(["fit", "--config", workspace / "fit.json"]) == 0
    write_json(workspace / "predict.json", {
        "model": "model.bin", "horizon": 10, "out": "pred.csv",
    })
    message = ("Unable to allocate 256. KiB for an array with shape "
               "(8192, 2) and data type complex128")

    def exhausted(*args):
        yield np.zeros((1, 2), dtype=complex)
        raise MemoryError(message)

    monkeypatch.setattr("koopmodel.spectral.prediction_blocks", exhausted)
    capsys.readouterr()
    assert run(["predict", "--config", workspace / "predict.json"]) == 2
    assert capsys.readouterr().err == f"error: out of memory: {message}\n"
    assert not (workspace / "pred.csv").exists()
    assert not list(workspace.glob("*.tmp"))


def test_predict_horizon_past_the_free_space_exits_2(workspace, capsys,
                                                     monkeypatch):
    # Rows that cannot fit in the free space are refused before any is
    # written: 1,001 rows on a file system with 100 bytes free, and 10**15
    # rows, petabytes, on a real one. A step past int64 is refused for
    # stdout as well.
    save_model(SpectralTriple([0.5], [[1.0]], [[1.0]], [[1.0]]),
               workspace / "model.bin")
    full = shutil.disk_usage(workspace)._replace(free=100)
    cases = ((1000, "pred.csv", lambda path: full),
             (10**15, "pred.csv", shutil.disk_usage),
             (2**63, None, shutil.disk_usage))
    for horizon, out, usage in cases:
        monkeypatch.setattr("koopmodel.cli.shutil.disk_usage", usage)
        options = {"model": "model.bin", "horizon": horizon}
        write_json(workspace / "predict.json",
                   {**options, "out": out} if out else options)
        capsys.readouterr()
        assert run(["predict", "--config", workspace / "predict.json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("file system has" if out else "past 2**63 - 1") in captured.err
        assert not (workspace / "pred.csv").exists()
        assert not list(workspace.glob("*.tmp"))


@settings(max_examples=60, deadline=None)
@given(cut=st.integers(0, 2000), bit=st.integers(0, 7),
       damage=st.sampled_from(["truncate", "flip", "flip and reseal"]))
def test_predict_on_a_damaged_model_exits_cleanly(cut, bit, damage):
    # "flip and reseal" rewrites the checksum, so the flipped bit reaches
    # the header, the arrays, the metadata and prediction itself.
    model = bytearray(model_bytes(random_triple(np.random.default_rng(3))))
    cut %= len(model) - 4
    if damage == "truncate":
        model = model[:cut]
    else:
        model[cut] ^= 1 << bit
    if damage == "flip and reseal":
        model[-4:] = struct.pack("<I", zlib.crc32(model[:-4]))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "model.bin").write_bytes(model)
        write_json(work / "predict.json", {"model": "model.bin",
                                           "horizon": 300, "out": "p.csv"})
        code = run(["predict", "--config", work / "predict.json"])
        assert code in (0, 2, 3)
        assert (work / "p.csv").exists() == (code == 0)
        assert sorted(p.name for p in work.iterdir()) == sorted(
            ["model.bin", "predict.json"] + ["p.csv"] * (code == 0))


@pytest.mark.parametrize("metadata", [
    [1, 2],
    {"trajectory_ids": 5},
    {"output_names": ["a", "b", "c"]},  # the model has 2 outputs
])
def test_predict_malformed_metadata_exits_2_without_output(workspace, capsys,
                                                           metadata):
    assert run(["fit", "--config", workspace / "fit.json"]) == 0
    model = workspace / "model.bin"
    model.write_bytes(with_metadata(model.read_bytes(),
                                    json.dumps(metadata).encode()))
    write_json(workspace / "predict.json", {
        "model": "model.bin", "x0": 0, "horizon": 3, "out": "pred.csv",
    })
    capsys.readouterr()
    assert run(["predict", "--config", workspace / "predict.json"]) == 2
    assert "error: loading model: metadata" in capsys.readouterr().err
    assert not (workspace / "pred.csv").exists()


def test_predict_header_quotes_output_names(workspace, capsys):
    assert run(["fit", "--config", workspace / "fit.json"]) == 0
    model = workspace / "model.bin"
    model.write_bytes(with_metadata(model.read_bytes(),
                                    b'{"output_names": ["a,b", "c"]}'))
    write_json(workspace / "predict.json", {"model": "model.bin",
                                            "horizon": 3})
    capsys.readouterr()
    assert run(["predict", "--config", workspace / "predict.json"]) == 0
    out = capsys.readouterr().out
    assert out.startswith('k,"a,b",c\n')
    table = list(csv.reader(out.splitlines()))
    assert table[0] == ["k", "a,b", "c"]
    expected = koopmodel.predict(load_model(model), 0, np.arange(4))
    assert table[1:] == [[str(k)] + [cli.fmt(v) for v in row]
                         for k, row in enumerate(expected)]


# -- spectrum ----------------------------------------------------------------

def spectrum_csv(tmp_path, series, name="wave.csv"):
    rows = [["trajectory_id", "t", "s"]]
    for t, value in enumerate(series):
        rows.append(["w", t, repr(float(value))])
    with open(tmp_path / name, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_spectrum_detects_cosine_frequency(tmp_path, capsys):
    k = np.arange(512)
    spectrum_csv(tmp_path, np.cos(2 * np.pi * 0.171 * k))
    # The frequency sits mid-bin, so spectral-leakage sidelobes reach about
    # a third of the main peak; a 0.5 threshold keeps only the true line.
    write_json(tmp_path / "spec.json", {
        "data": "wave.csv", "column": "s", "peak_threshold": 0.5,
    })
    assert run(["spectrum", "--config", tmp_path / "spec.json"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    header, detected = rows[0].split(","), rows[1:]
    assert header == ["omega", "amplitude", "eigenvalue_re", "eigenvalue_im",
                      "average_re", "average_im"]
    omegas = [float(r.split(",")[0]) for r in detected]
    assert len(omegas) == 1
    assert abs(omegas[0] - 0.171) < 1e-4


def test_spectrum_constant_column_single_dc_row(tmp_path, capsys):
    spectrum_csv(tmp_path, np.full(64, 2.5))
    write_json(tmp_path / "spec.json", {"data": "wave.csv", "column": "s"})
    assert run(["spectrum", "--config", tmp_path / "spec.json"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 2
    omega, amplitude = rows[1].split(",")[:2]
    assert float(omega) == 0.0
    assert float(amplitude) == pytest.approx(2.5)


def test_spectrum_zero_column_empty_list_exit_0(tmp_path, capsys):
    spectrum_csv(tmp_path, np.zeros(64))
    write_json(tmp_path / "spec.json", {"data": "wave.csv", "column": "s"})
    assert run(["spectrum", "--config", tmp_path / "spec.json"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 1


def test_spectrum_missing_column_exits_2(tmp_path, capsys):
    spectrum_csv(tmp_path, np.zeros(16))
    write_json(tmp_path / "spec.json", {"data": "wave.csv", "column": "nope"})
    assert run(["spectrum", "--config", tmp_path / "spec.json"]) == 2
    message = "error: column 'nope' not in data (features: ['s'])\n"
    assert capsys.readouterr().err == message
    # An unknown column outranks a missing trajectory selector.
    with open(tmp_path / "wave.csv", "a") as fh:
        fh.write("v,0,1.0\nv,1,2.0\n")
    assert run(["spectrum", "--config", tmp_path / "spec.json"]) == 2
    assert capsys.readouterr().err == message


def test_spectrum_trajectory_selector_required_when_ambiguous(
        workspace, capsys):
    write_json(workspace / "spec.json", {"data": "data.csv", "column": "x"})
    assert run(["spectrum", "--config", workspace / "spec.json"]) == 2
    assert "trajectory" in capsys.readouterr().err
    write_json(workspace / "spec.json", {
        "data": "data.csv", "column": "x", "trajectory": "traj00",
    })
    assert run(["spectrum", "--config", workspace / "spec.json"]) == 0



@pytest.mark.parametrize("quote", ["", '"'])
def test_data_file_is_utf8_under_an_ascii_locale(tmp_path, quote):
    # A quoted id sends the file to the exact reader; both readers decode
    # UTF-8 whatever the locale's encoding.
    k = np.arange(16)
    (tmp_path / "wave.csv").write_text(
        "trajectory_id,t,s\n" + "".join(
            f"{quote}rün{quote},{t},{v!r}\n"
            for t, v in zip(k.tolist(), np.cos(0.5 * k).tolist())),
        encoding="utf-8")
    write_json(tmp_path / "spec.json", {"data": "wave.csv", "column": "s",
                                        "out": "spec.csv"})
    env = {**child_env(), "LC_ALL": "C", "PYTHONUTF8": "0",
           "PYTHONCOERCECLOCALE": "0"}
    result = subprocess.run(
        [sys.executable, "-m", "koopmodel.cli", "spectrum", "--config",
         str(tmp_path / "spec.json")],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "spec.csv").exists()

# -- reduce ------------------------------------------------------------------

def test_reduce_reports_worked_example(workspace, capsys):
    assert run(["fit", "--config", workspace / "fit.json"]) == 0
    write_json(workspace / "reduce.json", {
        "data": "data.csv", "dictionary": "dict.json",
        "model": "model.bin", "out": "reduce_report.json",
    })
    assert run(["reduce", "--config", workspace / "reduce.json"]) == 0
    narrative = capsys.readouterr().out
    assert "1-dimensional nonlinear representation generated by x" in narrative
    doc = json.loads((workspace / "reduce_report.json").read_text())
    subsets = {tuple(s["observables"]): s for s in doc["subsets"]}
    assert subsets[("x",)]["kind"] == "nonlinear"
    assert subsets[("x", "y")]["faithful"] is True


def test_reduce_rerun_identical(workspace):
    assert run(["fit", "--config", workspace / "fit.json"]) == 0
    write_json(workspace / "reduce.json", {
        "data": "data.csv", "dictionary": "dict.json",
        "model": "model.bin", "out": "reduce_report.json",
    })
    assert run(["reduce", "--config", workspace / "reduce.json"]) == 0
    first = (workspace / "reduce_report.json").read_bytes()
    assert run(["reduce", "--config", workspace / "reduce.json"]) == 0
    assert (workspace / "reduce_report.json").read_bytes() == first


def test_reduce_dictionary_hash_mismatch_exits_2(workspace, capsys):
    assert run(["fit", "--config", workspace / "fit.json"]) == 0
    write_json(workspace / "other_dict.json", [
        {"id": "x", "kind": "coordinate", "params": {"index": 0}},
        {"id": "y", "kind": "coordinate", "params": {"index": 1}},
    ])
    write_json(workspace / "reduce.json", {
        "data": "data.csv", "dictionary": "other_dict.json",
        "model": "model.bin", "out": "reduce_report.json",
    })
    assert run(["reduce", "--config", workspace / "reduce.json"]) == 2
    assert "does not match" in capsys.readouterr().err
    assert not (workspace / "reduce_report.json").exists()


def test_reduce_without_model_is_allowed(workspace):
    write_json(workspace / "reduce.json", {
        "data": "data.csv", "dictionary": "dict.json",
        "out": "reduce_report.json",
    })
    assert run(["reduce", "--config", workspace / "reduce.json"]) == 0
    assert (workspace / "reduce_report.json").exists()


def test_reduce_of_a_chaotic_map_finds_no_representation(tmp_path, capsys):
    # The logistic map x <- 3.9 x (1 - x) is not linear in x, so the row of
    # the one-coordinate dictionary {x} has no closure.
    x = [0.3]
    for _ in range(199):
        x.append(3.9 * x[-1] * (1.0 - x[-1]))
    (tmp_path / "data.csv").write_text("trajectory_id,t,x\n" + "".join(
        f"a,{t},{value!r}\n" for t, value in enumerate(x)))
    write_json(tmp_path / "dict.json", [
        {"id": "x", "kind": "coordinate", "params": {"index": 0}},
    ])
    write_json(tmp_path / "reduce.json", {
        "data": "data.csv", "dictionary": "dict.json", "out": "report.json",
    })
    assert run(["reduce", "--config", tmp_path / "reduce.json"]) == 0
    assert "No closed representations found." in capsys.readouterr().out
    assert json.loads((tmp_path / "report.json").read_text())["subsets"] == []


# -- generated config values -------------------------------------------------

# A valid config per command that sets every key it reads, except the
# reduce model, whose dictionary a fuzzed entry would no longer match.
FUZZ_CONFIG = {
    "fit": {"data": "data.csv", "dictionary": "dict.json", "out": "out.bin",
            "report": "report.json", "svd_tolerance": 1e-10,
            "closure_tol": 1e-6, "json_sidecar": True},
    "predict": {"model": "model.bin", "out": "out.csv", "horizon": 5,
                "x0": 0},
    "spectrum": {"data": "data.csv", "out": "out.csv", "column": "x",
                 "trajectory": "traj00", "peak_threshold": 0.1,
                 "refine": True},
    "reduce": {"data": "data.csv", "dictionary": "dict.json",
               "out": "out.json", "text_out": "out.txt",
               "svd_tolerance": 1e-10, "zero_threshold": 0.05,
               "closure_tol": 1e-6},
}
# One valid entry of each kind, appended to the worked dictionary with one
# parameter, or one item of a list or object parameter, replaced by a
# generated value.
FUZZ_ENTRIES = [
    ("coordinate", {"index": 1}),
    ("sin", {"of": "x"}),
    ("cos", {"of": 0}),
    ("monomial", {"exponents": [1, 2]}),
    ("delay", {"of": "sinx", "lag": 2}),
    ("composition", {"fn": "tanh", "of": "y"}),
    ("composition", {"weights": {"x": 0.5, "sinx": -1.0}, "bias": 0.25}),
]
# Huge and non-finite numbers, names of files and ids, nested lists and
# objects. Every string is a plain name inside the example's directory;
# no integer but a huge one sets a horizon past a few rows.
ODD_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
              st.sampled_from([10**400, -10**400, 2**63, 2**64, 10**15]),
              st.floats(),
              st.sampled_from(["a", "x", "y", "exp", "traj00", "data.csv",
                               "dict.json", "model.bin"])),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["x", "y", "a"]), inner,
                        max_size=2)),
    max_leaves=5)


@st.composite
def fuzzed_runs(draw):
    """A command, its config with up to two keys set to odd values, and
    for fit and reduce possibly a dictionary with one odd parameter."""
    command = draw(st.sampled_from(sorted(FUZZ_CONFIG)))
    config = dict(FUZZ_CONFIG[command])
    n_keys = draw(st.sampled_from([0, 1, 2]))
    for key in draw(st.lists(st.sampled_from(sorted(ACCEPTED_KEYS[command])),
                             min_size=n_keys, max_size=n_keys, unique=True)):
        config[key] = draw(ODD_VALUES)
    entries = WORKED_DICT_ENTRIES
    if command in ("fit", "reduce") and draw(st.booleans()):
        kind, params = draw(st.sampled_from(FUZZ_ENTRIES))
        params = json.loads(json.dumps(params))
        slots = [(params, key) for key in params] + [
            (value, inner) for value in params.values()
            if isinstance(value, (list, dict))
            for inner in (range(len(value)) if isinstance(value, list)
                          else value)]
        holder, key = draw(st.sampled_from(slots))
        holder[key] = draw(ODD_VALUES)
        entries = entries + [{"id": "z", "kind": kind, "params": params}]
    return command, config, entries


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """The data file and the model fitted from it with the worked
    dictionary, as bytes."""
    work = tmp_path_factory.mktemp("fuzz")
    write_data_csv(work / "data.csv", simulate_worked_example(3, 30))
    write_json(work / "dict.json", WORKED_DICT_ENTRIES)
    write_json(work / "fit.json", {"data": "data.csv",
                                   "dictionary": "dict.json",
                                   "out": "model.bin"})
    assert run(["fit", "--config", work / "fit.json"]) == 0
    return {name: (work / name).read_bytes()
            for name in ("data.csv", "model.bin")}


def _with_entry(kind, params):
    return WORKED_DICT_ENTRIES + [{"id": "z", "kind": kind, "params": params}]


@settings(max_examples=300, deadline=None)
@given(case=fuzzed_runs())
@example(case=("fit", FUZZ_CONFIG["fit"], _with_entry(
    "composition", {"weights": {"x": 1.0}, "bias": 10**400})))
@example(case=("reduce", FUZZ_CONFIG["reduce"], _with_entry(
    "composition", {"fn": ["exp"], "of": "x"})))
@example(case=("fit", FUZZ_CONFIG["fit"], _with_entry(
    "monomial", {"exponents": [10**400, 1]})))
@example(case=("predict", {**FUZZ_CONFIG["predict"], "x0": 10**400},
               WORKED_DICT_ENTRIES))
@example(case=("reduce", {**FUZZ_CONFIG["reduce"], "model": "model.bin"},
               WORKED_DICT_ENTRIES))
def test_generated_config_values_exit_cleanly(fuzz_inputs, case):
    # Nothing escapes main, and a failed run leaves the directory as it was.
    command, config, entries = case
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, content in fuzz_inputs.items():
            (work / name).write_bytes(content)
        write_json(work / "dict.json", entries)
        write_json(work / "cfg.json", config)
        before = {p.name: p.read_bytes() for p in work.iterdir()}
        code = run([command, "--config", work / "cfg.json"])
        assert code in (0, 2, 3)
        assert not list(work.glob("*.tmp"))
        if code:
            assert {p.name: p.read_bytes() for p in work.iterdir()} == before


# -- mutated data files ------------------------------------------------------

ODD_CELLS = ["1e309", "-1e309", "nan", "inf", "\x00", '"', '"1.0"', "",
             "1e308", "-0", "x"]


@st.composite
def mutated_csvs(draw, data: bytes):
    """The fuzz data file with one to three lines truncated, bytes flipped,
    cells replaced by huge or non-finite numbers, a NUL or a quote, or
    lines duplicated or reordered."""
    lines = data.split(b"\n")[:-1]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        kind = draw(st.sampled_from(["truncate", "flip", "cell", "insert",
                                     "duplicate", "swap"]))
        if kind == "truncate":
            lines[i] = line[:draw(st.integers(0, len(line)))]
        elif kind == "flip" and line:
            at = draw(st.integers(0, len(line) - 1))
            flipped = line[at] ^ 1 << draw(st.integers(0, 7))
            lines[i] = line[:at] + bytes([flipped]) + line[at + 1:]
        elif kind == "cell":
            cells = line.split(b",")
            cells[draw(st.integers(0, len(cells) - 1))] = \
                draw(st.sampled_from(ODD_CELLS)).encode()
            lines[i] = b",".join(cells)
        elif kind == "insert":
            at = draw(st.integers(0, len(line)))
            lines[i] = line[:at] + draw(st.sampled_from([b"\0", b'"'])) \
                + line[at:]
        elif kind == "duplicate":
            lines.insert(i, line)
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
    return b"\n".join(lines) + b"\n"


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["fit", "spectrum", "reduce"]),
       data=st.data())
def test_mutated_data_files_exit_cleanly(fuzz_inputs, command, data):
    # Nothing escapes main, and a failed run leaves the directory as it was.
    csv_bytes = data.draw(mutated_csvs(fuzz_inputs["data.csv"]))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "data.csv").write_bytes(csv_bytes)
        write_json(work / "dict.json", WORKED_DICT_ENTRIES)
        write_json(work / "cfg.json", FUZZ_CONFIG[command])
        before = {p.name: p.read_bytes() for p in work.iterdir()}
        code = run([command, "--config", work / "cfg.json"])
        assert code in (0, 2, 3)
        assert not list(work.glob("*.tmp"))
        if code:
            assert {p.name: p.read_bytes() for p in work.iterdir()} == before


@pytest.mark.parametrize("command", ["fit", "reduce"])
def test_a_value_whose_square_overflows_exits_3(fuzz_inputs, tmp_path,
                                                 capsys, command):
    # A finite double near the largest one overflows the fit's norms: a
    # numerical failure, not a warning.
    lines = fuzz_inputs["data.csv"].split(b"\n")
    assert lines[3].startswith(b"traj00,2,")
    lines[3] = b"traj00,2,1e308,1e308"
    (tmp_path / "data.csv").write_bytes(b"\n".join(lines))
    write_json(tmp_path / "dict.json", WORKED_DICT_ENTRIES)
    write_json(tmp_path / "cfg.json", FUZZ_CONFIG[command])
    before = sorted(tmp_path.iterdir())
    assert run([command, "--config", tmp_path / "cfg.json"]) == 3
    assert "numerical error" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


def test_a_value_whose_square_overflows_keeps_the_spectrum(fuzz_inputs,
                                                           tmp_path):
    # The spectrum scales the series by an exact power of two before any
    # sum, so 1e308 gives the frequencies of the series scaled by 2^-600.
    rows = [line.split(b",") for line in fuzz_inputs["data.csv"].split(b"\n")]
    assert rows[3][:2] == [b"traj00", b"2"]
    rows[3][2:] = [b"1e308", b"1e308"]
    omegas = []
    for scale in (1.0, 2.0 ** -600):
        scaled = [row[:2] + [repr(float(cell) * scale).encode()
                             for cell in row[2:]] if row[0] == b"traj00"
                  else row for row in rows[1:]]
        (tmp_path / "data.csv").write_bytes(
            b"\n".join(b",".join(row) for row in [rows[0], *scaled]))
        write_json(tmp_path / "cfg.json", FUZZ_CONFIG["spectrum"])
        assert run(["spectrum", "--config", tmp_path / "cfg.json"]) == 0
        header, *found = read_csv(tmp_path / "out.csv")
        assert header[0] == "omega"
        omegas.append([row[0] for row in found])
    assert omegas[0] and omegas[0] == omegas[1]


# -- entry point -------------------------------------------------------------

def _koop_command():
    """The installed ``koop`` script, or else the ``[project.scripts]``
    target declared in ``pyproject.toml`` run by this interpreter."""
    script = shutil.which("koop")
    if script is not None:
        return [script]
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["koop"]
    module, attr = target.split(":")
    return [sys.executable, "-c", f"from {module} import {attr}; {attr}()"]


def test_console_script_runs(workspace):
    result = subprocess.run(
        _koop_command() + ["fit", "--config", str(workspace / "fit.json")],
        capture_output=True, text=True, cwd=workspace, env=child_env(),
    )
    assert result.returncode == 0, result.stderr
    assert (workspace / "model.bin").exists()


@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("command", ["fit", "predict"])
def test_closed_stdout_exits_2_with_one_line(workspace, command, buffered):
    # The reader closes the pipe before the child writes its first byte.
    assert run(["fit", "--config", workspace / "fit.json"]) == 0
    write_json(workspace / "predict.json", {"model": "model.bin",
                                            "horizon": 20000})
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    child = subprocess.Popen(
        [sys.executable, "-m", "koopmodel.cli", command, "--config",
         str(workspace / f"{command}.json")],
        cwd=workspace, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    child.stdout.close()
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait() == 2
    assert err == "error: writing outputs: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("out", ["pred.csv", None])
def test_predict_memory_is_flat_in_the_horizon(tmp_path, out):
    # |lambda| <= 1, so no horizon overflows; h = 3 outputs per row.
    angle = np.exp(0.3j)
    save_model(SpectralTriple(
        [1.0, 0.95 * angle, 0.95 / angle, 0.5], np.ones((1, 4)),
        np.random.default_rng(5).normal(size=(3, 4)), np.zeros((3, 1))),
        tmp_path / "model.bin")
    peaks = []
    for horizon in (10**4, 2 * 10**5):
        write_json(tmp_path / "predict.json", {
            "model": "model.bin", "horizon": horizon,
            **({"out": out} if out else {})})
        result = subprocess.run(
            [sys.executable, "-c", PEAK_RSS, sys.executable, "-m",
             "koopmodel.cli", "predict", "--config",
             str(tmp_path / "predict.json")],
            cwd=tmp_path, env=child_env(), capture_output=True, text=True,
            check=True)
        code, peak_kib = map(int, result.stdout.split())
        assert code == 0
        peaks.append(peak_kib)
    if out:
        assert len(read_csv(tmp_path / out)) == 2 * 10**5 + 2
    assert peaks[1] - peaks[0] < 4 * 1024, peaks


def test_predict_formats_a_block_in_bounded_slices(tmp_path, capsys):
    # N = 3 makes a block 5,461 rows; its rows are turned into Python
    # floats and strings a slice at a time, not all at once, so the traced
    # peak stays a few blocks' bytes (about 3 MB with whole blocks).
    angle = np.exp(0.3j)
    save_model(SpectralTriple(
        [1.0, 0.95 * angle, 0.95 / angle], np.ones((1, 3)),
        np.random.default_rng(5).normal(size=(3, 3)), np.zeros((3, 1))),
        tmp_path / "model.bin")
    write_json(tmp_path / "predict.json", {
        "model": "model.bin", "horizon": 50_000, "out": "pred.csv"})
    tracemalloc.start()
    try:
        assert run(["predict", "--config", tmp_path / "predict.json"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "wrote 50001 prediction rows" in capsys.readouterr().out
    assert peak < 8 * PREDICT_CHUNK_BYTES, peak


def test_every_exported_name_resolves():
    assert set(koopmodel.__all__) <= set(dir(koopmodel))
    for name in koopmodel.__all__:
        assert getattr(koopmodel, name) is not None, name


def test_importing_cli_does_not_load_numpy():
    code = ("import sys; import koopmodel.cli; "
            "sys.exit(1 if 'numpy' in sys.modules else 0)")
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, env=child_env())
    assert result.returncode == 0, result.stdout + result.stderr


def test_spec_hash_does_not_load_openssl():
    # hashlib loads OpenSSL through ``_hashlib``, about 3.7 MB of RSS;
    # CPython's built-in SHA-256 module gives the same digest without it.
    if not any(importlib.util.find_spec(name) for name in ("_sha2",
                                                           "_sha256")):
        pytest.skip("no built-in SHA-256 module")
    code = textwrap.dedent("""
        import sys
        from koopmodel.dictionary import Dictionary
        before = "_hashlib" in sys.modules
        Dictionary.from_spec(
            [{"id": "x", "kind": "coordinate", "params": {"index": 0}}],
            1).spec_hash()
        print(before, "_hashlib" in sys.modules)
    """)
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, env=child_env())
    assert result.returncode == 0, result.stdout + result.stderr
    before, after = result.stdout.split()
    assert after == before


def _entry_point_threads(**variables) -> int:
    """Threads of a ``koop`` process, run through ``cli.console_entry``
    with only the given BLAS thread variables set, once numpy has loaded
    (OpenBLAS starts its threads as it loads)."""
    code = textwrap.dedent("""
        import os
        from koopmodel import cli
        def main(argv=None):
            import numpy
            print(len(os.listdir("/proc/self/task")))
            return 0
        cli.main = main
        cli.console_entry()
    """)
    env = {k: v for k, v in child_env().items()
           if not k.endswith("_NUM_THREADS")}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env={**env, **variables})
    assert result.returncode == 0, result.stdout + result.stderr
    return int(result.stdout)


def _blas_is_openblas() -> bool:
    try:  # numpy >= 1.26 reports its build as a dict
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "openblas" in blas.get("name", "").lower()


# OpenBLAS starts its threads as it loads; a lazily threaded BLAS, such as
# MKL, would show one thread whatever the count.
@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or len(os.sched_getaffinity(0)) < 2
                    or not _blas_is_openblas(),
                    reason="counts OpenBLAS threads in /proc on 2 or more "
                           "CPUs")
@pytest.mark.parametrize("variables, threads", [
    ({}, 1),
    ({"OPENBLAS_NUM_THREADS": "2"}, 2),
    ({"OMP_NUM_THREADS": "2"}, 2),
])
def test_koop_runs_blas_on_one_thread_unless_a_count_is_set(variables,
                                                            threads):
    assert _entry_point_threads(**variables) == threads


def test_main_leaves_the_environment_alone(workspace):
    before = dict(os.environ)
    assert run(["fit", "--config", workspace / "fit.json"]) == 0
    assert dict(os.environ) == before


def test_package_runs_on_numpy_alone():
    # Every import outside the standard library, numpy and the package
    # raises, as it would where nothing else is installed.
    code = textwrap.dedent("""
        import sys
        allowed = set(sys.stdlib_module_names) | {"numpy", "koopmodel"}
        class Block:
            def find_spec(self, name, path=None, target=None):
                if name.partition(".")[0] not in allowed:
                    raise ImportError(f"blocked import of {name}")
        sys.meta_path.insert(0, Block())
        import numpy as np
        import koopmodel
        for name in koopmodel.__all__:
            getattr(koopmodel, name)
        k = np.arange(512)
        series = np.cos(0.6 * k) + 0.5 * np.cos(2.1 * k)
        sys.exit(0 if len(koopmodel.find_eigenfrequencies(series)) == 2 else 1)
    """)
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, env=child_env())
    assert result.returncode == 0, result.stdout + result.stderr
