"""koop benchmark: end-to-end time and peak RSS per CLI command, or a traced
per-layer breakdown.

    python3 bench/run.py --workload tall --seed 1 --seconds 40 --trace 0

Run from the repository root.  Each workload (see ``workloads.py``) is
generated from the seed; the package sees only the generated CSV and JSON
files.  With ``--trace 0`` every command runs as a fresh
``python -m koopmodel.cli`` subprocess, one at a time, in rounds for the
given seconds.  Each time is scaled by a calibration task timed around it
(see ``calibrate``), and each metric is the median over the rounds.  With
``--trace 1`` the commands run in-process through ``cli.main`` with every
layer wrapped by ``tracer.py``.  Every output is checked by the workload's
oracle.  The last line of stdout is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
os.environ["KOOP_THREADS"] = str(NPROC)

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
from workloads import WORKLOADS, OracleError  # noqa: E402

SETUP_CODE = ("import koopmodel\n"
              "for name in koopmodel.__all__:\n"
              "    getattr(koopmodel, name)\n")
COMMAND_TIMEOUT_S = 120.0
CALIBRATION_CODE = ("import numpy as np\n"
                    "total = 0\n"
                    "for i in range(1_000_000):\n"
                    "    total += i * i\n"
                    "a = np.full((256, 256), 1.0 / 256)\n"
                    "for _ in range(50):\n"
                    "    a = a @ a\n")
#: Timings are reported at the speed where ``calibrate()`` takes this long.
CALIBRATION_REFERENCE_S = 0.3
COMMANDS = ("fit", "predict", "reduce", "spectrum")

PER_LAYER = (
    "cli.read_trajectories_ms", "cli.rows_parsed",
    "trajectories.snapshots_built", "dictionary.features_at_columns_ms",
    "dictionary.lift_trajectories_ms", "dictionary.lifted_bytes",
    "edmd.fit_koopman_matrix_ms", "edmd.residual_report_ms",
    "edmd.condition_number_ms", "edmd.factorizations",
    "spectral.eigendecompose_ms", "spectral.build_spectral_triple_ms",
    "spectral.predict_ms", "spectral.predict_calls", "model_io.encode_ms",
    "model_io.load_model_ms", "model_io.model_bytes",
    "harmonic.find_eigenfrequencies_ms", "harmonic.peaks",
    "harmonic.series_length", "representation.analyze_representation_ms",
    "representation.subset_tests", "representation.closure_calls",
    "representation.subsets_found", "representation.useful_ratio",
    "representation.truncated", "cli.read_dictionary_ms", "cli.self_ms",
    "cli.output_bytes", "trace.overhead_s",
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv, cwd: Path, stderr_path: Path):
    """Wall seconds, exit code and peak RSS (MB) of one child process."""
    result = subprocess.run(
        [sys.executable, str(HERE / "launch.py"), str(stderr_path),
         str(COMMAND_TIMEOUT_S), *argv],
        cwd=cwd, env=child_env(), stdout=subprocess.PIPE, check=True,
        timeout=COMMAND_TIMEOUT_S + 30)
    report = json.loads(result.stdout)
    return report["wall_s"], report["code"], report["rss_mb"]


def run_code(code: str, work: Path, label: str) -> float:
    """Wall seconds of ``python -c code`` in a fresh interpreter."""
    err = work / f"{label}.err"
    wall, status, _ = run_child([sys.executable, "-c", code], work, err)
    if status != 0:
        raise RuntimeError(f"{label} task failed: {err.read_text()}")
    return wall


def calibrate(work: Path) -> float:
    """Wall seconds of a fixed task in a fresh interpreter.

    Other tenants share this kind of host's cores, and its speed swings by
    half for tens of seconds at a time, far more than the bounds.  Every
    timed command is therefore scaled by the calibration measured around
    it.  Like the commands, the task starts an interpreter, imports numpy
    and runs Python and BLAS code; a task inside this long-lived process
    tracked the commands' slow-downs much worse.
    """
    return run_code(CALIBRATION_CODE, work, "calibration")


def check(cmd, work: Path) -> str | None:
    """The oracle's complaint about a command's outputs, or None."""
    try:
        cmd.check(work)
    except (OracleError, OSError, ValueError, KeyError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def describe(name: str, values: list[float], unit: str) -> str:
    """Median, the highest percentile with >= 10 samples beyond it, and n."""
    n = len(values)
    line = f"{name:40s} {statistics.median(values):.6g} {unit} (median of {n}"
    if n > 10:
        pct = math.floor(100 * (n - 10) / n)
        value = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
        line += f"; p{pct} {value:.6g} {unit}"
    else:
        line += "; no percentile has 10 samples beyond it"
    return line + ")"


class Runner:
    def __init__(self, workload, work: Path, seconds: float):
        self.workload = workload
        self.work = work
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0

    def record(self, cmd, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {self.workload.name}/{cmd.name}: {detail}",
                  file=sys.stderr)
        return ok

    def rounds(self, one_round, start: float | None = None) -> None:
        """Repeat ``one_round`` until the next one would overrun the time
        counted from ``start`` (default: now).  Runs at least once."""
        start = time.perf_counter() if start is None else start
        durations = []
        while True:
            r0 = time.perf_counter()
            one_round()
            durations.append(time.perf_counter() - r0)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.mean(durations) > self.seconds:
                return

    # -- untraced: one subprocess per command ---------------------------------

    def _scaled(self, wall: float) -> float:
        """``wall`` at reference speed: divided by the mean calibration
        time just before and just after it, times the reference time."""
        before, self._calibration = self._calibration, calibrate(self.work)
        return wall * 2.0 * CALIBRATION_REFERENCE_S / (before
                                                       + self._calibration)

    def end_to_end(self) -> tuple[dict, dict]:
        """Scaled samples per metric, and the raw wall-time samples."""
        samples: dict[str, list[float]] = {}
        raw: dict[str, list[float]] = {}
        self._calibration = calibrate(self.work)

        def keep(name: str, wall: float, scaled: float) -> None:
            samples.setdefault(name, []).append(scaled)
            raw.setdefault(name, []).append(wall)

        def one_round():
            wall = run_code(SETUP_CODE, self.work, "setup")
            keep("setup_s", wall, self._scaled(wall))
            for cmd in self.workload.commands:
                argv = [sys.executable, "-m", "koopmodel.cli", cmd.name,
                        "--config", str(self.work / f"{cmd.name}.json")]
                err = self.work / f"{cmd.name}.err"
                wall, code, rss = run_child(argv, self.work, err)
                scaled = self._scaled(wall)
                if code != 0:
                    self.record(cmd, False, f"exit {code}: "
                                + err.read_text()[-500:])
                    continue
                problem = check(cmd, self.work)
                if self.record(cmd, problem is None, problem or ""):
                    keep(f"{cmd.name}_s", wall, scaled)
                    samples.setdefault(f"{cmd.name}_rss_mb", []).append(rss)

        self.rounds(one_round)
        return samples, raw

    # -- traced: in-process through cli.main ----------------------------------

    def per_layer(self, trace_path: Path) -> dict[str, list[float]]:
        sys.path.insert(0, str(SRC))
        from koopmodel import cli

        all_spans = []
        samples: dict[str, list[float]] = {}

        def run(trace: tracer.Tracer | None):
            wall = 0.0
            for cmd in self.workload.commands:
                argv = [cmd.name, "--config",
                        str(self.work / f"{cmd.name}.json")]
                start = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = (cli.main(argv) if trace is None
                                else trace.command(cli.main, argv))
                except Exception:  # a crash is a failed command, not a stop
                    code, detail = -1, traceback.format_exc()
                else:
                    detail = f"exit {code}"
                wall += time.perf_counter() - start
                if code == 0:
                    detail = check(cmd, self.work)
                self.record(cmd, code == 0 and detail is None, detail or "")
            return wall

        def one_round():
            untraced = run(None)
            trace = tracer.Tracer(self.workload.data_rows)
            traced = run(trace)
            all_spans.append(trace.spans)
            for name, value in self.layer_metrics(trace).items():
                samples.setdefault(name, []).append(value)
            samples.setdefault("trace.overhead_s", []).append(
                (traced - untraced) / len(self.workload.commands))

        start = time.perf_counter()
        run(None)  # warms imports and caches
        self.rounds(one_round, start)
        trace_path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"],
             "rounds": all_spans}))
        return samples

    def layer_metrics(self, trace: tracer.Tracer) -> dict[str, float]:
        totals, cli_self = tracer.span_totals(trace.spans)
        values = {name: 0.0 for name in PER_LAYER
                  if name != "trace.overhead_s"}
        for name, seconds in totals.items():
            if f"{name}_ms" in values:
                values[f"{name}_ms"] = seconds * 1e3
        values["cli.self_ms"] = cli_self * 1e3
        for name, count in trace.counts.items():
            values[name] = float(count)
        tests = values["representation.subset_tests"]
        values["representation.useful_ratio"] = (
            values["representation.subsets_found"] / tests if tests else 0.0)
        values["cli.output_bytes"] = float(sum(
            (self.work / out).stat().st_size
            for cmd in self.workload.commands for out in cmd.outputs
            if (self.work / out).exists()))
        return values


UNITS = {"_ms": "ms", "_s": "s", "_mb": "MB", "_bytes": "B",
         "_ratio": "ratio"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny inputs, for the benchmark's self-check")
    args = parser.parse_args(argv)

    if not (SRC / "koopmodel" / "__init__.py").is_file():
        print(f"error: no koopmodel sources under {SRC}; run from the "
              f"repository root", file=sys.stderr)
        return 2

    out_dir = HERE / "_work"
    work = out_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed, small=args.small)
        workload.write(work)
        print(f"workload {args.workload} seed {args.seed}: inputs in "
              f"{time.perf_counter() - t0:.2f} s, {NPROC} BLAS threads")
        runner = Runner(workload, work, args.seconds)
        raw: dict[str, list[float]] = {}
        if args.trace:
            samples = runner.per_layer(
                out_dir / f"trace-{args.workload}-{args.seed}.json")
            names = PER_LAYER
        else:
            samples, raw = runner.end_to_end()
            names = ("setup_s",) + tuple(
                f"{c}{m}" for m in ("_s", "_rss_mb") for c in COMMANDS)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for name in names:
        values = samples.get(name)
        if values:
            print(describe(name, values, unit_of(name)))
        if raw.get(name):
            print(describe("  unscaled wall time", raw[name], "s"))
        metrics[name] = {"value": statistics.median(values) if values
                         else None, "unit": unit_of(name)}
    print(f"{'failed_frac':40s} {runner.failed / max(runner.attempted, 1)} "
          f"ratio ({runner.failed} of {runner.attempted} commands)")
    correct = runner.failed == 0 and all(
        m["value"] is not None for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
