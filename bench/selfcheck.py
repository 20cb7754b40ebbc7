"""Self-check of the benchmark on tiny inputs; takes about a minute.

    python3 bench/selfcheck.py

Runs every workload once untraced and once traced, and fails unless every
metric named in BENCHMARK.json is printed with a value, every oracle passes,
and in the trace each command span is its children plus ``cli.self_ms``.
It also checks that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", "1", "--trace",
         str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(proc, expected: dict[str, str], label: str) -> None:
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, \
        f"{label}: oracle or command failure\n{proc.stderr}"
    assert result["attempted"] >= 4, f"{label}: too few commands"
    metrics = result["metrics"]
    lines = proc.stdout.splitlines()[:-1]
    assert set(metrics) == set(expected), \
        f"{label}: metrics {sorted(metrics)} != {sorted(expected)}"
    for name, unit in expected.items():
        value = metrics[name]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), \
            f"{label}: {name} has no value"
        assert metrics[name]["unit"] == unit, f"{label}: {name} unit"
        assert any(line.split()[:1] == [name] for line in lines), \
            f"{label}: {name} not printed"


def check_trace(workload: str) -> None:
    """Each command span = its direct children + non-negative self time."""
    doc = json.loads((HERE / "_work" / f"trace-{workload}-{SEED}.json")
                     .read_text())
    for spans in doc["rounds"]:
        children = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent is not None:
                children[parent] += end - start
                p_start, p_end = spans[parent][1], spans[parent][2]
                assert p_start <= start <= end <= p_end, \
                    f"{workload}: span {name} leaves its parent"
        commands = [(i, s) for i, s in enumerate(spans) if s[0] == "cli.main"]
        assert len(commands) == 4, f"{workload}: {len(commands)} commands"
        for i, (_, start, end, _) in commands:
            assert 0.0 <= children[i] <= end - start, \
                f"{workload}: children exceed command span"


def check_refuses_without_sources() -> None:
    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run("tall", 0, cwd=bare)
        assert proc.returncode != 0, "ran without the package sources"
        assert not proc.stdout.strip().startswith("{"), "printed a result"
    finally:
        shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        check_result(run(workload, 0), end_to_end, f"{workload} untraced")
        check_result(run(workload, 1), per_layer, f"{workload} traced")
        check_trace(workload)
        print(f"{workload}: ok")
    check_refuses_without_sources()
    print("refuses to run without sources: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
