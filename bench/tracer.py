"""Spans and counters around calls into each ``koopmodel`` layer.

The tracer replaces module attributes with timing or counting wrappers for
the length of one ``cli.main`` call.  The CLI imports its helpers at call
time, so it picks the wrappers up without any change to the package.  A
function a later version no longer has is skipped and its metrics read 0.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from pathlib import Path

import numpy as np

#: Layer functions timed by a span, as ``(module, attribute, span name)``.
SPANS = (
    ("cli", "read_trajectories", "cli.read_trajectories"),
    ("cli", "read_dictionary", "cli.read_dictionary"),
    ("dictionary", "lift_trajectories", "dictionary.lift_trajectories"),
    ("dictionary", "features_at_columns", "dictionary.features_at_columns"),
    ("edmd", "fit_koopman_matrix", "edmd.fit_koopman_matrix"),
    ("edmd", "residual_report", "edmd.residual_report"),
    ("edmd", "condition_number", "edmd.condition_number"),
    ("spectral", "eigendecompose", "spectral.eigendecompose"),
    ("spectral", "build_spectral_triple", "spectral.build_spectral_triple"),
    ("spectral", "predict", "spectral.predict"),
    ("model_io", "_encode", "model_io.encode"),
    ("model_io", "load_model", "model_io.load_model"),
    ("harmonic", "find_eigenfrequencies", "harmonic.find_eigenfrequencies"),
    ("representation", "analyze_representation",
     "representation.analyze_representation"),
)

COMMAND_SPAN = "cli.main"


def _module(name: str):
    try:
        return importlib.import_module(f"koopmodel.{name}")
    except ImportError:
        return None


class Tracer:
    """Collects spans ``[name, start, end, parent index]`` and counts."""

    def __init__(self, data_rows: dict[str, int]):
        self.data_rows = data_rows
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._columns = None  # column count K of the command's lifted pair

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _count(self, name, fn, when=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if when is None or when(args):
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    # -- result hooks ---------------------------------------------------------

    def _rows(self, args, _):
        self.counts["cli.rows_parsed"] += self.data_rows.get(
            Path(args[0]).name, 0)

    def _lifted(self, _, lifted):
        for attr in ("current", "shifted"):
            self.counts["dictionary.lifted_bytes"] += getattr(
                getattr(lifted, attr, None), "nbytes", 0)
        self._columns = getattr(lifted, "n_columns", None)

    def _data_length(self, args) -> bool:
        """Whether a factorization is of a matrix with a data-length side."""
        return (self._columns is not None
                and max(np.shape(args[0]), default=0) >= self._columns)

    def _peaks(self, args, peaks):
        self.counts["harmonic.peaks"] += len(peaks)
        self.counts["harmonic.series_length"] += len(args[0])

    def _representation(self, _, report):
        self.counts["representation.subsets_found"] += len(report.subsets)
        self.counts["representation.truncated"] += int(report.truncated)

    def _encoded(self, _, payload):
        self.counts["model_io.model_bytes"] += len(payload)

    def _predicted(self, *_):
        self.counts["spectral.predict_calls"] += 1

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        after = {
            "cli.read_trajectories": self._rows,
            "dictionary.lift_trajectories": self._lifted,
            "spectral.predict": self._predicted,
            "model_io.encode": self._encoded,
            "harmonic.find_eigenfrequencies": self._peaks,
            "representation.analyze_representation": self._representation,
        }
        for module, attr, name in SPANS:
            self._patch(_module(module), attr,
                        lambda f, n=name: self._span(n, f, after.get(n)))
        trajectories = _module("trajectories")
        self._patch(getattr(trajectories, "Snapshot", None), "__post_init__",
                    lambda f: self._count("trajectories.snapshots_built", f))
        for module in ("representation", "dictionary"):
            self._patch(_module(module), "dependence_closure",
                        lambda f: self._count("representation.closure_calls",
                                              f))
        self._patch(_module("representation"), "is_closed_subset",
                    lambda f: self._count("representation.subset_tests", f))
        for attr in ("svd", "qr"):
            self._patch(np.linalg, attr,
                        lambda f: self._count("edmd.factorizations", f,
                                              self._data_length))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._columns = None

    def command(self, main, argv) -> int:
        """Run one CLI command with every layer wrapped."""
        self.install()
        try:
            return self._span(COMMAND_SPAN, main)(argv)
        finally:
            self.uninstall()


def span_totals(spans) -> tuple[dict[str, float], float]:
    """Seconds per span name, and the CLI's self time: each command span
    minus the part its direct children cover (children never overlap)."""
    totals: dict[str, float] = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        totals[name] = totals.get(name, 0.0) + (end - start)
        if parent is not None:
            child_time[parent] += end - start
    cli_self = sum(end - start - child_time[i]
                   for i, (name, start, end, _) in enumerate(spans)
                   if name == COMMAND_SPAN)
    return totals, cli_self
