"""The names the benchmark's tracer patches still exist in the package.

`bench/tracer.py` skips an attribute it cannot find, so a renamed layer
function would read 0 in the benchmark without any error.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

from koopmodel.representation import RepresentationReport

# Layer functions deleted from the package; their spans read 0 by design.
RETIRED = {"features_at_columns", "residual_report", "condition_number"}


def _tracer():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves():
    missing = [name for module, attr, name in _tracer().SPANS
               if attr not in RETIRED
               and not callable(getattr(importlib.import_module(
                   f"koopmodel.{module}"), attr, None))]
    assert missing == []


def test_representation_report_keeps_truncated():
    # The tracer reads ``report.truncated`` after each analysis.
    fields = {field.name for field in dataclasses.fields(RepresentationReport)}
    assert "truncated" in fields
