"""The README's examples run against the package as it is."""

import json
import re
from pathlib import Path

from koopmodel import Dictionary

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    [code] = re.findall(r"^## Library\n\n```python\n(.*?)^```", text,
                        flags=re.S | re.M)
    exec(compile(code, f"{README}:Library", "exec"), {})
    out = capsys.readouterr().out
    assert "29 1 1.0" in out
    assert "1-dimensional linear representation" in out


def test_dictionary_example_builds():
    text = README.read_text(encoding="utf-8")
    [block] = re.findall(r"^```json\n(\[.*?)^```", text, flags=re.S | re.M)
    entries = json.loads(block)
    assert Dictionary.from_spec(entries, 2).ids == ("x", "sinx", "y")
