"""All-or-nothing output files: stage every payload, then rename each."""

import contextlib
import os
import tempfile
from pathlib import Path


def write_atomically(outputs) -> None:
    """Write ``(path, bytes)`` pairs by temp file + rename. Every payload is
    staged before the first rename, so a failed write touches no target."""
    staged = []
    try:
        for path, payload in outputs:
            fd, tmp = tempfile.mkstemp(dir=Path(path).parent,
                                       prefix=Path(path).name, suffix=".tmp")
            staged.append((tmp, path))
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
        while staged:
            os.replace(*staged[0])
            staged.pop(0)
    finally:
        for tmp, _ in staged:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
