"""All-or-nothing output files: stage every payload, then rename each."""

import contextlib
import os
import shutil
import tempfile
from pathlib import Path


def write_atomically(outputs) -> None:
    """Write ``(path, payload)`` pairs by temp file + rename; a payload is
    ``bytes`` or an iterable of byte chunks. Every payload is staged
    before the first rename, and a failure while staging or renaming
    undoes the renames before it, so a failed write leaves every target
    as it was."""
    staged, renamed = [], 0
    try:
        for path, payload in outputs:
            fd, tmp = tempfile.mkstemp(dir=Path(path).parent,
                                       prefix=Path(path).name, suffix=".tmp")
            staged.append((tmp, path))
            with os.fdopen(fd, "wb") as handle:
                handle.writelines([payload] if isinstance(payload, bytes)
                                  else payload)
        for tmp, path in staged:
            if os.path.isfile(path):  # kept as ``tmp.old`` until all renamed
                try:
                    os.link(path, tmp + ".old")
                except OSError:
                    shutil.copy2(path, tmp + ".old")
            os.replace(tmp, path)
            renamed += 1
    except BaseException:
        for tmp, path in reversed(staged[:renamed]):
            with contextlib.suppress(OSError):
                if os.path.exists(tmp + ".old"):
                    os.replace(tmp + ".old", path)
                else:
                    os.unlink(path)
        raise
    finally:
        for tmp, _ in staged[renamed:]:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        for tmp, _ in staged:
            with contextlib.suppress(OSError):
                os.unlink(tmp + ".old")
