"""Reading trajectory CSV files.

A data file is UTF-8 text with a ``trajectory_id`` column, an integer ``t``
column and one column per feature; rows of a trajectory are contiguous and
consecutive in ``t``.  Both readers take the header by one rule
(`_header`).  `read_fast` parses a well-formed file with numpy's C parser
and raises on any other; `read_exact` parses every file row by row with
Python's ``int`` and ``float``, returns the same set wherever `read_fast`
does, and reports a malformed file as ``file:line: message`` at its first
fault in file order (see `read_exact` for the order of faults).
"""

from __future__ import annotations

import csv
import functools
import re
import warnings
from array import array
from pathlib import Path

import numpy as np

from .errors import InputError
from .trajectories import Trajectory, TrajectorySet

# Bytes the fast reader leaves to the exact one: a quote (csv unquotes a
# cell, numpy does not), NUL, and \x1c-\x1f, which numpy strips from a
# number as whitespace and Python's int and float do not.
_UNMODELLED_BYTES = (b'"', b"\0", b"\x1c", b"\x1d", b"\x1e", b"\x1f")
_CELL_END = re.compile(rb"[,\r\n]")
# Bytes of the id field in the first try; a longer id widens it.
_ID_WIDTH = 8


def _header(reader, path):
    """The stripped cells of the first row of ``reader`` that is not blank,
    and the columns of ``trajectory_id``, of ``t`` and of the features;
    InputError if the file has no such row, names a column twice, lacks
    either column or has no feature column."""
    for row in reader:
        if any(map(str.strip, row)):
            break
    else:
        raise InputError(f"data file {path} is empty")
    header = [cell.strip() for cell in row]
    names = set()
    for name in header:
        if name in names:
            raise InputError(f"data file {path} names column {name!r} more "
                             f"than once")
        names.add(name)
    for required in ("trajectory_id", "t"):
        if required not in header:
            raise InputError(f"data file {path} lacks required column "
                             f"{required!r}")
    id_col, t_col = header.index("trajectory_id"), header.index("t")
    feature_cols = [i for i in range(len(header)) if i not in (id_col, t_col)]
    if not feature_cols:
        raise InputError(f"data file {path} has no feature columns")
    return header, id_col, t_col, feature_cols


def read_fast(path: Path):
    """The TrajectorySet of a well-formed data file, parsed by numpy.

    Raises on any file the exact reader could read differently: one with
    a byte of ``_UNMODELLED_BYTES``, a row without one cell per header
    column, a cell of half csv's field size limit or more, a cell numpy
    rejects (it takes a subset of what Python's ``int`` and ``float``
    take, to the same values), an id outside Latin-1, and every fault;
    an id repeated after stripping fails in the TrajectorySet.

    The file is parsed in one ``np.loadtxt`` pass into a record per row,
    and the trajectories share the records' feature values, compacted in
    place.
    """
    with open(path, encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        header, id_col, t_col, feature_cols = _header(reader, path)
        header_line = reader.line_num
    # csv rejects a cell longer than its field size limit.  A cell of at
    # least half the limit spans a whole chunk of a quarter of it.
    size = max(1, csv.field_size_limit() // 4)
    # numpy ends a line at \n, \r or \r\n, so the data rows are at most
    # as many as these bytes; one more row means another line rule.
    line_ends = 0
    with open(path, "rb") as handle:
        for chunk in iter(functools.partial(handle.read, size), b""):
            if any(byte in chunk for byte in _UNMODELLED_BYTES):
                raise ValueError("a byte of _UNMODELLED_BYTES")
            if len(chunk) == size and not _CELL_END.search(chunk):
                raise ValueError("a cell near csv's field size limit")
            line_ends += chunk.count(b"\n") + chunk.count(b"\r")

    width = _ID_WIDTH
    while True:
        # Without usecols numpy requires one cell per header column.  numpy
        # cuts an id longer than its field short; one that fills it may
        # have been cut, so it is read again in a wider field.
        table, fields = _read_records(path, header_line, id_col, t_col,
                                      feature_cols, width, line_ends + 1)
        if len(table) > line_ends:
            raise ValueError("more rows than line ends")
        if not fields["last"].any():
            break
        width *= 4
    ids, t = fields["id"], fields["t"]
    starts = np.flatnonzero(ids[1:] != ids[:-1]) + 1
    bounds = [0, *starts.tolist(), len(t)]
    # Latin-1 is how numpy stored each id; a name repeated after stripping
    # fails in the TrajectorySet, and the exact reader then reports it.
    names = [ids[a].decode("latin-1").strip() for a in bounds[:-1]]
    # In int64 a step from 2^63 - 1 wraps to -2^63 with a difference of 1.
    steps = (np.diff(t) != 1) | (t[:-1] == np.iinfo(np.int64).max)
    steps[starts - 1] = False
    if steps.any():
        raise ValueError("time gap")
    t0 = t[bounds[:-1]].tolist()
    del fields, ids, t  # views of the table, which is resized below

    # Each record's values move to the front of the table, which then
    # shrinks in place.  A copy would allocate a second data-sized array and
    # free the table, after which glibc serves the fit's later allocations
    # from its heap instead of mmap: the peak RSS of `koop fit` on 50,000
    # rows rose by 1.3 MB.
    n, m = len(table), len(feature_cols)
    table.dtype = np.float64  # itemsize / 8 doubles a record, values first
    _move_values_to_front(table, n, m)
    try:
        table.resize(n * m)  # raises if a view of the table is still alive
    except ValueError:
        # A trace or profile hook holds one more reference to the table
        # for the method call, so resize refuses; a copy is always safe.
        table = table[:n * m].copy()
    table.flags.writeable = False  # trajectories share it instead of copying
    values = table.reshape(n, m)
    return TrajectorySet(
        trajectories=tuple(Trajectory(values[a:b], name, t0=start)
                           for name, start, a, b in zip(names, t0, bounds,
                                                        bounds[1:])),
        feature_names=tuple(header[c] for c in feature_cols))


def _read_records(path, header_line, id_col, t_col, feature_cols, width,
                  max_rows):
    """The data rows as records whose feature cells come first, as
    doubles, then ``t`` and the id in ``width`` bytes; and a view of them
    with the fields ``values`` (m doubles), ``t``, ``id`` and ``last``,
    the id's last byte, which is 0 unless the id fills its field.  Given
    ``max_rows``, numpy allocates the records once instead of growing
    them."""
    m = len(feature_cols)
    offsets = {c: 8 * j for j, c in enumerate(feature_cols)}
    offsets[t_col], offsets[id_col] = 8 * m, 8 * m + 8
    kinds = {c: "f8" for c in feature_cols}
    kinds[t_col], kinds[id_col] = "i8", f"S{width}"
    columns = sorted(offsets)
    itemsize = 8 * m + 8 + width
    cells = np.dtype({"names": [f"c{c}" for c in columns],
                      "formats": [kinds[c] for c in columns],
                      "offsets": [offsets[c] for c in columns],
                      "itemsize": itemsize})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # such as "input contained no data"
        # Given max_rows, numpy notes that a blank line is not a row.
        warnings.filterwarnings("ignore", "Input line", UserWarning)
        table = np.loadtxt(path, cells, delimiter=",", comments=None,
                           skiprows=header_line, max_rows=max_rows,
                           encoding="utf-8", ndmin=1)
    return table, table.view(np.dtype({
        "names": ["values", "t", "id", "last"],
        "formats": [("f8", (m,)), "i8", f"S{width}", "u1"],
        "offsets": [0, 8 * m, 8 * m + 8, itemsize - 1],
        "itemsize": itemsize}))


def _move_values_to_front(flat, n, m):
    """Moves the first m of each of the n records of doubles in ``flat``
    to ``flat[:n * m]``, in blocks that do not overlap their source, so
    numpy makes no temporary copy.  Record 0 is in place."""
    rows = flat.reshape(n, -1)
    width = rows.shape[1]
    first = 1
    while first < n:
        stop = min(n, max(first + 1, first * width // m))
        flat[first * m:stop * m].reshape(-1, m)[...] = rows[first:stop, :m]
        first = stop


def read_exact(path: Path):
    """The TrajectorySet of any data file, parsed row by row with Python's
    ``int`` and ``float``; InputError if it is malformed.

    The rows are read in one pass, and their feature values go into one
    buffer that every trajectory shares.  A fault is reported as
    ``file:line`` with its physical line number.  The first read, header
    or row fault in file order ends the read.  A read fault is undecodable
    text or a csv error, such as a cell over csv's field size limit; the
    text is decoded 8 KiB at a time, so an undecodable byte is found
    ahead of any row fault in its chunk.  A row is checked for its column
    count, then ``t``, then the feature cells in header order, then
    contiguity.  With no such fault, the first time gap is reported, else
    the first trajectory that is one row long, starts at a negative ``t``
    or holds a NaN or an infinity.
    """
    values, lines = array("d"), array("q")  # per feature cell and per row
    heads = {}  # each trajectory's id: its t0 and its first row
    name = gap = None
    try:
        with open(path, encoding="utf-8-sig", newline="") as handle:
            reader = csv.reader(handle)
            header, id_col, t_col, feature_cols = _header(reader, path)

            def fault(message):
                return InputError(f"{path}:{reader.line_num}: {message}")

            for row in reader:
                if not any(map(str.strip, row)):
                    continue
                if len(row) != len(header):
                    raise fault(f"expected {len(header)} columns, got "
                                f"{len(row)}")
                try:
                    t = int(row[t_col])
                    if not -2**63 <= t < 2**63:  # int64
                        raise ValueError
                except ValueError:
                    raise fault(f"t must be an integer, got "
                                f"{row[t_col]!r}") from None
                for col in feature_cols:
                    try:
                        values.append(float(row[col]))
                    except ValueError:
                        raise fault(f"column {header[col]!r} is not a "
                                    f"number: {row[col]!r}") from None
                ident = row[id_col].strip()
                if ident != name:
                    if ident in heads:
                        raise fault(f"rows of trajectory {ident!r} are not "
                                    f"contiguous")
                    heads[ident] = t, len(lines)
                    name = ident
                elif gap is None and t != last + 1:
                    gap = fault(f"trajectory {name!r}: time indices must "
                                f"increase by 1 (got {last} -> {t})")
                last = t
                lines.append(reader.line_num)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"cannot read data file {path}: {exc}") from exc
    if not lines:
        raise InputError(f"data file {path} has a header but no data rows")
    if gap is not None:
        raise gap
    table = np.frombuffer(values)  # the buffer itself, not a copy
    table.flags.writeable = False  # trajectories share it instead of copying
    table = table.reshape(len(lines), len(feature_cols))
    trajectories = []
    ends = [a for _, a in heads.values()][1:] + [len(lines)]
    for (name, (start, a)), b in zip(heads.items(), ends):
        try:
            trajectories.append(Trajectory(table[a:b], name, t0=start))
        except InputError as exc:  # too short or t0 < 0: the first row
            bad = int(np.isfinite(table[a:b]).all(axis=1).argmin())
            row = a if b - a < 2 or start < 0 else a + bad
            raise InputError(f"{path}:{lines[row]}: {exc}") from exc
    return TrajectorySet(trajectories=tuple(trajectories),
                         feature_names=tuple(header[c] for c in feature_cols))
