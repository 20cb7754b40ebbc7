"""The trajectory CSV reader: numpy's parser on well-formed files, and the
exact reader on every other file, with the same results and messages."""

import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from koopmodel import InputError, cli, data_io

# Cell spellings around a valid value.  Each is taken by Python's int or
# float, by numpy's parser, by both or by neither; where only Python takes
# a spelling, the file must fall back to the exact reader.
PADS = ["{}", " {} ", "\xa0{}\xa0", "\t{}", "{}\x1c", "\x85{}",
        "{}\u2028", "\x0c{}", "+{}", "0{}"]
T_SPELLINGS = PADS + ["{}.0", "{}e0", "{}_0", "1e3", "99999999999999999999",
                      "-9223372036854775809", "１", "١", "", "x"]
VALUE_SPELLINGS = PADS + ["{}1", "{}e3", "-0.0", "0", "nan", "-nan", "inf",
                          "Infinity", "-inf", "1_000", "１", "١",
                          "1E-3", "+.5", "5.", ".", "", "abc", "0x10",
                          "1.5\x00", "1e400", "1e-400"]
# The fast reader's first id field holds 8 bytes: the ids of 7 to 40 bytes
# fit it, fill it or outgrow it, and "ξ" is outside Latin-1.
IDS = ["a", "b", "c", " a", "a ", "\xa0b", "rün", "", "a\x00", "1", "ξ",
       "abcdefg", "abcdefgh", "abcdefgh ", "abcdefgh" * 5]
BLANKS = ["", "  ", ",,", "\t", "\xa0", " , ", "\x0b"]
FLOATS = st.floats(allow_nan=False, allow_infinity=False)
LONG_MANTISSAS = st.builds("{}.{}e{}".format, st.integers(0, 9),
                           st.text("0123456789", min_size=16, max_size=24),
                           st.integers(-320, 308))


def _cell(draw, value, spellings):
    """Mostly ``value`` as written; sometimes an odd spelling."""
    if draw(st.integers(0, 3)):
        return value
    return draw(st.sampled_from(spellings)).format(value)


@st.composite
def csv_files(draw):
    n_features = draw(st.integers(0, 3))
    names = ["trajectory_id", "t"] + [f"f{i}" for i in range(n_features)]
    order = draw(st.permutations(range(len(names))))
    header = [draw(st.sampled_from(["{}", " {} ", "{}\xa0"])).format(names[i])
              for i in order]
    rows = []
    for ident, t0, count in draw(st.lists(
            st.tuples(st.sampled_from(IDS), st.integers(-1, 3),
                      st.integers(1, 4)), min_size=1, max_size=3)):
        for t in range(t0, t0 + count):
            cells = {"trajectory_id": ident, "t": _cell(draw, str(t),
                                                        T_SPELLINGS)}
            for name in names[2:]:
                value = draw(st.one_of(FLOATS.map(repr), LONG_MANTISSAS))
                cells[name] = _cell(draw, value, VALUE_SPELLINGS)
            rows.append([cells[names[i]] for i in order])
    lines = [",".join(header)] + [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(1, len(lines) - 1)) if len(lines) > 1 else 0
        kind = draw(st.sampled_from(["blank", "quote", "extra", "missing",
                                     "move", "drop"]))
        if kind == "blank":  # also before the header
            lines.insert(draw(st.integers(0, len(lines))),
                         draw(st.sampled_from(BLANKS)))
        elif kind == "quote":
            cells = lines[at].split(",")
            j = draw(st.integers(0, len(cells) - 1))
            cells[j] = f'"{cells[j]}"'
            lines[at] = ",".join(cells)
        elif kind == "extra":
            lines[at] += "," + draw(st.sampled_from(["", "1.5", "a"]))
        elif kind == "missing":
            lines[at] = lines[at].rpartition(",")[0]
        elif kind == "move":  # splits a trajectory or reorders its times
            lines.insert(draw(st.integers(1, len(lines))), lines.pop(at))
        elif at:  # "drop": a time gap, or a shorter trajectory
            del lines[at]
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return "".join(line + draw(st.sampled_from([ending, ending, "\n"]))
                   for line in lines)


def _read(reader, path):
    try:
        return reader(path)
    except InputError as exc:
        return f"InputError: {exc}"


def assert_same_sets(got, want):
    """Equal names, ids and t0, bit-equal values, one read-only base."""
    assert got.feature_names == want.feature_names
    assert got.trajectory_ids == want.trajectory_ids
    base = got.trajectories[0].values.base
    assert base is not None and not base.flags.writeable
    for a, b in zip(got.trajectories, want.trajectories):
        assert type(a.t0) is int and a.t0 == b.t0
        assert a.values.shape == b.values.shape
        assert np.array_equal(a.values.view(np.int64),
                              b.values.view(np.int64))
        assert a.values.base is base


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    return tmp_path_factory.mktemp("reader") / "data.csv"


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=csv_files())
@example(text="trajectory_id,t,x\na,0, +1.5e3 \na,1,\xa0-0.0\xa0\n")
@example(text="\n\r\ntrajectory_id,t,x\r\na,0,1\r\n\r\na,1,2\r\n")
@example(text="trajectory_id,t,x\na,0,1_000\na,1,2\n")
@example(text="trajectory_id,t,x\na,0,1\na,1.0,2\n")
@example(text="trajectory_id,t,x\na,0,1\na,1,2,3\na,2,3\na,3\n")
@example(text="trajectory_id,t,x\na,0,1\na ,1,2\n b,0,1\nb,1,2\n")
@example(text='trajectory_id,t,x\na,0,1\na,1,"2"\n')
@example(text="trajectory_id,t,x\na,0,0.1000000000000000055511151231257827\n"
              "a,1,2\n")
@example(text="trajectory_id,t,x\n" + "a" * 140_000 + ",0,1\n"
              + "a" * 140_000 + ",1,2\n")  # beyond csv's field size limit
@example(text="trajectory_id,t,x\na,0,1\na,1,0." + "1" * 140_000 + "\n")
@example(text="trajectory_id,t\na,0\na,1\n")
@example(text="trajectory_id,t,x\na,9223372036854775806,1\n"
              "a,9223372036854775807,2\na,-9223372036854775808,3\n")
def test_fast_reader_agrees_with_exact_reader(data_path, text):
    data_path.write_bytes(text.encode("utf-8"))
    got = _read(cli.read_trajectories, data_path)
    want = _read(data_io.read_exact, data_path)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    else:
        assert_same_sets(got, want)


def benchmark_shaped_csv(path, n_trajectories, steps, n_features=2,
                         seed=0, ids="T{:03d}"):
    """Rows like the benchmark's: ids ``T000``..., ``t`` from 0, and each
    value as ``repr`` writes it."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n_trajectories, steps, n_features))
    names = [f"x{j}" for j in range(n_features)]
    lines = [",".join(["trajectory_id", "t", *names])]
    for i in range(n_trajectories):
        for t, row in enumerate(values[i].tolist()):
            lines.append(f"{ids.format(i)},{t}," + ",".join(map(repr, row)))
    path.write_text("\n".join(lines) + "\n")
    return values


def _assert_fast_path_serves(path, monkeypatch, **shape):
    values = benchmark_shaped_csv(path, 20, 50, **shape)
    want = data_io.read_exact(path)

    def refuse(path):
        raise AssertionError(f"{path} fell back to the exact reader")

    monkeypatch.setattr(data_io, "read_exact", refuse)
    got = cli.read_trajectories(str(path))
    assert_same_sets(got, want)
    assert np.array_equal(got.trajectories[3].values, values[3])


def test_fast_path_serves_a_well_formed_file(tmp_path, monkeypatch):
    _assert_fast_path_serves(tmp_path / "data.csv", monkeypatch)


# 8 bytes fill the first id field; 33 outgrow the second.
@pytest.mark.parametrize("ids", ["run{:05d}", "é{:03d}",
                                 "trajectory {:05d} of a long series"])
def test_fast_path_serves_ids_of_any_length(tmp_path, monkeypatch, ids):
    _assert_fast_path_serves(tmp_path / "data.csv", monkeypatch, ids=ids)


def test_fast_path_serves_many_features(tmp_path, monkeypatch):
    # Each record holds 62 doubles, of which 60 move to the front.
    _assert_fast_path_serves(tmp_path / "data.csv", monkeypatch,
                             n_features=60)


@pytest.mark.parametrize("text", [
    "trajectory_id,t,x\na,0,1\na,1,2",
    "trajectory_id,t,x\ra,0,1\ra,1,2\r",
    "trajectory_id,t,x\r\na,0,1\r\na,1,2\r\n",
    "\ntrajectory_id,t,x\n\na,0,1\n\n\na,1,2\n\n",
], ids=["no final line end", "cr", "crlf", "blank lines"])
def test_fast_path_serves_any_line_ends(data_path, monkeypatch, text):
    data_path.write_text(text, newline="")
    want = data_io.read_exact(data_path)
    monkeypatch.setattr(data_io, "read_exact", None)  # a fallback raises
    assert_same_sets(cli.read_trajectories(data_path), want)


@pytest.mark.parametrize("hook", ["setprofile", "settrace"])
def test_fast_reader_reads_under_a_trace_or_profile_hook(tmp_path, hook):
    # A profiler, coverage tool or debugger holds one more reference to
    # the table, which makes the in-place shrink refuse.
    path = tmp_path / "data.csv"
    benchmark_shaped_csv(path, 20, 50)
    want = data_io.read_exact(path)
    install = getattr(sys, hook)
    previous = (sys.getprofile if hook == "setprofile" else sys.gettrace)()
    install(lambda *args: None)
    try:
        got = data_io.read_fast(path)
    finally:
        install(previous)
    assert_same_sets(got, want)


@pytest.mark.parametrize("tail", ["", "  \n"], ids=["fast", "exact"])
def test_reader_memory_is_a_small_multiple_of_the_values(tmp_path, tail):
    # 50,000 rows of 2 features: the values take 800 kB.  A line of spaces
    # sends the file to the exact reader, which keeps one double per cell
    # and one line number per row, in buffers that grow as it reads.
    path = tmp_path / "data.csv"
    benchmark_shaped_csv(path, 100, 500)
    with open(path, "a") as handle:
        handle.write(tail)
    tracemalloc.start()
    try:
        data = cli.read_trajectories(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nbytes = data.trajectories[0].values.base.nbytes
    assert nbytes == 50_000 * 2 * 8
    assert peak < 4 * nbytes, f"peak {peak} B for {nbytes} B of values"


def test_the_first_row_fault_ends_the_read(tmp_path):
    # A bad cell on line 2 of 20,000 rows: the read stops there, holding
    # no more of the file than its first decoded chunk.
    path = tmp_path / "data.csv"
    benchmark_shaped_csv(path, 40, 500)
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = "T000,0,0.5,abc\n"
    path.write_text("".join(lines))
    tracemalloc.start()
    try:
        with pytest.raises(InputError) as caught:
            data_io.read_exact(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(caught.value) == f"{path}:2: column 'x1' is not a number: 'abc'"
    size = path.stat().st_size
    assert peak < size // 10, f"peak {peak} B for a file of {size} B"


@pytest.mark.parametrize("text, line, message", [
    # A bad cell outranks an earlier time gap.
    ("trajectory_id,t,x\na,0,1.0\na,2,2.0\na,3,abc\n", 4,
     "column 'x' is not a number: 'abc'"),
    # A time gap outranks an earlier NaN.
    ("trajectory_id,t,x\na,0,nan\na,1,2.0\na,3,1.0\n", 4,
     "trajectory 'a': time indices must increase by 1 (got 1 -> 3)"),
    # A bad cell outranks an undecodable byte (written as a lone surrogate)
    # more than one 8 KiB decode chunk after it.
    ("trajectory_id,t,x\na,0,abc\n" + "a,1,2.0\n" * 1100 + "\udcff\n", 2,
     "column 'x' is not a number: 'abc'"),
], ids=["cell over gap", "gap over nan", "cell over a later bad byte"])
def test_fault_precedence_is_rows_then_gaps_then_trajectories(
        data_path, text, line, message):
    data_path.write_bytes(text.encode("utf-8", "surrogateescape"))
    for reader in (data_io.read_exact, cli.read_trajectories):
        with pytest.raises(InputError) as caught:
            reader(data_path)
        assert str(caught.value) == f"{data_path}:{line}: {message}"


def test_a_bad_byte_in_the_decode_chunk_of_a_row_fault_outranks_it(
        data_path):
    data_path.write_bytes(b"trajectory_id,t,x\na,0,abc\na,1,\xff\n")
    for reader in (data_io.read_exact, cli.read_trajectories):
        with pytest.raises(InputError, match=f"^cannot read data file "
                                             f"{re.escape(str(data_path))}: "
                                             f"'utf-8' codec can't decode"):
            reader(data_path)


def test_a_leading_byte_order_mark_is_ignored(tmp_path):
    # Excel's "CSV UTF-8" export and PowerShell's writer start a file with
    # one; numpy skips the header line, so only the header reads differ.
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    benchmark_shaped_csv(plain, 3, 4)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for reader in (data_io.read_fast, data_io.read_exact):
        assert_same_sets(reader(marked), reader(plain))
    # A mark anywhere else stays cell content.
    plain.write_text("trajectory_id,t,x\na,0,1\na,1,2\n\ufeffb,0,3\n"
                     "\ufeffb,1,4\n", encoding="utf-8")
    assert cli.read_trajectories(plain).trajectory_ids == ("a", "\ufeffb")


@pytest.mark.parametrize("header, name", [
    ("trajectory_id,t,x,t", "t"),
    ("trajectory_id,t,x, x", "x"),
])
def test_a_header_naming_a_column_twice_is_refused(data_path, header, name):
    data_path.write_text(f"{header}\na,0,1,2\na,1,2,3\n")
    for reader in (data_io.read_fast, data_io.read_exact,
                   cli.read_trajectories):
        with pytest.raises(InputError) as caught:
            reader(data_path)
        assert str(caught.value) == (f"data file {data_path} names column "
                                     f"{name!r} more than once")
