"""Binary model container: round trips, corruption handling, JSON export."""

import json
import os
import struct
import tracemalloc
import zlib
from dataclasses import replace

import numpy as np
import pytest

from koopmodel import (
    ModelChecksumError,
    ModelFormatError,
    ModelTruncatedError,
    ModelVersionError,
    ShapeMismatchError,
    load_model,
    save_model,
)
from koopmodel.atomic import write_atomically
from koopmodel.model_io import FORMAT_VERSION, MAGIC, file_layout, model_json
from koopmodel.spectral import ModelMetadata, SpectralTriple
from conftest import random_triple, with_metadata


@pytest.fixture
def triple():
    return random_triple(np.random.default_rng(101))


def saved_bytes(tmp_path, triple, name="model.bin"):
    path = tmp_path / name
    save_model(triple, path)
    return path, path.read_bytes()


def test_round_trip_preserves_everything(tmp_path, triple):
    path, original = saved_bytes(tmp_path, triple)
    loaded = load_model(path)
    assert np.array_equal(loaded.eigenvalues, triple.eigenvalues)
    assert np.array_equal(loaded.eigenfunction_values,
                          triple.eigenfunction_values)
    assert np.array_equal(loaded.modes, triple.modes)
    assert np.array_equal(loaded.decode, triple.decode)
    assert loaded.metadata == triple.metadata
    assert type(loaded.metadata.dict_hash) is bytes
    for array in (loaded.eigenvalues, loaded.eigenfunction_values,
                  loaded.modes, loaded.decode):  # copies, not file views
        assert array.flags.writeable
    # Re-serializing the loaded model reproduces the file bit for bit.
    save_model(loaded, tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == original


def test_file_size_matches_layout(tmp_path, triple):
    path, data = saved_bytes(tmp_path, triple)
    meta = triple.metadata
    meta_bytes = json.dumps(
        {
            "feature_names": list(meta.feature_names),
            "output_names": list(meta.output_names),
            "trajectory_ids": list(meta.trajectory_ids),
        },
        sort_keys=True, separators=(",", ":"),
    ).encode()
    layout = file_layout(triple.n_eigenvalues, triple.n_initial_conditions,
                         triple.n_outputs, triple.lifted_dim, len(meta_bytes))
    assert len(data) == layout["total"]
    assert layout["triple"] == 16 * triple.payload_complex_entries


def test_header_fields(tmp_path, triple):
    _, data = saved_bytes(tmp_path, triple)
    assert data[:8] == MAGIC
    version, n, m, h, d = struct.unpack("<5I", data[8:28])
    assert version == FORMAT_VERSION
    assert (n, m, h, d) == (triple.n_eigenvalues,
                            triple.n_initial_conditions,
                            triple.n_outputs, triple.lifted_dim)
    assert data[28:60] == triple.metadata.dict_hash


def test_truncation_fails_cleanly_at_any_boundary(tmp_path, triple):
    path, data = saved_bytes(tmp_path, triple)
    # Cut inside every section: magic, header, hash, payload, metadata, CRC.
    for cut in (3, 20, 40, 70, len(data) - 6, len(data) - 1):
        clipped = tmp_path / f"cut{cut}.bin"
        clipped.write_bytes(data[:cut])
        with pytest.raises(ModelTruncatedError):
            load_model(clipped)


def test_truncation_names_the_section_it_ends_inside(tmp_path, triple):
    path, data = saved_bytes(tmp_path, triple)
    n, m, h, d = (triple.n_eigenvalues, triple.n_initial_conditions,
                  triple.n_outputs, triple.lifted_dim)
    meta_len = len(data) - file_layout(n, m, h, d, 0)["total"]
    sections = [("magic bytes", 8), ("header", 20), ("dictionary hash", 32),
                ("eigenvalues", 16 * n), ("eigenfunction table", 16 * m * n),
                ("modes", 16 * h * n), ("decode matrix", 8 * h * d),
                ("metadata length", 4), ("metadata", meta_len),
                ("checksum", 4)]
    assert sum(size for _, size in sections) == len(data)
    end = 0
    for name, size in sections:
        end += size
        clipped = tmp_path / "cut.bin"
        clipped.write_bytes(data[:end - 1])
        with pytest.raises(ModelTruncatedError,
                           match=f"^model file ends inside {name}: "):
            load_model(clipped)


def test_bad_magic_and_version(tmp_path, triple):
    path, data = saved_bytes(tmp_path, triple)
    wrong_magic = tmp_path / "magic.bin"
    wrong_magic.write_bytes(b"NOTMODEL" + data[8:])
    with pytest.raises(ModelVersionError,
                       match="^not a model file: bad magic b'NOTMODEL'$"):
        load_model(wrong_magic)

    body = bytearray(data[:-4])
    struct.pack_into("<I", body, 8, FORMAT_VERSION + 1)
    body += struct.pack("<I", zlib.crc32(bytes(body)))
    wrong_version = tmp_path / "version.bin"
    wrong_version.write_bytes(bytes(body))
    with pytest.raises(ModelVersionError, match="version"):
        load_model(wrong_version)


def test_corrupted_payload_fails_checksum(tmp_path, triple):
    path, data = saved_bytes(tmp_path, triple)
    corrupted = bytearray(data)
    corrupted[70] ^= 0xFF
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(corrupted))
    with pytest.raises(ModelChecksumError, match="checksum"):
        load_model(bad)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("array", ["eigenvalues", "eigenfunction_values",
                                   "modes", "decode"])
def test_non_finite_entries_rejected(tmp_path, triple, array, value):
    # A sealed file whose checksum holds: the values themselves are bad.
    damaged = getattr(triple, array).copy()
    damaged.flat[-1] = value
    save_model(replace(triple, **{array: damaged}), tmp_path / "bad.bin")
    with pytest.raises(ModelFormatError, match="non-finite"):
        load_model(tmp_path / "bad.bin")


def test_trailing_bytes_rejected(tmp_path, triple):
    path, data = saved_bytes(tmp_path, triple)
    padded = tmp_path / "padded.bin"
    padded.write_bytes(data + b"\x00\x00")
    with pytest.raises((ModelFormatError, ModelChecksumError,
                        ModelTruncatedError)):
        load_model(padded)


def test_invalid_metadata_json_rejected(tmp_path, triple):
    path, data = saved_bytes(tmp_path, triple)
    meta = triple.metadata
    meta_bytes = json.dumps(
        {
            "feature_names": list(meta.feature_names),
            "output_names": list(meta.output_names),
            "trajectory_ids": list(meta.trajectory_ids),
        },
        sort_keys=True, separators=(",", ":"),
    ).encode()
    meta_start = len(data) - 4 - len(meta_bytes)
    assert data[meta_start:-4] == meta_bytes
    body = bytearray(data[:-4])
    body[meta_start:meta_start + len(meta_bytes)] = b"{" * len(meta_bytes)
    body += struct.pack("<I", zlib.crc32(bytes(body)))
    bad = tmp_path / "meta.bin"
    bad.write_bytes(bytes(body))
    with pytest.raises(ModelFormatError, match="JSON"):
        load_model(bad)

    # Valid JSON with a correct CRC can still be malformed metadata.
    assert with_metadata(data, meta_bytes) == data
    h, m = triple.n_outputs, triple.n_initial_conditions
    cases = [
        ([1, 2], ModelFormatError, "JSON object"),
        ({"trajectory_ids": 5}, ModelFormatError, "'trajectory_ids'"),
        ({"feature_names": ["a", 1]}, ModelFormatError, "'feature_names'"),
        ({"output_names": [f"y{i}" for i in range(h + 1)]},
         ShapeMismatchError, f"{h + 1} outputs"),
        ({"trajectory_ids": [f"t{i}" for i in range(m + 1)]},
         ShapeMismatchError, f"{m + 1} trajectories"),
    ]
    for doc, error, message in cases:
        bad.write_bytes(with_metadata(data, json.dumps(doc).encode()))
        with pytest.raises(error, match=message):
            load_model(bad)


@pytest.mark.parametrize("ids", [True, False], ids=["ids", "no ids"])
def test_load_peak_is_the_bytes_and_the_arrays(tmp_path, ids):
    # 100,000 initial conditions of 8 eigenvalues: a 12.8 MB table, and
    # 0.9 MB of metadata with the ids.  The file's bytes are freed before
    # the metadata parse, so the peak is the bytes and the copied arrays.
    m, n = 100_000, 8
    triple = SpectralTriple(
        eigenvalues=np.ones(n, complex),
        eigenfunction_values=np.ones((m, n), complex),
        modes=np.ones((1, n), complex), decode=np.ones((1, n)),
        metadata=ModelMetadata(trajectory_ids=tuple(
            f"t{i}" for i in range(m)) if ids else ()))
    path, data = saved_bytes(tmp_path, triple)
    tracemalloc.start()
    try:
        load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * len(data), f"peak {peak} B for a {len(data)} B file"


def test_save_overwrites_atomically(tmp_path, triple):
    other = random_triple(np.random.default_rng(102))
    path = tmp_path / "model.bin"
    save_model(triple, path)
    save_model(other, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.eigenvalues, other.eigenvalues)
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_save_into_missing_directory_leaves_nothing(tmp_path, triple):
    target = tmp_path / "nowhere" / "model.bin"
    with pytest.raises(OSError):
        save_model(triple, target)
    assert not target.exists()


def test_failed_output_leaves_no_file_of_the_set(tmp_path):
    first = tmp_path / "first.bin"
    second = tmp_path / "nowhere" / "second.json"
    with pytest.raises(OSError):
        write_atomically([(first, b"model"), (second, b"sidecar")])
    assert list(tmp_path.iterdir()) == []


def test_failed_chunk_stream_leaves_every_target_as_it_was(tmp_path):
    first = tmp_path / "first.bin"
    second = tmp_path / "second.csv"
    first.write_bytes(b"old model")

    def chunks():
        yield b"k,y0\n"
        raise MemoryError("stream failed")

    with pytest.raises(MemoryError, match="stream failed"):
        write_atomically([(first, b"new model"), (second, chunks())])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["first.bin"]
    assert first.read_bytes() == b"old model"


@pytest.mark.parametrize("first_existed, no_hard_links", [
    pytest.param(True, False, id="True"),
    pytest.param(False, False, id="False"),
    pytest.param(True, True, id="True-no-hard-links")])
def test_failed_rename_undoes_the_renames_before_it(tmp_path, monkeypatch,
                                                    first_existed,
                                                    no_hard_links):
    # Both payloads stage; renaming onto the directory ``second`` fails
    # after ``first`` is already in place.  Without hard links the old
    # ``first`` is backed up by a copy instead.
    if no_hard_links:
        def link(*args):
            raise OSError("hard links not supported")
        monkeypatch.setattr(os, "link", link)
    first = tmp_path / "first.bin"
    second = tmp_path / "second.csv"
    second.mkdir()
    if first_existed:
        first.write_bytes(b"old model")
    before = sorted(p.name for p in tmp_path.iterdir())
    with pytest.raises(OSError):
        write_atomically([(first, b"new model"), (second, b"k,y0\n")])
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert first.exists() == first_existed
    if first_existed:
        assert first.read_bytes() == b"old model"
    assert not any(second.iterdir())


def test_chunk_stream_is_written_in_order(tmp_path):
    target = tmp_path / "out.csv"
    write_atomically([(target, (f"{i}\n".encode() for i in range(5)))])
    assert target.read_bytes() == b"0\n1\n2\n3\n4\n"


def test_json_export_is_deterministic_and_faithful(triple):
    text = model_json(triple)
    assert model_json(triple) == text
    doc = json.loads(text)
    assert doc["N"] == triple.n_eigenvalues
    assert doc["dict_hash"] == triple.metadata.dict_hash.hex()
    eigen = [complex(re, im) for re, im in doc["eigenvalues"]]
    assert np.array_equal(np.asarray(eigen), triple.eigenvalues)
    assert doc["modes"][0][0] == [triple.modes[0, 0].real,
                                  triple.modes[0, 0].imag]


def test_twenty_random_round_trips(tmp_path):
    rng = np.random.default_rng(2024)
    for i in range(20):
        triple = random_triple(rng)
        path = tmp_path / f"m{i}.bin"
        save_model(triple, path)
        loaded = load_model(path)
        save_model(loaded, path)
        reread = load_model(path)
        for attr in ("eigenvalues", "eigenfunction_values", "modes", "decode"):
            assert np.array_equal(getattr(reread, attr), getattr(triple, attr))
        assert reread.metadata == triple.metadata
