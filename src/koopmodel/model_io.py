"""Binary container for spectral-triple models, plus a JSON export.

Layout (all integers little-endian):

    magic  "KOOPMDL1"                      8 bytes
    version, N, M, h, d                    5 x u32
    dictionary hash                        32 bytes
    eigenvalues                            N complex128
    eigenfunction table (row per x0)       M*N complex128
    modes (row per output)                 h*N complex128
    decode matrix (row per output)         h*d float64
    metadata JSON                          u32 length + payload
    CRC32 of everything above              u32

Complex numbers are stored as adjacent (real, imaginary) doubles. Writes
are atomic (temp file + rename) and loads are all-or-nothing.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from pathlib import Path

import numpy as np

from .atomic import write_atomically
from .errors import (
    ModelChecksumError,
    ModelFormatError,
    ModelTruncatedError,
    ModelVersionError,
)
from .spectral import ModelMetadata, SpectralTriple

MAGIC = b"KOOPMDL1"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<5I")
# The metadata JSON object: each key, where present, holds a list of names.
_NAME_KEYS = ("feature_names", "output_names", "trajectory_ids")
_C16, _F8 = np.dtype("<c16"), np.dtype("<f8")


def _arrays(n: int, m: int, h: int, d: int) -> tuple:
    """Name in messages, SpectralTriple attribute, file dtype and shape of
    each stored array, in file order."""
    return (("eigenvalues", "eigenvalues", _C16, (n,)),
            ("eigenfunction table", "eigenfunction_values", _C16, (m, n)),
            ("modes", "modes", _C16, (h, n)),
            ("decode matrix", "decode", _F8, (h, d)))


def file_layout(n: int, m: int, h: int, d: int, metadata_bytes: int) -> dict:
    """Byte offsets and sizes for a model file with the given dimensions."""
    *triple, decode = [dtype.itemsize * math.prod(shape)
                       for *_, dtype, shape in _arrays(n, m, h, d)]
    sizes = {
        "magic": len(MAGIC),
        "header": _HEADER.size,
        "dict_hash": 32,
        "triple": sum(triple),
        "decode": decode,
        "metadata": 4 + metadata_bytes,
        "crc": 4,
    }
    sizes["total"] = sum(sizes.values())
    return sizes


def _dims(triple: SpectralTriple) -> tuple:
    return (triple.n_eigenvalues, triple.n_initial_conditions,
            triple.n_outputs, triple.lifted_dim)


def _encode(triple: SpectralTriple) -> bytes:
    meta = triple.metadata
    meta_doc = {key: list(getattr(meta, key)) for key in _NAME_KEYS}
    meta_bytes = json.dumps(meta_doc, sort_keys=True,
                            separators=(",", ":")).encode()
    body = b"".join([
        MAGIC,
        _HEADER.pack(FORMAT_VERSION, *_dims(triple)),
        meta.dict_hash,
        *(np.ascontiguousarray(getattr(triple, attr), dtype=dtype).tobytes()
          for _, attr, dtype, _ in _arrays(*_dims(triple))),
        struct.pack("<I", len(meta_bytes)),
        meta_bytes,
    ])
    return body + struct.pack("<I", zlib.crc32(body))


def save_model(triple: SpectralTriple, path) -> None:
    """Serialize a spectral triple; the write is atomic."""
    write_atomically([(path, _encode(triple))])


def load_model(path) -> SpectralTriple:
    """Load a model file; raises a distinct error for each failure mode."""
    data = Path(path).read_bytes()
    view = memoryview(data)  # sections are views, not copies, of the bytes
    pos = 0

    def take(count: int, what: str) -> memoryview:
        nonlocal pos
        if pos + count > len(data):
            raise ModelTruncatedError(
                f"model file ends inside {what}: needed {count} bytes at "
                f"offset {pos}, file has {len(data)}"
            )
        pos += count
        return view[pos - count:pos]

    magic = bytes(take(len(MAGIC), "magic bytes"))
    if magic != MAGIC:
        raise ModelVersionError(
            f"not a model file: bad magic {magic!r}"
        )
    version, n, m, h, d = _HEADER.unpack(take(_HEADER.size, "header"))
    if version != FORMAT_VERSION:
        raise ModelVersionError(
            f"unsupported model format version {version} "
            f"(supported: {FORMAT_VERSION})"
        )
    dict_hash = bytes(take(32, "dictionary hash"))
    table = _arrays(n, m, h, d)
    arrays = {}
    for what, attr, dtype, shape in table:  # writable copies of the bytes
        chunk = take(dtype.itemsize * math.prod(shape), what)
        arrays[attr] = np.frombuffer(chunk, dtype).reshape(shape).copy()
    (meta_len,) = struct.unpack("<I", take(4, "metadata length"))
    meta_bytes = bytes(take(meta_len, "metadata"))
    (crc_stored,) = struct.unpack("<I", take(4, "checksum"))
    if pos != len(data):
        raise ModelFormatError(
            f"{len(data) - pos} unexpected trailing bytes"
        )
    crc_actual = zlib.crc32(view[:len(data) - 4])
    if crc_stored != crc_actual:
        raise ModelChecksumError(
            f"checksum mismatch: stored {crc_stored:#010x}, computed "
            f"{crc_actual:#010x}"
        )
    del take, data, view, chunk  # the arrays are copies: free the file bytes
    try:
        meta_doc = json.loads(meta_bytes.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"metadata block is not valid JSON: {exc}") from exc
    if not isinstance(meta_doc, dict):
        raise ModelFormatError("metadata block must be a JSON object")
    names = {key: meta_doc.get(key, []) for key in _NAME_KEYS}
    for key, value in names.items():
        if not (isinstance(value, list)
                and all(isinstance(name, str) for name in value)):
            raise ModelFormatError(f"metadata {key!r} must be a list of "
                                   f"strings, got {value!r}")
    for what, attr, _, _ in table:
        if not np.all(np.isfinite(arrays[attr])):  # a fit never writes one
            raise ModelFormatError(f"{what} hold a non-finite value")
    metadata = ModelMetadata(dict_hash=dict_hash,
                             **{key: tuple(v) for key, v in names.items()})
    return SpectralTriple(metadata=metadata, **arrays)


def complex_pairs(array: np.ndarray):
    """Nested ``[real, imag]`` lists of a complex array."""
    return np.stack((array.real, array.imag), axis=-1).tolist()


def model_json(triple: SpectralTriple) -> str:
    """Human-inspectable JSON mirror of the binary model; not read back."""
    dims = _dims(triple)
    doc = {
        "format": "koopman-model",
        "version": FORMAT_VERSION,
        **dict(zip(("N", "M", "h", "d"), dims)),
        "dict_hash": triple.metadata.dict_hash.hex(),
    }
    for _, attr, dtype, _ in _arrays(*dims):
        array = getattr(triple, attr)
        doc[attr] = complex_pairs(array) if dtype == _C16 else array.tolist()
    doc.update((key, list(getattr(triple.metadata, key)))
               for key in _NAME_KEYS)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"

