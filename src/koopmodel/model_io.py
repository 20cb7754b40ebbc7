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


def file_layout(n: int, m: int, h: int, d: int, metadata_bytes: int) -> dict:
    """Byte offsets and sizes for a model file with the given dimensions."""
    triple_entries = (1 + m + h) * n
    sizes = {
        "magic": len(MAGIC),
        "header": _HEADER.size,
        "dict_hash": 32,
        "triple": 16 * triple_entries,
        "decode": 8 * h * d,
        "metadata": 4 + metadata_bytes,
        "crc": 4,
    }
    sizes["total"] = sum(sizes.values())
    return sizes


def _encode(triple: SpectralTriple) -> bytes:
    meta = triple.metadata
    meta_doc = {key: list(getattr(meta, key)) for key in _NAME_KEYS}
    meta_bytes = json.dumps(meta_doc, sort_keys=True,
                            separators=(",", ":")).encode()
    parts = [
        MAGIC,
        _HEADER.pack(FORMAT_VERSION, triple.n_eigenvalues,
                     triple.n_initial_conditions, triple.n_outputs,
                     triple.lifted_dim),
        meta.dict_hash,
        np.ascontiguousarray(triple.eigenvalues, dtype="<c16").tobytes(),
        np.ascontiguousarray(triple.eigenfunction_values, dtype="<c16").tobytes(),
        np.ascontiguousarray(triple.modes, dtype="<c16").tobytes(),
        np.ascontiguousarray(triple.decode, dtype="<f8").tobytes(),
        struct.pack("<I", len(meta_bytes)),
        meta_bytes,
    ]
    body = b"".join(parts)
    return body + struct.pack("<I", zlib.crc32(body))


def save_model(triple: SpectralTriple, path) -> None:
    """Serialize a spectral triple; the write is atomic."""
    write_atomically([(path, _encode(triple))])


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, count: int, what: str) -> bytes:
        if self.pos + count > len(self.data):
            raise ModelTruncatedError(
                f"model file ends inside {what}: needed {count} bytes at "
                f"offset {self.pos}, file has {len(self.data)}"
            )
        chunk = self.data[self.pos:self.pos + count]
        self.pos += count
        return chunk


def load_model(path) -> SpectralTriple:
    """Load a model file; raises a distinct error for each failure mode."""
    data = Path(path).read_bytes()
    reader = _Reader(data)
    magic = reader.take(len(MAGIC), "magic bytes")
    if magic != MAGIC:
        raise ModelVersionError(
            f"not a model file: bad magic {magic!r}"
        )
    version, n, m, h, d = _HEADER.unpack(reader.take(_HEADER.size, "header"))
    if version != FORMAT_VERSION:
        raise ModelVersionError(
            f"unsupported model format version {version} "
            f"(supported: {FORMAT_VERSION})"
        )
    dict_hash = reader.take(32, "dictionary hash")
    eigenvalues = np.frombuffer(reader.take(16 * n, "eigenvalues"),
                                dtype="<c16").astype(complex)
    phi = np.frombuffer(reader.take(16 * m * n, "eigenfunction table"),
                        dtype="<c16").astype(complex).reshape(m, n)
    modes = np.frombuffer(reader.take(16 * h * n, "modes"),
                          dtype="<c16").astype(complex).reshape(h, n)
    decode = np.frombuffer(reader.take(8 * h * d, "decode matrix"),
                           dtype="<f8").astype(float).reshape(h, d)
    (meta_len,) = struct.unpack("<I", reader.take(4, "metadata length"))
    meta_bytes = reader.take(meta_len, "metadata")
    (crc_stored,) = struct.unpack("<I", reader.take(4, "checksum"))
    if reader.pos != len(data):
        raise ModelFormatError(
            f"{len(data) - reader.pos} unexpected trailing bytes"
        )
    crc_actual = zlib.crc32(data[:len(data) - 4])
    if crc_stored != crc_actual:
        raise ModelChecksumError(
            f"checksum mismatch: stored {crc_stored:#010x}, computed "
            f"{crc_actual:#010x}"
        )
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
    metadata = ModelMetadata(dict_hash=dict_hash,
                             **{key: tuple(v) for key, v in names.items()})
    return SpectralTriple(
        eigenvalues=eigenvalues,
        eigenfunction_values=phi,
        modes=modes,
        decode=decode,
        metadata=metadata,
    )


def complex_pairs(array: np.ndarray):
    """Nested ``[real, imag]`` lists of a 1-D or 2-D complex array."""
    if array.ndim == 1:
        return [[z.real, z.imag] for z in array]
    return [[[z.real, z.imag] for z in row] for row in array]


def model_json(triple: SpectralTriple) -> str:
    """Human-inspectable JSON mirror of the binary model; not read back."""
    doc = {
        "format": "koopman-model",
        "version": FORMAT_VERSION,
        "N": triple.n_eigenvalues,
        "M": triple.n_initial_conditions,
        "h": triple.n_outputs,
        "d": triple.lifted_dim,
        "dict_hash": triple.metadata.dict_hash.hex(),
        "eigenvalues": complex_pairs(triple.eigenvalues),
        "eigenfunction_values": complex_pairs(triple.eigenfunction_values),
        "modes": complex_pairs(triple.modes),
        "decode": [[float(x) for x in row] for row in triple.decode],
    }
    doc.update((key, list(getattr(triple.metadata, key)))
               for key in _NAME_KEYS)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def export_model_json(triple: SpectralTriple, path) -> None:
    """Write :func:`model_json` to ``path``; the write is atomic."""
    write_atomically([(path, model_json(triple).encode())])
