"""Versioned binary checkpoints for model parameters.

Layout (all integers little endian):

    magic   8 bytes  b"PNOCOVR\\x01"
    version u32      format version, currently 1
    config  u32 length + UTF-8 JSON of the model config
    count   u32      number of tensors
    tensor  u16 name length + name
            u8 rank, then rank u64 dims
            u8 dtype code (4 = float32, 8 = float64)
            u32 CRC-32 of the raw bytes
            raw little-endian tensor bytes

Tensors are written in dict order so a round trip preserves the
parameter declaration order exactly.
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np

from ..errors import FormatError
from .config import ModelConfig
from .network import param_shapes

MAGIC = b"PNOCOVR\x01"
VERSION = 1

_DTYPES = {4: np.dtype("<f4"), 8: np.dtype("<f8")}
_CODES = {np.dtype("float32"): 4, np.dtype("float64"): 8}


def save_checkpoint(path, params, config: ModelConfig) -> None:
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", VERSION)
    cfg = json.dumps(config.to_dict(), sort_keys=True).encode()
    blob += struct.pack("<I", len(cfg)) + cfg
    blob += struct.pack("<I", len(params))
    for name, value in params.items():
        if value.dtype not in _CODES:
            raise FormatError(f"tensor {name!r} has unsupported dtype {value.dtype}")
        raw = np.ascontiguousarray(value, dtype=value.dtype.newbyteorder("<")).tobytes()
        encoded = name.encode()
        blob += struct.pack("<H", len(encoded)) + encoded
        blob += struct.pack("<B", value.ndim)
        blob += struct.pack(f"<{value.ndim}Q", *value.shape)
        blob += struct.pack("<B", _CODES[value.dtype])
        blob += struct.pack("<I", zlib.crc32(raw) & 0xFFFFFFFF)
        blob += raw
    with open(path, "wb") as fh:
        fh.write(blob)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError("checkpoint truncated", offset=self.pos)
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path):
    """Returns (params, config). Raises FormatError on any corruption,
    including tensors whose names or shapes do not match the config."""
    with open(path, "rb") as fh:
        reader = _Reader(fh.read())
    if reader.take(len(MAGIC)) != MAGIC:
        raise FormatError("bad checkpoint magic", offset=0)
    (version,) = reader.unpack("<I")
    if version != VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    (cfg_len,) = reader.unpack("<I")
    try:
        config = ModelConfig.from_dict(json.loads(reader.take(cfg_len).decode()))
    except (ValueError, TypeError, KeyError) as exc:
        raise FormatError(f"bad checkpoint config: {exc}") from exc
    (count,) = reader.unpack("<I")
    params = {}
    for _ in range(count):
        (name_len,) = reader.unpack("<H")
        start = reader.pos
        try:
            name = reader.take(name_len).decode()
        except UnicodeDecodeError as exc:
            raise FormatError(f"tensor name is not UTF-8: {exc}", offset=start) from exc
        if name in params:
            raise FormatError(f"duplicate tensor {name!r}")
        (rank,) = reader.unpack("<B")
        shape = reader.unpack(f"<{rank}Q") if rank else ()
        (code,) = reader.unpack("<B")
        if code not in _DTYPES:
            raise FormatError(f"tensor {name!r} has unknown dtype code {code}")
        dtype = _DTYPES[code]
        (crc,) = reader.unpack("<I")
        n_bytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        start = reader.pos
        raw = reader.take(n_bytes)
        if zlib.crc32(raw) & 0xFFFFFFFF != crc:
            raise FormatError(f"tensor {name!r} failed CRC check", offset=start)
        params[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    if reader.pos != len(reader.data):
        raise FormatError("trailing bytes after last tensor", offset=reader.pos)
    expected = param_shapes(config)
    missing = [name for name in expected if name not in params]
    if missing:
        raise FormatError(f"checkpoint lacks tensors {', '.join(missing)}")
    extra = [name for name in params if name not in expected]
    if extra:
        raise FormatError(f"checkpoint has unknown tensors {', '.join(extra)}")
    for name, shape in expected.items():
        if params[name].shape != shape:
            raise FormatError(
                f"tensor {name!r} has shape {params[name].shape}, config needs {shape}"
            )
    return params, config
