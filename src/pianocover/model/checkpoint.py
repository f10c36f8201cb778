"""Versioned binary checkpoints for model parameters.

Layout (all integers little endian):

    magic   8 bytes  b"PNOCOVR\\x01"
    version u32      format version, currently 1
    config  u32 length + UTF-8 JSON of the model config
    count   u32      number of tensors
    tensor  u16 name length + name
            u8 rank, then rank u64 dims
            u8 dtype code, 8 (float64)
            u32 CRC-32 of the raw bytes
            raw little-endian tensor bytes

Tensors are written in dict order so a round trip preserves the
parameter declaration order exactly. 8 is the only dtype code read.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from pathlib import Path

import numpy as np

from ..errors import ByteCursor, FormatError
from .config import ModelConfig
from .network import param_shapes

MAGIC = b"PNOCOVR\x01"
VERSION = 1

FLOAT64_CODE = 8  # the dtype code of a little-endian float64 tensor


def save_checkpoint(path, params, config: ModelConfig) -> None:
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", VERSION)
    cfg = json.dumps(config.to_dict(), sort_keys=True).encode()
    blob += struct.pack("<I", len(cfg)) + cfg
    blob += struct.pack("<I", len(params))
    for name, value in params.items():
        raw = np.ascontiguousarray(value, dtype="<f8").tobytes()
        encoded = name.encode()
        blob += struct.pack("<H", len(encoded)) + encoded
        blob += struct.pack("<B", value.ndim)
        blob += struct.pack(f"<{value.ndim}Q", *value.shape)
        blob += struct.pack("<B", FLOAT64_CODE)
        blob += struct.pack("<I", zlib.crc32(raw) & 0xFFFFFFFF)
        blob += raw
    with open(path, "wb") as fh:
        fh.write(blob)


def load_checkpoint(path):
    """Returns (params, config). Raises FormatError naming the file on any
    corruption, including tensors whose names or shapes do not match the
    config."""
    try:
        return _decode(ByteCursor(Path(path).read_bytes()))
    except FormatError as exc:
        raise exc.in_file(path) from exc


def _decode(reader: ByteCursor):
    if reader.take(len(MAGIC)) != MAGIC:
        raise FormatError("bad checkpoint magic", offset=0)
    (version,) = reader.unpack("<I")
    if version != VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    (cfg_len,) = reader.unpack("<I")
    cfg = reader.take(cfg_len)
    try:
        config = ModelConfig.from_dict(json.loads(cfg.decode()))
    except (ValueError, TypeError, KeyError, RecursionError) as exc:  # RecursionError: deep JSON
        raise FormatError(f"bad checkpoint config: {exc}") from exc
    expected = param_shapes(config)
    (count,) = reader.unpack("<I")
    params = {}
    extra = []
    for _ in range(count):
        (name_len,) = reader.unpack("<H")
        start = reader.pos
        try:
            name = reader.take(name_len).decode()
        except UnicodeDecodeError as exc:
            raise FormatError(f"tensor name is not UTF-8: {exc}", offset=start) from exc
        if name in params or name in extra:
            raise FormatError(f"duplicate tensor {name!r}")
        (rank,) = reader.unpack("<B")
        shape = reader.unpack(f"<{rank}Q")
        (code,) = reader.unpack("<B")
        if code != FLOAT64_CODE:
            raise FormatError(
                f"tensor {name!r} has dtype code {code}; only {FLOAT64_CODE} (float64) is read"
            )
        (crc,) = reader.unpack("<I")
        start = reader.pos
        raw = reader.take(math.prod(shape) * 8)
        if zlib.crc32(raw) & 0xFFFFFFFF != crc:
            raise FormatError(f"tensor {name!r} failed CRC check", offset=start)
        # Only shapes the config names become arrays, so a corrupt header
        # cannot ask numpy for an impossible one.
        if name not in expected:
            extra.append(name)
        elif shape != expected[name]:
            raise FormatError(
                f"tensor {name!r} has shape {shape}, config needs {expected[name]}"
            )
        else:
            params[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    if reader.pos != len(reader.data):
        raise FormatError("trailing bytes after last tensor", offset=reader.pos)
    missing = [name for name in expected if name not in params]
    if missing:
        raise FormatError(f"checkpoint lacks tensors {', '.join(missing)}")
    if extra:
        raise FormatError(f"checkpoint has unknown tensors {', '.join(extra)}")
    return params, config
