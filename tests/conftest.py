"""Shared helpers for the test suite."""

import json
import struct
import zlib

import numpy as np

from pianocover.model import compute_loss, init_params, loss_and_grads
from pianocover.model.checkpoint import MAGIC, VERSION
from pianocover.model.config import N_MELS
from pianocover.tokenizer import EOS, VOCAB_SIZE


def random_model_batch(config, rng, n_examples=2, n_frames=3, target_len=6):
    """Random (frames, arranger_id, target ids) triples, EOS-terminated."""
    batch = []
    for i in range(n_examples):
        frames = rng.normal(size=(n_frames, N_MELS))
        ids = tuple(
            int(t) for t in rng.integers(2, VOCAB_SIZE, size=target_len - 1)
        ) + (EOS,)
        batch.append((frames, i % config.num_arrangers, ids))
    return batch


def gradient_check(config, seed, entries_per_tensor, h=1e-5):
    """Worst finite-difference relative error for each parameter tensor.

    Central differences with step h against the analytic gradient on a
    random batch. Differences under 1e-8 absolute count as zero, which
    keeps structurally-zero gradients (untouched embedding rows, unused
    bias buckets) from being judged by floating point noise.
    """
    rng = np.random.default_rng(seed)
    params = init_params(config, seed=seed)
    batch = random_model_batch(config, rng)
    _, grads = loss_and_grads(batch, params, config)
    worst = {}
    for name, w in params.items():
        flat = w.reshape(-1)
        gflat = grads[name].reshape(-1)
        k = min(entries_per_tensor, flat.size)
        picks = rng.choice(flat.size, size=k, replace=False)
        tensor_worst = 0.0
        for i in picks:
            orig = flat[i]
            flat[i] = orig + h
            plus = compute_loss(batch, params, config)
            flat[i] = orig - h
            minus = compute_loss(batch, params, config)
            flat[i] = orig
            numeric = (plus - minus) / (2.0 * h)
            analytic = float(gflat[i])
            err = abs(numeric - analytic)
            if err <= 1e-8:
                continue
            tensor_worst = max(tensor_worst, err / max(abs(numeric), abs(analytic)))
        worst[name] = tensor_worst
    return worst


def wav_bytes(*chunks, magic=b"RIFF"):
    """A WAVE file of (id, payload) chunks, each odd payload followed by
    its pad byte; a RIFX file has big-endian sizes."""
    order = ">" if magic == b"RIFX" else "<"
    body = b"WAVE" + b"".join(
        cid + struct.pack(order + "I", len(data)) + data + bytes(len(data) % 2)
        for cid, data in chunks
    )
    return magic + struct.pack(order + "I", len(body)) + body


def fmt_chunk(channels, rate, *, bits=16, block_align=None, order="<", subformat=None):
    """A PCM fmt chunk payload, or with ``subformat`` a WAVE_FORMAT_EXTENSIBLE
    one whose subformat GUID carries that format tag."""
    align = 2 * channels if block_align is None else block_align
    fields = (channels, rate, rate * align & 0xFFFFFFFF, align, bits)
    if subformat is None:
        return struct.pack(order + "HHIIHH", 1, *fields)
    guid = struct.pack(order + "IHH", subformat, 0, 0x10) + b"\x80\x00\x00\xaa\x00\x38\x9b\x71"
    return struct.pack(order + "HHIIHHHHI", 0xFFFE, *fields, 22, bits, 0) + guid


def float32_checkpoint(params, config):
    """The bytes of a checkpoint in the saved layout whose tensors are
    float32, dtype code 4, which the reader refuses."""
    cfg = json.dumps(config.to_dict(), sort_keys=True).encode()
    blob = MAGIC + struct.pack("<II", VERSION, len(cfg)) + cfg + struct.pack("<I", len(params))
    for name, value in params.items():
        raw = np.ascontiguousarray(value, dtype="<f4").tobytes()
        blob += struct.pack(f"<H{len(name)}sB{value.ndim}QBI", len(name), name.encode(),
                            value.ndim, *value.shape, 4, zlib.crc32(raw)) + raw
    return blob


def checkpoint_with_config(data, **fields):
    """The checkpoint bytes ``data`` with its config JSON's fields updated
    by ``fields``, keys sorted as save_checkpoint writes them."""
    start = len(MAGIC) + 4
    (length,) = struct.unpack_from("<I", data, start)
    config = json.loads(data[start + 4 : start + 4 + length])
    edited = json.dumps(dict(config, **fields), sort_keys=True).encode()
    return data[:start] + struct.pack("<I", len(edited)) + edited + data[start + 4 + length :]
