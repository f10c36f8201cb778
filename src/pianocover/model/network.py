"""Encoder-decoder transformer in plain numpy, forward and backward.

Topology: pre-norm residual blocks with RMSNorm, multi-head attention
with T5-style relative position bias in the self-attention stacks
(bidirectional buckets in the encoder, causal buckets in the decoder,
one table per stack shared across its layers, none in cross-attention),
a ReLU feed-forward, and a token embedding tied to the output head with
a d_model**-0.5 logit scale. The encoder input is the arranger
embedding row concatenated before the projected mel frames.

Every layer takes leading batch dimensions. Training pads a batch to
its longest example (zero frames, PAD decoder inputs and targets) and
runs it as one tensor; a key mask hides padded frames from encoder
self-attention and decoder cross-attention, and PAD targets carry no
loss. encode and decoder_forward run the same code at batch size one.

Greedy decoding has its own path, IncrementalDecoder, which caches keys
and values so each step runs one new position per window, and steps a
batch of windows (all 4-beat windows of a song, up to a bounded group
size) together. greedy_generate_windows is the one decoding loop;
decode_step and decoder_forward recompute the whole prefix and serve as
its reference.

Gradients are hand-derived, and every reduction runs in a fixed order,
so training is bit-reproducible run to run for a fixed seed. The sums
are not ordered as they would be example by example, so results agree
with single-example runs to rounding, not bit for bit.
"""

from __future__ import annotations

import logging

import numpy as np

from ..errors import ParameterError
from ..midi import PIANO_PITCH_MAX, PIANO_PITCH_MIN
from ..tokenizer import EOS, MAX_SHIFT, PAD, TokenSeq, symbol
from .config import ModelConfig

log = logging.getLogger(__name__)

_NEG_INF = -1e30
_NORM_EPS = 1e-6
# Windows decoded as one batch. Larger groups decode no faster per token
# at desk size, and the cross-attention K/V of a group scale with it.
_LOCKSTEP_WINDOWS = 32


# ---------------------------------------------------------------------------
# Parameters


def param_shapes(config: ModelConfig):
    """Names and shapes of every learnable tensor, in declaration order."""
    d, ff, h = config.d_model, config.d_ff, config.num_heads
    shapes = {
        "input_proj": (config.n_mels, d),
        "arranger_emb": (config.num_arrangers, d),
        "token_emb": (config.vocab_size, d),
        "enc_rel_bias": (config.relative_bias_buckets, h),
        "dec_rel_bias": (config.relative_bias_buckets, h),
    }
    for i in range(config.num_encoder_layers):
        p = f"enc{i}_"
        shapes[p + "ln1"] = (d,)
        for w in ("q", "k", "v", "o"):
            shapes[p + w] = (d, d)
        shapes[p + "ln2"] = (d,)
        shapes[p + "ff1"] = (d, ff)
        shapes[p + "ff2"] = (ff, d)
    shapes["enc_ln_final"] = (d,)
    for i in range(config.num_decoder_layers):
        p = f"dec{i}_"
        shapes[p + "ln1"] = (d,)
        for w in ("sq", "sk", "sv", "so"):
            shapes[p + w] = (d, d)
        shapes[p + "ln2"] = (d,)
        for w in ("cq", "ck", "cv", "co"):
            shapes[p + w] = (d, d)
        shapes[p + "ln3"] = (d,)
        shapes[p + "ff1"] = (d, ff)
        shapes[p + "ff2"] = (ff, d)
    shapes["dec_ln_final"] = (d,)
    return shapes


def init_params(config: ModelConfig, seed: int = 0, dtype=np.float64):
    """Randomly initialized parameter dict.

    The token embedding uses std 0.2: with the tied d_model**-0.5 scaled
    head the initial logits then have std about 0.2, which keeps the
    initial cross entropy within a few hundredths of ln(vocab_size).
    """
    rng = np.random.default_rng(seed)
    d, ff = config.d_model, config.d_ff
    params = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(("ln1", "ln2", "ln3", "ln_final")):
            value = np.ones(shape)
        elif name.endswith("rel_bias"):
            value = np.zeros(shape)
        elif name == "input_proj":
            value = rng.normal(0.0, config.n_mels**-0.5, shape)
        elif name == "arranger_emb":
            value = rng.normal(0.0, 1.0, shape)
        elif name == "token_emb":
            value = rng.normal(0.0, 0.2, shape)
        elif name.endswith("ff2"):
            value = rng.normal(0.0, ff**-0.5, shape)
        else:
            value = rng.normal(0.0, d**-0.5, shape)
        params[name] = value.astype(dtype)
    return params


def zero_grads(params):
    return {k: np.zeros_like(v) for k, v in params.items()}


# ---------------------------------------------------------------------------
# Relative position buckets


def relative_position_bucket(relative_position, bidirectional, num_buckets, max_distance):
    """T5 bucket index for signed (memory - query) distances."""
    rel = np.asarray(relative_position)
    out = np.zeros_like(rel)
    if bidirectional:
        num_buckets //= 2
        out = out + (rel > 0).astype(rel.dtype) * num_buckets
        rel = np.abs(rel)
    else:
        rel = -np.minimum(rel, 0)
    max_exact = num_buckets // 2
    is_small = rel < max_exact
    scaled = np.log(np.maximum(rel, 1) / max_exact) / np.log(max_distance / max_exact)
    large = max_exact + (scaled * (num_buckets - max_exact)).astype(rel.dtype)
    large = np.minimum(large, num_buckets - 1)
    return out + np.where(is_small, rel, large)


def _bias_matrix(table, n, bidirectional, config):
    """Relative position bias (heads, n, n) and its bucket indices (n, n)."""
    rel = np.arange(n)[None, :] - np.arange(n)[:, None]
    buckets = relative_position_bucket(
        rel,
        bidirectional,
        config.relative_bias_buckets,
        config.relative_bias_max_distance,
    )
    return table[buckets].transpose(2, 0, 1), buckets


def _rows(x):
    """x (..., width) as one (rows, width) matrix."""
    return x.reshape(-1, x.shape[-1])


def _scatter_rows(index, values, n_rows):
    """Sums of the rows of values (..., width) grouped by index (...).

    One bincount over (index, column) pairs, which sums in input order
    and costs a fraction of an np.add.at scatter.
    """
    width = values.shape[-1]
    flat = (index.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
    sums = np.bincount(flat, weights=values.reshape(-1), minlength=n_rows * width)
    return sums.reshape(n_rows, width)


def _key_mask(lengths, n):
    """Additive (B, 1, 1, n) mask hiding keys at or past each example's
    length from every query, or None when no example is padded."""
    if np.all(lengths == n):
        return None
    return np.where(np.arange(n) < lengths[:, None], 0.0, _NEG_INF)[:, None, None, :]


# ---------------------------------------------------------------------------
# Layer primitives over (..., n, d), each forward returning (out, cache)


def _norm_f(x, g):
    # np.add.reduce skips np.mean's Python wrapper and gives the same bits.
    ms = np.add.reduce(x * x, axis=-1, keepdims=True) / x.shape[-1]
    inv = 1.0 / np.sqrt(ms + _NORM_EPS)
    return x * inv * g, (x, g, inv)


def _norm_b(dout, cache):
    x, g, inv = cache
    d = x.shape[-1]
    dg = _rows(dout * x * inv).sum(axis=0)
    dyg = dout * g
    dot = np.sum(dyg * x, axis=-1, keepdims=True)
    dx = dyg * inv - x * inv**3 * dot / d
    return dx, dg


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _split_heads(x, heads):
    """(..., n, d) to (..., heads, n, d // heads)."""
    return x.reshape(*x.shape[:-1], heads, -1).swapaxes(-2, -3)


def _merge_heads(xh):
    """(..., heads, n, dh) to (..., n, heads * dh)."""
    xh = xh.swapaxes(-2, -3)
    return xh.reshape(*xh.shape[:-2], -1)


def _attn_f(y, wq, wk, wv, wo, bias, mask, heads, memory=None):
    src = y if memory is None else memory
    qh = _split_heads(y @ wq, heads)
    kh = _split_heads(src @ wk, heads)
    vh = _split_heads(src @ wv, heads)
    scale = qh.shape[-1] ** -0.5
    logits = (qh @ kh.swapaxes(-1, -2)) * scale
    if bias is not None:
        logits = logits + bias
    if mask is not None:
        logits = logits + mask
    att = _softmax(logits)
    merged = _merge_heads(att @ vh)
    cache = (y, src, memory is None, qh, kh, vh, att, merged, wq, wk, wv, wo, scale)
    return merged @ wo, cache


def _attn_b(dout, cache):
    """Input gradients, weight gradients and the logit gradient, which is
    the gradient of an additive bias broadcast to (..., heads, n, n)."""
    y, src, is_self, qh, kh, vh, att, merged, wq, wk, wv, wo, scale = cache
    dz = _split_heads(dout @ wo.T, qh.shape[-3])
    datt = dz @ vh.swapaxes(-1, -2)
    dvh = att.swapaxes(-1, -2) @ dz
    dlogits = att * (datt - np.sum(datt * att, axis=-1, keepdims=True))
    dq = _merge_heads(dlogits @ kh) * scale
    dk = _merge_heads(dlogits.swapaxes(-1, -2) @ qh) * scale
    dv = _merge_heads(dvh)
    dw = (
        _rows(y).T @ _rows(dq),
        _rows(src).T @ _rows(dk),
        _rows(src).T @ _rows(dv),
        _rows(merged).T @ _rows(dout),
    )
    dy = dq @ wq.T
    dsrc = dk @ wk.T + dv @ wv.T
    if is_self:
        return dy + dsrc, None, dw, dlogits
    return dy, dsrc, dw, dlogits


def _ffn_f(y, w1, w2):
    a = y @ w1
    h = np.maximum(a, 0.0)
    return h @ w2, (y, a, h, w1, w2)


def _ffn_b(dout, cache):
    y, a, h, w1, w2 = cache
    dw2 = _rows(h).T @ _rows(dout)
    da = (dout @ w2.T) * (a > 0)
    dw1 = _rows(y).T @ _rows(da)
    return da @ w1.T, dw1, dw2


# ---------------------------------------------------------------------------
# Encoder


def _frames_of(spectrogram):
    return np.asarray(getattr(spectrogram, "frames", spectrogram), dtype=float)


def _pad_frames(frame_list, arranger_ids, config):
    """Checked encoder inputs: frames padded with zeros to (B, F, n_mels),
    each example's frame count, and the arranger ids."""
    for frames, arranger_id in zip(frame_list, arranger_ids):
        if not 0 <= arranger_id < config.num_arrangers:
            raise ParameterError(
                f"arranger id {arranger_id} outside [0, {config.num_arrangers})"
            )
        if frames.ndim != 2 or frames.shape[1] != config.n_mels:
            raise ParameterError(
                f"expected frames shaped (t, {config.n_mels}), got {frames.shape}"
            )
    lengths = np.array([len(frames) for frames in frame_list])
    padded = np.zeros((len(frame_list), lengths.max(), config.n_mels))
    for row, frames in zip(padded, frame_list):
        row[: len(frames)] = frames
    return padded, lengths, np.array(arranger_ids)


def _encoder_batch(frames, lengths, arranger_ids, params, config):
    """Encoder states (B, 1 + F, d) for frames padded to (B, F, n_mels).

    Also returns the key mask that hides each example's padded rows, or
    None, for the decoder's cross-attention."""
    x = np.concatenate(
        [params["arranger_emb"][arranger_ids][:, None, :], frames @ params["input_proj"]],
        axis=1,
    )
    n = x.shape[1]
    mask = _key_mask(lengths + 1, n)
    bias, buckets = _bias_matrix(params["enc_rel_bias"], n, True, config)
    layer_caches = []
    for i in range(config.num_encoder_layers):
        p = f"enc{i}_"
        normed, c_ln1 = _norm_f(x, params[p + "ln1"])
        attn, c_attn = _attn_f(
            normed,
            params[p + "q"],
            params[p + "k"],
            params[p + "v"],
            params[p + "o"],
            bias,
            mask,
            config.num_heads,
        )
        x = x + attn
        normed, c_ln2 = _norm_f(x, params[p + "ln2"])
        ff, c_ffn = _ffn_f(normed, params[p + "ff1"], params[p + "ff2"])
        x = x + ff
        layer_caches.append((c_ln1, c_attn, c_ln2, c_ffn))
    state, c_final = _norm_f(x, params["enc_ln_final"])
    return state, mask, (frames, arranger_ids, buckets, layer_caches, c_final)


def encoder_forward(frames, arranger_id, params, config):
    """Encoder states (1 + t, d) for frames (t, n_mels), and the cache."""
    state, _, cache = _encoder_batch(
        *_pad_frames([frames], [arranger_id], config), params, config
    )
    return state[0], cache


def encoder_backward(dstate, cache, config, grads):
    frames, arranger_ids, buckets, layer_caches, c_final = cache
    dx, dg = _norm_b(dstate, c_final)
    grads["enc_ln_final"] += dg
    dbias = 0.0
    for i in reversed(range(config.num_encoder_layers)):
        p = f"enc{i}_"
        c_ln1, c_attn, c_ln2, c_ffn = layer_caches[i]
        dff, dw1, dw2 = _ffn_b(dx, c_ffn)
        grads[p + "ff1"] += dw1
        grads[p + "ff2"] += dw2
        dnormed, dg = _norm_b(dff, c_ln2)
        grads[p + "ln2"] += dg
        dx = dx + dnormed
        dattn_in, _, (dwq, dwk, dwv, dwo), dlogits = _attn_b(dx, c_attn)
        grads[p + "q"] += dwq
        grads[p + "k"] += dwk
        grads[p + "v"] += dwv
        grads[p + "o"] += dwo
        dbias = dbias + dlogits.sum(axis=0)
        dnormed, dg = _norm_b(dattn_in, c_ln1)
        grads[p + "ln1"] += dg
        dx = dx + dnormed
    grads["enc_rel_bias"] += _scatter_rows(
        buckets, dbias.transpose(1, 2, 0), config.relative_bias_buckets
    )
    grads["arranger_emb"] += _scatter_rows(arranger_ids, dx[:, 0], config.num_arrangers)
    grads["input_proj"] += _rows(frames).T @ _rows(dx[:, 1:])


def encode(spectrogram, arranger_id, params, config: ModelConfig):
    """Encoder states for one segment: arranger row plus one row per frame."""
    state, _ = encoder_forward(_frames_of(spectrogram), arranger_id, params, config)
    return state


# ---------------------------------------------------------------------------
# Decoder


def _decoder_batch(ids, enc_state, enc_mask, params, config):
    """Next-token logits (B, n, vocab) for decoder inputs ids (B, n)."""
    n = ids.shape[1]
    x = params["token_emb"][ids]
    bias, buckets = _bias_matrix(params["dec_rel_bias"], n, False, config)
    causal = np.where(np.arange(n)[None, :] > np.arange(n)[:, None], _NEG_INF, 0.0)
    layer_caches = []
    for i in range(config.num_decoder_layers):
        p = f"dec{i}_"
        normed, c_ln1 = _norm_f(x, params[p + "ln1"])
        attn, c_self = _attn_f(
            normed,
            params[p + "sq"],
            params[p + "sk"],
            params[p + "sv"],
            params[p + "so"],
            bias,
            causal,
            config.num_heads,
        )
        x = x + attn
        normed, c_ln2 = _norm_f(x, params[p + "ln2"])
        cross, c_cross = _attn_f(
            normed,
            params[p + "cq"],
            params[p + "ck"],
            params[p + "cv"],
            params[p + "co"],
            None,
            enc_mask,
            config.num_heads,
            memory=enc_state,
        )
        x = x + cross
        normed, c_ln3 = _norm_f(x, params[p + "ln3"])
        ff, c_ffn = _ffn_f(normed, params[p + "ff1"], params[p + "ff2"])
        x = x + ff
        layer_caches.append((c_ln1, c_self, c_ln2, c_cross, c_ln3, c_ffn))
    h, c_final = _norm_f(x, params["dec_ln_final"])
    scale = config.d_model**-0.5
    logits = (h @ params["token_emb"].T) * scale
    return logits, (ids, enc_state, buckets, layer_caches, c_final, h, scale)


def decoder_forward(dec_ids, enc_state, params, config):
    """Next-token logits (n, vocab) for decoder inputs dec_ids (n,)."""
    ids = np.asarray(dec_ids, dtype=int)
    logits, cache = _decoder_batch(ids[None], enc_state[None], None, params, config)
    return logits[0], cache


def decoder_backward(dlogits, cache, params, config, grads):
    """Backward through the decoder; returns the encoder-state gradient."""
    ids, enc_state, buckets, layer_caches, c_final, h, scale = cache
    grads["token_emb"] += (_rows(dlogits).T @ _rows(h)) * scale
    dh = (dlogits @ params["token_emb"]) * scale
    dx, dg = _norm_b(dh, c_final)
    grads["dec_ln_final"] += dg
    denc = np.zeros_like(enc_state)
    dbias = 0.0
    for i in reversed(range(config.num_decoder_layers)):
        p = f"dec{i}_"
        c_ln1, c_self, c_ln2, c_cross, c_ln3, c_ffn = layer_caches[i]
        dff, dw1, dw2 = _ffn_b(dx, c_ffn)
        grads[p + "ff1"] += dw1
        grads[p + "ff2"] += dw2
        dnormed, dg = _norm_b(dff, c_ln3)
        grads[p + "ln3"] += dg
        dx = dx + dnormed
        dcross_in, dmem, (dwq, dwk, dwv, dwo), _ = _attn_b(dx, c_cross)
        grads[p + "cq"] += dwq
        grads[p + "ck"] += dwk
        grads[p + "cv"] += dwv
        grads[p + "co"] += dwo
        denc += dmem
        dnormed, dg = _norm_b(dcross_in, c_ln2)
        grads[p + "ln2"] += dg
        dx = dx + dnormed
        dself_in, _, (dwq, dwk, dwv, dwo), dlogits_self = _attn_b(dx, c_self)
        grads[p + "sq"] += dwq
        grads[p + "sk"] += dwk
        grads[p + "sv"] += dwv
        grads[p + "so"] += dwo
        dbias = dbias + dlogits_self.sum(axis=0)
        dnormed, dg = _norm_b(dself_in, c_ln1)
        grads[p + "ln1"] += dg
        dx = dx + dnormed
    grads["dec_rel_bias"] += _scatter_rows(
        buckets, dbias.transpose(1, 2, 0), config.relative_bias_buckets
    )
    grads["token_emb"] += _scatter_rows(ids, dx, config.vocab_size)
    return denc


def decode_step(encoder_state, prefix, params, config: ModelConfig):
    """Next-token logits after a generated prefix."""
    prefix = list(prefix)
    if len(prefix) >= config.max_decode_len:
        raise ParameterError(
            f"prefix length {len(prefix)} reached max_decode_len {config.max_decode_len}"
        )
    logits, _ = decoder_forward([PAD] + prefix, encoder_state, params, config)
    return logits[-1]


def _attend_step(q, kh, vh, wo, bias=None, mask=None):
    """One query row per window (W, d) against that window's per-head
    keys and values (W, heads, n, dh).

    bias, shaped (heads, 1, n), marks self-attention: the full-sequence
    path adds a float64 causal mask there, which promotes the logits, so
    this path promotes them too and float32 parameters decode alike.
    mask, shaped (W, 1, 1, n) in the keys' dtype, hides padded keys.
    """
    w, heads, _, dh = kh.shape
    logits = (q.reshape(w, heads, 1, dh) @ kh.swapaxes(-1, -2)) * dh**-0.5
    if bias is not None:
        logits = (logits + bias).astype(np.float64, copy=False)
    if mask is not None:
        logits = logits + mask
    return (_softmax(logits) @ vh).reshape(w, -1) @ wo


class IncrementalDecoder:
    """Decoder state for a batch of windows, fed one token per window
    per step.

    Row i of each step's logits equals decoder_forward over the tokens
    fed to window i so far, with encoder_states[i] as memory, up to
    rounding: each step runs only the new position of every window,
    each weight as one (W, d) matmul. Cross-attention keys and values
    are projected once and zero-padded to the longest window, with a
    key mask over the padding; self-attention keys and values are
    appended to a preallocated (W, heads, max_decode_len, dh) cache per
    layer; the causal relative bias depends only on the query-key
    distance, so it is one row per distance, shared by all windows.
    """

    def __init__(self, encoder_states, params, config: ModelConfig):
        self.params = params
        self.config = config
        self.length = 0
        lengths = np.array([len(state) for state in encoder_states])
        memory = np.zeros(
            (len(lengths), lengths.max(), config.d_model),
            np.result_type(*encoder_states),
        )
        for row, state in zip(memory, encoder_states):
            row[: len(state)] = state
        distances = relative_position_bucket(
            -np.arange(config.max_decode_len),
            False,
            config.relative_bias_buckets,
            config.relative_bias_max_distance,
        )
        self.bias = params["dec_rel_bias"][distances].T[:, None, :]
        self.cross = [
            tuple(
                _split_heads(memory @ params[f"dec{i}_{w}"], config.num_heads)
                for w in ("ck", "cv")
            )
            for i in range(config.num_decoder_layers)
        ]
        self.mask = _key_mask(lengths, memory.shape[1])
        if self.mask is not None:
            self.mask = self.mask.astype(self.cross[0][0].dtype)
        # Allocated on the first step, in the dtype the projections take.
        self.self_kv = [None] * config.num_decoder_layers

    def step(self, tokens) -> np.ndarray:
        """Feed each window its next decoder input token (W,); return the
        next-token logits (W, vocab)."""
        params, config = self.params, self.config
        t = self.length
        if t >= config.max_decode_len:
            raise ParameterError(
                f"prefix length {t} reached max_decode_len {config.max_decode_len}"
            )
        heads, dh = config.num_heads, config.d_head
        x = params["token_emb"][np.asarray(tokens)]
        bias = self.bias[..., t::-1]
        for i, (ckh, cvh) in enumerate(self.cross):
            p = f"dec{i}_"
            normed, _ = _norm_f(x, params[p + "ln1"])
            k = (normed @ params[p + "sk"]).reshape(len(x), heads, dh)
            v = (normed @ params[p + "sv"]).reshape(len(x), heads, dh)
            if self.self_kv[i] is None:
                self.self_kv[i] = np.empty(
                    (2, len(x), heads, config.max_decode_len, dh), k.dtype
                )
            skh, svh = self.self_kv[i]
            skh[:, :, t] = k
            svh[:, :, t] = v
            x = x + _attend_step(
                normed @ params[p + "sq"],
                skh[:, :, : t + 1],
                svh[:, :, : t + 1],
                params[p + "so"],
                bias=bias,
            )
            normed, _ = _norm_f(x, params[p + "ln2"])
            x = x + _attend_step(
                normed @ params[p + "cq"], ckh, cvh, params[p + "co"], mask=self.mask
            )
            normed, _ = _norm_f(x, params[p + "ln3"])
            ff, _ = _ffn_f(normed, params[p + "ff1"], params[p + "ff2"])
            x = x + ff
        self.length = t + 1
        h, _ = _norm_f(x, params["dec_ln_final"])
        return (h @ params["token_emb"].T) * config.d_model**-0.5


def greedy_generate_windows(
    spectrograms, arranger_id, params, config: ModelConfig
) -> list[TokenSeq]:
    """Argmax decoding of every window until its EOS or the length cap.

    Windows decode in lockstep, up to _LOCKSTEP_WINDOWS at a time, so
    a group takes each decode step as one batch. A window that has
    emitted EOS keeps stepping with the others until every window of
    its group has stopped, but its later outputs are discarded, so each
    window yields the ids it would decode alone. Ties go to the lowest
    id. PAD tokens, beat shifts that would break the segment grammar,
    and pitches outside the piano range are dropped from the returned
    sequences.
    """
    raw = []
    for start in range(0, len(spectrograms), _LOCKSTEP_WINDOWS):
        group = spectrograms[start : start + _LOCKSTEP_WINDOWS]
        decoder = IncrementalDecoder(
            [encode(s, arranger_id, params, config) for s in group], params, config
        )
        ids = [[] for _ in group]
        stopped = np.zeros(len(group), dtype=bool)
        tokens = np.full(len(group), PAD)
        while decoder.length < config.max_decode_len and not stopped.all():
            tokens = np.argmax(decoder.step(tokens), axis=-1)
            for window, token, done in zip(ids, tokens.tolist(), stopped):
                if not done:
                    window.append(token)
            stopped |= tokens == EOS
        raw.extend(ids)
    for ids in raw:
        if ids[-1] != EOS:
            log.warning("generation hit max_decode_len %d without EOS", config.max_decode_len)
    return [_usable_tokens(ids) for ids in raw]


def greedy_generate(spectrogram, arranger_id, params, config: ModelConfig) -> TokenSeq:
    """Argmax decoding of one window until EOS or the length cap; see
    greedy_generate_windows."""
    return greedy_generate_windows([spectrogram], arranger_id, params, config)[0]


def _usable_tokens(raw) -> TokenSeq:
    """The segment made of generated ids, without the ones it cannot hold."""
    ids = []
    shift_total = 0
    dropped = 0
    for t in raw:
        sym = symbol(t)
        if sym[0] == "pad":
            dropped += 1
            continue
        if sym[0] == "shift":
            # TokenSeq caps the cumulative shift.
            if shift_total + sym[1] > MAX_SHIFT:
                dropped += 1
                continue
            shift_total += sym[1]
        if sym[0] == "pitch" and not PIANO_PITCH_MIN <= sym[1] <= PIANO_PITCH_MAX:
            dropped += 1
            continue
        ids.append(t)
    if dropped:
        log.warning("dropped %d unusable generated tokens", dropped)
    return TokenSeq(tuple(ids))


# ---------------------------------------------------------------------------
# Loss


def _ce_rows(logits, targets):
    """Per-position cross entropy with PAD targets masked out.

    Returns (nll sum, masked count, dlogits before normalization)."""
    flat = _rows(logits)
    targets = targets.reshape(-1)
    mask = targets != PAD
    m = flat.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(flat - m).sum(axis=-1, keepdims=True))
    logp = flat - lse
    rows = np.flatnonzero(mask)
    nll = -logp[rows, targets[rows]].sum()
    dlogits = np.exp(logp)
    dlogits[~mask] = 0.0
    dlogits[rows, targets[rows]] -= 1.0
    return nll, len(rows), dlogits.reshape(logits.shape)


def _forward(examples, params, config):
    """Teacher-forced forward over a batch padded to its longest example.

    Returns (mean loss, non-PAD target count, dlogits before
    normalization, encoder cache, decoder cache)."""
    if not examples:
        raise ParameterError("empty batch")
    targets = [
        np.asarray(t.ids if isinstance(t, TokenSeq) else tuple(t), dtype=int)
        for _, _, t in examples
    ]
    longest = max(len(t) for t in targets)
    if longest > config.max_decode_len:
        raise ParameterError(
            f"target length {longest} over max_decode_len {config.max_decode_len}"
        )
    padded = np.full((len(targets), longest), PAD)
    for row, t in zip(padded, targets):
        row[: len(t)] = t
    if not np.any(padded != PAD):
        raise ParameterError("batch contains no non-PAD targets")
    dec_in = np.concatenate([np.full((len(targets), 1), PAD), padded[:, :-1]], axis=1)
    frames = _pad_frames(
        [_frames_of(f) for f, _, _ in examples], [a for _, a, _ in examples], config
    )
    state, mask, e_cache = _encoder_batch(*frames, params, config)
    logits, d_cache = _decoder_batch(dec_in, state, mask, params, config)
    nll, count, dlogits = _ce_rows(logits, padded)
    return nll / count, count, dlogits, e_cache, d_cache


def compute_loss(examples, params, config: ModelConfig) -> float:
    """Teacher-forced mean cross entropy over non-PAD target positions."""
    return _forward(examples, params, config)[0]


def loss_and_grads(examples, params, config: ModelConfig):
    """Batch loss and parameter gradients.

    Examples are (frames, arranger_id, target ids) triples. The batch
    runs as one padded tensor through the same forward as compute_loss,
    so the loss equals compute_loss exactly.
    """
    loss, count, dlogits, e_cache, d_cache = _forward(examples, params, config)
    grads = zero_grads(params)
    denc = decoder_backward(dlogits / count, d_cache, params, config, grads)
    encoder_backward(denc, e_cache, config, grads)
    return loss, grads
