"""Encoder-decoder transformer in plain numpy, forward and backward.

Topology: pre-norm residual blocks with RMSNorm, multi-head attention
with T5-style relative position bias in the self-attention stacks
(bidirectional buckets in the encoder, causal buckets in the decoder,
one table of config.REL_BUCKETS rows per stack shared across its layers,
none in cross-attention),
a ReLU feed-forward, and a token embedding tied to the output head with
a d_model**-0.5 logit scale. The encoder input is the arranger
embedding row concatenated before the projected mel frames.

The layer table lives in config.py: param_shapes and init_params read
config.tensor_table, and IncrementalDecoder and the one stack runner
(_stack_f with its backward _stack_b, serving both stacks) name their
weights through config.stack_layers.

Every layer takes leading batch dimensions. Training pads a batch to
its longest example (zero frames, PAD decoder inputs and targets) and
runs it as one tensor; a key mask hides padded frames from encoder
self-attention and decoder cross-attention, and PAD targets carry no
loss. encode and decoder_forward run the same code at batch size one.

Backward reads, per sublayer, only what the forward kept for it: the
norm's input and inverse RMS; for attention, the Q, K and V heads, the
probabilities and the merged output; for the FFN, its ReLU output. The
normed input is recomputed from the norm cache, each sublayer's cache
is freed as backward consumes it, and each gradient is allocated at its
first contribution. Per token and encoder layer that is 6d + d_ff + H*n
floats (H heads, n keys per query), and per token and decoder layer
9d + d_ff + H*(n + m) (m memory rows) plus 2d per memory row for the
cross-attention keys and values. Keeping the normed inputs and the FFN
pre-activation too took 8d + 2*d_ff + H*n and 12d + 2*d_ff + H*(n + m).

Greedy decoding has its own path, IncrementalDecoder, which caches keys
and values so each step runs one new position per window, and steps a
batch of windows (all 4-beat windows of a song, up to a bounded group
size) together. It prepares every step-invariant product once per
group: norm gains and attention scales folded into the weights, one
fused self-attention Q/K/V projection per layer, a token-id table for
layer 0's Q/K/V, and a gain-folded tied head. greedy_generate_windows
is the one decoding loop. decode_step and decoder_forward recompute the
whole prefix through the training forward; they are its reference.

Gradients are hand-derived, and every reduction runs in a fixed order,
so training is bit-reproducible run to run for a fixed seed. The sums
are not ordered as they would be example by example, so results agree
with single-example runs to rounding, not bit for bit.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from ..tokenizer import EOS, PAD, VOCAB_SIZE, TokenSeq, generated_segment
from .config import (
    MAX_FRAMES,
    N_MELS,
    REL_BUCKETS,
    REL_MAX_DISTANCE,
    ModelConfig,
    stack_layers,
    tensor_table,
)

_NEG_INF = -1e30
_NORM_EPS = 1e-6
# Windows decoded as one batch. Larger groups decode no faster per token
# at desk size, and the cross-attention K/V of a group scale with it.
_LOCKSTEP_WINDOWS = 32


# ---------------------------------------------------------------------------
# Parameters


def param_shapes(config: ModelConfig):
    """Names and shapes of every learnable tensor, in declaration order."""
    return {name: shape for name, shape, _ in tensor_table(config)}


def init_params(config: ModelConfig, seed: int = 0):
    """Float64 parameters as config.tensor_table gives them: constants
    filled, the rest drawn from normals in table order from one generator."""
    rng = np.random.default_rng(seed)
    return {
        name: np.full(shape, scale[1]) if isinstance(scale, tuple)
        else rng.normal(0.0, scale, shape)
        for name, shape, scale in tensor_table(config)
    }


# ---------------------------------------------------------------------------
# Relative position buckets


def relative_position_bucket(relative_position, bidirectional):
    """T5 bucket index, of REL_BUCKETS, for signed (memory - query)
    distances; distances from REL_MAX_DISTANCE on share the last bucket
    of their direction."""
    rel = np.asarray(relative_position)
    out = np.zeros_like(rel)
    num_buckets = REL_BUCKETS
    if bidirectional:
        num_buckets //= 2
        out = out + (rel > 0).astype(rel.dtype) * num_buckets
        rel = np.abs(rel)
    else:
        rel = -np.minimum(rel, 0)
    max_exact = num_buckets // 2
    is_small = rel < max_exact
    scaled = np.log(np.maximum(rel, 1) / max_exact) / np.log(REL_MAX_DISTANCE / max_exact)
    large = max_exact + (scaled * (num_buckets - max_exact)).astype(rel.dtype)
    large = np.minimum(large, num_buckets - 1)
    return out + np.where(is_small, rel, large)


def _bias_matrix(table, n, bidirectional):
    """Relative position bias (heads, n, n) and its bucket indices (n, n)."""
    rel = np.arange(n)[None, :] - np.arange(n)[:, None]
    buckets = relative_position_bucket(rel, bidirectional)
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


def _inv_rms(x):
    """1 / RMS of the rows of x (..., d), shape (..., 1). np.add.reduce
    skips np.mean's Python wrapper and gives the same bits."""
    ms = np.add.reduce(x * x, axis=-1, keepdims=True) / x.shape[-1]
    return 1.0 / np.sqrt(ms + _NORM_EPS)


def _norm_f(x, g):
    inv = _inv_rms(x)
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
    # The ufunc reductions behind ndarray.max and .sum, without their
    # Python wrappers; the bits are the same.
    e = np.exp(x - np.maximum.reduce(x, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


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
    cache = (memory, qh, kh, vh, att, merged, wq, wk, wv, wo, scale)
    return merged @ wo, cache


def _attn_b(dout, y, cache):
    """Input gradients, weight gradients and the logit gradient, which is
    the gradient of an additive bias broadcast to (..., heads, n, n).
    y is the forward's input, which the cache does not keep."""
    memory, qh, kh, vh, att, merged, wq, wk, wv, wo, scale = cache
    src = y if memory is None else memory
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
    if memory is None:
        return dy + dsrc, None, dw, dlogits
    return dy, dsrc, dw, dlogits


def _ffn_f(y, w1, w2):
    h = np.maximum(y @ w1, 0.0)
    return h @ w2, (h, w1, w2)


def _ffn_b(dout, y, cache):
    """Like _attn_b, takes the forward's input y apart from its cache. The
    ReLU output h is positive exactly where its input was (NaN in neither)."""
    h, w1, w2 = cache
    dw2 = _rows(h).T @ _rows(dout)
    da = (dout @ w2.T) * (h > 0)
    dw1 = _rows(y).T @ _rows(da)
    return da @ w1.T, dw1, dw2


# ---------------------------------------------------------------------------
# Residual stacks, run from the layer table


def _stack_f(stack, x, self_mask, params, config, memory=None, memory_mask=None):
    """Every layer of a stack over inputs x (B, n, d), then its final norm.

    Self-attention adds the stack's relative bias (bidirectional buckets
    in the encoder, causal in the decoder) and self_mask; cross-attention
    reads memory (B, m, d) under memory_mask."""
    bias, buckets = _bias_matrix(params[stack + "_rel_bias"], x.shape[1], stack == "enc")
    caches = []
    for layer in stack_layers(stack, config):
        for gain, names, kind in layer:
            normed, c_norm = _norm_f(x, params[gain])
            weights = [params[name] for name in names]
            if kind == "ffn":
                out, cache = _ffn_f(normed, *weights)
            elif kind == "self":
                out, cache = _attn_f(normed, *weights, bias, self_mask, config.num_heads)
            else:
                out, cache = _attn_f(
                    normed, *weights, None, memory_mask, config.num_heads, memory=memory
                )
            x = x + out
            caches.append((gain, names, kind, c_norm, cache))
    out, c_final = _norm_f(x, params[stack + "_ln_final"])
    return out, (stack, buckets, caches, c_final, memory)


def _stack_b(dout, cache, grads):
    """Backward through _stack_f, consuming its cache: each sublayer's
    entry is popped as it is used, so its activations are freed as the
    pass goes down the stack. A sublayer's normed input is recomputed
    from its norm cache as _norm_f computed it.

    Stores the stack's weight, gain and relative bias gradients in grads
    (each is the only contribution to its tensor); returns the gradients
    of its input and of its memory (None for a stack without
    cross-attention)."""
    stack, buckets, caches, c_final, memory = cache
    dx, dg = _norm_b(dout, c_final)
    grads[stack + "_ln_final"] = dg
    dmemory = None if memory is None else np.zeros_like(memory)
    dbias = 0.0
    while caches:
        gain, names, kind, c_norm, c = caches.pop()
        x, g, inv = c_norm
        normed = x * inv * g
        if kind == "ffn":
            dy, *dweights = _ffn_b(dx, normed, c)
        else:
            dy, dmem, dweights, dlogits = _attn_b(dx, normed, c)
            if kind == "self":
                dbias = dbias + dlogits.sum(axis=0)
            else:
                dmemory += dmem
        for name, dw in zip(names, dweights):
            grads[name] = dw
        dnormed, dg = _norm_b(dy, c_norm)
        grads[gain] = dg
        dx = dx + dnormed
    grads[stack + "_rel_bias"] = _scatter_rows(buckets, dbias.transpose(1, 2, 0), REL_BUCKETS)
    return dx, dmemory


# ---------------------------------------------------------------------------
# Encoder


def _frames_of(spectrogram):
    return np.asarray(getattr(spectrogram, "frames", spectrogram), dtype=float)


def _pad_frames(frame_list, arranger_ids, config):
    """Checked encoder inputs: frames padded with zeros to (B, F, N_MELS),
    each example's frame count, and the arranger ids."""
    for frames, arranger_id in zip(frame_list, arranger_ids):
        if not 0 <= arranger_id < config.num_arrangers:
            raise ParameterError(
                f"arranger id {arranger_id} outside [0, {config.num_arrangers})"
            )
        if frames.ndim != 2 or frames.shape[1] != N_MELS:
            raise ParameterError(f"expected frames shaped (t, {N_MELS}), got {frames.shape}")
        if len(frames) > MAX_FRAMES:
            raise ParameterError(
                f"{len(frames)} frames are over the encoder budget of {MAX_FRAMES}"
            )
    lengths = np.array([len(frames) for frames in frame_list])
    padded = np.zeros((len(frame_list), lengths.max(), N_MELS))
    for row, frames in zip(padded, frame_list):
        row[: len(frames)] = frames
    return padded, lengths, np.array(arranger_ids)


def _encoder_batch(frames, lengths, arranger_ids, params, config):
    """Encoder states (B, 1 + F, d) for frames padded to (B, F, N_MELS).

    Also returns the key mask that hides each example's padded rows, or
    None, for the decoder's cross-attention."""
    x = np.concatenate(
        [params["arranger_emb"][arranger_ids][:, None, :], frames @ params["input_proj"]],
        axis=1,
    )
    mask = _key_mask(lengths + 1, x.shape[1])
    state, cache = _stack_f("enc", x, mask, params, config)
    return state, mask, (frames, arranger_ids, cache)


def encode(spectrogram, arranger_id, params, config: ModelConfig):
    """Encoder states for one segment: arranger row plus one row per frame."""
    state, _, _ = _encoder_batch(
        *_pad_frames([_frames_of(spectrogram)], [arranger_id], config), params, config
    )
    return state[0]


# ---------------------------------------------------------------------------
# Decoder


def _decoder_batch(ids, enc_state, enc_mask, params, config):
    """Next-token logits (B, n, vocab) for decoder inputs ids (B, n)."""
    n = ids.shape[1]
    causal = np.where(np.arange(n)[None, :] > np.arange(n)[:, None], _NEG_INF, 0.0)
    h, cache = _stack_f(
        "dec", params["token_emb"][ids], causal, params, config, enc_state, enc_mask
    )
    scale = config.d_model**-0.5
    logits = (h @ params["token_emb"].T) * scale
    return logits, (ids, h, scale, cache)


def decoder_forward(dec_ids, enc_state, params, config):
    """Next-token logits (n, vocab) for decoder inputs dec_ids (n,)."""
    ids = np.asarray(dec_ids, dtype=int)
    logits, cache = _decoder_batch(ids[None], enc_state[None], None, params, config)
    return logits[0], cache


def decode_step(encoder_state, prefix, params, config: ModelConfig):
    """Next-token logits after a generated prefix."""
    prefix = list(prefix)
    if len(prefix) >= config.max_decode_len:
        raise ParameterError(
            f"prefix length {len(prefix)} reached max_decode_len {config.max_decode_len}"
        )
    logits, _ = decoder_forward([PAD] + prefix, encoder_state, params, config)
    return logits[-1]


class IncrementalDecoder:
    """Decoder state for a batch of windows, fed one token per window
    per step.

    Row i of each step's logits equals decoder_forward over the tokens
    fed to window i so far, with encoder_states[i] as memory, up to
    rounding: each step runs only the new position of every window,
    each weight as one (W, d) matmul.

    Everything that does not depend on the step is prepared once per
    window group. Each RMSNorm gain is folded into the rows of the weight
    its output feeds, and the dh**-0.5 attention scale into the query
    columns: self-attention runs one fused (d, 3d) Q/K/V projection per
    layer, cross-attention one query projection, and the tied head is
    (gain * token_emb.T) scaled by d_model**-0.5. Layer 0's input is a
    token embedding, so its Q/K/V rows are one (vocab, 3d) table
    gathered by token id.
    Cross-attention keys (pre-transposed) and values are projected once
    and zero-padded to the longest window, with a key mask over the
    padding. Self-attention keys and values go, in one write per step,
    into a (layers, 2, W, heads, max_decode_len, dh) cache allocated with
    the decoder. The causal relative bias depends only on the query-key
    distance, so it is one row per distance, shared by all windows.
    """

    def __init__(self, encoder_states, params, config: ModelConfig):
        self.config = config
        self.length = 0
        heads, scale = config.num_heads, config.d_head**-0.5
        lengths = np.array([len(state) for state in encoder_states])
        memory = np.zeros((len(lengths), lengths.max(), config.d_model))
        for row, state in zip(memory, encoder_states):
            row[: len(state)] = state
        distances = relative_position_bucket(-np.arange(config.max_decode_len), False)
        self.bias = params["dec_rel_bias"][distances].T[:, None, :]
        self.layers = []
        for ((g1, (sq, sk, sv, so), _), (g2, (cq, ck, cv, co), _),
             (g3, (ff1, ff2), _)) in stack_layers("dec", config):
            qkv = np.concatenate([params[sq] * scale, params[sk], params[sv]], axis=1)
            self.layers.append((
                params[g1][:, None] * qkv,
                params[so],
                params[g2][:, None] * (params[cq] * scale),
                _split_heads(memory @ params[ck], heads).swapaxes(-1, -2),
                _split_heads(memory @ params[cv], heads),
                params[co],
                params[g3][:, None] * params[ff1],
                params[ff2],
            ))
        emb = params["token_emb"]
        self.embedding = emb
        self.table = (emb * _inv_rms(emb)) @ self.layers[0][0]
        self.head = (params["dec_ln_final"][:, None] * emb.T) * config.d_model**-0.5
        self.mask = _key_mask(lengths, memory.shape[1])
        kv_shape = (2, len(lengths), heads, config.max_decode_len, config.d_head)
        self.self_kv = np.empty((config.num_decoder_layers, *kv_shape))

    def step(self, tokens) -> np.ndarray:
        """Feed each window its next decoder input token (W,); return the
        next-token logits (W, vocab)."""
        config = self.config
        t = self.length
        if t >= config.max_decode_len:
            raise ParameterError(
                f"prefix length {t} reached max_decode_len {config.max_decode_len}"
            )
        tokens = np.asarray(tokens)
        w, heads, dh = len(tokens), config.num_heads, config.d_head
        x = self.embedding[tokens]
        qkv = self.table[tokens]
        bias = self.bias[..., t::-1]
        for i, (wqkv, wo, wq, ckt, cvh, wco, w1, w2) in enumerate(self.layers):
            if i:
                qkv = (x * _inv_rms(x)) @ wqkv
            qkv = qkv.reshape(w, 3, heads, dh)
            kv = self.self_kv[i]
            kv[:, :, :, t] = qkv[:, 1:].swapaxes(0, 1)
            logits = qkv[:, 0, :, None] @ kv[0, :, :, : t + 1].swapaxes(-1, -2) + bias
            x = x + (_softmax(logits) @ kv[1, :, :, : t + 1]).reshape(w, -1) @ wo
            logits = ((x * _inv_rms(x)) @ wq).reshape(w, heads, 1, dh) @ ckt
            if self.mask is not None:
                logits = logits + self.mask
            x = x + (_softmax(logits) @ cvh).reshape(w, -1) @ wco
            x = x + np.maximum((x * _inv_rms(x)) @ w1, 0.0) @ w2
        self.length = t + 1
        return (x * _inv_rms(x)) @ self.head


def greedy_generate_windows(
    spectrograms, arranger_id, params, config: ModelConfig
) -> list[TokenSeq]:
    """Argmax decoding of every window until its EOS or the length cap.

    Windows decode in lockstep, up to _LOCKSTEP_WINDOWS at a time, so
    a group takes each decode step as one batch. A window that has
    emitted EOS keeps stepping with the others until every window of
    its group has stopped; each step's argmaxes go into one (W,
    max_decode_len) array. Ties go to the lowest id. Each window's row
    becomes a segment through tokenizer.generated_segment, which cuts it
    after its first EOS, so each window yields what it would decode
    alone.

    Encoding stays one encode call per window, so a tracer that wraps
    encode still sees each window's encoder time.
    """
    raw = []
    for start in range(0, len(spectrograms), _LOCKSTEP_WINDOWS):
        group = spectrograms[start : start + _LOCKSTEP_WINDOWS]
        decoder = IncrementalDecoder(
            [encode(s, arranger_id, params, config) for s in group], params, config
        )
        ids = np.empty((len(group), config.max_decode_len), dtype=int)
        done = np.zeros(len(group), dtype=bool)
        tokens = np.full(len(group), PAD)
        while decoder.length < config.max_decode_len and not done.all():
            tokens = np.argmax(decoder.step(tokens), axis=-1)
            ids[:, decoder.length - 1] = tokens
            done |= tokens == EOS
        raw += ids[:, : decoder.length].tolist()
    return [generated_segment(row) for row in raw]


def greedy_generate(spectrogram, arranger_id, params, config: ModelConfig) -> TokenSeq:
    """Argmax decoding of one window until EOS or the length cap; see
    greedy_generate_windows."""
    return greedy_generate_windows([spectrogram], arranger_id, params, config)[0]


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
    targets = [np.asarray(tuple(t), dtype=int) for _, _, t in examples]
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
    so the loss equals compute_loss exactly. Every parameter gets a
    gradient, allocated at its first contribution; the dict is in params
    order.
    """
    loss, count, dlogits, e_cache, d_cache = _forward(examples, params, config)
    frames, arranger_ids, encoder = e_cache
    ids, h, scale, decoder = d_cache
    dlogits /= count
    grads = {"token_emb": (_rows(dlogits).T @ _rows(h)) * scale}
    dx, dstate = _stack_b((dlogits @ params["token_emb"]) * scale, decoder, grads)
    grads["token_emb"] += _scatter_rows(ids, dx, VOCAB_SIZE)
    dx, _ = _stack_b(dstate, encoder, grads)
    grads["arranger_emb"] = _scatter_rows(arranger_ids, dx[:, 0], config.num_arrangers)
    grads["input_proj"] = _rows(frames).T @ _rows(dx[:, 1:])
    return loss, {name: grads[name] for name in params}
