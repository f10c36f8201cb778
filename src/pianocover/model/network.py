"""Encoder-decoder transformer in plain numpy, forward and backward.

Topology: pre-norm residual blocks with RMSNorm, multi-head attention
with T5-style relative position bias in the self-attention stacks
(bidirectional buckets in the encoder, causal buckets in the decoder,
one table per stack shared across its layers, none in cross-attention),
a ReLU feed-forward, and a token embedding tied to the output head with
a d_model**-0.5 logit scale. The encoder input is the arranger
embedding row concatenated before the projected mel frames.

Gradients are hand-derived. Batch members are accumulated in list
order, so training is bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import logging

import numpy as np

from ..errors import ParameterError
from ..midi import PIANO_PITCH_MAX, PIANO_PITCH_MIN
from ..tokenizer import EOS, PAD, SEGMENT_HALFBEATS, TokenSeq, symbol
from .config import ModelConfig

log = logging.getLogger(__name__)

_NEG_INF = -1e30
_NORM_EPS = 1e-6


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


def _bias_matrix(table, n_queries, n_memory, bidirectional, config):
    rel = np.arange(n_memory)[None, :] - np.arange(n_queries)[:, None]
    buckets = relative_position_bucket(
        rel,
        bidirectional,
        config.relative_bias_buckets,
        config.relative_bias_max_distance,
    )
    return table[buckets].transpose(2, 0, 1), buckets


def _accumulate_bias(dtable, buckets, dbias):
    heads = dbias.shape[0]
    np.add.at(
        dtable,
        buckets.reshape(-1),
        dbias.transpose(1, 2, 0).reshape(-1, heads),
    )


# ---------------------------------------------------------------------------
# Layer primitives, each forward returning (out, cache)


def _norm_f(x, g):
    inv = 1.0 / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + _NORM_EPS)
    return x * inv * g, (x, g, inv)


def _norm_b(dout, cache):
    x, g, inv = cache
    d = x.shape[-1]
    dg = np.sum(dout * x * inv, axis=0)
    dyg = dout * g
    dot = np.sum(dyg * x, axis=-1, keepdims=True)
    dx = dyg * inv - x * inv**3 * dot / d
    return dx, dg


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _attn_f(y, wq, wk, wv, wo, bias, mask, heads, memory=None):
    src = y if memory is None else memory
    n_q, d = y.shape
    n_m = src.shape[0]
    dh = d // heads
    qh = (y @ wq).reshape(n_q, heads, dh).transpose(1, 0, 2)
    kh = (src @ wk).reshape(n_m, heads, dh).transpose(1, 0, 2)
    vh = (src @ wv).reshape(n_m, heads, dh).transpose(1, 0, 2)
    scale = dh**-0.5
    logits = np.einsum("hqd,hmd->hqm", qh, kh) * scale
    if bias is not None:
        logits = logits + bias
    if mask is not None:
        logits = logits + mask
    att = _softmax(logits)
    merged = np.einsum("hqm,hmd->hqd", att, vh).transpose(1, 0, 2).reshape(n_q, d)
    out = merged @ wo
    cache = (y, src, memory is None, qh, kh, vh, att, merged, wq, wk, wv, wo, scale)
    return out, cache


def _attn_b(dout, cache):
    y, src, is_self, qh, kh, vh, att, merged, wq, wk, wv, wo, scale = cache
    n_q, d = y.shape
    n_m = src.shape[0]
    heads = qh.shape[0]
    dh = d // heads
    dwo = merged.T @ dout
    dz = (dout @ wo.T).reshape(n_q, heads, dh).transpose(1, 0, 2)
    datt = np.einsum("hqd,hmd->hqm", dz, vh)
    dvh = np.einsum("hqm,hqd->hmd", att, dz)
    dlogits = att * (datt - np.sum(datt * att, axis=-1, keepdims=True))
    dqh = np.einsum("hqm,hmd->hqd", dlogits, kh) * scale
    dkh = np.einsum("hqm,hqd->hmd", dlogits, qh) * scale
    dq = dqh.transpose(1, 0, 2).reshape(n_q, d)
    dk = dkh.transpose(1, 0, 2).reshape(n_m, d)
    dv = dvh.transpose(1, 0, 2).reshape(n_m, d)
    dwq = y.T @ dq
    dwk = src.T @ dk
    dwv = src.T @ dv
    dy = dq @ wq.T
    dsrc = dk @ wk.T + dv @ wv.T
    if is_self:
        return dy + dsrc, None, (dwq, dwk, dwv, dwo), dlogits
    return dy, dsrc, (dwq, dwk, dwv, dwo), dlogits


def _ffn_f(y, w1, w2):
    a = y @ w1
    h = np.maximum(a, 0.0)
    return h @ w2, (y, a, h, w1, w2)


def _ffn_b(dout, cache):
    y, a, h, w1, w2 = cache
    dw2 = h.T @ dout
    da = (dout @ w2.T) * (a > 0)
    dw1 = y.T @ da
    return da @ w1.T, dw1, dw2


# ---------------------------------------------------------------------------
# Encoder


def _frames_of(spectrogram):
    return np.asarray(getattr(spectrogram, "frames", spectrogram), dtype=float)


def encoder_forward(frames, arranger_id, params, config):
    if not 0 <= arranger_id < config.num_arrangers:
        raise ParameterError(
            f"arranger id {arranger_id} outside [0, {config.num_arrangers})"
        )
    if frames.ndim != 2 or frames.shape[1] != config.n_mels:
        raise ParameterError(
            f"expected frames shaped (t, {config.n_mels}), got {frames.shape}"
        )
    x = np.concatenate(
        [params["arranger_emb"][arranger_id][None, :], frames @ params["input_proj"]],
        axis=0,
    )
    n = len(x)
    bias, buckets = _bias_matrix(params["enc_rel_bias"], n, n, True, config)
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
            None,
            config.num_heads,
        )
        x = x + attn
        normed, c_ln2 = _norm_f(x, params[p + "ln2"])
        ff, c_ffn = _ffn_f(normed, params[p + "ff1"], params[p + "ff2"])
        x = x + ff
        layer_caches.append((c_ln1, c_attn, c_ln2, c_ffn))
    state, c_final = _norm_f(x, params["enc_ln_final"])
    return state, (frames, arranger_id, buckets, layer_caches, c_final)


def encoder_backward(dstate, cache, config, grads):
    frames, arranger_id, buckets, layer_caches, c_final = cache
    dx, dg = _norm_b(dstate, c_final)
    grads["enc_ln_final"] += dg
    for i in reversed(range(config.num_encoder_layers)):
        p = f"enc{i}_"
        c_ln1, c_attn, c_ln2, c_ffn = layer_caches[i]
        dff, dw1, dw2 = _ffn_b(dx, c_ffn)
        grads[p + "ff1"] += dw1
        grads[p + "ff2"] += dw2
        dnormed, dg = _norm_b(dff, c_ln2)
        grads[p + "ln2"] += dg
        dx = dx + dnormed
        dattn_in, _, (dwq, dwk, dwv, dwo), dbias = _attn_b(dx, c_attn)
        grads[p + "q"] += dwq
        grads[p + "k"] += dwk
        grads[p + "v"] += dwv
        grads[p + "o"] += dwo
        _accumulate_bias(grads["enc_rel_bias"], buckets, dbias)
        dnormed, dg = _norm_b(dattn_in, c_ln1)
        grads[p + "ln1"] += dg
        dx = dx + dnormed
    grads["arranger_emb"][arranger_id] += dx[0]
    grads["input_proj"] += frames.T @ dx[1:]


def encode(spectrogram, arranger_id, params, config: ModelConfig):
    """Encoder states for one segment: arranger row plus one row per frame."""
    state, _ = encoder_forward(_frames_of(spectrogram), arranger_id, params, config)
    return state


# ---------------------------------------------------------------------------
# Decoder


def decoder_forward(dec_ids, enc_state, params, config):
    ids = np.asarray(dec_ids, dtype=int)
    n = len(ids)
    x = params["token_emb"][ids]
    bias, buckets = _bias_matrix(params["dec_rel_bias"], n, n, False, config)
    causal = np.where(
        np.arange(n)[None, :] > np.arange(n)[:, None], _NEG_INF, 0.0
    )[None]
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
            None,
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


def decoder_backward(dlogits, cache, params, config, grads):
    """Backward through the decoder; returns the encoder-state gradient."""
    ids, enc_state, buckets, layer_caches, c_final, h, scale = cache
    grads["token_emb"] += (dlogits.T @ h) * scale
    dh = (dlogits @ params["token_emb"]) * scale
    dx, dg = _norm_b(dh, c_final)
    grads["dec_ln_final"] += dg
    denc = np.zeros_like(enc_state)
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
        dself_in, _, (dwq, dwk, dwv, dwo), dbias = _attn_b(dx, c_self)
        grads[p + "sq"] += dwq
        grads[p + "sk"] += dwk
        grads[p + "sv"] += dwv
        grads[p + "so"] += dwo
        _accumulate_bias(grads["dec_rel_bias"], buckets, dbias)
        dnormed, dg = _norm_b(dself_in, c_ln1)
        grads[p + "ln1"] += dg
        dx = dx + dnormed
    np.add.at(grads["token_emb"], ids, dx)
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


def _attend_one(q, kh, vh, wo, bias):
    """One query row (1, d) against per-head keys and values (heads, n, dh).

    bias, shaped (heads, n), marks self-attention: the full-sequence
    path adds a float64 causal mask there, which promotes the logits, so
    this path promotes them too and float32 parameters decode alike.
    """
    heads, _, dh = kh.shape
    logits = np.einsum("hd,hmd->hm", q.reshape(heads, dh), kh) * dh**-0.5
    if bias is not None:
        logits = (logits + bias).astype(np.float64, copy=False)
    att = _softmax(logits)
    return np.einsum("hm,hmd->hd", att, vh).reshape(1, -1) @ wo


class IncrementalDecoder:
    """Decoder state for one encoder output, fed one token per step.

    Equivalent to decoder_forward over the tokens fed so far, but each
    step runs only the new position: cross-attention keys and values are
    projected once, self-attention keys and values are appended to a
    preallocated per-layer cache, and the causal relative bias depends
    only on the query-key distance, so it is one row per distance.
    """

    def __init__(self, encoder_state, params, config: ModelConfig):
        self.params = params
        self.config = config
        self.length = 0
        n_m = len(encoder_state)
        heads, dh = config.num_heads, config.d_head
        distances = relative_position_bucket(
            -np.arange(config.max_decode_len),
            False,
            config.relative_bias_buckets,
            config.relative_bias_max_distance,
        )
        self.bias = params["dec_rel_bias"][distances]
        self.cross = []
        for i in range(config.num_decoder_layers):
            p = f"dec{i}_"
            kh, vh = (
                (encoder_state @ params[p + w]).reshape(n_m, heads, dh).transpose(1, 0, 2)
                for w in ("ck", "cv")
            )
            self.cross.append((kh, vh))
        # Allocated on the first step, in the dtype the projections take.
        self.self_kv = [None] * config.num_decoder_layers

    def step(self, token) -> np.ndarray:
        """Feed the next decoder input token; return the next-token logits."""
        params, config = self.params, self.config
        t = self.length
        if t >= config.max_decode_len:
            raise ParameterError(
                f"prefix length {t} reached max_decode_len {config.max_decode_len}"
            )
        heads, dh = config.num_heads, config.d_head
        x = params["token_emb"][[token]]
        for i, (ckh, cvh) in enumerate(self.cross):
            p = f"dec{i}_"
            normed, _ = _norm_f(x, params[p + "ln1"])
            k = (normed @ params[p + "sk"]).reshape(heads, dh)
            v = (normed @ params[p + "sv"]).reshape(heads, dh)
            if self.self_kv[i] is None:
                self.self_kv[i] = np.empty((2, heads, config.max_decode_len, dh), k.dtype)
            skh, svh = self.self_kv[i]
            skh[:, t] = k
            svh[:, t] = v
            x = x + _attend_one(
                normed @ params[p + "sq"],
                skh[:, : t + 1],
                svh[:, : t + 1],
                params[p + "so"],
                self.bias[t::-1].T,
            )
            normed, _ = _norm_f(x, params[p + "ln2"])
            x = x + _attend_one(normed @ params[p + "cq"], ckh, cvh, params[p + "co"], None)
            normed, _ = _norm_f(x, params[p + "ln3"])
            ff, _ = _ffn_f(normed, params[p + "ff1"], params[p + "ff2"])
            x = x + ff
        self.length = t + 1
        h, _ = _norm_f(x, params["dec_ln_final"])
        return (h @ params["token_emb"].T)[0] * config.d_model**-0.5


def greedy_generate(spectrogram, arranger_id, params, config: ModelConfig) -> TokenSeq:
    """Argmax decoding until EOS or the length cap.

    Ties go to the lowest id. PAD tokens, beat shifts that would break
    the segment grammar, and pitches outside the piano range are
    dropped from the returned sequence.
    """
    decoder = IncrementalDecoder(
        encode(spectrogram, arranger_id, params, config), params, config
    )
    raw = []
    nxt = PAD
    for _ in range(config.max_decode_len):
        nxt = int(np.argmax(decoder.step(nxt)))
        raw.append(nxt)
        if nxt == EOS:
            break
    if raw[-1] != EOS:
        log.warning("generation hit max_decode_len %d without EOS", config.max_decode_len)
    return _usable_tokens(raw)


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
            # TokenSeq caps cumulative shift at 100 half-beats.
            if shift_total + sym[1] > 100:
                dropped += 1
                continue
            shift_total += sym[1]
        if sym[0] == "pitch" and not PIANO_PITCH_MIN <= sym[1] <= PIANO_PITCH_MAX:
            dropped += 1
            continue
        ids.append(t)
    if dropped:
        log.warning("dropped %d unusable generated tokens", dropped)
    return TokenSeq(tuple(ids), SEGMENT_HALFBEATS)


# ---------------------------------------------------------------------------
# Loss


def _ce_rows(logits, targets):
    """Per-position cross entropy with PAD targets masked out.

    Returns (nll sum, masked count, dlogits before normalization)."""
    mask = targets != PAD
    m = logits.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(logits - m).sum(axis=-1, keepdims=True))
    logp = logits - lse
    rows = np.flatnonzero(mask)
    nll = -logp[rows, targets[rows]].sum()
    dlogits = np.exp(logp)
    dlogits[~mask] = 0.0
    dlogits[rows, targets[rows]] -= 1.0
    return nll, len(rows), dlogits


def _prepare(example, config):
    frames, arranger_id, targets = example
    targets = np.asarray(
        targets.ids if isinstance(targets, TokenSeq) else tuple(targets), dtype=int
    )
    if len(targets) > config.max_decode_len:
        raise ParameterError(
            f"target length {len(targets)} over max_decode_len {config.max_decode_len}"
        )
    dec_in = np.concatenate([[PAD], targets[:-1]])
    return _frames_of(frames), arranger_id, dec_in, targets


def compute_loss(examples, params, config: ModelConfig) -> float:
    """Teacher-forced mean cross entropy over non-PAD target positions."""
    if not examples:
        raise ParameterError("empty batch")
    total = 0.0
    count = 0
    for example in examples:
        frames, arranger_id, dec_in, targets = _prepare(example, config)
        state, _ = encoder_forward(frames, arranger_id, params, config)
        logits, _ = decoder_forward(dec_in, state, params, config)
        nll, n, _ = _ce_rows(logits, targets)
        total += nll
        count += n
    if count == 0:
        raise ParameterError("batch contains no non-PAD targets")
    return total / count


def loss_and_grads(examples, params, config: ModelConfig):
    """Batch loss and parameter gradients.

    Examples are (frames, arranger_id, target ids) triples; gradients
    accumulate in list order for bit-reproducibility.
    """
    if not examples:
        raise ParameterError("empty batch")
    states = []
    total = 0.0
    count = 0
    for example in examples:
        frames, arranger_id, dec_in, targets = _prepare(example, config)
        state, e_cache = encoder_forward(frames, arranger_id, params, config)
        logits, d_cache = decoder_forward(dec_in, state, params, config)
        nll, n, dlogits = _ce_rows(logits, targets)
        total += nll
        count += n
        states.append((e_cache, d_cache, dlogits))
    if count == 0:
        raise ParameterError("batch contains no non-PAD targets")
    grads = zero_grads(params)
    for e_cache, d_cache, dlogits in states:
        denc = decoder_backward(dlogits / count, d_cache, params, config, grads)
        encoder_backward(denc, e_cache, config, grads)
    return total / count, grads
