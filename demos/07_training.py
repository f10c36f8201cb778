"""
Training the spectrogram-to-tokens transformer
==============================================

The model is a small encoder-decoder transformer written in plain
numpy, gradients and all. The encoder reads an arranger embedding plus
one projected row per spectrogram frame; the decoder emits cover tokens
autoregressively. This script overfits one example to show the loop
working end to end.
"""

import math

import numpy as np

from pianocover.midi import Note, NoteSequence, TimeUnit
from pianocover.model import (
    TrainConfig,
    compute_loss,
    count_params,
    desk_config,
    greedy_generate,
    init_params,
    train,
)
from pianocover.model.config import N_MELS
from pianocover.tokenizer import VOCAB_SIZE, encode_segment

# A small configuration, enough to memorize a handful of segments.
config = desk_config(
    d_model=32,
    num_heads=4,
    d_ff=64,
    num_encoder_layers=1,
    num_decoder_layers=1,
    num_arrangers=2,
    relative_bias_buckets=8,
    relative_bias_max_distance=16,
    max_decode_len=64,
)
params = init_params(config, seed=0)
print(f"{len(params)} parameter tensors, {count_params(config):,} parameters")

# One training pair: a random spectrogram of N_MELS log-mel channels per
# frame, the frontend's fixed width, and a real token target.
rng = np.random.default_rng(0)
frames = rng.normal(size=(8, N_MELS))
target = encode_segment(
    NoteSequence.build(
        [Note(t, 60 + 2 * t, t + 2) for t in range(6)], TimeUnit.HALF_BEATS
    )
)
dataset = [(frames, 0, target)]

# Before training the model knows nothing: cross entropy sits at the
# uniform-guess level, ln(vocab).
loss0 = compute_loss(dataset, params, config)
print(f"initial loss {loss0:.3f}, ln({VOCAB_SIZE}) = {math.log(VOCAB_SIZE):.3f}")

train_config = TrainConfig(epochs=500, batch_size=1, learning_rate=0.001, seed=0)
params, history = train(dataset, train_config, config)
print(f"after {len(history)} steps: loss {history[-1]:.5f}")

# Greedy decoding now reproduces the memorized tokens.
generated = greedy_generate(frames, 0, params, config)
print(f"decode matches target: {generated.ids == target.ids}")
