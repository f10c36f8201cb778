"""
Log-Mel spectrograms, the model's ears
======================================

The transformer never sees raw samples. Audio is windowed into an STFT,
pooled through a triangular mel filterbank, and log-compressed. This
script synthesizes a note and shows where its energy lands.
"""

import numpy as np

from pianocover.features import (
    HOP,
    N_MELS,
    SAMPLE_RATE,
    WINDOW,
    mel_bands,
    melspectrogram,
)
from pianocover.midi import Note, NoteSequence
from pianocover.pipeline import render_sine_audio

# One second of A4 (440 Hz).
audio = render_sine_audio(NoteSequence.build([Note(0.0, 69, 1.0)], duration=1.0), SAMPLE_RATE)

spec = melspectrogram(audio)
frames = spec.frames
rate = SAMPLE_RATE / HOP
print(f"window {WINDOW}, hop {HOP} -> {frames.shape[0]} frames x {frames.shape[1]} mel bins")
print(f"frame rate {rate:.1f} Hz, value range [{frames.min():.1f}, {frames.max():.1f}] (log scale)")

# The filterbank tells us which frequency each mel bin is centered on.
# It is stored as slabs of 8 filters over the STFT bins they touch; the
# hottest bin's slab column should center on the note's frequency.
hot = int(np.argmax(frames.mean(axis=0)))
first, lo, slab = mel_bands(WINDOW, N_MELS)[hot // 8]
weights = slab[:, hot - first]
freqs = np.fft.rfftfreq(WINDOW, 1 / SAMPLE_RATE)[lo : lo + len(slab)]
peak_hz = (weights * freqs).sum() / weights.sum()
print(f"strongest mel bin {hot}, centered near {peak_hz:.0f} Hz (note is 440 Hz)")

# Silence is not minus infinity: energies are floored before the log,
# so an all-zero signal gives a flat, finite spectrogram.
quiet = melspectrogram(np.zeros(SAMPLE_RATE // 2))
print(f"silence maps to a constant {quiet.frames.min():.1f} everywhere: "
      f"{np.all(quiet.frames == quiet.frames.min())}")
