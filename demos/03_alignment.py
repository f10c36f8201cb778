"""
Aligning a cover MIDI to its source audio
=========================================

Covers are performed freely, so their MIDI timeline drifts against the
original recording. The sync stage extracts 12-bin chroma from both
sides, finds the minimum-cost monotone correspondence with dynamic time
warping, and warps the MIDI onto the audio clock.
"""

import numpy as np

from pianocover.beats import BeatGrid, halfbeats_to_seconds
from pianocover.features import SAMPLE_RATE
from pianocover.midi import Note, NoteSequence, TimeUnit
from pianocover.pipeline import render_sine_audio
from pianocover.sync import align_to_audio, audio_chroma, dtw, midi_chroma

# Ground truth: a short diatonic piece on a steady 120 BPM grid.
grid = BeatGrid(0.25 + 0.5 * np.arange(16))
pitches = [60, 64, 67, 72, 67, 64, 60, 55, 57, 59, 60, 62, 64, 65, 67, 72]
truth = halfbeats_to_seconds(
    NoteSequence.build(
        [Note(t, p, t + 2) for t, p in enumerate(pitches)], TimeUnit.HALF_BEATS
    ),
    grid,
)
audio = render_sine_audio(truth, SAMPLE_RATE)
print(f"rendered {len(audio) / SAMPLE_RATE:.1f}s of audio from {len(truth.notes)} notes")

# Simulate a sloppy performance: the first half rushes 10%, the second
# half drags 12%.
mid = truth.duration / 2
def drift(t):
    return 0.9 * t if t < mid else 0.9 * mid + 1.12 * (t - mid)

played = NoteSequence.build(
    [Note(drift(n.onset), n.pitch, drift(n.offset), n.velocity) for n in truth],
    TimeUnit.SECONDS,
)

# The chroma views both run at 10 frames per second.
path = dtw(midi_chroma(played), audio_chroma(audio))
print(f"warp path: {len(path)} steps, accumulated cost {path.total_cost:.3f}")

# align_to_audio wraps the whole chain: chroma, DTW, time-map, warp.
recovered = align_to_audio(played, audio)
errors = 1000 * np.array(
    [abs(r.onset - t.onset) for r, t in zip(recovered, truth)]
)
print(f"onset error after alignment: median {np.median(errors):.0f}ms, worst {errors.max():.0f}ms")
