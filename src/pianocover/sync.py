"""Chroma-based alignment of a piano cover to its source recording.

A cover performance rarely follows the original's clock. To pair the two
for training, both are reduced to 12-dimensional pitch-class (chroma)
features at a common frame rate, a dynamic-time-warping path is computed
between them, and the cover's note timings are bent through the resulting
piecewise-linear time map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, ParameterError, ValidationError
from .features import stft_mag
from .midi import Note, NoteSequence, TimeUnit

FRAME_RATE = 10.0
# Shorter analysis window than the model frontend: alignment cares about
# where the harmony changes, and 2048 samples halves the temporal smear.
CHROMA_WINDOW = 2048
CHROMA_HOP = 1024

# Costs this close to zero are rounding residue from normalized dot
# products; snapping makes self-alignment cost exactly 0.0.
_COST_SNAP = 1e-12

# Minimal spacing enforced on the warped time axis, in seconds.
_STRICT_EPS = 1e-3


@dataclass(frozen=True)
class Chromagram:
    """Per-frame pitch-class energies, each frame scaled to unit max.

    Frames that contain no energy at all stay identically zero instead
    of being normalized.
    """

    frames: np.ndarray
    frame_rate: float

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=float)
        if frames.ndim != 2 or frames.shape[1] != 12:
            raise ValidationError(
                f"chroma frames must be (n, 12), got {frames.shape}"
            )
        if frames.size and frames.min() < 0:
            raise ValidationError("chroma energies must be nonnegative")
        if self.frame_rate <= 0:
            raise ValidationError("frame_rate must be positive")
        object.__setattr__(self, "frames", _normalize_rows(frames))

    def __len__(self):
        return len(self.frames)


@dataclass(frozen=True)
class WarpPath:
    """Monotone frame correspondence between two chromagrams.

    ``pairs`` holds (source_frame, target_frame) rows starting at (0, 0);
    consecutive rows differ by one of the steps (1,0), (0,1), (1,1).
    ``total_cost`` is the accumulated local cost along the path.
    """

    pairs: np.ndarray
    total_cost: float

    def __post_init__(self):
        pairs = np.asarray(self.pairs, dtype=int)
        if pairs.ndim != 2 or pairs.shape[1] != 2 or len(pairs) == 0:
            raise ValidationError("path must be a nonempty (n, 2) array")
        if tuple(pairs[0]) != (0, 0):
            raise ValidationError("path must start at (0, 0)")
        steps = np.diff(pairs, axis=0)
        legal = {(1, 0), (0, 1), (1, 1)}
        if any(tuple(s) not in legal for s in steps):
            raise ValidationError("path steps must be (1,0), (0,1) or (1,1)")
        object.__setattr__(self, "pairs", pairs)

    def __len__(self):
        return len(self.pairs)


def _normalize_rows(frames):
    peaks = frames.max(axis=1, keepdims=True)
    safe = np.where(peaks > 0, peaks, 1.0)
    return frames / safe


def audio_chroma(audio, sample_rate: int, frame_rate: float = FRAME_RATE) -> Chromagram:
    """Pitch-class energies of an audio signal at a coarse frame rate.

    STFT bin powers are folded onto the 12 pitch classes (A440
    reference), then STFT frames are averaged into buckets of
    1 / frame_rate seconds by their center times.
    """
    audio = np.asarray(audio, dtype=float)
    if audio.size == 0:
        raise ParameterError("audio must be nonempty")
    stft_rate = sample_rate / CHROMA_HOP
    if frame_rate > stft_rate:
        raise ParameterError(
            f"frame_rate {frame_rate} exceeds STFT frame rate {stft_rate:.3f}"
        )

    mag = stft_mag(audio, CHROMA_WINDOW, CHROMA_HOP)
    power = mag**2
    n_bins = power.shape[1]
    freqs = np.arange(n_bins) * sample_rate / CHROMA_WINDOW
    classes = np.full(n_bins, -1)
    voiced = freqs > 0
    pitch = 69.0 + 12.0 * np.log2(freqs[voiced] / 440.0)
    classes[voiced] = np.round(pitch).astype(int) % 12

    per_frame = np.zeros((len(power), 12))
    for c in range(12):
        sel = classes == c
        if sel.any():
            per_frame[:, c] = power[:, sel].sum(axis=1)

    centers = (np.arange(len(per_frame)) * CHROMA_HOP + CHROMA_WINDOW / 2) / sample_rate
    buckets = np.floor(centers * frame_rate).astype(int)
    out = np.zeros((buckets[-1] + 1, 12))
    counts = np.bincount(buckets, minlength=len(out))
    np.add.at(out, buckets, per_frame)
    out[counts > 0] /= counts[counts > 0, None]
    return Chromagram(out, frame_rate)


def midi_chroma(seq: NoteSequence, frame_rate: float = FRAME_RATE) -> Chromagram:
    """Pitch-class indicator counts of the active notes at each frame center."""
    if seq.time_unit is not TimeUnit.SECONDS:
        raise ParameterError("midi_chroma expects a sequence in seconds")
    if len(seq) == 0:
        raise ParameterError("sequence must be nonempty")
    n = max(1, int(np.ceil(seq.duration * frame_rate - 1e-9)))
    times = (np.arange(n) + 0.5) / frame_rate
    frames = np.zeros((n, 12))
    for note in seq:
        i0 = np.searchsorted(times, note.onset, side="left")
        i1 = np.searchsorted(times, note.offset, side="left")
        frames[i0:i1, note.pitch % 12] += 1.0
    return Chromagram(frames, frame_rate)


def chroma_cost(source: Chromagram, target: Chromagram) -> np.ndarray:
    """Pairwise local cost 1 - cosine similarity between chroma frames.

    An all-zero frame costs 1 against any nonzero frame and 0 against
    another all-zero frame.
    """
    s = source.frames
    t = target.frames
    s_norm = np.linalg.norm(s, axis=1)
    t_norm = np.linalg.norm(t, axis=1)
    s_hat = s / np.where(s_norm > 0, s_norm, 1.0)[:, None]
    t_hat = t / np.where(t_norm > 0, t_norm, 1.0)[:, None]
    cost = 1.0 - s_hat @ t_hat.T
    both_zero = (s_norm == 0)[:, None] & (t_norm == 0)[None, :]
    cost[both_zero] = 0.0
    cost[np.abs(cost) < _COST_SNAP] = 0.0
    return cost


def dtw(source: Chromagram, target: Chromagram) -> WarpPath:
    """Minimum-cost monotone alignment between two chromagrams.

    Steps are (1,0), (0,1) and (1,1) with uniform weights; ties in the
    backtrace prefer the diagonal, then the source advance.
    """
    if len(source) == 0 or len(target) == 0:
        raise ParameterError("cannot align an empty chromagram")
    if source.frame_rate != target.frame_rate:
        raise ParameterError("chromagrams must share a frame rate")
    cost = chroma_cost(source, target)
    acc = _accumulate(cost)
    pairs = _backtrace(acc)
    return WarpPath(pairs, float(acc[-1, -1]))


def _accumulate(cost):
    # Antidiagonal sweeps: every cell on diagonal i + j = k depends only
    # on diagonals k-1 and k-2, and each cell is one add plus a
    # three-way min, so the result is bit-identical to a scalar loop.
    n, m = cost.shape
    acc = np.full((n, m), np.inf)
    acc[0, 0] = cost[0, 0]
    for k in range(1, n + m - 1):
        lo = max(0, k - m + 1)
        hi = min(k, n - 1)
        i = np.arange(lo, hi + 1)
        j = k - i
        diag = np.where((i > 0) & (j > 0), acc[np.maximum(i - 1, 0), np.maximum(j - 1, 0)], np.inf)
        up = np.where(i > 0, acc[np.maximum(i - 1, 0), j], np.inf)
        left = np.where(j > 0, acc[i, np.maximum(j - 1, 0)], np.inf)
        acc[i, j] = cost[i, j] + np.minimum(diag, np.minimum(up, left))
    return acc


def _backtrace(acc):
    i, j = acc.shape[0] - 1, acc.shape[1] - 1
    pairs = [(i, j)]
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            best = min(acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1])
            if acc[i - 1, j - 1] == best:
                i, j = i - 1, j - 1
            elif acc[i - 1, j] == best:
                i -= 1
            else:
                j -= 1
        pairs.append((i, j))
    return np.array(pairs[::-1], dtype=int)


def _time_map(path: WarpPath, frame_rate: float):
    pairs = path.pairs
    src_frames, starts = np.unique(pairs[:, 0], return_index=True)
    if len(src_frames) < 2:
        raise AlignmentError("path is degenerate, nothing to interpolate")
    bounds = np.append(starts, len(pairs))
    tgt_mean = np.array(
        [pairs[a:b, 1].mean() for a, b in zip(bounds[:-1], bounds[1:])]
    )
    x = (src_frames + 0.5) / frame_rate
    y = (tgt_mean + 0.5) / frame_rate
    for k in range(1, len(y)):
        y[k] = max(y[k], y[k - 1] + _STRICT_EPS)
    return x, y


def _interp_extrapolate(t, x, y):
    t = np.asarray(t, dtype=float)
    out = np.interp(t, x, y)
    lo_slope = (y[1] - y[0]) / (x[1] - x[0])
    hi_slope = (y[-1] - y[-2]) / (x[-1] - x[-2])
    below = t < x[0]
    above = t > x[-1]
    out = np.where(below, y[0] + (t - x[0]) * lo_slope, out)
    out = np.where(above, y[-1] + (t - x[-1]) * hi_slope, out)
    return out


def apply_warp(seq: NoteSequence, path: WarpPath, frame_rate: float = FRAME_RATE) -> NoteSequence:
    """Remap note timings through the piecewise-linear map induced by a path.

    Each source frame anchors to the mean of its matched target frames;
    the anchor sequence is made strictly increasing before interpolation
    so durations stay positive.
    """
    if seq.time_unit is not TimeUnit.SECONDS:
        raise ParameterError("apply_warp expects a sequence in seconds")
    x, y = _time_map(path, frame_rate)
    notes = []
    for note in seq:
        onset, offset = _interp_extrapolate([note.onset, note.offset], x, y)
        notes.append(Note(float(onset), note.pitch, float(offset), note.velocity))
    duration = float(_interp_extrapolate([seq.duration], x, y)[0])
    return NoteSequence.build(notes, TimeUnit.SECONDS, duration=duration)


def align_to_audio(
    seq: NoteSequence,
    audio,
    sample_rate: int,
    frame_rate: float = FRAME_RATE,
) -> NoteSequence:
    """Warp a cover's note timings onto the timeline of a recording."""
    source = midi_chroma(seq, frame_rate)
    target = audio_chroma(audio, sample_rate, frame_rate)
    path = dtw(source, target)
    return apply_warp(seq, path, frame_rate)
