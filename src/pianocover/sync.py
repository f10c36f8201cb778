"""Chroma-based alignment of a piano cover to its source recording.

A cover performance rarely follows the original's clock. To pair the two
for training, both are reduced to 12-dimensional pitch-class (chroma)
features on one fixed clock of FRAME_RATE = 10 frames per second, a
dynamic-time-warping path is computed between them, and the cover's note
timings are bent through the resulting piecewise-linear time map.  Audio
is read at ``features.SAMPLE_RATE``, the rate fixed after ``load_wav``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, ParameterError, ValidationError
from .features import SAMPLE_RATE, check_sample_rate, num_frames, pooled_stft
from .midi import Note, NoteSequence, TimeUnit

FRAME_RATE = 10.0  # chroma frames per second, for audio and MIDI alike
# Shorter analysis window than the model frontend: alignment cares about
# where the harmony changes, and 2048 samples halves the temporal smear.
CHROMA_WINDOW = 2048
CHROMA_HOP = 1024

# Costs this close to zero are rounding residue from normalized dot
# products; snapping makes self-alignment cost exactly 0.0.
_COST_SNAP = 1e-12
# Cost rows snapped per pass: each pass holds two boolean masks of this
# many rows.
_SNAP_ROWS = 256

# Minimal spacing enforced on the warped time axis, in seconds.
_STRICT_EPS = 1e-3

# Largest source x target frame product dtw will align: 10 minutes against
# 10 minutes at FRAME_RATE.  dtw holds about 8.4 bytes per cell (one float64
# matrix, accumulated in place, plus two boolean masks over a block of rows
# while the cost is built), so this caps it near 0.30 GB.
MAX_DTW_CELLS = 36_000_000


@dataclass(frozen=True)
class Chromagram:
    """Per-frame pitch-class energies, each frame scaled to unit max.

    Frames that contain no energy at all stay identically zero instead
    of being normalized.
    """

    frames: np.ndarray

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=float)
        if frames.ndim != 2 or frames.shape[1] != 12:
            raise ValidationError(
                f"chroma frames must be (n, 12), got {frames.shape}"
            )
        if frames.size and frames.min() < 0:
            raise ValidationError("chroma energies must be nonnegative")
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
        legal = ((steps == 0) | (steps == 1)).all(axis=1) & steps.any(axis=1)
        if not legal.all():
            raise ValidationError("path steps must be (1,0), (0,1) or (1,1)")
        object.__setattr__(self, "pairs", pairs)

    def __len__(self):
        return len(self.pairs)


def _normalize_rows(frames):
    peaks = frames.max(axis=1, keepdims=True)
    safe = np.where(peaks > 0, peaks, 1.0)
    return frames / safe


def _fold_chroma(power):
    """Sum the bin powers of a CHROMA_WINDOW power block per pitch class."""
    n_bins = power.shape[1]
    freqs = np.arange(n_bins) * SAMPLE_RATE / CHROMA_WINDOW
    classes = np.full(n_bins, -1)
    voiced = freqs > 0
    pitch = 69.0 + 12.0 * np.log2(freqs[voiced] / 440.0)
    classes[voiced] = np.round(pitch).astype(int) % 12

    per_frame = np.zeros((len(power), 12))
    for c in range(12):
        sel = classes == c
        if sel.any():
            per_frame[:, c] = power[:, sel].sum(axis=1)
    return per_frame


def audio_chroma(audio) -> Chromagram:
    """Pitch-class energies of SAMPLE_RATE audio at FRAME_RATE.

    STFT bin powers are folded onto the 12 pitch classes (A440 reference), then
    STFT frames are averaged into buckets of 1 / FRAME_RATE s by center time.
    """
    audio = np.asarray(audio)
    if audio.size == 0:
        raise ParameterError("audio must be nonempty")
    # At 22050 Hz, about 21.5 STFT frames per second feed the 10 Hz chroma clock.
    per_frame = pooled_stft(audio, CHROMA_WINDOW, CHROMA_HOP, _fold_chroma)
    buckets = _chroma_buckets(np.arange(len(per_frame)))
    out = np.zeros((buckets[-1] + 1, 12))
    counts = np.bincount(buckets, minlength=len(out))
    np.add.at(out, buckets, per_frame)
    out[counts > 0] /= counts[counts > 0, None]
    return Chromagram(out)


def _chroma_buckets(stft_frames: np.ndarray) -> np.ndarray:
    """The chroma frame of each chroma STFT frame index: the FRAME_RATE
    bucket its center time falls in."""
    centers = (stft_frames * CHROMA_HOP + CHROMA_WINDOW / 2) / SAMPLE_RATE
    return np.floor(centers * FRAME_RATE).astype(int)


def _audio_chroma_frames(num_samples: int) -> int:
    """len(audio_chroma(audio)) for audio of ``num_samples`` samples, or 0
    when the audio holds no STFT frame."""
    stft_frames = num_frames(num_samples, CHROMA_WINDOW, CHROMA_HOP)
    if stft_frames == 0:
        return 0
    return int(_chroma_buckets(np.array([stft_frames - 1]))[0]) + 1


def _midi_chroma_frames(duration: float) -> int:
    """len(midi_chroma(seq)) for a sequence of ``duration`` seconds."""
    return max(1, int(np.ceil(duration * FRAME_RATE - 1e-9)))


def midi_chroma(seq: NoteSequence) -> Chromagram:
    """Pitch-class indicator counts of the active notes at each frame center."""
    if seq.time_unit is not TimeUnit.SECONDS:
        raise ParameterError("midi_chroma expects a sequence in seconds")
    if len(seq) == 0:
        raise ParameterError("sequence must be nonempty")
    n = _midi_chroma_frames(seq.duration)
    times = (np.arange(n) + 0.5) / FRAME_RATE
    frames = np.zeros((n, 12))
    for note in seq:
        i0 = np.searchsorted(times, note.onset, side="left")
        i1 = np.searchsorted(times, note.offset, side="left")
        frames[i0:i1, note.pitch % 12] += 1.0
    return Chromagram(frames)


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
    cost = s_hat @ t_hat.T
    np.subtract(1.0, cost, out=cost)
    cost[np.ix_(s_norm == 0, t_norm == 0)] = 0.0
    # The snap is elementwise, so a block of rows at a time gives the same
    # bits without two whole-matrix masks.
    for start in range(0, len(cost), _SNAP_ROWS):
        rows = cost[start : start + _SNAP_ROWS]
        rows[(rows < _COST_SNAP) & (rows > -_COST_SNAP)] = 0.0
    return cost


def _check_dtw_budget(source_frames: int, target_frames: int):
    cells = source_frames * target_frames
    if cells > MAX_DTW_CELLS:
        raise AlignmentError(
            f"aligning {source_frames} to {target_frames} chroma frames needs {cells} "
            f"DTW cells, over the budget of {MAX_DTW_CELLS}"
        )


def dtw(source: Chromagram, target: Chromagram) -> WarpPath:
    """Minimum-cost monotone alignment between two chromagrams.

    Steps are (1,0), (0,1) and (1,1) with uniform weights; ties in the
    backtrace prefer the diagonal, then the source advance.  A pair of
    more than MAX_DTW_CELLS frames raises AlignmentError before any
    matrix is allocated.
    """
    if len(source) == 0 or len(target) == 0:
        raise ParameterError("cannot align an empty chromagram")
    _check_dtw_budget(len(source), len(target))
    acc = _accumulate(chroma_cost(source, target))
    pairs = _backtrace(acc)
    return WarpPath(pairs, float(acc[-1, -1]))


def _accumulate(cost):
    """Accumulated DTW cost, computed in place in the C-contiguous ``cost``.

    The first row and column are running sums (np.cumsum adds in order).
    Then antidiagonal sweeps: every inner cell on diagonal i + j = k
    depends only on diagonals k-1 and k-2, and each cell is one add plus a
    three-way min, so the result is bit-identical to a scalar loop.  In
    the flat array a diagonal and its up, left and diagonal neighbours
    are all slices with step m - 1.
    """
    n, m = cost.shape
    np.cumsum(cost[0], out=cost[0])
    np.cumsum(cost[:, 0], out=cost[:, 0])
    if n == 1 or m == 1:
        return cost
    flat = cost.reshape(-1)
    step = m - 1
    for k in range(2, n + m - 1):
        lo = max(1, k - m + 1)
        hi = min(k - 1, n - 1)
        start = lo * m + k - lo  # flat index of cell (lo, k - lo)
        cells = slice(start, start + (hi - lo) * step + 1, step)
        up = slice(start - m, cells.stop - m, step)
        left = slice(start - 1, cells.stop - 1, step)
        diag = slice(start - m - 1, cells.stop - m - 1, step)
        flat[cells] += np.minimum(flat[diag], np.minimum(flat[up], flat[left]))
    return cost


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


def _time_map(path: WarpPath):
    pairs = path.pairs
    src_frames, starts, counts = np.unique(
        pairs[:, 0], return_index=True, return_counts=True
    )
    if len(src_frames) < 2:
        raise AlignmentError("path is degenerate, nothing to interpolate")
    # Integer sums are exact, so this is the float mean of each run.
    tgt_mean = np.add.reduceat(pairs[:, 1], starts) / counts
    x = (src_frames + 0.5) / FRAME_RATE
    y = (tgt_mean + 0.5) / FRAME_RATE
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


def apply_warp(seq: NoteSequence, path: WarpPath) -> NoteSequence:
    """Remap note timings through the piecewise-linear map induced by a path.

    Each source frame anchors to the mean of its matched target frames;
    the anchor sequence is made strictly increasing before interpolation
    so durations stay positive.
    """
    if seq.time_unit is not TimeUnit.SECONDS:
        raise ParameterError("apply_warp expects a sequence in seconds")
    x, y = _time_map(path)
    times = [t for note in seq for t in (note.onset, note.offset)]
    warped = _interp_extrapolate(times + [seq.duration], x, y).tolist()
    notes = [
        Note(onset, note.pitch, offset, note.velocity)
        for note, onset, offset in zip(seq, warped[0:-1:2], warped[1:-1:2])
    ]
    return NoteSequence.build(notes, TimeUnit.SECONDS, duration=warped[-1])


def align_to_audio(seq: NoteSequence, audio, sample_rate: int = SAMPLE_RATE) -> NoteSequence:
    """Warp a cover's note timings onto the timeline of a recording.

    The DTW budget is checked from the song lengths before either
    chromagram is built, so an over-long cover allocates nothing.
    A ``sample_rate`` (kept for the benchmark) but SAMPLE_RATE raises
    ParameterError first.
    """
    check_sample_rate(sample_rate)
    _check_dtw_budget(_midi_chroma_frames(seq.duration), _audio_chroma_frames(len(audio)))
    path = dtw(midi_chroma(seq), audio_chroma(audio))
    return apply_warp(seq, path)
