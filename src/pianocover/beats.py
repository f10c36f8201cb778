"""Beat grids, half-beat quantization, and a DP beat tracker.

The half-beat (8th note) grid is derived from detected quarter-note beats:
even positions are the beats themselves, odd positions the midpoints of
adjacent beats, plus one trailing midpoint extrapolated from the last
inter-beat interval.  Quantization snaps note times to the nearest half-beat
index (ties round down) and applies the collision rule: an offset landing on
its own onset moves to the next half-beat.  The tracker reads audio at
``features.SAMPLE_RATE``, the rate fixed after ``load_wav``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import features
from .errors import NoBeatsError, ParameterError, ValidationError, read_text
from .midi import Note, NoteSequence, TimeUnit

log = logging.getLogger(__name__)

# Beat tracker knobs.  The onset frontend runs the same STFT/mel machinery
# as the model input but at a sharper window so click-level timing survives;
# the higher log floor keeps near-silence wiggle out of the flux.
TEMPO_MIN_BPM = 60.0
TEMPO_MAX_BPM = 180.0
MIN_TRACK_SECONDS = 5.0
_TIGHTNESS = 100.0
_ONSET_WINDOW = 1024
_ONSET_HOP = 256
_ONSET_MELS = 64
_ONSET_FLOOR = 1e-2
_ONSET_FRAME_RATE = features.SAMPLE_RATE / _ONSET_HOP  # envelope frames per second
# Envelope frames per flux chunk: 512 kB of (frames, _ONSET_MELS) differences.
_FLUX_ROWS = 2**10


@dataclass(frozen=True)
class BeatGrid:
    """Finite, strictly increasing quarter-note beat times plus the derived
    half-beat grid (length exactly 2 * len(beats))."""

    beats: np.ndarray
    half_beats: np.ndarray = field(init=False)

    def __post_init__(self):
        beats = np.asarray(self.beats, dtype=np.float64)
        if beats.ndim != 1 or len(beats) < 2:
            raise ValidationError("a beat grid needs at least 2 beats")
        if not np.isfinite(beats).all():
            raise ValidationError("beat times must be finite")
        if not np.all(np.diff(beats) > 0):
            raise ValidationError("beat times must be strictly increasing")
        half = np.empty(2 * len(beats))
        half[0::2] = beats
        half[1:-1:2] = 0.5 * (beats[:-1] + beats[1:])
        half[-1] = beats[-1] + 0.5 * (beats[-1] - beats[-2])
        object.__setattr__(self, "beats", beats)
        object.__setattr__(self, "half_beats", half)

    def __len__(self):
        return len(self.beats)

    def halfbeat_to_seconds(self, index):
        """Seconds at half-beat ``index``; indices past the end extrapolate
        at the final inter-half-beat interval.  A float index with an
        integral value maps like the integer; any other raises
        ParameterError."""
        hb = self.half_beats
        index = np.asarray(index)
        bad = index[~(np.isfinite(index) & (index == np.round(index)))]
        if bad.size:
            raise ParameterError(f"half-beat index {bad.flat[0]} is not an integer")
        last = len(hb) - 1
        step = hb[-1] - hb[-2]
        inside = np.clip(index, 0, last).astype(np.intp)
        out = hb[inside] + np.maximum(index - last, 0) * step
        return out if out.ndim else float(out)

    def nearest_halfbeat(self, times):
        """Nearest half-beat index for each time; exact midpoints round to
        the earlier index.  Returns (indices, clamped_count)."""
        hb = self.half_beats
        t = np.atleast_1d(np.asarray(times, dtype=np.float64))
        right = np.searchsorted(hb, t)
        left = np.clip(right - 1, 0, len(hb) - 1)
        right = np.clip(right, 0, len(hb) - 1)
        pick_right = np.abs(hb[right] - t) < np.abs(t - hb[left])
        idx = np.where(pick_right, right, left)
        clamped = int(np.sum((t < hb[0]) | (t > hb[-1])))
        return idx, clamped


def read_beat_file(path) -> BeatGrid:
    """Parse the external beat format: one decimal beat time per line."""
    times = []
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            times.append(float(line))
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: not a beat time: {line!r}")
    try:
        return BeatGrid(np.array(times))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def write_beat_file(path, grid: BeatGrid):
    with open(path, "w") as fh:
        for t in grid.beats:
            fh.write(f"{t:.9f}\n")


# ---------------------------------------------------------------------------
# Quantization


def quantize(seq: NoteSequence, grid: BeatGrid) -> NoteSequence:
    """Snap every onset/offset to the nearest half-beat index.

    If onset and offset quantize to the same index the offset moves one
    half-beat later, so quantized notes always satisfy offset >= onset + 1.
    Times outside the grid clamp to the first/last half-beat (a warning
    reports the clamp count).  Exact duplicates created by quantization are
    merged.
    """
    if seq.time_unit is not TimeUnit.SECONDS:
        raise ParameterError("quantize expects a sequence in seconds")
    if not seq.notes:
        return NoteSequence.build([], TimeUnit.HALF_BEATS, 0)
    onsets = np.array([n.onset for n in seq.notes])
    offsets = np.array([n.offset for n in seq.notes])
    on_idx, c1 = grid.nearest_halfbeat(onsets)
    off_idx, c2 = grid.nearest_halfbeat(offsets)
    if c1 + c2:
        log.warning("%d note boundaries clamped to the beat grid", c1 + c2)
    off_idx = np.where(off_idx == on_idx, off_idx + 1, off_idx)
    notes = [
        Note(int(a), n.pitch, int(b), n.velocity)
        for n, a, b in zip(seq.notes, on_idx, off_idx)
    ]
    return NoteSequence.build(notes, TimeUnit.HALF_BEATS)


def halfbeats_to_seconds(seq: NoteSequence, grid: BeatGrid) -> NoteSequence:
    """Map half-beat indices back to absolute seconds through the grid."""
    if seq.time_unit is not TimeUnit.HALF_BEATS:
        raise ParameterError("halfbeats_to_seconds expects a half-beat sequence")
    beyond = sum(1 for n in seq.notes if n.offset >= len(grid.half_beats))
    if beyond:
        log.info("%d note(s) extend past the grid; extrapolating", beyond)
    # Every onset, then every offset, then the duration, in one lookup.
    k = len(seq.notes)
    times = grid.halfbeat_to_seconds(
        [n.onset for n in seq.notes] + [n.offset for n in seq.notes] + [seq.duration]
    ).tolist()
    onsets, offsets = times[:k], times[k : 2 * k]
    notes = [
        Note(onset, n.pitch, offset, n.velocity)
        for n, onset, offset in zip(seq.notes, onsets, offsets)
    ]
    duration = max(times[-1], max(offsets, default=0.0))
    return NoteSequence.build(notes, TimeUnit.SECONDS, duration)


# ---------------------------------------------------------------------------
# Beat tracking


def _onset_log_mel(power: np.ndarray) -> np.ndarray:
    """Log mel power of an onset-window power block, one row per frame."""
    return np.log(features.mel_power(power, _ONSET_MELS) + _ONSET_FLOOR)


def onset_envelope(audio: np.ndarray):
    """Spectral-flux onset envelope from the log-mel frontend.

    Returns (envelope, frame times in seconds).  envelope[k] is the summed
    positive log-mel difference between frames k+1 and k, timestamped at the
    start of frame k+1's newly covered samples; the constant is calibrated
    on synthetic click tracks (residual bias under 10 ms).
    """
    logmel = features.pooled_stft(audio, _ONSET_WINDOW, _ONSET_HOP, _onset_log_mel)
    if len(logmel) < 3:
        raise NoBeatsError("audio too short for an onset envelope")
    # Row by row, like the whole-song diff and sum: chunks keep every bit.
    env = np.empty(len(logmel) - 1)
    for start in range(0, len(env), _FLUX_ROWS):
        flux = np.diff(logmel[start : start + _FLUX_ROWS + 1], axis=0)
        np.maximum(flux, 0.0, out=flux)
        env[start : start + _FLUX_ROWS] = flux.sum(axis=1)
    times = (np.arange(len(env)) * _ONSET_HOP + _ONSET_WINDOW) / features.SAMPLE_RATE
    return env, times


def estimate_tempo_period(env: np.ndarray) -> float:
    """Global tempo via the autocorrelation peak in [60, 180] BPM.

    Candidate lags are weighted by a log-normal prior centered at 120 BPM
    (one octave standard deviation) so that subharmonics do not win ties.
    Returns the beat period in envelope frames (fractional, via parabolic
    interpolation around the integer-lag peak).
    """
    # Light smoothing keeps periods that fall between integer lags from
    # losing their autocorrelation peak to an aligned subharmonic.
    kernel = np.hanning(7)
    x = np.convolve(env, kernel / kernel.sum(), mode="same")
    x = x - x.mean()
    lag_min = max(2, int(np.floor(_ONSET_FRAME_RATE * 60.0 / TEMPO_MAX_BPM)))
    lag_max = int(np.ceil(_ONSET_FRAME_RATE * 60.0 / TEMPO_MIN_BPM))
    if lag_max >= len(x):
        raise NoBeatsError("audio too short to estimate a tempo")
    # acf[i] is the autocorrelation at lag lag_min - 1 + i: the candidate
    # lags plus one neighbour each side for the parabola.  Each is the dot
    # product np.correlate(x, x, "full") runs for that lag, so the values
    # are the same bits.  A lag of len(x) is an empty product, never read.
    acf = np.array([np.dot(x[k:], x[: len(x) - k]) for k in range(lag_min - 1, lag_max + 2)])
    lags = np.arange(lag_min, lag_max + 1)
    bpm = 60.0 * _ONSET_FRAME_RATE / lags
    prior = np.exp(-0.5 * np.log2(bpm / 120.0) ** 2)
    best = int(np.argmax(acf[1:-1] * prior))
    k = lag_min + best
    period = float(k)
    if k < len(x) - 1:
        a, b, c = acf[best : best + 3]
        denom = a - 2 * b + c
        if denom < 0:
            period = k + 0.5 * (a - c) / denom
    return float(np.clip(period, lag_min, lag_max))


def _dp_beat_select(env: np.ndarray, period: float):
    """Ellis-style dynamic programming: maximize summed onset strength plus
    a log-spacing regularity penalty around the estimated period.

    Frame i takes the best predecessor i - d for d in [lo, hi], so the
    ``lo`` frames of a block depend only on frames before the block and are
    scored together.  Candidates run from the earliest predecessor, so ties
    go to it; predecessors before frame 0 read -inf and never win.
    """
    n = len(env)
    scale = env.std()
    strength = env / scale if scale > 0 else env
    lo = max(1, int(round(period / 2)))
    hi = int(round(period * 2))
    # padded[hi + j] is score[j]; row i of ``windows`` holds the scores of
    # predecessors i - hi .. i - lo, matching ``penalty`` over d = hi .. lo.
    padded = np.concatenate([np.full(hi, -np.inf), strength])
    score = padded[hi:]
    windows = sliding_window_view(padded, hi - lo + 1)
    penalty = _TIGHTNESS * np.log(np.arange(hi, lo - 1, -1) / period) ** 2
    backlink = np.full(n, -1, dtype=np.int64)
    for start in range(lo, n, lo):
        stop = min(start + lo, n)
        cand = windows[start:stop] - penalty
        best = np.argmax(cand, axis=1)
        score[start:stop] = strength[start:stop] + cand[np.arange(stop - start), best]
        backlink[start:stop] = np.arange(start - hi, stop - hi) + best
    tail = max(n - int(round(period)), 0)
    end = tail + int(np.argmax(score[tail:]))
    beats = [end]
    while backlink[beats[-1]] >= 0:
        beats.append(backlink[beats[-1]])
    return np.array(beats[::-1], dtype=np.int64)


def _refine_peaks(env: np.ndarray, idx: np.ndarray):
    """Sub-frame beat positions by parabolic interpolation of the envelope."""
    shifts = np.zeros(len(idx))
    for out, i in enumerate(idx):
        if 1 <= i < len(env) - 1:
            a, b, c = env[i - 1], env[i], env[i + 1]
            denom = a - 2 * b + c
            if denom < 0:
                shifts[out] = np.clip(0.5 * (a - c) / denom, -0.5, 0.5)
    return idx + shifts


def track_beats(audio: np.ndarray, sample_rate: int = features.SAMPLE_RATE) -> BeatGrid:
    """Estimate beat times from mono audio at SAMPLE_RATE.

    Pipeline: spectral-flux onset envelope from the log-mel frontend, global
    tempo by autocorrelation peak in [60, 180] BPM, then dynamic-programming
    beat selection trading onset strength against inter-beat regularity.
    Raises NoBeatsError for audio shorter than 5 s or with a silent
    envelope, and ParameterError, before any STFT, for a ``sample_rate``
    (kept for the benchmark's positional call) but SAMPLE_RATE.
    """
    features.check_sample_rate(sample_rate)
    audio = np.asarray(audio)
    if len(audio) < MIN_TRACK_SECONDS * features.SAMPLE_RATE:
        raise NoBeatsError(f"need at least {MIN_TRACK_SECONDS:.0f} s of audio to track beats")
    env, times = onset_envelope(audio)
    if env.max() <= 0.0:
        raise NoBeatsError("silent input: onset envelope is all zero")
    period = estimate_tempo_period(env)
    idx = _dp_beat_select(env, period)
    if len(idx) < 2:
        raise NoBeatsError("fewer than 2 beats found")
    positions = _refine_peaks(env, idx)
    beat_times = np.interp(positions, np.arange(len(times)), times)
    return BeatGrid(beat_times)
