"""Melody-based quality screening for pop/cover pairs.

A cover only makes a usable training pair when it actually follows the
song it claims to cover. The screen compares the vocal's f0 contour
against the cover's top line on a shared frame grid: the fraction of
vocal frames whose pitch classes agree within half a semitone is the
melody chroma accuracy (MCA). Pairs with low MCA or grossly mismatched
lengths are discarded.

Vocal separation and f0 extraction are external concerns; contours
arrive through a small CSV format.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ParameterError, UndefinedMetricError, ValidationError, read_text
from .midi import NoteSequence, TimeUnit

UNVOICED = -1

MCA_THRESHOLD = 0.15
LENGTH_DIFF_THRESHOLD = 0.20

_CENTS_REF_HZ = 10.0
# Offset that puts integer MIDI pitches on the same cent scale as
# frequencies: pitch 69 must land exactly where 440 Hz does.
_PITCH_CENTS_OFFSET = 1200.0 * math.log2(440.0 / _CENTS_REF_HZ) - 6900.0


class Verdict(Enum):
    KEEP = "keep"
    DISCARD = "discard"


@dataclass(frozen=True)
class F0Contour:
    """Fundamental-frequency track on a uniform time grid.

    ``f0_hz`` entries of 0 mean the frame is unvoiced.
    """

    times: np.ndarray
    f0_hz: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        f0 = np.asarray(self.f0_hz, dtype=float)
        if times.ndim != 1 or times.shape != f0.shape:
            raise ValidationError("times and f0_hz must be equal-length vectors")
        if len(times) == 0:
            raise ValidationError("contour must be nonempty")
        if not (np.isfinite(times).all() and np.isfinite(f0).all()):
            raise ValidationError("times and f0 values must be finite")
        if len(times) > 1:
            steps = np.diff(times)
            if steps.min() <= 0:
                raise ValidationError("times must be strictly increasing")
            if steps.max() - steps.min() > 1e-6:
                raise ValidationError("times must lie on a uniform grid")
        if f0.min() < 0:
            raise ValidationError("f0 values must be nonnegative")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "f0_hz", f0)

    def __len__(self):
        return len(self.times)


@dataclass(frozen=True)
class FilterReport:
    mca: float
    length_ratio_diff: float
    verdict: Verdict
    reasons: tuple


def midi_topline(seq: NoteSequence, grid_times) -> np.ndarray:
    """Highest sounding pitch at each frame time, UNVOICED where none.

    A note sounds at t when onset <= t < offset.
    """
    if seq.time_unit is not TimeUnit.SECONDS:
        raise ParameterError("midi_topline expects a sequence in seconds")
    grid_times = np.asarray(grid_times, dtype=float)
    if len(grid_times) > 1:
        steps = np.diff(grid_times)
        if steps.min() <= 0 or steps.max() - steps.min() > 1e-6:
            raise ParameterError("grid_times must be a uniform increasing grid")
    top = np.full(len(grid_times), UNVOICED, dtype=int)
    for note in seq:
        i0 = np.searchsorted(grid_times, note.onset, side="left")
        i1 = np.searchsorted(grid_times, note.offset, side="left")
        np.maximum(top[i0:i1], note.pitch, out=top[i0:i1])
    return top


def hz_to_cents(f0_hz) -> np.ndarray:
    """Cents above the 10 Hz reference; unvoiced frames become NaN."""
    f0_hz = np.asarray(f0_hz, dtype=float)
    out = np.full(f0_hz.shape, np.nan)
    voiced = f0_hz > 0
    out[voiced] = 1200.0 * np.log2(f0_hz[voiced] / _CENTS_REF_HZ)
    return out


def pitch_to_cents(pitches) -> np.ndarray:
    """Cents of MIDI pitches on the hz_to_cents scale, folded to one octave.

    Folding first makes transposition by whole octaves a no-op, exactly.
    """
    pitches = np.asarray(pitches, dtype=int)
    out = np.full(pitches.shape, np.nan)
    voiced = pitches != UNVOICED
    out[voiced] = 100.0 * (pitches[voiced] % 12) + _PITCH_CENTS_OFFSET
    return out


def melody_chroma_accuracy(ref: F0Contour, est_topline) -> float:
    """Fraction of vocal frames whose pitch class the top line matches.

    A frame counts as correct when both sides are voiced and the
    circular cent distance is at most 50. The shorter side is padded as
    unvoiced, so trailing vocal frames with no cover notes count against
    the score.
    """
    est_topline = np.asarray(est_topline, dtype=int)
    n = max(len(ref), len(est_topline))
    ref_f0 = np.zeros(n)
    ref_f0[: len(ref)] = ref.f0_hz
    est = np.full(n, UNVOICED, dtype=int)
    est[: len(est_topline)] = est_topline

    ref_voiced = ref_f0 > 0
    if not ref_voiced.any():
        raise UndefinedMetricError("reference contour has no voiced frames")

    ref_cents = hz_to_cents(ref_f0)
    est_cents = pitch_to_cents(est)
    both = ref_voiced & (est != UNVOICED)
    delta = np.abs(np.mod(ref_cents[both] - est_cents[both], 1200.0))
    circular = np.minimum(delta, 1200.0 - delta)
    correct = int((circular <= 50.0).sum())
    return correct / int(ref_voiced.sum())


def filter_pair(mca: float, pop_len: float, cover_len: float) -> FilterReport:
    """Apply the discard rules to one candidate pair.

    Discard when mca <= 0.15 or the length difference reaches 20% of the
    pop side; both boundaries are inclusive.
    """
    if pop_len <= 0:
        raise ParameterError("pop length must be positive")
    diff = abs(pop_len - cover_len) / pop_len
    reasons = []
    if mca <= MCA_THRESHOLD:
        reasons.append("mca")
    if diff >= LENGTH_DIFF_THRESHOLD:
        reasons.append("length")
    verdict = Verdict.DISCARD if reasons else Verdict.KEEP
    return FilterReport(mca, diff, verdict, tuple(reasons))


def read_f0_csv(path) -> F0Contour:
    """Load a contour from rows of `time,frequency` (0 = unvoiced)."""
    rows = list(csv.reader(io.StringIO(read_text(path), newline="")))
    if not rows or [c.strip() for c in rows[0]] != ["time", "frequency"]:
        raise ValidationError(f"{path}: expected header 'time,frequency'")
    times, f0 = [], []
    for k, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise ValidationError(f"{path}:{k}: expected two columns")
        try:
            times.append(float(row[0]))
            f0.append(float(row[1]))
        except ValueError:
            raise ValidationError(f"{path}:{k}: non-numeric value") from None
    try:
        return F0Contour(np.array(times), np.array(f0))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def write_f0_csv(path, contour: F0Contour):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "frequency"])
        for t, f in zip(contour.times, contour.f0_hz):
            writer.writerow([f"{t:.9f}", f"{f:.6f}"])
