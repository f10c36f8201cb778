"""End-to-end orchestration: dataset builds, cover generation, statistics.

A dataset build runs each (pop audio, cover MIDI) pair through beat
tracking, chroma alignment, half-beat quantization, the melody/length
filter, and finally crops the piece into consecutive non-overlapping
4-beat windows, emitting one (mel spectrogram, token sequence) training
example per window. Cover generation runs the same windowing in the
other direction: spectrogram in, greedy tokens out, stitched back onto
the beat grid and written as MIDI.
"""

from __future__ import annotations

import dataclasses
import io
import json
import logging
import math
import os
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path

import numpy as np

from .beats import BeatGrid, halfbeats_to_seconds, quantize, read_beat_file, track_beats
from .errors import FormatError, ParameterError, PianoCoverError, ValidationError, read_text
from .features import N_MELS, SAMPLE_RATE, WINDOW, load_wav, melspectrogram, num_frames
from .filtering import (
    FilterReport,
    Verdict,
    filter_pair,
    melody_chroma_accuracy,
    midi_topline,
    read_f0_csv,
)
from .midi import Note, NoteSequence, TimeUnit, note_density, parse_smf, write_smf
# greedy_generate is not called here; perfbench's tracer wraps it on this
# module, so it stays imported.
from .model import greedy_generate, greedy_generate_windows, load_checkpoint
from .model.config import MAX_FRAMES
from .sync import align_to_audio
from .tokenizer import (
    EOS,
    SEGMENT_HALFBEATS,
    encode_segment,
    read_token_file,
    split_piece,
    stitch,
    write_token_file,
)

log = logging.getLogger(__name__)

WINDOW_HALFBEATS = SEGMENT_HALFBEATS
WINDOW_BEATS = WINDOW_HALFBEATS // 2


@dataclass(frozen=True)
class PairRecord:
    """One manifest row: a pop recording and its candidate piano cover."""

    pop_audio: str
    cover_midi: str
    arranger_id: int
    beats: str | None = None
    f0: str | None = None


@dataclass
class BuiltPair:
    record: PairRecord
    report: FilterReport | None = None
    examples: list = field(default_factory=list)
    dropped_segments: int = 0

    @property
    def kept(self) -> bool:
        return self.report is not None and self.report.verdict is Verdict.KEEP


@dataclass
class BuildReport:
    total: int
    kept: int
    discarded: int
    failed: int
    entries: list

    def to_dict(self):
        return dataclasses.asdict(self)


def _resolve_pitch_overlaps(seq: NoteSequence) -> NoteSequence:
    """Enforce one sounding note per pitch at a time.

    The token grammar has a single on/off slot per pitch, so overlapping
    same-pitch notes cannot round-trip. A later onset clips the earlier
    note's offset; simultaneous restrikes keep the longest.
    """
    by_pitch = defaultdict(list)
    for note in seq:
        by_pitch[note.pitch].append(note)
    out = []
    for pitch, notes in by_pitch.items():
        notes.sort(key=lambda n: (n.onset, -n.offset, -n.velocity))
        starts = [n for i, n in enumerate(notes)
                  if i == 0 or n.onset != notes[i - 1].onset]
        for i, note in enumerate(starts):
            offset = note.offset
            if i + 1 < len(starts):
                offset = min(offset, starts[i + 1].onset)
            if offset > note.onset:
                out.append(Note(note.onset, pitch, offset, note.velocity))
    return NoteSequence.build(
        out, TimeUnit.HALF_BEATS, duration=seq.duration, validate=False
    )


def song_grid(audio, beats_path) -> BeatGrid:
    """The beat grid of a recording: read from beats_path when given,
    otherwise tracked from the audio."""
    if beats_path:
        return read_beat_file(beats_path)
    return track_beats(audio)


def aligned_notes(cover: NoteSequence, audio, grid: BeatGrid):
    """A cover warped onto its recording's clock, in seconds, and the same
    notes quantized to the grid's half-beats with one sounding note per
    pitch, as the tokenizer needs them."""
    aligned = align_to_audio(cover, audio)
    return aligned, _resolve_pitch_overlaps(quantize(aligned, grid))


def _window_spans(n_samples, grid, n_windows):
    """The sample ranges [lo, hi) of the first n_windows 4-beat windows, cut
    to the recording, as a list of [lo, hi] pairs."""
    edges = grid.halfbeat_to_seconds(np.arange(n_windows + 1) * WINDOW_HALFBEATS)
    # rint rounds halves to even, as the built-in round does.
    ends = np.rint(edges * SAMPLE_RATE).astype(np.int64)
    return np.stack([np.maximum(ends[:-1], 0), np.minimum(ends[1:], n_samples)], 1).tolist()


def _check_window_frames(spans):
    """Raise ParameterError, before any mel is built, if a window of
    ``_window_spans`` spans more than MAX_FRAMES mel frames."""
    for w, (lo, hi) in enumerate(spans):
        frames = num_frames(max(hi - lo, WINDOW))
        if frames > MAX_FRAMES:
            raise ParameterError(f"window {w} spans {frames} mel frames, over the encoder "
                                 f"budget of {MAX_FRAMES}; the beats are too far apart")


def _window_spectrogram(audio, lo, hi):
    clip = audio[lo:hi]
    if len(clip) < WINDOW:
        # Extrapolated window ends can overrun the recording; pad so the
        # clip still yields at least one analysis frame.
        clip = np.pad(clip, (0, WINDOW - len(clip)))
    return melspectrogram(clip)


def build_pair(record: PairRecord) -> BuiltPair:
    """Run one manifest record through the full preprocessing chain."""
    built = BuiltPair(record)
    audio = load_wav(record.pop_audio)
    cover = parse_smf(Path(record.cover_midi).read_bytes())
    grid = song_grid(audio, record.beats)
    aligned, quantized = aligned_notes(cover, audio, grid)

    pop_len = len(audio) / SAMPLE_RATE
    if record.f0:
        contour = read_f0_csv(record.f0)
        mca = melody_chroma_accuracy(contour, midi_topline(aligned, contour.times))
        built.report = filter_pair(mca, pop_len, cover.duration)
    else:
        # No melody reference: apply the length rule alone and record
        # the accuracy as unmeasured.
        report = filter_pair(float("inf"), pop_len, cover.duration)
        built.report = dataclasses.replace(report, mca=None)
    if built.report.verdict is not Verdict.KEEP:
        return built

    segments = split_piece(quantized)
    spans = _window_spans(len(audio), grid, len(segments))
    _check_window_frames(spans)
    for index, segment in enumerate(segments):
        try:
            tokens = encode_segment(segment)
        except ValidationError as exc:
            built.dropped_segments += 1
            log.warning("%s: segment %d dropped: %s", record.pop_audio, index, exc)
            continue
        spec = _window_spectrogram(audio, *spans[index])
        built.examples.append((spec, record.arranger_id, tokens))
    return built


def build_dataset(records, out_dir=None):
    """Build training examples for every record; failures quarantine.

    Returns (examples, report) where examples is a flat list of
    (spectrogram, arranger_id, TokenSeq). With out_dir set the examples
    and report are also written to disk, deterministically.
    """
    examples = []
    entries = []
    kept = discarded = failed = 0
    for index, record in enumerate(records):
        entry = {
            "index": index,
            "pop_audio": str(record.pop_audio),
            "cover_midi": str(record.cover_midi),
            "arranger_id": record.arranger_id,
        }
        try:
            built = build_pair(record)
        except (PianoCoverError, OSError) as exc:
            failed += 1
            entry.update(status="failed", reason=str(exc))
            entries.append(entry)
            log.warning("record %d quarantined: %s", index, exc)
            continue
        if built.kept:
            kept += 1
            entry.update(
                status="kept",
                n_examples=len(built.examples),
                dropped_segments=built.dropped_segments,
                mca=built.report.mca,
                length_ratio_diff=built.report.length_ratio_diff,
            )
            examples.extend(built.examples)
        else:
            discarded += 1
            entry.update(
                status="discarded",
                reasons=list(built.report.reasons),
                mca=built.report.mca,
                length_ratio_diff=built.report.length_ratio_diff,
            )
        entries.append(entry)
    report = BuildReport(len(entries), kept, discarded, failed, entries)
    if out_dir is not None:
        save_dataset(out_dir, examples, report)
    return examples, report


# ---------------------------------------------------------------------------
# Dataset directory layout


def _mel_header(rows: int) -> bytes:
    """The .npy header of (rows, N_MELS) little-endian float64 C-order frames."""
    buffer = io.BytesIO()
    header = {"descr": "<f8", "fortran_order": False, "shape": (rows, N_MELS)}
    np.lib.format.write_array_header_1_0(buffer, header)
    return buffer.getvalue()


def save_dataset(out_dir, examples, report: BuildReport) -> None:
    """Writes examples and their report as a three-file dataset directory.

    ``mels.npy`` holds every example's frames stacked in order, one
    float64 (total frames, N_MELS) array streamed an example at a time;
    ``tokens.txt`` one line of token ids per example; ``dataset.json``
    each example's frame count and arranger id, and the report. Frames
    not shaped (t >= 1, N_MELS), or an empty token sequence, which would
    leave tokens.txt no line to read, raise ParameterError before any
    file is written.
    """
    mels = [np.asarray(getattr(spec, "frames", spec), dtype="<f8") for spec, _, _ in examples]
    for frames in mels:
        if frames.ndim != 2 or frames.shape[1] != N_MELS or len(frames) < 1:
            raise ParameterError(f"expected frames shaped (t, {N_MELS}), got {frames.shape}")
    for index, (_, _, tokens) in enumerate(examples):
        if not tokens.ids:
            raise ParameterError(f"example {index} has no tokens")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "mels.npy", "wb") as fh:
        fh.write(_mel_header(sum(map(len, mels))))
        for frames in mels:
            fh.write(np.ascontiguousarray(frames))
    write_token_file(out / "tokens.txt", [tokens for _, _, tokens in examples])
    payload = {"frames": [len(frames) for frames in mels], "report": report.to_dict(),
               "arranger_ids": [arranger_id for _, arranger_id, _ in examples]}
    (out / "dataset.json").write_text(json.dumps(payload, indent=2, sort_keys=True))


def load_dataset(in_dir):
    """Returns (examples, report dict) from a save_dataset directory.

    Frames are views into the one mels.npy array. Anything save_dataset
    does not write, or a frame count over the encoder's MAX_FRAMES, raises
    FormatError naming the file."""
    root = Path(in_dir)
    index, mels, tokens = root / "dataset.json", root / "mels.npy", root / "tokens.txt"
    try:
        payload = json.loads(read_text(index))
        counts, arranger_ids, report = (payload[k] for k in ("frames", "arranger_ids", "report"))
    except (ValueError, KeyError, TypeError, RecursionError) as exc:  # RecursionError: deep JSON
        raise FormatError(f"{index}: not a dataset index: {exc!r}") from None
    for key, values, least in (("frames", counts, 1), ("arranger_ids", arranger_ids, 0)):
        if not isinstance(values, list) or any(type(v) is not int or v < least for v in values):
            raise FormatError(f"{index}: {key} must be a list of integers >= {least}")
    if max(counts, default=0) > MAX_FRAMES:
        raise FormatError(f"{index}: an example of {max(counts)} frames is over the "
                          f"encoder budget of {MAX_FRAMES}")
    segments = read_token_file(tokens)
    if not len(counts) == len(arranger_ids) == len(segments):
        raise FormatError(f"{index}: {len(counts)} frame counts and {len(arranger_ids)} "
                          f"arranger ids for {len(segments)} lines of {tokens.name}")
    shape = (sum(counts), N_MELS)
    header = _mel_header(shape[0])
    with open(mels, "rb") as fh:
        # Only the exact header save_dataset writes is read, so no shape or
        # dtype from the file reaches numpy, and the size is checked first.
        if (fh.read(len(header)) != header
                or os.fstat(fh.fileno()).st_size != len(header) + 8 * math.prod(shape)):
            raise FormatError(f"{mels}: not the C-order float64 array of shape {shape} "
                              f"that {index.name} describes")
        frames = np.fromfile(fh, "<f8").reshape(shape)
    finite = np.isfinite(frames).all(axis=1)
    if not finite.all():
        raise FormatError(f"{mels}: non-finite value in row {np.argmin(finite)}")
    ends = list(accumulate(counts))
    examples = [(frames[start:end], arranger_id, segment) for start, end, arranger_id, segment
                in zip([0, *ends], ends, arranger_ids, segments)]
    return examples, report


# ---------------------------------------------------------------------------
# Synthetic audio


# The longest mix render_sine_audio makes: 1 GiB of float64 samples, and
# at most as much again in sine tables (about 101 minutes at 22050 Hz).
MAX_RENDER_SAMPLES = 2**27
# Samples per chunk of a sine or of a note added to the mix: 512 kB of
# float64, so nothing but the mix and the tables grows with the song.
_RENDER_CHUNK = 2**16


def _sine(pitch: int, start: int, stop: int, sample_rate: int) -> np.ndarray:
    """Samples start..stop of a unit sine at the pitch's equal-tempered
    frequency. Any split of a range gives the same bits as the whole."""
    freq = 440.0 * 2.0 ** ((pitch - 69) / 12.0)
    out = np.empty(stop - start)
    for lo in range(start, stop, _RENDER_CHUNK):
        hi = min(lo + _RENDER_CHUNK, stop)
        np.sin(2.0 * math.pi * freq * (np.arange(lo, hi) / sample_rate),
               out=out[lo - start : hi - start])
    return out


def _add_note(out: np.ndarray, table, note: Note, sample_rate: int, ramps: dict):
    """Add one note's faded, velocity-weighted samples to ``out``, its span
    of the mix, one chunk at a time: read from its pitch's table, or
    computed where the chunk runs past the table's end."""
    length = len(out)
    fade = min(length // 2, max(1, int(round(0.010 * sample_rate))))
    if fade not in ramps:
        ramps[fade] = np.linspace(0.0, 1.0, fade, endpoint=False)
    rise, fall = ramps[fade], ramps[fade][::-1]
    tail = length - fade
    for lo in range(0, length, _RENDER_CHUNK):
        hi = min(lo + _RENDER_CHUNK, length)
        tone = table[lo:hi] if hi <= len(table) else _sine(note.pitch, lo, hi, sample_rate)
        tone = tone * (note.velocity / 127.0)
        if lo < fade:
            tone[: fade - lo] *= rise[lo:hi]
        if hi > tail:
            first = max(lo, tail)
            tone[first - lo :] *= fall[first - tail : hi - tail]
        out[lo:hi] += tone


def render_sine_audio(seq: NoteSequence, sample_rate: int = SAMPLE_RATE) -> np.ndarray:
    """Additive sine rendering of a sequence in seconds.

    Each note contributes a sine at its equal-tempered frequency with a
    10 ms linear fade in and out, velocity-weighted; the mix is peak
    normalized to 0.9. A mix over MAX_RENDER_SAMPLES raises ParameterError.
    """
    if seq.time_unit is not TimeUnit.SECONDS:
        raise ParameterError("render_sine_audio expects a sequence in seconds")
    if not seq.notes:
        raise ParameterError("cannot render an empty sequence")
    n = int(round(seq.duration * sample_rate))
    if n > MAX_RENDER_SAMPLES:
        raise ParameterError(f"{seq.duration:g} s at {sample_rate} Hz is {n} samples, "
                             f"over the render limit of {MAX_RENDER_SAMPLES}")
    spans = []
    longest = {}
    for note in seq:
        lo = int(round(note.onset * sample_rate))
        hi = min(n, int(round(note.offset * sample_rate)))
        if hi > lo:
            spans.append((lo, hi, note))
            longest[note.pitch] = max(longest.get(note.pitch, 0), hi - lo)
    # Each pitch's sine is computed once, as long as its longest note but
    # capped so that the tables together hold no more samples than the mix.
    cap = n // max(1, len(longest))
    tables = {pitch: _sine(pitch, 0, min(length, cap), sample_rate)
              for pitch, length in longest.items()}
    ramps = {}
    mix = np.zeros(n)
    # Notes are added in sequence order, which fixes the bits where they overlap.
    for lo, hi, note in spans:
        _add_note(mix[lo:hi], tables[note.pitch], note, sample_rate, ramps)
    peak = max(mix.max(), -mix.min())
    if peak > 0:
        mix *= 0.9 / peak
    return mix


# ---------------------------------------------------------------------------
# Cover generation


@dataclass
class CoverJob:
    """Inputs and run counters for one cover-generation request."""

    audio: str
    arranger_id: int
    checkpoint: str
    output: str
    beats: str | None = None
    # Filled in by generate_cover:
    windows: int = 0
    truncated_segments: int = 0


def generate_cover(job: CoverJob) -> NoteSequence:
    """Window the audio by 4 beats, decode the windows in lockstep, stitch,
    write MIDI. A model that reads other than N_MELS mels is refused
    before the audio is read."""
    params, config = load_checkpoint(job.checkpoint)
    if config.n_mels != N_MELS:
        raise ValidationError(f"{job.checkpoint}: the model reads {config.n_mels} mel "
                              f"channels; the frontend makes {N_MELS}")
    audio = load_wav(job.audio)
    grid = song_grid(audio, job.beats)
    n_windows = len(grid.half_beats) // WINDOW_HALFBEATS
    if n_windows < 1:
        raise ParameterError(
            f"audio spans {len(grid.half_beats)} half-beats; "
            f"one {WINDOW_BEATS}-beat window needs {WINDOW_HALFBEATS}"
        )
    if len(grid.half_beats) % WINDOW_HALFBEATS:
        log.warning(
            "dropping trailing partial window (%d of %d half-beats)",
            len(grid.half_beats) % WINDOW_HALFBEATS,
            WINDOW_HALFBEATS,
        )
    spans = _window_spans(len(audio), grid, n_windows)
    _check_window_frames(spans)
    specs = [_window_spectrogram(audio, lo, hi) for lo, hi in spans]
    segments = greedy_generate_windows(specs, job.arranger_id, params, config)
    for tokens in segments:
        if not tokens.ids or tokens.ids[-1] != EOS:
            job.truncated_segments += 1
    job.windows = n_windows
    # Decoded windows can open a pitch that is already sounding; SMF
    # cannot represent that on one channel, so resolve before writing.
    piece = _resolve_pitch_overlaps(stitch(segments))
    seconds = halfbeats_to_seconds(piece, grid)
    Path(job.output).write_bytes(write_smf(seconds))
    return seconds


# ---------------------------------------------------------------------------
# Evaluation statistics


def eval_stats(covers, f0_contours=None):
    """Per-arranger note-density statistics, plus AMCA given references.

    covers: list of (NoteSequence in seconds, arranger_id).
    f0_contours: optional parallel list of F0Contour melody references.
    """
    if not covers:
        raise ParameterError("eval_stats needs at least one cover")
    groups = defaultdict(list)
    for seq, arranger_id in covers:
        groups[arranger_id].append(note_density(seq))
    arrangers = {}
    for arranger_id in sorted(groups):
        densities = np.asarray(groups[arranger_id])
        arrangers[arranger_id] = {
            "count": len(densities),
            "mean_density": float(densities.mean()),
            "std_density": float(densities.std()),
        }
    result = {"arrangers": arrangers}
    if f0_contours is not None:
        if len(f0_contours) != len(covers):
            raise ParameterError("need one f0 contour per cover")
        scores = [
            melody_chroma_accuracy(contour, midi_topline(seq, contour.times))
            for (seq, _), contour in zip(covers, f0_contours)
        ]
        result["amca"] = float(np.mean(scores))
    return result
