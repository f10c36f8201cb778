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
import json
import logging
import math
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .beats import BeatGrid, halfbeats_to_seconds, quantize, read_beat_file, track_beats
from .errors import FormatError, ParameterError, PianoCoverError, ValidationError, read_text
from .features import N_MELS, SAMPLE_RATE, WINDOW, load_wav, melspectrogram
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
    error: str | None = None

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
    return track_beats(audio, SAMPLE_RATE)


def aligned_notes(cover: NoteSequence, audio, grid: BeatGrid):
    """A cover warped onto its recording's clock, in seconds, and the same
    notes quantized to the grid's half-beats with one sounding note per
    pitch, as the tokenizer needs them."""
    aligned = align_to_audio(cover, audio, SAMPLE_RATE)
    return aligned, _resolve_pitch_overlaps(quantize(aligned, grid))


def _window_spectrogram(audio, grid, window_index, n_mels=N_MELS):
    t0 = grid.halfbeat_to_seconds(window_index * WINDOW_HALFBEATS)
    t1 = grid.halfbeat_to_seconds((window_index + 1) * WINDOW_HALFBEATS)
    lo = max(0, int(round(t0 * SAMPLE_RATE)))
    hi = min(len(audio), int(round(t1 * SAMPLE_RATE)))
    clip = audio[lo:hi]
    if len(clip) < WINDOW:
        # Extrapolated window ends can overrun the recording; pad so the
        # clip still yields at least one analysis frame.
        clip = np.pad(clip, (0, WINDOW - len(clip)))
    return melspectrogram(clip, n_mels=n_mels)


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

    for index, segment in enumerate(split_piece(quantized)):
        try:
            tokens = encode_segment(segment)
        except ValidationError as exc:
            built.dropped_segments += 1
            log.warning("%s: segment %d dropped: %s", record.pop_audio, index, exc)
            continue
        spec = _window_spectrogram(audio, grid, index)
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


def save_dataset(out_dir, examples, report: BuildReport) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    index = []
    for i, (spec, arranger_id, tokens) in enumerate(examples):
        stem = f"ex{i:06d}"
        frames = np.asarray(getattr(spec, "frames", spec), dtype=np.float64)
        np.save(out / f"{stem}.mel.npy", frames)
        write_token_file(out / f"{stem}.tokens.txt", [tokens])
        index.append(
            {
                "mel": f"{stem}.mel.npy",
                "tokens": f"{stem}.tokens.txt",
                "arranger_id": arranger_id,
            }
        )
    payload = {"examples": index, "report": report.to_dict()}
    (out / "dataset.json").write_text(json.dumps(payload, indent=2, sort_keys=True))


def load_dataset(in_dir):
    """Returns (examples, report dict) from a save_dataset directory.

    A malformed index or mel file raises FormatError naming the file.
    """
    root = Path(in_dir)
    index = root / "dataset.json"
    try:
        payload = json.loads(read_text(index))
        report = payload["report"]
        rows = [(root / e["mel"], root / e["tokens"], int(e["arranger_id"]))
                for e in payload["examples"]]
    except (ValueError, KeyError, TypeError) as exc:  # ValueError: bad JSON or id
        raise FormatError(f"{index}: not a dataset index: {exc!r}") from None
    examples = []
    for mel, tokens, arranger_id in rows:
        try:
            frames = np.load(mel)
        except (ValueError, EOFError) as exc:  # not .npy, truncated, or pickled
            raise FormatError(f"{mel}: not an .npy array: {exc}") from None
        if not isinstance(frames, np.ndarray) or frames.ndim != 2:
            raise FormatError(f"{mel}: not a 2-D .npy array")
        segments = read_token_file(tokens)
        if len(segments) != 1:
            raise ValidationError(f"{tokens}: expected one segment per file")
        examples.append((frames, arranger_id, segments[0]))
    return examples, report


# ---------------------------------------------------------------------------
# Synthetic audio


def render_sine_audio(seq: NoteSequence, sample_rate: int = SAMPLE_RATE) -> np.ndarray:
    """Additive sine rendering of a sequence in seconds.

    Each note contributes a sine at its equal-tempered frequency with a
    10 ms linear fade in and out, velocity-weighted; the mix is peak
    normalized to 0.9.
    """
    if seq.time_unit is not TimeUnit.SECONDS:
        raise ParameterError("render_sine_audio expects a sequence in seconds")
    if not seq.notes:
        raise ParameterError("cannot render an empty sequence")
    n = int(round(seq.duration * sample_rate))
    mix = np.zeros(n)
    for note in seq:
        lo = int(round(note.onset * sample_rate))
        hi = min(n, int(round(note.offset * sample_rate)))
        if hi <= lo:
            continue
        length = hi - lo
        freq = 440.0 * 2.0 ** ((note.pitch - 69) / 12.0)
        t = np.arange(length) / sample_rate
        tone = np.sin(2.0 * math.pi * freq * t) * (note.velocity / 127.0)
        fade = min(length // 2, max(1, int(round(0.010 * sample_rate))))
        ramp = np.linspace(0.0, 1.0, fade, endpoint=False)
        tone[:fade] *= ramp
        tone[length - fade :] *= ramp[::-1]
        mix[lo:hi] += tone
    peak = np.abs(mix).max()
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
    write MIDI."""
    params, config = load_checkpoint(job.checkpoint)
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
    specs = [_window_spectrogram(audio, grid, w, config.n_mels) for w in range(n_windows)]
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
