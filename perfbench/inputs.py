"""Seeded synthetic inputs: sine-rendered songs, cover MIDI, f0 contours.

Everything here is a pure function of the seed. Each song has a nominal
length and tempo that the seed jitters by a few percent, so two seeds give
different notes, tempos and lengths but nearly the same amount of work,
which keeps per-seed figures comparable.

The program under test receives only the files written here; the
expected verdict of each record goes to ``manifest.json`` for the
benchmark's own checks.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from pianocover.beats import BeatGrid, halfbeats_to_seconds, write_beat_file
from pianocover.features import SAMPLE_RATE, write_wav
from pianocover.filtering import UNVOICED, F0Contour, midi_topline, write_f0_csv
from pianocover.midi import Note, NoteSequence, TimeUnit, write_smf
from pianocover.pipeline import render_sine_audio

# Two octaves of C major around middle C: enough pitch-class movement for
# chroma alignment and a clear top line for the melody filter.
PALETTE = [48, 50, 52, 53, 55, 57, 59, 60, 62, 64, 65, 67, 69, 71, 72]
BASS_PITCH = 36

# Nominal (seconds, BPM) of each song; the seed jitters both by a few
# percent. build: six kept pairs spanning 60-240 s and 90-140 BPM.
BUILD_SONGS = [(60, 92), (96, 101), (132, 110), (168, 119), (204, 128), (240, 137)]
# The special records: a cover 40% shorter than its song, and a corrupt MIDI.
SHORT_COVER = (90, 115)
CORRUPT = (65, 105)
# train: windows of ~40 frames, the desk model's intended input size.
TRAIN_SONGS = [(42, 115), (42, 121)]
# cover: two short songs; the tracker sees them without a beat file.
COVER_SONGS = [(10, 120), (10, 120)]
SECONDS_JITTER = 0.03
BPM_JITTER = 0.02


def _jitter(rng, nominal, share):
    return nominal * float(rng.uniform(1.0 - share, 1.0 + share))


def random_piece(rng, n_halfbeats, min_len=2):
    """Half-beat piece with sustained notes and no same-pitch overlap."""
    notes = []
    busy = {}
    for t in range(n_halfbeats - min_len):
        if rng.random() < 0.55:
            continue
        for pitch in rng.choice(PALETTE, size=int(rng.integers(1, 3)), replace=False):
            pitch = int(pitch)
            if busy.get(pitch, 0) > t:
                continue
            end = min(t + int(rng.integers(min_len, 7)), n_halfbeats)
            busy[pitch] = end
            notes.append(Note(t, pitch, end, int(rng.integers(60, 110))))
    return NoteSequence.build(notes, TimeUnit.HALF_BEATS, duration=n_halfbeats)


def make_song(rng, seconds, bpm):
    """A song in seconds on a steady beat grid; returns (sequence, grid)."""
    bpm = _jitter(rng, bpm, BPM_JITTER)
    # Whole 4-beat windows plus two spare beats, so a tracker that finds
    # one beat more or less at either end still cuts the same windows.
    n_beats = 4 * round(_jitter(rng, seconds, SECONDS_JITTER) * bpm / 240.0) + 2
    grid = BeatGrid(0.2 + (60.0 / bpm) * np.arange(n_beats))
    piece = random_piece(rng, 2 * n_beats - 2)
    # A bass hit on every beat gives the song the pulse a real backing
    # track has; without it the tracker often locks onto 2/3 of the tempo.
    bass = [Note(2 * b, BASS_PITCH, 2 * b + 1, 120) for b in range(n_beats - 1)]
    piece = NoteSequence.build(piece.notes + tuple(bass), TimeUnit.HALF_BEATS,
                               duration=piece.duration)
    return halfbeats_to_seconds(piece, grid), grid


def expected_windows(grid: BeatGrid, partial: bool) -> int:
    """4-beat windows in a song from :func:`make_song`, read off the grid
    it was rendered on rather than a tracked one. The notes end two beats
    into a last window: ``build_dataset`` cuts that partial window too
    (``partial``), ``generate_cover`` only whole ones."""
    whole = (len(grid.beats) - 2) // 4
    return whole + 1 if partial else whole


def cover_of(rng, song: NoteSequence, keep_fraction=1.0) -> NoteSequence:
    """A cover performance: the song's notes on a drifting clock.

    The clock runs 0-4% fast or slow with a slow wobble, so alignment has
    real work to do while the length difference stays well inside the
    filter's 20% rule. ``keep_fraction`` < 1 keeps only that leading share
    of the song, which the length rule must reject.
    """
    rate = 1.0 + rng.uniform(-0.04, 0.04)
    depth = rng.uniform(0.1, 0.3)
    period = rng.uniform(20.0, 40.0)

    def clock(t):
        return t * rate + depth * np.sin(2.0 * np.pi * t / period)

    cut = song.duration * keep_fraction
    notes = [
        Note(float(clock(n.onset)), n.pitch, float(clock(n.offset)), n.velocity)
        for n in song
        if n.offset <= cut
    ]
    return NoteSequence.build(notes, TimeUnit.SECONDS, duration=float(clock(cut)))


def melody_contour(song: NoteSequence, hop=0.02, guard=0.1) -> F0Contour:
    """The song's top line as an f0 track, unvoiced near note changes."""
    times = np.arange(int(song.duration / hop)) * hop
    top = midi_topline(song, times)
    margin = int(round(guard / hop))
    padded = np.pad(top, margin, constant_values=UNVOICED)
    stable = np.ones(len(top), dtype=bool)
    for shift in range(2 * margin + 1):
        stable &= padded[shift : shift + len(top)] == top
    f0 = np.where(stable & (top != UNVOICED), 440.0 * 2.0 ** ((top - 69) / 12.0), 0.0)
    return F0Contour(times, f0)


def write_song(out: Path, name: str, song: NoteSequence) -> Path:
    wav = out / f"{name}.wav"
    write_wav(wav, render_sine_audio(song, SAMPLE_RATE))
    return wav


def write_pair(out: Path, rng, name, seconds, bpm, arranger_id, expected,
               keep_fraction=1.0, corrupt=False, beats=False):
    song, grid = make_song(rng, seconds, bpm)
    wav = write_song(out, name, song)
    midi = write_smf(cover_of(rng, song, keep_fraction))
    if corrupt:
        # Cut mid-track: the header parses, the event stream runs out.
        midi = midi[: len(midi) // 2]
    mid = out / f"{name}.mid"
    mid.write_bytes(midi)
    f0 = out / f"{name}.f0.csv"
    write_f0_csv(f0, melody_contour(song))
    record = {
        "pop_audio": str(wav),
        "cover_midi": str(mid),
        "f0": str(f0),
        "arranger_id": arranger_id,
        "expected": expected,
        "seconds": song.duration,
        "beat_period": float(grid.beats[1] - grid.beats[0]),
        "windows": expected_windows(grid, partial=True),
    }
    if beats:
        record["beats"] = str(out / f"{name}.beats")
        write_beat_file(record["beats"], grid)
    return record


def build_inputs(out: Path, seed: int):
    """The build manifest: six kept pairs plus a discard and a quarantine."""
    rng = np.random.default_rng([seed, 1])
    out.mkdir(parents=True, exist_ok=True)
    records = [
        write_pair(out, rng, f"pair{i}", secs, bpm, i % 21, "kept")
        for i, (secs, bpm) in enumerate(BUILD_SONGS)
    ]
    records.append(write_pair(out, rng, "short_cover", *SHORT_COVER, 0, "discarded",
                              keep_fraction=0.6))
    records.append(write_pair(out, rng, "corrupt_midi", *CORRUPT, 0, "failed",
                              corrupt=True))
    (out / "manifest.json").write_text(json.dumps(records, indent=1))
    return records


def train_inputs(out: Path, seed: int):
    """Pairs with beat files, so setup builds windows at a known tempo."""
    rng = np.random.default_rng([seed, 2])
    out.mkdir(parents=True, exist_ok=True)
    return [
        write_pair(out, rng, f"train{i}", secs, bpm, i, "kept", beats=True)
        for i, (secs, bpm) in enumerate(TRAIN_SONGS)
    ]


def cover_inputs(out: Path, seed: int):
    """Songs to cover, as WAV only: no beat file, no MIDI."""
    rng = np.random.default_rng([seed, 3])
    out.mkdir(parents=True, exist_ok=True)
    songs = []
    for i, (secs, bpm) in enumerate(COVER_SONGS):
        song, grid = make_song(rng, secs, bpm)
        songs.append({
            "audio": str(write_song(out, f"song{i}", song)),
            "seconds": song.duration,
            "beat_period": float(grid.beats[1] - grid.beats[0]),
            "windows": expected_windows(grid, partial=False),
            "arranger_id": i + 1,
        })
    return songs
