"""End-to-end tests: dataset builds, cover generation, stats, and the CLI."""

import dataclasses
import io
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.io.wavfile

from conftest import checkpoint_with_config, float32_checkpoint, fmt_chunk, wav_bytes
from pianocover import cli, features, pipeline, sync
from pianocover.beats import BeatGrid, halfbeats_to_seconds, read_beat_file, write_beat_file
from pianocover.cli import main
from pianocover.errors import NoBeatsError, ParameterError, PianoCoverError
from pianocover.features import MAX_SAMPLE_RATE, N_MELS, SAMPLE_RATE, load_wav, write_wav
from pianocover.filtering import (
    UNVOICED,
    F0Contour,
    Verdict,
    hz_to_cents,
    midi_topline,
    pitch_to_cents,
    write_f0_csv,
)
from pianocover.midi import Note, NoteSequence, TimeUnit, parse_smf, write_smf
from pianocover.model import (
    desk_config,
    greedy_generate,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from pianocover.model.checkpoint import MAGIC
from pianocover.model.config import MAX_FRAMES
from pianocover.pipeline import (
    MAX_RENDER_SAMPLES,
    WINDOW_HALFBEATS,
    BuildReport,
    CoverJob,
    PairRecord,
    build_dataset,
    build_pair,
    eval_stats,
    generate_cover,
    load_dataset,
    render_sine_audio,
    _window_mels,
    save_dataset,
)
from pianocover.tokenizer import EOS, TokenSeq, decode_segment, stitch

# A palette spanning seven pitch classes; chroma alignment needs the
# harmony to actually move.
PALETTE = [48, 50, 52, 53, 55, 57, 59, 60, 62, 64, 65, 67, 69, 71, 72]


def make_grid(n_beats, bpm=120.0, start=0.25):
    return BeatGrid(start + (60.0 / bpm) * np.arange(n_beats))


def random_piece(rng, n_halfbeats, min_len=4):
    """Half-beat piece with sustained notes and no same-pitch overlap."""
    notes = []
    busy = {}
    for t in range(n_halfbeats - min_len):
        if rng.random() < 0.45:
            continue
        for pitch in rng.choice(PALETTE, size=int(rng.integers(1, 4)), replace=False):
            pitch = int(pitch)
            if busy.get(pitch, 0) > t:
                continue
            end = min(t + int(rng.integers(min_len, 9)), n_halfbeats)
            busy[pitch] = end
            notes.append(Note(t, pitch, end))
    if not notes:
        notes.append(Note(0, 60, n_halfbeats))
    return NoteSequence.build(
        notes, TimeUnit.HALF_BEATS, duration=n_halfbeats, validate=False
    )


def topline_contour(seq, hop=0.02, guard=0.15):
    """The sequence's own top line as a melody reference.

    Frames are voiced only where the top line is stable for +-guard
    seconds, the way a real extractor goes unvoiced at transitions.
    """
    n = int(seq.duration / hop)
    times = np.arange(n) * hop
    top = midi_topline(seq, times)
    margin = int(round(guard / hop))
    f0 = np.zeros(n)
    for i in range(n):
        if top[i] == UNVOICED:
            continue
        lo, hi = max(0, i - margin), min(n, i + margin + 1)
        if np.all(top[lo:hi] == top[i]):
            f0[i] = 440.0 * 2.0 ** ((top[i] - 69) / 12.0)
    return F0Contour(times, f0)


def make_pair(tmp_path, rng, name="pair", n_beats=16, arranger_id=0, transpose=0):
    """Write a synthetic (pop wav, cover mid, beats, f0) record to disk."""
    grid = make_grid(n_beats)
    piece = random_piece(rng, 2 * n_beats - 4)
    seconds = halfbeats_to_seconds(piece, grid)
    audio = render_sine_audio(seconds, SAMPLE_RATE)
    wav = tmp_path / f"{name}.wav"
    write_wav(wav, audio)
    cover = seconds if transpose == 0 else NoteSequence.build(
        [Note(n.onset, n.pitch + transpose, n.offset, n.velocity) for n in seconds],
        TimeUnit.SECONDS,
        duration=seconds.duration,
    )
    mid = tmp_path / f"{name}.mid"
    mid.write_bytes(write_smf(cover))
    beats = tmp_path / f"{name}.beats"
    write_beat_file(beats, grid)
    f0 = tmp_path / f"{name}.csv"
    write_f0_csv(f0, topline_contour(seconds))
    record = PairRecord(
        pop_audio=str(wav),
        cover_midi=str(mid),
        arranger_id=arranger_id,
        beats=str(beats),
        f0=str(f0),
    )
    return record, grid, piece, seconds


def toy_checkpoint(tmp_path, seed=0, **overrides):
    base = dict(
        d_model=32,
        num_heads=4,
        d_ff=64,
        num_encoder_layers=1,
        num_decoder_layers=1,
        num_arrangers=4,
        max_decode_len=48,
    )
    base.update(overrides)
    cfg = desk_config(**base)
    params = init_params(cfg, seed=seed)
    path = tmp_path / "toy.ckpt"
    save_checkpoint(path, params, cfg)
    return path, cfg


def forbidden_mel(*args, **kwargs):
    raise AssertionError("a mel spectrogram was built")


def per_note_render(seq, sample_rate):
    """The reference renderer: one np.sin call per note, as render_sine_audio
    computed it before it kept one sine table per pitch."""
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


def sample_notes(rng, sample_rate, n_samples, pitches, count):
    """Notes on sample boundaries, of the given pitches, with lengths from
    1 sample to the whole clip, some running to its end."""
    notes = []
    for _ in range(count):
        lo = int(rng.integers(0, n_samples - 1))
        length = int(rng.choice([1, 2, 3, rng.integers(1, 400), rng.integers(1, n_samples)]))
        hi = n_samples if rng.random() < 0.1 else min(n_samples, lo + length)
        notes.append(Note(lo / sample_rate, int(rng.choice(pitches)), hi / sample_rate,
                          int(rng.integers(1, 128))))
    return notes


class TestRenderSineAudio:
    @pytest.mark.parametrize("seed,sample_rate,pitches", [
        (0, 8000, [60]),
        (1, 8000, [40, 52, 60, 64, 67, 100]),
        (2, SAMPLE_RATE, [21, 69, 108]),
        (3, 44100, list(range(30, 90))),
        (4, 1000, [0, 127]),
    ])
    def test_bit_equal_to_the_per_note_renderer(self, seed, sample_rate, pitches):
        # Few pitches give one pitch at many lengths and same-pitch
        # overlaps; long notes outgrow their tables, which together hold
        # at most one mix of samples.
        rng = np.random.default_rng(seed)
        n_samples = int(rng.integers(2000, 30000))
        notes = sample_notes(rng, sample_rate, n_samples, pitches, 120)
        notes += [Note(5 / sample_rate, pitches[0], 6 / sample_rate),
                  Note(9 / sample_rate, pitches[-1], 11 / sample_rate),
                  Note(0.0, pitches[0], n_samples / sample_rate, 127)]
        seq = NoteSequence.build(notes, duration=n_samples / sample_rate)
        got = render_sine_audio(seq, sample_rate)
        assert got.tobytes() == per_note_render(seq, sample_rate).tobytes()

    def test_notes_across_chunks_match_the_per_note_renderer(self):
        # Notes are added one chunk at a time: these span one to three
        # chunks, one fade-out straddles a chunk's end, and the longest
        # runs past its pitch's table (half the mix) inside a chunk.
        sample_rate, chunk = 8000, pipeline._RENDER_CHUNK
        n_samples = 2 * chunk + 500
        lengths = [chunk - 1, chunk, chunk + 1, chunk + 40, n_samples]
        notes = [Note(0.0, 60, length / sample_rate, 100) for length in lengths]
        notes.append(Note(7 / sample_rate, 64, (7 + chunk + 20) / sample_rate, 90))
        seq = NoteSequence.build(notes, duration=n_samples / sample_rate)
        got = render_sine_audio(seq, sample_rate)
        assert got.tobytes() == per_note_render(seq, sample_rate).tobytes()

    def test_a_note_rounding_onto_the_end_of_the_mix_adds_nothing(self):
        # round(0.99995 * 10000) is 10000, the mix length, so the note is empty.
        alone = NoteSequence.build([Note(0.0, 60, 0.25)], duration=1.0)
        seq = NoteSequence.build([*alone.notes, Note(0.99995, 64, 1.0)], duration=1.0)
        got = render_sine_audio(seq, 10000).tobytes()
        assert got == per_note_render(seq, 10000).tobytes()
        assert got == render_sine_audio(alone, 10000).tobytes()

    def test_tables_cost_at_most_one_mix_more_than_per_note(self):
        sample_rate, seconds = 8000, 4.0
        seq = NoteSequence.build([Note(0.0, p, seconds, 100) for p in range(128)],
                                 duration=seconds)

        def traced(render):
            tracemalloc.start()
            try:
                mix = render(seq, sample_rate)
                return mix, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        expected, per_note_peak = traced(per_note_render)
        got, peak = traced(render_sine_audio)
        assert got.tobytes() == expected.tobytes()
        assert peak <= per_note_peak + expected.nbytes

    def test_holds_only_the_mix_and_its_tables(self):
        # A 60-s note runs past its pitch's table, which is capped at half
        # the mix; the 1-s note's table is small.
        seq = NoteSequence.build([Note(0.0, 60, 60.0, 100), Note(10.0, 64, 11.0, 90)],
                                 duration=60.0)
        tracemalloc.start()
        try:
            mix = render_sine_audio(seq, SAMPLE_RATE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * mix.nbytes, f"peak {peak / mix.nbytes:.2f}x the mix"

    def test_refuses_a_mix_over_the_render_limit(self):
        seq = NoteSequence.build([Note(0.0, 60, 1.0)], duration=MAX_RENDER_SAMPLES + 1)
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match="over the render limit of 134217728"):
                render_sine_audio(seq, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def _spectrum(self, samples, sample_rate):
        mag = np.abs(np.fft.rfft(samples * np.hanning(len(samples))))
        freqs = np.fft.rfftfreq(len(samples), 1.0 / sample_rate)
        return freqs, mag

    def test_single_note_dominant_frequency(self):
        seq = NoteSequence.build([Note(0.1, 69, 1.1)], duration=1.2)
        audio = render_sine_audio(seq, SAMPLE_RATE)
        span = audio[int(0.2 * SAMPLE_RATE) : int(1.0 * SAMPLE_RATE)]
        freqs, mag = self._spectrum(span, SAMPLE_RATE)
        assert abs(freqs[int(np.argmax(mag))] - 440.0) < 2.0

    def test_silence_between_notes(self):
        seq = NoteSequence.build(
            [Note(0.0, 60, 0.5), Note(1.5, 64, 2.0)], duration=2.0
        )
        audio = render_sine_audio(seq, SAMPLE_RATE)
        gap = audio[int(0.6 * SAMPLE_RATE) : int(1.4 * SAMPLE_RATE)]
        assert np.abs(gap).max() <= 1e-3

    def test_chord_has_both_peaks(self):
        seq = NoteSequence.build([Note(0.0, 60, 1.0), Note(0.0, 67, 1.0)], duration=1.0)
        audio = render_sine_audio(seq, SAMPLE_RATE)
        freqs, mag = self._spectrum(audio, SAMPLE_RATE)
        for pitch in (60, 67):
            f = 440.0 * 2.0 ** ((pitch - 69) / 12.0)
            window = (freqs > f - 5) & (freqs < f + 5)
            assert mag[window].max() > 0.2 * mag.max()

    def test_peak_normalized(self):
        seq = NoteSequence.build([Note(0.0, 60, 1.0)], duration=1.0)
        audio = render_sine_audio(seq, SAMPLE_RATE)
        assert abs(np.abs(audio).max() - 0.9) < 1e-9

    def test_empty_rejected(self):
        seq = NoteSequence.build([], duration=1.0)
        with pytest.raises(ParameterError):
            render_sine_audio(seq, SAMPLE_RATE)


class TestWindowSpans:
    @pytest.mark.parametrize("beats", [
        make_grid(10).beats,
        make_grid(9, bpm=97.0, start=-0.3).beats,
        0.25 + np.cumsum(np.random.default_rng(3).uniform(0.3, 0.7, 13)),
        np.arange(1, 12) * 10001 / 44100,  # edges on half samples
    ])
    def test_spans_equal_the_per_window_values(self, beats, monkeypatch):
        grid = BeatGrid(beats)
        n_samples = int(beats[-1] * SAMPLE_RATE) - 500
        # Windows past the last half-beat extrapolate and overrun the audio.
        n_windows = len(grid.half_beats) // WINDOW_HALFBEATS + 3

        def window(w):
            t0 = grid.halfbeat_to_seconds(w * WINDOW_HALFBEATS)
            t1 = grid.halfbeat_to_seconds((w + 1) * WINDOW_HALFBEATS)
            return [max(0, int(round(t0 * SAMPLE_RATE))),
                    min(n_samples, int(round(t1 * SAMPLE_RATE)))]

        # Each sample is its own index, and each window's clip is handed
        # back as its mel, so the clips show the spans cut.
        audio = np.arange(n_samples, dtype=np.float64)
        monkeypatch.setattr(pipeline, "melspectrogram", lambda clip: clip.tolist())
        clips = _window_mels(audio, grid, range(n_windows))
        spans = [window(w) for w in range(n_windows)]
        assert any(hi - lo < features.WINDOW for lo, hi in spans)
        # A clip shorter than one analysis window is zero-padded to it.
        padded = [list(range(lo, hi)) + [0.0] * (features.WINDOW - max(hi - lo, 0))
                  for lo, hi in spans]
        assert clips == padded


class TestBuildPair:
    def test_self_pair_keeps_with_full_mca(self, tmp_path):
        rng = np.random.default_rng(0)
        record, _, piece, _ = make_pair(tmp_path, rng)
        built = build_pair(record)
        assert built.report.verdict is Verdict.KEEP
        assert built.report.mca == 1.0
        assert built.report.length_ratio_diff < 0.02
        assert len(built.examples) >= 1

    def test_transposed_cover_discarded(self, tmp_path):
        rng = np.random.default_rng(1)
        record, _, _, _ = make_pair(tmp_path, rng, name="tritone", transpose=6)
        built = build_pair(record)
        assert built.report.verdict is Verdict.DISCARD
        assert "mca" in built.report.reasons
        assert built.report.mca <= 0.15
        assert built.examples == []

    @pytest.mark.parametrize("beats", ["untrackable", "bad beat file"])
    def test_discarded_pair_needs_no_beat_grid(self, tmp_path, monkeypatch, beats):
        record, _, _, _ = make_pair(tmp_path, np.random.default_rng(1), transpose=6)
        if beats == "untrackable":
            record = dataclasses.replace(record, beats=None)
        else:
            bad = tmp_path / "bad.beats"
            bad.write_text("1.0\nnan\n")
            record = dataclasses.replace(record, beats=str(bad))

        def untrackable(audio):
            raise NoBeatsError("no beats in this recording")

        monkeypatch.setattr(pipeline, "track_beats", untrackable)
        _, report = build_dataset([record])
        entry = report.entries[0]
        assert entry["status"] == "discarded"
        assert "mca" in entry["reasons"] and entry["mca"] <= 0.15

    def test_corrupt_cover_fails_before_its_wav_is_read(self, tmp_path, monkeypatch):
        record, _, _, _ = make_pair(tmp_path, np.random.default_rng(1))
        mid, wav = tmp_path / "cut.mid", tmp_path / "not_wav.wav"
        mid.write_bytes(Path(record.cover_midi).read_bytes()[:20])
        wav.write_bytes(b"ID3 this is not a RIFF file")

        def unread(path):
            raise AssertionError("the WAV was read")

        monkeypatch.setattr(pipeline, "load_wav", unread)
        _, report = build_dataset([dataclasses.replace(record, pop_audio=str(wav),
                                                       cover_midi=str(mid))])
        entry = report.entries[0]
        assert entry["status"] == "failed"
        assert "unexpected end of data" in entry["reason"]

    def test_truncated_cover_is_named_in_the_report(self, tmp_path):
        record, _, _, _ = make_pair(tmp_path, np.random.default_rng(1))
        mid = tmp_path / "cut.mid"
        mid.write_bytes(Path(record.cover_midi).read_bytes()[:-7])
        build_dataset([dataclasses.replace(record, cover_midi=str(mid))], tmp_path / "ds")
        entry = json.loads((tmp_path / "ds" / "dataset.json").read_text())["report"]["entries"][0]
        assert entry["status"] == "failed"
        assert entry["reason"].startswith(f"{mid}: unexpected end of data")

    def test_a_refused_segment_is_dropped_without_a_mel(self, tmp_path, monkeypatch, caplog):
        record, grid, _, seconds = make_pair(tmp_path, np.random.default_rng(0))
        # Pitch 12 is below the piano's 21..108, so encode_segment refuses
        # the one window it sounds in, window 1.
        onset, offset = grid.halfbeat_to_seconds([10, 12])
        low = NoteSequence.build([*seconds, Note(onset, 12, offset)], duration=seconds.duration)
        Path(record.cover_midi).write_bytes(write_smf(low))
        calls = {"encode_segment": 0, "melspectrogram": 0}
        for name in calls:
            def counted(*args, _name=name, _inner=getattr(pipeline, name)):
                calls[_name] += 1
                return _inner(*args)
            monkeypatch.setattr(pipeline, name, counted)

        with caplog.at_level("WARNING"):
            built = build_pair(record)
        assert built.kept and built.dropped_segments == 1
        assert len(built.examples) == calls["encode_segment"] - 1 == 3
        assert calls["melspectrogram"] == len(built.examples)
        (warning,) = caplog.records
        assert "segment 1 dropped: pitch 12 outside the piano range" in warning.message

        _, report = build_dataset([record])
        (entry,) = report.entries
        assert (entry["n_examples"], entry["dropped_segments"]) == (3, 1)

    def test_examples_decode_within_window(self, tmp_path):
        rng = np.random.default_rng(2)
        record, _, _, _ = make_pair(tmp_path, rng, name="win")
        built = build_pair(record)
        for _, arranger_id, tokens in built.examples:
            assert arranger_id == record.arranger_id
            closed, open_map = decode_segment(tokens.ids)
            for note in closed:
                assert 0 <= note.onset < 8
                assert 21 <= note.pitch <= 108
            for pitch, onset in open_map.items():
                assert 0 <= onset < 8
                assert 21 <= pitch <= 108


class TestBuildDataset:
    def test_empty_manifest(self):
        examples, report = build_dataset([])
        assert examples == []
        assert (report.total, report.kept, report.discarded, report.failed) == (0, 0, 0, 0)

    def test_mixed_records(self, tmp_path):
        rng = np.random.default_rng(3)
        good, _, _, _ = make_pair(tmp_path, rng, name="good", arranger_id=1)
        bad, _, _, _ = make_pair(tmp_path, rng, name="bad", transpose=6)
        missing = PairRecord(str(tmp_path / "nope.wav"), good.cover_midi, 0)
        not_wav = tmp_path / "not_wav.wav"
        not_wav.write_bytes(b"ID3 this is not a RIFF file")
        garbled = PairRecord(str(not_wav), good.cover_midi, 0)
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes(b"time,frequency\n0.0,0.0\n# caf\xe9\n")
        undecodable = PairRecord(good.pop_audio, good.cover_midi, 0, good.beats, str(latin1))
        examples, report = build_dataset([good, bad, missing, garbled, undecodable])
        assert (report.kept, report.discarded, report.failed) == (1, 1, 3)
        statuses = [e["status"] for e in report.entries]
        assert statuses == ["kept", "discarded", "failed", "failed", "failed"]
        assert "not a readable WAV file" in report.entries[3]["reason"]
        assert "latin1.csv: not UTF-8 text" in report.entries[4]["reason"]
        assert report.entries[0]["n_examples"] == len(examples) >= 1
        assert all(aid == 1 for _, aid, _ in examples)

    def test_non_finite_side_files_quarantine(self, tmp_path):
        rng = np.random.default_rng(5)
        record, _, _, _ = make_pair(tmp_path, rng, name="song")
        beats = tmp_path / "inf.beats"
        beats.write_bytes(Path(record.beats).read_bytes() + b"inf\n")
        records = [PairRecord(record.pop_audio, record.cover_midi, 0, str(beats), record.f0)]
        for value in (b"nan", b"inf"):
            f0 = tmp_path / f"{value.decode()}.csv"
            f0.write_bytes(_with_f0(value)({"f0": record.f0}))
            records.append(PairRecord(record.pop_audio, record.cover_midi, 0, record.beats, str(f0)))
        _, report = build_dataset(records)
        assert (report.kept, report.discarded, report.failed) == (0, 0, 3)
        reasons = [e["reason"] for e in report.entries]
        assert "inf.beats: beat times must be finite" in reasons[0]
        assert "nan.csv: times and f0 values must be finite" in reasons[1]
        assert "inf.csv: times and f0 values must be finite" in reasons[2]

    def test_wav_scipy_cannot_read_quarantines(self, tmp_path):
        record, _, _, _ = make_pair(tmp_path, np.random.default_rng(7), name="song")
        kept, _ = build_dataset([record])
        records = [record]
        for name, content in [("no_chunks", WAV_NO_CHUNKS),
                              ("zero_bits", WAV_ZERO_BITS)]:
            wav = tmp_path / f"{name}.wav"
            wav.write_bytes(content)
            records.append(PairRecord(str(wav), record.cover_midi, 0, record.beats, record.f0))
        examples, report = build_dataset(records + [record])
        assert [e["status"] for e in report.entries] == ["kept", "failed", "failed", "kept"]
        assert "no_chunks.wav: not a readable WAV file: no fmt or data chunk" in (
            report.entries[1]["reason"])
        assert "zero_bits.wav: not a readable WAV file: fmt chunk has 0-byte samples" in (
            report.entries[2]["reason"])
        assert len(examples) == 2 * len(kept)
        for (mel, aid, tokens), (want_mel, want_aid, want_tokens) in zip(examples, kept + kept):
            assert np.array_equal(mel.frames, want_mel.frames)
            assert (aid, tokens) == (want_aid, want_tokens)

    def test_byte_mutations_stay_in_their_record(self, tmp_path):
        rng = np.random.default_rng(11)
        before, _, _, _ = make_pair(tmp_path, rng, name="before")
        target, _, _, _ = make_pair(tmp_path, rng, name="target")
        after, _, _, _ = make_pair(tmp_path, rng, name="after", arranger_id=1)
        want = build_dataset([before])[0], build_dataset([after])[0]
        fields = ["pop_audio", "cover_midi", "beats", "f0"]
        for trial in range(200):
            field = fields[trial % len(fields)]
            data = bytearray(Path(getattr(target, field)).read_bytes())
            # Half of the edits land in the headers, or the first lines.  Text
            # files also get bytes of their own alphabet, so that some
            # mutants still parse.
            for _ in range(int(rng.integers(1, 4))):
                at = rng.integers(0, 64) if rng.random() < 0.5 else rng.integers(0, len(data))
                text = field in ("beats", "f0") and rng.random() < 0.5
                alphabet = b"0123456789.-e,\n" if text else bytes(range(256))
                data[int(at)] = alphabet[rng.integers(0, len(alphabet))]
            if rng.random() < 0.2:
                del data[int(rng.integers(0, len(data))):]
            mutant = tmp_path / f"mutant{trial}"
            mutant.write_bytes(bytes(data))
            record = dataclasses.replace(target, **{field: str(mutant)})
            examples, report = build_dataset([before, record, after])
            statuses = [e["status"] for e in report.entries]
            assert statuses[0] == statuses[2] == "kept", (trial, field, report.entries)
            assert statuses[1] in ("kept", "discarded", "failed")
            around = examples[: len(want[0])] + examples[len(examples) - len(want[1]) :]
            assert len(examples) == (len(want[0]) + report.entries[1].get("n_examples", 0)
                                     + len(want[1]))
            for (mel, aid, tokens), (want_mel, want_aid, want_tokens) in zip(
                    around, want[0] + want[1]):
                assert np.array_equal(mel.frames, want_mel.frames)
                assert (aid, tokens) == (want_aid, want_tokens)

    def test_pair_over_the_dtw_budget_quarantines(self, tmp_path, monkeypatch):
        record, _, _, _ = make_pair(tmp_path, np.random.default_rng(6), name="song")
        monkeypatch.setattr(sync, "MAX_DTW_CELLS", 100)
        examples, report = build_dataset([record])
        assert (examples, report.failed) == ([], 1)
        assert report.entries[0]["status"] == "failed"
        assert "DTW cells, over the budget of 100" in report.entries[0]["reason"]

    def test_pair_over_the_frame_budget_quarantines_before_any_mel(
        self, tmp_path, monkeypatch
    ):
        record, _, _, _ = make_pair(tmp_path, np.random.default_rng(6), name="song")
        monkeypatch.setattr(pipeline, "MAX_FRAMES", 30)
        monkeypatch.setattr(pipeline, "melspectrogram", forbidden_mel)
        examples, report = build_dataset([record])
        assert (examples, report.failed) == ([], 1)
        assert "mel frames, over the encoder budget of 30" in report.entries[0]["reason"]

    def test_rebuild_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(4)
        record, _, _, _ = make_pair(tmp_path, rng, name="idem")
        dirs = []
        for run in ("a", "b"):
            out = tmp_path / f"ds_{run}"
            build_dataset([record], out_dir=out)
            dirs.append(out)
        files_a = sorted(p.name for p in dirs[0].iterdir())
        files_b = sorted(p.name for p in dirs[1].iterdir())
        assert files_a == files_b and len(files_a) >= 3
        for name in files_a:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        record, _, _, _ = make_pair(tmp_path, rng, name="rt", arranger_id=2)
        out = tmp_path / "ds"
        examples, report = build_dataset([record], out_dir=out)
        assert sorted(p.name for p in out.iterdir()) == ["dataset.json", "mels.npy", "tokens.txt"]
        loaded, loaded_report = load_dataset(out)
        assert len(loaded) == len(examples)
        assert loaded_report["kept"] == report.kept
        for (spec, aid, tokens), (frames, laid, ltokens) in zip(examples, loaded):
            assert np.array_equal(np.asarray(spec.frames), frames)
            assert (aid, tokens.ids) == (laid, ltokens.ids)


class TestStreamedBuild:
    """build_dataset with out_dir writes each kept pair as it is built."""

    @pytest.fixture(scope="class")
    def songs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("songs")
        rng = np.random.default_rng(31)
        kept = [make_pair(root, rng, name=f"kept{i}", arranger_id=i)[0] for i in range(2)]
        discarded, _, _, _ = make_pair(root, rng, name="discarded", transpose=6)
        failed = PairRecord(str(root / "nope.wav"), kept[0].cover_midi, 0)
        return {"kept": kept, "discarded": discarded, "failed": failed}

    def test_memory_is_one_songs_not_the_datasets(self, songs, tmp_path):
        record = songs["kept"][0]
        warm, _ = build_dataset([record], tmp_path / "warm")  # fills the caches
        mel_bytes = sum(spec.frames.nbytes for spec, _, _ in warm)
        peaks = {}
        for copies in (1, 4):
            tracemalloc.start()
            try:
                build_dataset([record] * copies, tmp_path / f"ds{copies}")
                peaks[copies] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert abs(peaks[4] - peaks[1]) < mel_bytes, (peaks, mel_bytes)

    @pytest.mark.parametrize("manifest", ["mixed", "all failed"])
    def test_writes_and_returns_what_the_in_memory_build_saves(self, songs, tmp_path, manifest):
        if manifest == "mixed":
            records = [songs["kept"][0], songs["failed"], songs["discarded"], songs["kept"][1]]
        else:
            records = [songs["failed"]] * 2
        streamed, report = build_dataset(records, tmp_path / "streamed")
        held, held_report = build_dataset(records)
        save_dataset(tmp_path / "saved", held, held_report)
        for name in ("mels.npy", "tokens.txt", "dataset.json"):
            assert ((tmp_path / "streamed" / name).read_bytes()
                    == (tmp_path / "saved" / name).read_bytes()), name
        if manifest == "all failed":
            assert (tmp_path / "streamed" / "mels.npy").stat().st_size == 128
        loaded, loaded_report = load_dataset(tmp_path / "streamed")
        assert report == held_report and loaded_report == report.to_dict()
        assert len(streamed) == len(loaded) == len(held)
        assert len(held) == sum(e.get("n_examples", 0) for e in report.entries)
        for (spec, aid, tokens), (frames, laid, ltokens), (want, want_aid, want_tokens) in zip(
                streamed, loaded, held):
            assert isinstance(spec, features.MelSpectrogram)
            assert type(spec.frames) is np.ndarray and not spec.frames.flags.writeable
            assert spec.frames.tobytes() == frames.tobytes() == want.frames.tobytes()
            assert (aid, tokens) == (laid, ltokens) == (want_aid, want_tokens)

    @pytest.mark.parametrize("error", [RuntimeError, ParameterError])
    def test_an_error_keeps_the_previous_dataset(self, songs, tmp_path, monkeypatch, error):
        out = tmp_path / "ds"
        build_dataset([songs["kept"][1]], out)
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        real = pipeline.build_pair

        def breaks_on_record_3(record):
            built = real(record)
            if record.arranger_id == 3:
                if error is RuntimeError:
                    raise RuntimeError("record 3 broke")
                built.examples[-1] = (built.examples[-1][0], 3, TokenSeq(()))
            return built

        monkeypatch.setattr(pipeline, "build_pair", breaks_on_record_3)
        records = [dataclasses.replace(songs["kept"][0], arranger_id=i) for i in range(5)]
        with pytest.raises(error):
            build_dataset(records, out)
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before


# Builds a dataset, loads it, rebuilds the directory in place with no
# examples, and checks that the first build's returned and loaded frames
# still read as they did.
_REBUILD_CHILD = """
import sys
import numpy as np
from pianocover.pipeline import PairRecord, build_dataset, load_dataset
out, *record = sys.argv[1:]
returned, _ = build_dataset([PairRecord(record[0], record[1], 0, *record[2:])], out)
loaded, _ = load_dataset(out)
want = [np.array(spec.frames) for spec, _, _ in returned]
build_dataset([], out)
assert [spec.frames.tobytes() for spec, _, _ in returned] == [w.tobytes() for w in want]
assert [frames.tobytes() for frames, _, _ in loaded] == [w.tobytes() for w in want]
print(len(want))
"""


def test_frames_survive_a_rebuild_in_place(tmp_path):
    record, _, _, _ = make_pair(tmp_path, np.random.default_rng(32), name="song")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    # A child process, so that a SIGBUS from a truncated mapping fails the
    # test instead of ending the test run.
    child = subprocess.run(
        [sys.executable, "-c", _REBUILD_CHILD, str(tmp_path / "ds"), record.pop_audio,
         record.cover_midi, record.beats, record.f0],
        env=env, capture_output=True, text=True, timeout=120, check=False)
    assert child.returncode == 0, child.stderr
    assert int(child.stdout) >= 1
    assert (tmp_path / "ds" / "mels.npy").stat().st_size == 128


def ragged_examples(rng, count):
    """Examples of 1 to 80 frames holding every kind of finite float64."""
    examples = []
    for _ in range(count):
        scale = 10.0 ** rng.integers(-320, 300, size=N_MELS)  # subnormal to huge
        frames = rng.standard_normal((int(rng.integers(1, 81)), N_MELS)) * scale
        frames[0, :3] = (-0.0, np.finfo(float).max, np.finfo(float).tiny / 4)
        # Note-off, note-on and pitch ids, in any order, make a valid segment.
        ids = rng.integers(102, 232, int(rng.integers(0, 20)))
        tokens = TokenSeq(tuple(int(i) for i in ids) + (EOS,))
        examples.append((frames, int(rng.integers(0, 21)), tokens))
    return examples


class TestDatasetDirectory:
    def test_ragged_round_trip_is_bit_equal(self, tmp_path):
        examples = ragged_examples(np.random.default_rng(21), 40)
        save_dataset(tmp_path / "ds", examples, BuildReport(1, 1, 0, 0, []))
        loaded, report = load_dataset(tmp_path / "ds")
        assert report == BuildReport(1, 1, 0, 0, []).to_dict()
        assert len(loaded) == len(examples)
        for (frames, aid, tokens), (got, got_aid, got_tokens) in zip(examples, loaded):
            assert got.dtype == np.float64 and got.tobytes() == frames.tobytes()
            assert (got_aid, got_tokens.ids) == (aid, tokens.ids)

    def test_empty_round_trip(self, tmp_path):
        save_dataset(tmp_path / "ds", [], BuildReport(0, 0, 0, 0, []))
        assert load_dataset(tmp_path / "ds") == ([], BuildReport(0, 0, 0, 0, []).to_dict())

    @pytest.mark.parametrize("shape", [(4, N_MELS - 1), (4, N_MELS + 1), (0, N_MELS), (N_MELS,)])
    def test_save_refuses_other_shapes(self, tmp_path, shape):
        example = (np.zeros(shape), 0, TokenSeq((EOS,)))
        with pytest.raises(ParameterError, match=f"expected frames shaped \\(t, {N_MELS}\\)"):
            save_dataset(tmp_path / "ds", [example], BuildReport(1, 1, 0, 0, []))
        assert not (tmp_path / "ds").exists()

    def test_save_refuses_an_empty_token_sequence(self, tmp_path):
        # tokens.txt would hold a blank line for it, which load_dataset skips.
        examples = [(np.zeros((4, N_MELS)), 0, TokenSeq((EOS,))),
                    (np.zeros((4, N_MELS)), 0, TokenSeq(()))]
        with pytest.raises(ParameterError, match="example 1 has no tokens"):
            save_dataset(tmp_path / "ds", examples, BuildReport(1, 1, 0, 0, []))
        assert not (tmp_path / "ds").exists()

    def test_byte_mutations_raise_only_package_errors(self, tmp_path):
        valid = tmp_path / "valid"
        save_dataset(valid, ragged_examples(np.random.default_rng(22), 3),
                     BuildReport(1, 1, 0, 0, []))
        names = ["dataset.json", "mels.npy", "tokens.txt"]
        rng = np.random.default_rng(23)
        for trial in range(600):
            name = names[trial % len(names)]
            mutant = tmp_path / f"mutant{trial}"
            shutil.copytree(valid, mutant)
            data = bytearray((valid / name).read_bytes())
            # Half of the edits land in the .npy header or the first lines.
            # Text files also get bytes of their own alphabet, so that some
            # mutants still parse.
            for _ in range(int(rng.integers(1, 4))):
                at = rng.integers(0, 64) if rng.random() < 0.5 else rng.integers(0, len(data))
                text = name != "mels.npy" and rng.random() < 0.5
                alphabet = b'0123456789 -.e,:[]{}"\n' if text else bytes(range(256))
                data[int(at)] = alphabet[rng.integers(0, len(alphabet))]
            if rng.random() < 0.2:
                del data[int(rng.integers(0, len(data))):]
            (mutant / name).write_bytes(bytes(data))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    examples, _ = load_dataset(mutant)
                except PianoCoverError:
                    continue
            assert not caught, (trial, [str(w.message) for w in caught])
            for frames, aid, _ in examples:
                assert frames.shape[1:] == (N_MELS,) and len(frames) >= 1
                assert np.isfinite(frames).all() and type(aid) is int
            shutil.rmtree(mutant)


class TestGenerateCover:
    def _job(self, tmp_path, rng, n_beats=16, **ckpt_overrides):
        record, grid, _, _ = make_pair(tmp_path, rng, name="cov", n_beats=n_beats)
        ckpt, cfg = toy_checkpoint(tmp_path, **ckpt_overrides)
        job = CoverJob(
            audio=record.pop_audio,
            arranger_id=1,
            checkpoint=str(ckpt),
            output=str(tmp_path / "cover.mid"),
            beats=record.beats,
        )
        return job, grid, cfg

    def test_output_is_valid_midi(self, tmp_path):
        job, grid, _ = self._job(tmp_path, np.random.default_rng(6))
        seq = generate_cover(job)
        assert job.windows == (len(grid.half_beats)) // 8
        parsed = parse_smf((tmp_path / "cover.mid").read_bytes())
        assert len(parsed.notes) == len(seq.notes)
        onsets = [n.onset for n in seq]
        assert onsets == sorted(onsets)
        for note in seq:
            assert 21 <= note.pitch <= 108
        final = grid.halfbeat_to_seconds(len(grid.half_beats))
        assert seq.duration <= final + 1e-9

    def test_deterministic_bytes(self, tmp_path):
        rng = np.random.default_rng(7)
        job, _, _ = self._job(tmp_path, rng)
        generate_cover(job)
        first = (tmp_path / "cover.mid").read_bytes()
        job2 = CoverJob(
            audio=job.audio,
            arranger_id=job.arranger_id,
            checkpoint=job.checkpoint,
            output=job.output,
            beats=job.beats,
        )
        generate_cover(job2)
        assert (tmp_path / "cover.mid").read_bytes() == first

    def test_lockstep_matches_window_by_window(self, tmp_path):
        job, _, _ = self._job(tmp_path, np.random.default_rng(21))
        # A tempo that changes every four beats gives every window its
        # own frame count.
        spacing = [0.5] * 4 + [0.35] * 4 + [0.6] * 4 + [0.45] * 3
        write_beat_file(job.beats, BeatGrid(0.25 + np.cumsum([0.0] + spacing)))
        params, config = load_checkpoint(job.checkpoint)
        # EOS takes the output row of token 159, which two windows settle
        # on, so those windows stop early and the others hit the cap.
        params["token_emb"][EOS] = params["token_emb"][159]
        save_checkpoint(job.checkpoint, params, config)
        generate_cover(job)

        audio = load_wav(job.audio)
        grid = read_beat_file(job.beats)
        specs = _window_mels(audio, grid, range(4))
        assert len({len(spec.frames) for spec in specs}) == 4
        segments = [greedy_generate(spec, job.arranger_id, params, config) for spec in specs]
        stopped = [tokens.ids[-1] == EOS for tokens in segments]
        assert any(stopped) and not all(stopped)
        piece = stitch(segments)
        expected = write_smf(halfbeats_to_seconds(piece, grid))
        assert (tmp_path / "cover.mid").read_bytes() == expected
        assert (job.windows, job.truncated_segments) == (4, stopped.count(False))

    def test_checkpoint_naming_the_vocabulary_size_writes_the_same_cover(self, tmp_path):
        # Checkpoints written while vocab_size and n_mels were config fields
        # name both.
        job, _, _ = self._job(tmp_path, np.random.default_rng(7))
        generate_cover(job)
        first = (tmp_path / "cover.mid").read_bytes()
        ckpt = Path(job.checkpoint)
        ckpt.write_bytes(checkpoint_with_config(ckpt.read_bytes(), vocab_size=232, n_mels=128))
        generate_cover(dataclasses.replace(job, output=str(tmp_path / "again.mid")))
        assert (tmp_path / "again.mid").read_bytes() == first

    def test_counters_are_outputs(self, tmp_path):
        job, _, _ = self._job(tmp_path, np.random.default_rng(9))
        inputs = dict(audio=job.audio, arranger_id=1, checkpoint=job.checkpoint,
                      output=job.output)
        for counter in ("windows", "truncated_segments"):
            with pytest.raises(TypeError, match=counter):
                CoverJob(**inputs, **{counter: 5})
        generate_cover(job)
        first = (job.windows, job.truncated_segments)
        assert first[1] > 0
        # A job run again reports that run's counts.
        generate_cover(job)
        assert (job.windows, job.truncated_segments) == first

    def test_exactly_four_beats_is_one_window(self, tmp_path):
        job, grid, _ = self._job(tmp_path, np.random.default_rng(8), n_beats=4)
        generate_cover(job)
        assert len(grid.half_beats) == 8
        assert job.windows == 1

    @pytest.mark.parametrize("kind", ["float32", "800 mels"])
    def test_refuses_other_checkpoints_before_reading_audio(self, tmp_path, kind):
        job, _, _ = self._job(tmp_path, np.random.default_rng(10), n_beats=4)
        if kind == "float32":
            params, config = load_checkpoint(job.checkpoint)
            Path(job.checkpoint).write_bytes(float32_checkpoint(params, config))
        else:
            ckpt = Path(job.checkpoint)
            ckpt.write_bytes(checkpoint_with_config(ckpt.read_bytes(), n_mels=800))
        job.audio = str(tmp_path / "missing.wav")
        with pytest.raises(PianoCoverError) as exc:
            generate_cover(job)
        assert str(exc.value).startswith(f"{job.checkpoint}: ")

    def test_window_over_the_frame_budget_is_refused_before_any_mel(
        self, tmp_path, monkeypatch
    ):
        job, _, _ = self._job(tmp_path, np.random.default_rng(11), n_beats=8)
        monkeypatch.setattr(pipeline, "MAX_FRAMES", 30)
        monkeypatch.setattr(pipeline, "melspectrogram", forbidden_mel)
        with pytest.raises(ParameterError, match="over the encoder budget of 30"):
            generate_cover(job)
        assert not Path(job.output).exists()

    def test_fewer_than_four_beats_rejected(self, tmp_path):
        job, _, _ = self._job(tmp_path, np.random.default_rng(9), n_beats=3)
        with pytest.raises(ParameterError):
            generate_cover(job)

    def test_cold_cover_holds_the_song_the_model_and_little_more(self, tmp_path):
        # Each cover run is a fresh process that builds the frontend's tables
        # cold.  A dense filterbank, or a whole-song power or pooled array
        # beside the onset envelope, would overrun the 2 MB margin.
        record, _, _, _ = make_pair(tmp_path, np.random.default_rng(12), name="song",
                                    n_beats=20)
        config = desk_config(max_decode_len=128)
        ckpt = tmp_path / "desk.ckpt"
        save_checkpoint(ckpt, init_params(config, seed=0), config)
        job = CoverJob(audio=record.pop_audio, arranger_id=1, checkpoint=str(ckpt),
                       output=str(tmp_path / "cover.mid"))
        features.mel_bands.cache_clear()
        features.hann.cache_clear()
        tracemalloc.start()
        try:
            generate_cover(job)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = len(load_wav(job.audio)) * 8 + 2 * ckpt.stat().st_size + 2**21
        assert job.windows >= 1
        assert peak <= bound, f"peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"


# Trains a desk model, writes one cover, and prints the loss bits, the
# MIDI bytes and the CPU ticks of each of the process's OS threads.
_THREADS_CHILD = """
import json, os, sys
from pathlib import Path
from pianocover.model import TrainConfig, desk_config, save_checkpoint, train
from pianocover.pipeline import CoverJob, generate_cover, load_dataset
dataset, wav, beats, out = sys.argv[1:]
config = desk_config(max_decode_len=32)
params, losses = train(load_dataset(dataset)[0], TrainConfig(epochs=2, batch_size=4), config)
save_checkpoint(Path(out) / "model.ckpt", params, config)
midi = Path(out) / "cover.mid"
generate_cover(CoverJob(wav, 0, str(Path(out) / "model.ckpt"), str(midi), beats=beats))
# utime and stime, fields 14 and 15 of each thread's stat line.
ticks = [sum(map(int, Path(f"/proc/self/task/{tid}/stat").read_text().rsplit(")", 1)[1]
                 .split()[11:13])) for tid in os.listdir("/proc/self/task")]
print(json.dumps({"losses": [x.hex() for x in losses], "midi": midi.read_bytes().hex(),
                  "ticks": ticks}))
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="a second BLAS thread needs a second CPU")
def test_same_outputs_at_one_and_two_blas_threads(tmp_path):
    rng = np.random.default_rng(16)
    records = [make_pair(tmp_path, rng, name=f"song{i}", arranger_id=i)[0] for i in range(2)]
    build_dataset(records, tmp_path / "dataset")
    runs = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        child = subprocess.run(
            [sys.executable, "-c", _THREADS_CHILD, str(tmp_path / "dataset"),
             records[0].pop_audio, records[0].beats, str(out)],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        runs.append(json.loads(child.stdout))
    one, two = runs
    assert len(one["ticks"]) == 1
    # The second thread exists and spent CPU time.
    assert len(two["ticks"]) == 2 and min(two["ticks"]) > 0
    assert one["losses"] == two["losses"]
    assert one["midi"] == two["midi"]


class TestEvalStats:
    def _cover(self, density, seconds=10.0, pitch=60):
        count = int(density * seconds)
        notes = [Note(i * seconds / count, pitch, i * seconds / count + 0.2) for i in range(count)]
        return NoteSequence.build(notes, duration=seconds, validate=False)

    def test_mean_density(self):
        covers = [(self._cover(2.0), 3), (self._cover(4.0), 3)]
        stats = eval_stats(covers)
        assert stats["arrangers"][3]["count"] == 2
        assert stats["arrangers"][3]["mean_density"] == pytest.approx(3.0)

    def test_groups_by_arranger(self):
        covers = [(self._cover(2.0), 0), (self._cover(4.0), 1)]
        stats = eval_stats(covers)
        assert stats["arrangers"][0]["mean_density"] == pytest.approx(2.0)
        assert stats["arrangers"][1]["mean_density"] == pytest.approx(4.0)

    def test_amca_self_consistency(self):
        rng = np.random.default_rng(10)
        covers = []
        contours = []
        for k in range(3):
            grid = make_grid(12)
            piece = random_piece(rng, 20)
            seconds = halfbeats_to_seconds(piece, grid)
            covers.append((seconds, k))
            contours.append(topline_contour(seconds))
        stats = eval_stats(covers, contours)
        assert stats["amca"] == 1.0

    def test_amca_matches_per_frame_recount(self):
        rng = np.random.default_rng(11)
        grid = make_grid(12)
        seconds = halfbeats_to_seconds(random_piece(rng, 20), grid)
        contour = topline_contour(seconds, guard=0.0)
        stats = eval_stats([(seconds, 0)], [contour])

        top = midi_topline(seconds, contour.times)
        ref_cents = hz_to_cents(contour.f0_hz)
        est_cents = pitch_to_cents(top)
        hits = total = 0
        for r, e, voiced in zip(ref_cents, est_cents, contour.f0_hz > 0):
            if not voiced:
                continue
            total += 1
            if not np.isnan(e):
                d = abs((r - e) % 1200.0)
                if min(d, 1200.0 - d) <= 50.0:
                    hits += 1
        assert abs(stats["amca"] - hits / total) < 1e-9

    def test_errors(self):
        with pytest.raises(ParameterError):
            eval_stats([])
        with pytest.raises(ParameterError):
            eval_stats([(self._cover(2.0), 0)], [])


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """One valid file of each input kind, for rows that break another."""
    root = tmp_path_factory.mktemp("cli_inputs")
    record, _, _, _ = make_pair(root, np.random.default_rng(0), name="valid")
    # Thirty seconds of silence at 8 kHz (480 kB): long enough for a 4-beat
    # window over the encoder's frame budget.
    long_wav = root / "long.wav"
    write_wav(long_wav, np.zeros(30 * 8000), 8000)
    ds = root / "dataset"
    save_dataset(ds, [(np.zeros((4, 128)), 0, TokenSeq((EOS,)))], BuildReport(1, 1, 0, 0, []))
    config = root / "valid.cfg"
    config.write_text("epochs = 1\n")
    tokens = root / "valid.tokens"
    tokens.write_text(f"{EOS}\n")
    return {"wav": record.pop_audio, "mid": record.cover_midi, "beats": record.beats,
            "f0": record.f0, "ckpt": str(toy_checkpoint(root)[0]), "tokens": str(tokens),
            "ds": str(ds), "cfg": str(config), "long_wav": str(long_wav)}


def _first_half(kind):
    """The valid file of this kind cut in the middle."""
    def content(inputs):
        data = Path(inputs[kind]).read_bytes()
        return data[: len(data) // 2]
    return content


def _with_f0(value):
    """The valid contour with one frequency replaced by value."""
    def content(inputs):
        rows = Path(inputs["f0"]).read_bytes().splitlines()
        rows[5] = rows[5].split(b",")[0] + b"," + value
        return b"\n".join(rows) + b"\n"
    return content


def _cover_over_the_dtw_budget(inputs):
    """One note held so long that aligning it to the valid song needs
    just over the DTW cell budget."""
    audio_frames = len(sync.audio_chroma(load_wav(inputs["wav"])))
    seconds = sync.MAX_DTW_CELLS / audio_frames / sync.FRAME_RATE + 1.0
    return write_smf(NoteSequence.build([Note(0.0, 60, seconds)]))


def _eight_bit_wav(inputs):
    buffer = io.BytesIO()
    scipy.io.wavfile.write(buffer, SAMPLE_RATE, np.full(SAMPLE_RATE, 128, dtype=np.uint8))
    return buffer.getvalue()


def _checkpoint_config(**fields):
    """The valid checkpoint with its config JSON overriding fields."""
    def content(inputs):
        return checkpoint_with_config(Path(inputs["ckpt"]).read_bytes(), **fields)
    return content


# A RIFF header with neither a fmt nor a data chunk.
WAV_NO_CHUNKS = b"RIFF\x04\0\0\0WAVE"
# A mono PCM WAV of 100 zero bytes whose fmt chunk declares 0 bits per
# sample (and so 0 bytes per second and a block align of 0).
_ZERO_BITS_BODY = (b"WAVEfmt " + struct.pack("<IHHIIHH", 16, 1, 1, SAMPLE_RATE, 0, 0, 0)
                   + b"data" + struct.pack("<I", 100) + bytes(100))
WAV_ZERO_BITS = b"RIFF" + struct.pack("<I", len(_ZERO_BITS_BODY)) + _ZERO_BITS_BODY


def _checkpoint_with_config_bytes(config: bytes):
    """A checkpoint header whose config is the given bytes."""
    return MAGIC + struct.pack("<II", 1, len(config)) + config


def _long_note_midi(seconds):
    """A valid MIDI of one note held from 0 to ``seconds``."""
    return write_smf(NoteSequence.build([Note(0.0, 69, seconds)]))


# One note, then an end of track 2**20 ticks later at 1 tick per quarter:
# 36 bytes that claim 262,145 segments at 120 BPM.
_FAR_END_OF_TRACK = (b"MThd" + struct.pack(">IHHH", 6, 0, 1, 1) + b"MTrk"
                     + struct.pack(">I", 14) + bytes([0, 0x90, 60, 100, 1, 0x80, 60, 0,
                                                      0xC0, 0x80, 0, 0xFF, 0x2F, 0]))


def _float32_checkpoint(inputs):
    """The valid checkpoint with its tensors stored as float32."""
    params, config = load_checkpoint(inputs["ckpt"])
    return float32_checkpoint(params, config)


ERROR_PREFIX = {1: "error:", 2: "i/o error:", 3: "numeric error:"}
COVER = "cover {wav} {out} --arranger 0 --checkpoint {ckpt}"


def _row(id, argv, message, bad_file=None, content=b"", code=1):
    return pytest.param(argv, bad_file, content, code, message, id=id)


# The input contract, one row per subcommand, input kind and malformation:
# each exits 1 (invalid input), 2 (I/O) or 3 (numeric) with one stderr
# line. Placeholders name the valid files of cli_inputs, {bad} the file
# the row writes, {out}/{out_dir} outputs and {tmp} the test directory.
# An empty token file (an empty piece) and an empty config (all defaults)
# are valid inputs, so they have no row.
CONTRACT_ROWS = [
    # WAV
    _row("wav-not-riff", "cover {bad} {out} --arranger 0 --checkpoint {ckpt}",
         "not a readable WAV", "song.wav", b"ID3 not a RIFF file"),
    _row("wav-truncated", "cover {bad} {out} --arranger 0 --checkpoint {ckpt}",
         "not a readable WAV", "song.wav", b"RIFF"),
    _row("wav-cut-in-data", "cover {bad} {out} --arranger 0 --checkpoint {ckpt} --beats {beats}",
         "song.wav: not a readable WAV file: unexpected end of data", "song.wav",
         _first_half("wav")),
    _row("wav-no-chunks", COVER.replace("{wav}", "{bad}"),
         "song.wav: not a readable WAV file: no fmt or data chunk", "song.wav",
         WAV_NO_CHUNKS),
    _row("wav-zero-bits", COVER.replace("{wav}", "{bad}"),
         "song.wav: not a readable WAV file: fmt chunk has 0-byte samples", "song.wav",
         WAV_ZERO_BITS),
    _row("wav-empty", "sync {bad} {mid} {out} --beats {beats}",
         "song.wav: not a readable WAV", "song.wav", b""),
    _row("wav-8-bit", "sync {bad} {mid} {out} --beats {beats}",
         "song.wav: expected 16-bit PCM WAV", "song.wav", _eight_bit_wav),
    _row("wav-data-before-fmt", COVER.replace("{wav}", "{bad}"),
         "song.wav: not a readable WAV file: data chunk before the fmt chunk", "song.wav",
         wav_bytes((b"data", bytes(100)), (b"fmt ", fmt_chunk(1, SAMPLE_RATE)))),
    _row("wav-block-align", COVER.replace("{wav}", "{bad}"),
         "song.wav: not a readable WAV file: block align 2 is not 2 bytes x 2 channels",
         "song.wav",
         wav_bytes((b"fmt ", fmt_chunk(2, SAMPLE_RATE, block_align=2)), (b"data", bytes(100)))),
    _row("wav-extensible-float", COVER.replace("{wav}", "{bad}"),
         "song.wav: expected 16-bit PCM WAV, got format tag 0x0003 with 32-bit samples",
         "song.wav",
         wav_bytes((b"fmt ", fmt_chunk(1, SAMPLE_RATE, bits=32, block_align=4, subformat=3)),
                   (b"data", bytes(100)))),
    _row("wav-rf64", COVER.replace("{wav}", "{bad}"),
         "song.wav: not a readable WAV file: RF64 files are not supported", "song.wav",
         b"RF64\xff\xff\xff\xffWAVEds64" + bytes(28)),
    _row("wav-rate-over-ceiling", COVER.replace("{wav}", "{bad}"),
         "song.wav: not a readable WAV file: sample rate 4294967291 Hz is outside "
         f"1..{MAX_SAMPLE_RATE}", "song.wav",
         wav_bytes((b"fmt ", fmt_chunk(1, 4_294_967_291)), (b"data", bytes(100)))),
    # MIDI: every error names the file
    _row("mid-empty", "sync {wav} {bad} {out} --beats {beats}",
         "song.mid: unexpected end of data", "song.mid", b""),
    _row("mid-over-dtw-budget", "sync {wav} {bad} {out} --beats {beats}",
         "DTW cells, over the budget of 36000000", "song.mid", _cover_over_the_dtw_budget),
    _row("mid-truncated", "filter {bad} {f0} --pop-seconds 8 --cover-seconds 8",
         "song.mid: unexpected end of data", "song.mid", _first_half("mid")),
    _row("mid-not-smf", "tokenize {bad} {out}",
         "song.mid: missing MThd header", "song.mid", b"hello world"),
    _row("mid-over-segment-limit", "tokenize {bad} {out}",
         "piece spans 262145 segments, over the limit of 65536", "song.mid",
         _FAR_END_OF_TRACK),
    _row("mid-cut-in-header", "render {bad} {out}",
         "song.mid: unexpected end of data", "song.mid", b"MThd\x00\x00\x00\x06\x00"),
    _row("mid-over-render-limit", "render {bad} {out}",
         "100000 s at 22050 Hz is 2205000000 samples, over the render limit of 134217728",
         "song.mid", _long_note_midi(100_000.0)),
    _row("mid-over-render-limit-at-rate", "render {bad} {out} --rate 384000",
         "400 s at 384000 Hz is 153600000 samples, over the render limit of 134217728",
         "song.mid", _long_note_midi(400.0)),
    _row("mid-format-2", "stats {bad}", "song.mid: unsupported SMF format 2", "song.mid",
         b"MThd\x00\x00\x00\x06\x00\x02\x00\x01\x01\xe0"),
    # checkpoint: every error names the file
    _row("ckpt-empty", "cover {wav} {out} --arranger 0 --checkpoint {bad}",
         "model.ckpt: unexpected end of data", "model.ckpt", b""),
    _row("ckpt-truncated", "cover {wav} {out} --arranger 0 --checkpoint {bad}",
         "model.ckpt: unexpected end of data", "model.ckpt", _first_half("ckpt")),
    _row("ckpt-not-checkpoint", "cover {wav} {out} --arranger 0 --checkpoint {bad}",
         "model.ckpt: bad checkpoint magic", "model.ckpt", b"PK\x03\x04 a zip archive"),
    _row("ckpt-max-decode-len", "cover {wav} {out} --arranger 0 --checkpoint {bad}",
         "model.ckpt: bad checkpoint config: "
         "max_decode_len must be at most 512, got 513", "model.ckpt",
         _checkpoint_config(max_decode_len=513)),
    _row("ckpt-bias-buckets", "cover {wav} {out} --arranger 0 --checkpoint {bad}",
         "model.ckpt: bad checkpoint config: relative_bias_buckets must be 32, got 8",
         "model.ckpt", _checkpoint_config(relative_bias_buckets=8)),
    _row("ckpt-bias-distance", "cover {wav} {out} --arranger 0 --checkpoint {bad}",
         "model.ckpt: bad checkpoint config: relative_bias_max_distance must be 128, got 20",
         "model.ckpt", _checkpoint_config(relative_bias_max_distance=20)),
    _row("ckpt-param-budget", "cover {wav} {out} --arranger 0 --checkpoint {bad}",
         "model.ckpt: bad checkpoint config: model has", "model.ckpt",
         _checkpoint_config(d_model=2**30)),
    _row("ckpt-zero-heads", "cover {wav} {out} --arranger 0 --checkpoint {bad}",
         "model.ckpt: bad checkpoint config: num_heads must be positive", "model.ckpt",
         _checkpoint_config(num_heads=0)),
    _row("ckpt-layer-bound", "cover {wav} {out} --arranger 0 --checkpoint {bad}",
         "model.ckpt: bad checkpoint config: num_encoder_layers must be at most 4096, "
         "got 16000000", "model.ckpt",
         _checkpoint_config(d_model=4, num_heads=1, d_ff=4, num_encoder_layers=16_000_000)),
    _row("ckpt-float-field", "cover {wav} {out} --arranger 0 --checkpoint {bad}",
         "model.ckpt: bad checkpoint config: d_model must be an integer, got 64.0",
         "model.ckpt", _checkpoint_config(d_model=64.0)),
    _row("ckpt-vocab-size", "cover {wav} {out} --arranger 0 --checkpoint {bad}",
         "model.ckpt: bad checkpoint config: vocab_size must be 232, got 100", "model.ckpt",
         _checkpoint_config(vocab_size=100)),
    _row("ckpt-dead-mel-channels", "cover {wav} {out} --arranger 0 --checkpoint {bad}",
         "model.ckpt: bad checkpoint config: n_mels must be 128, got 800", "model.ckpt",
         _checkpoint_config(n_mels=800)),
    _row("ckpt-float32", "cover {wav} {out} --arranger 0 --checkpoint {bad}",
         "model.ckpt: tensor 'input_proj' has dtype code 4; only 8 (float64) is read",
         "model.ckpt", _float32_checkpoint),
    _row("ckpt-deep-config", "cover {wav} {out} --arranger 0 --checkpoint {bad}",
         "model.ckpt: bad checkpoint config: maximum recursion depth exceeded", "model.ckpt",
         _checkpoint_with_config_bytes(b"[" * 100_000)),
    # tokens
    _row("tokens-not-utf8", "detokenize {bad} {out}",
         "piece.tokens: not UTF-8 text (at byte offset 0)", "piece.tokens", b"\xff5 1\n"),
    _row("tokens-not-integers", "detokenize {bad} {out}",
         "piece.tokens:1: token ids must be integers", "piece.tokens", b"5 x 1\n"),
    _row("tokens-out-of-range", "detokenize {bad} {out}",
         "piece.tokens:1: id 999 outside the vocabulary", "piece.tokens", b"999 1\n"),
    # beats
    _row("beats-not-utf8", COVER + " --beats {bad}",
         "song.beats: not UTF-8 text (at byte offset 9)", "song.beats", b"0.25\n0.75\xff\n"),
    _row("beats-infinite", COVER + " --beats {bad}",
         "song.beats: beat times must be finite", "song.beats",
         lambda inputs: Path(inputs["beats"]).read_bytes() + b"inf\n"),
    _row("beats-infinite-sync", "sync {wav} {mid} {out} --beats {bad}",
         "song.beats: beat times must be finite", "song.beats",
         lambda inputs: Path(inputs["beats"]).read_bytes() + b"inf\n"),
    _row("beats-empty", "sync {wav} {mid} {out} --beats {bad}",
         "song.beats: a beat grid needs at least 2 beats", "song.beats", b""),
    _row("beats-not-a-number", "sync {wav} {mid} {out} --beats {bad}",
         "song.beats:2: not a beat time", "song.beats", b"0.5\nabc\n"),
    _row("beats-decreasing", COVER + " --beats {bad}",
         "song.beats: beat times must be strictly increasing", "song.beats", b"1.0\n0.5\n"),
    _row("beats-sparse", "cover {long_wav} {out} --arranger 0 --checkpoint {ckpt} --beats {bad}",
         f"window 0 spans 637 mel frames, over the encoder budget of {MAX_FRAMES}",
         "song.beats", b"0.25\n7.75\n15.25\n22.75\n"),
    # f0 CSV
    _row("f0-infinite", "filter {mid} {bad} --pop-seconds 8 --cover-seconds 8",
         "melody.csv: times and f0 values must be finite", "melody.csv", _with_f0(b"inf")),
    _row("f0-nan", "stats {mid} --f0 {bad}",
         "melody.csv: times and f0 values must be finite", "melody.csv", _with_f0(b"nan")),
    _row("f0-empty", "filter {mid} {bad} --pop-seconds 8 --cover-seconds 8",
         "melody.csv: expected header 'time,frequency'", "melody.csv", b""),
    _row("f0-truncated", "filter {mid} {bad} --pop-seconds 8 --cover-seconds 8",
         "melody.csv:3: expected two columns", "melody.csv",
         b"time,frequency\n0.0,440.0\n0.02"),
    _row("f0-no-files", "stats {mid} --f0", "argument --f0: expected at least one argument"),
    _row("f0-not-utf8", "stats {mid} --f0 {bad}",
         "melody.csv: not UTF-8 text (at byte offset 19)", "melody.csv",
         b"time,frequency\n0.0,\xff\n"),
    # manifest
    _row("manifest-arranger", "build-dataset {bad} {out_dir}",
         "manifest.csv:3: arranger_id 'two' is not an integer", "manifest.csv",
         b"pop_path,cover_path,arranger_id\na.wav,a.mid,0\nb.wav,b.mid,two\n"),
    _row("manifest-arranger-negative", "build-dataset {bad} {out_dir}",
         "manifest.csv:2: arranger_id -1 is negative", "manifest.csv",
         lambda inputs: f"pop_path,cover_path,arranger_id\n{inputs['wav']},{inputs['mid']},-1\n"
         .encode()),
    _row("manifest-short-row", "build-dataset {bad} {out_dir}",
         "manifest.csv:2: arranger_id None is not an integer", "manifest.csv",
         b"pop_path,cover_path,arranger_id\na.wav\n"),
    _row("manifest-no-cover", "build-dataset {bad} {out_dir}",
         "manifest.csv:2: missing cover_path", "manifest.csv",
         b"pop_path,arranger_id,cover_path\nw.wav,0\n"),
    _row("manifest-no-pop", "build-dataset {bad} {out_dir}",
         "manifest.csv:2: missing pop_path", "manifest.csv",
         b"arranger_id,cover_path,pop_path\n0,c.mid\n"),
    _row("manifest-not-utf8", "build-dataset {bad} {out_dir}",
         "manifest.csv: not UTF-8 text (at byte offset 0)", "manifest.csv",
         b"\xffpop_path,cover_path,arranger_id\n"),
    _row("manifest-empty", "build-dataset {bad} {out_dir}",
         "manifest.csv: manifest needs columns", "manifest.csv", b""),
    # config
    _row("config-seed", "train {ds} {bad} {out}",
         "seed must be non-negative, got -1", "train.cfg", b"epochs = 2\nseed = -1\n"),
    _row("config-model", "train {ds} {bad} {out}",
         "train.cfg:2: cannot read d_model = '3.5' as int", "train.cfg",
         b"epochs = 2\nd_model = 3.5\n"),
    _row("config-learning-rate", "train {ds} {bad} {out}",
         "train.cfg:1: cannot read learning_rate = 'fast' as float", "train.cfg",
         b"learning_rate = fast\n"),
    _row("config-train", "train {ds} {bad} {out}",
         "train.cfg:2: cannot read epochs = 'ten' as int", "train.cfg", b"# run\nepochs = ten\n"),
    _row("config-optimizer", "train {ds} {bad} {out}",
         "train.cfg:1: unknown key 'optimizer'", "train.cfg", b"optimizer = adafactor\n"),
    _row("config-vocab-size", "train {ds} {bad} {out}",
         "train.cfg:1: unknown key 'vocab_size'", "train.cfg", b"vocab_size = 232\n"),
    _row("config-n-mels", "train {ds} {bad} {out}",
         "train.cfg:1: unknown key 'n_mels'", "train.cfg", b"n_mels = 128\n"),
    _row("config-not-utf8", "train {ds} {bad} {out}",
         "train.cfg: not UTF-8 text (at byte offset 11)", "train.cfg", b"epochs = 2\n\xff\n"),
    _row("config-max-decode-len", "train {ds} {bad} {out}",
         "max_decode_len must be at most 512, got 513", "train.cfg",
         b"max_decode_len = 513\n"),
    _row("config-bias-buckets", "train {ds} {bad} {out}",
         "train.cfg:1: unknown key 'relative_bias_buckets'", "train.cfg",
         b"relative_bias_buckets = 32\n"),
    _row("config-bias-distance", "train {ds} {bad} {out}",
         "train.cfg:2: unknown key 'relative_bias_max_distance'", "train.cfg",
         b"epochs = 2\nrelative_bias_max_distance = 128\n"),
    _row("config-repeated-key", "train {ds} {bad} {out}",
         "train.cfg:3: epochs already set on line 1", "train.cfg",
         b"epochs = 2\nbatch_size = 4\nepochs = 2000\n"),
    _row("config-param-budget", "train {ds} {bad} {out}",
         "parameters, over the budget of 134217728", "train.cfg", b"d_model = 1073741824\n"),
    _row("config-zero-heads", "train {ds} {bad} {out}",
         "num_heads must be positive", "train.cfg", b"num_heads = 0\n"),
    _row("config-layer-bound", "train {ds} {bad} {out}",
         "num_decoder_layers must be at most 4096, got 16000000", "train.cfg",
         b"d_model = 4\nnum_heads = 1\nd_ff = 4\nnum_decoder_layers = 16000000\n"),
    _row("config-learning-rate-nan", "train {ds} {bad} {out}",
         "learning_rate must be positive and finite", "train.cfg",
         b"epochs = 1\nlearning_rate = nan\n"),
    # dataset directory (its files have their own table below)
    _row("dataset-missing", "train {tmp}/nowhere {cfg} {out}",
         "nowhere/dataset.json", code=2),
    _row("dataset-frames-over-budget", "train {tmp} {cfg} {out}",
         f"dataset.json: an example of 100000 frames is over the encoder budget of {MAX_FRAMES}",
         "dataset.json", json.dumps({"frames": [100_000], "arranger_ids": [0],
                                     "report": {}}).encode()),
    # numeric options
    _row("bpm-zero", "tokenize {mid} {out} --bpm 0", "--bpm must be a finite number above 0"),
    _row("bpm-nan", "tokenize {mid} {out} --bpm nan", "--bpm must be a finite number above 0"),
    _row("bpm-inf", "tokenize {mid} {out} --bpm inf", "--bpm must be a finite number above 0"),
    _row("bpm-not-a-number", "tokenize {mid} {out} --bpm abc",
         "argument --bpm: invalid float value: 'abc'"),
    _row("detokenize-bpm-negative", "detokenize {tokens} {out} --bpm -5",
         "--bpm must be a finite number above 0"),
    _row("rate-zero", "render {mid} {out} --rate 0", "--rate must be a finite number above 0"),
    _row("render-rate-over-ceiling", "render {mid} {out} --rate 4294967291",
         f"--rate must be at most {MAX_SAMPLE_RATE}, got 4294967291"),
    _row("rate-negative", "render {mid} {out} --rate -5",
         "--rate must be a finite number above 0"),
    _row("rate-not-an-integer", "render {mid} {out} --rate 1.5",
         "argument --rate: invalid int value: '1.5'"),
    _row("pop-seconds-nan", "filter {mid} {f0} --pop-seconds nan --cover-seconds 8",
         "--pop-seconds must be a finite number above 0"),
    _row("cover-seconds-nan", "filter {mid} {f0} --pop-seconds 8 --cover-seconds nan",
         "--cover-seconds must be a finite number above 0"),
    _row("cover-seconds-zero", "filter {mid} {f0} --pop-seconds 8 --cover-seconds 0",
         "--cover-seconds must be a finite number above 0"),
    _row("pop-seconds-missing", "filter {mid} {f0} --cover-seconds 8",
         "the following arguments are required: --pop-seconds"),
    _row("cover-seconds-missing", "filter {mid} {f0} --pop-seconds 8",
         "the following arguments are required: --cover-seconds"),
    _row("arranger-out-of-range",
         "cover {wav} {out} --arranger 99 --checkpoint {ckpt} --beats {beats}",
         "arranger id 99 outside [0, 4)"),
    _row("arranger-not-an-integer", "stats {mid} --arranger x",
         "argument --arranger: invalid int value: 'x'"),
    _row("unknown-command", "transcribe {wav}", "invalid choice: 'transcribe'"),
]


def _npy(array):
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


def _index(**fields):
    """The valid dataset index of one 4-frame example, with fields overridden."""
    return json.dumps(dict({"frames": [4], "arranger_ids": [0], "report": {}}, **fields)).encode()


NOT_THE_MELS = "mels.npy: not the C-order float64 array of shape (4, 128) that dataset.json"
_VALID_MELS = _npy(np.zeros((4, 128)))


class TestCli:
    def test_tokenize_detokenize_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        piece = random_piece(rng, 24)
        step = 0.25
        notes = [
            Note(n.onset * step, n.pitch, n.offset * step, n.velocity) for n in piece
        ]
        seconds = NoteSequence.build(notes, duration=piece.duration * step)
        src = tmp_path / "in.mid"
        src.write_bytes(write_smf(seconds))
        tokens = tmp_path / "piece.tokens"
        out = tmp_path / "out.mid"
        assert main(["tokenize", str(src), str(tokens)]) == 0
        assert main(["detokenize", str(tokens), str(out)]) == 0
        assert parse_smf(out.read_bytes()).notes == seconds.notes

    def test_detokenize_writes_one_note_per_pitch(self, tmp_path):
        # The first line closes its C4 at half-beat 9, past its own end; the
        # second strikes C4 again at half-beat 8, which ends the first note.
        tokens = tmp_path / "piece.tokens"
        tokens.write_text("164 103 10 164 102 1\n164 103 5 164 102 1\n")
        out = tmp_path / "piece.mid"
        assert main(["detokenize", str(tokens), str(out), "--bpm", "120"]) == 0
        notes = parse_smf(out.read_bytes()).notes
        assert [(n.onset, n.pitch, n.offset) for n in notes] == [(0.0, 60, 2.0),
                                                                 (2.0, 60, 3.0)]

    def test_sync_and_filter_commands(self, tmp_path):
        rng = np.random.default_rng(13)
        record, _, _, seconds = make_pair(tmp_path, rng, name="cli")
        aligned = tmp_path / "aligned.mid"
        code = main(
            ["sync", record.pop_audio, record.cover_midi, str(aligned),
             "--beats", record.beats]
        )
        assert code == 0
        assert len(parse_smf(aligned.read_bytes()).notes) == len(seconds.notes)

        report_path = tmp_path / "report.json"
        code = main(
            ["filter", str(aligned), record.f0, "--pop-seconds", str(seconds.duration),
             "--cover-seconds", str(seconds.duration), "--out", str(report_path)]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["verdict"] == "keep"
        assert report["mca"] == 1.0

    def test_filter_after_sync_judges_a_short_cover_like_build_dataset(self, tmp_path, capsys):
        # The cover plays the song 40% faster. Once synced it spans the
        # pop's length, so only the cover's own length can fail the rule.
        record, _, _, seconds = make_pair(tmp_path, np.random.default_rng(14), name="short")
        short = NoteSequence.build(
            [Note(0.6 * n.onset, n.pitch, 0.6 * n.offset, n.velocity) for n in seconds],
            duration=0.6 * seconds.duration,
        )
        Path(record.cover_midi).write_bytes(write_smf(short))
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("pop_path,cover_path,arranger_id,beats_path,f0_path\n"
                            f"{record.pop_audio},{record.cover_midi},0,{record.beats},"
                            f"{record.f0}\n")
        assert main(["build-dataset", str(manifest), str(tmp_path / "dataset")]) == 0
        (built,) = load_dataset(tmp_path / "dataset")[1]["entries"]
        assert built["status"] == "discarded" and built["reasons"] == ["length"]

        aligned = tmp_path / "aligned.mid"
        assert main(["sync", record.pop_audio, record.cover_midi, str(aligned),
                     "--beats", record.beats]) == 0
        pop_seconds = repr(len(load_wav(record.pop_audio)) / SAMPLE_RATE)
        cover_seconds = repr(parse_smf(Path(record.cover_midi).read_bytes()).duration)
        filter_argv = ["filter", str(aligned), record.f0, "--pop-seconds", pop_seconds]
        capsys.readouterr()
        assert main(filter_argv + ["--cover-seconds", cover_seconds]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "discard"
        assert report["reasons"] == built["reasons"]
        assert report["length_ratio_diff"] == built["length_ratio_diff"]
        # The synced file's own length would read as a keep; it is not used.
        assert main(filter_argv) == 1
        assert "required: --cover-seconds" in capsys.readouterr().err

    def test_sync_keeps_one_note_per_pitch_like_build_dataset(self, tmp_path, caplog):
        # Each restrike starts 10 ms after a 50 ms note of the same pitch;
        # both snap to one half-beat onset, and only one of them can sound.
        notes = []
        for k in range(12):
            t = 1.0 + 2.0 * k
            pitch = PALETTE[3 * k % len(PALETTE)]
            notes += [Note(t, pitch, t + 0.05), Note(t + 0.06, pitch, t + 0.5),
                      Note(t + 0.5, PALETTE[(3 * k + 5) % len(PALETTE)], t + 1.5)]
        cover = NoteSequence.build(notes, duration=26.0)
        wav, mid, beats = (tmp_path / f"song.{ext}" for ext in ("wav", "mid", "beats"))
        write_wav(wav, render_sine_audio(cover))
        mid.write_bytes(write_smf(cover))
        write_beat_file(beats, make_grid(52))
        out = tmp_path / "synced.mid"
        assert main(["sync", str(wav), str(mid), str(out), "--beats", str(beats)]) == 0
        with caplog.at_level("WARNING", logger="pianocover.midi"):
            synced = parse_smf(out.read_bytes())
        assert not [r for r in caplog.records if "no matching note-on" in r.message]

        built = build_pair(PairRecord(str(wav), str(mid), 0, beats=str(beats)))
        assert built.kept and built.dropped_segments == 0
        piece = stitch([tokens for _, _, tokens in built.examples])
        expected = halfbeats_to_seconds(piece, read_beat_file(beats))
        assert len(synced) == len(expected) == 24
        for got, want in zip(synced, expected):
            assert got.pitch == want.pitch
            assert (got.onset, got.offset) == pytest.approx((want.onset, want.offset), abs=1e-3)

    def test_render_command(self, tmp_path):
        seq = NoteSequence.build([Note(0.0, 69, 0.5)], duration=0.5)
        mid = tmp_path / "tone.mid"
        mid.write_bytes(write_smf(seq))
        wav = tmp_path / "tone.wav"
        assert main(["render", str(mid), str(wav)]) == 0
        assert len(load_wav(wav)) > 0

    def test_stats_command(self, tmp_path):
        seq = NoteSequence.build([Note(0.0, 60, 1.0), Note(1.0, 64, 2.0)], duration=2.0)
        mid = tmp_path / "c.mid"
        mid.write_bytes(write_smf(seq))
        out = tmp_path / "stats.json"
        assert main(["stats", str(mid), "--arranger", "2", "--out", str(out)]) == 0
        stats = json.loads(out.read_text())
        assert stats["arrangers"]["2"]["mean_density"] == pytest.approx(1.0)

    def test_exit_codes(self, tmp_path):
        assert main(["render", str(tmp_path / "missing.mid"), str(tmp_path / "o.wav")]) == 2
        bad = tmp_path / "bad.csv"
        bad.write_text("nope,columns\n1,2\n")
        assert main(["build-dataset", str(bad), str(tmp_path / "ds")]) == 1

    @pytest.mark.parametrize("argv,bad_file,content,code,message", CONTRACT_ROWS)
    def test_malformed_input_is_one_error_line(
        self, tmp_path, capsys, cli_inputs, argv, bad_file, content, code, message
    ):
        paths = dict(cli_inputs, out=str(tmp_path / "out"), out_dir=str(tmp_path / "ds"),
                     tmp=str(tmp_path))
        if bad_file:
            bad = tmp_path / bad_file
            bad.write_bytes(content(cli_inputs) if callable(content) else content)
            paths["bad"] = str(bad)
        assert main([arg.format(**paths) for arg in argv.split()]) == code
        err = capsys.readouterr().err
        assert err.startswith(ERROR_PREFIX[code]) and err.count("\n") == 1
        assert "Traceback" not in err
        assert message in err

    def test_warnings_print_only_on_success(self, tmp_path):
        # Runs the entry point in its own process: pytest's log capture
        # would hide warnings that reach stderr outside the CLI's output.
        record, _, _, _ = make_pair(tmp_path, np.random.default_rng(0), name="song")
        # One stray note-off, then one note.
        track = bytes([0, 0x80, 60, 0, 0, 0x90, 64, 100, 96, 0x80, 64, 0, 0, 0xFF, 0x2F, 0])
        stray = tmp_path / "stray.mid"
        stray.write_bytes(b"MThd" + struct.pack(">IHHH", 6, 0, 1, 96)
                          + b"MTrk" + struct.pack(">I", len(track)) + track)
        one_beat = tmp_path / "one.beats"
        one_beat.write_text("0.5\n")
        short = tmp_path / "short.beats"
        short.write_text("\n".join(Path(record.beats).read_text().split()[:8]) + "\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))

        def run(*argv):
            return subprocess.run(
                [sys.executable, "-m", "pianocover.cli", *map(str, argv)],
                env=env, capture_output=True, text=True, timeout=120,
            )

        out = tmp_path / "out.mid"
        failed = run("sync", record.pop_audio, stray, out, "--beats", one_beat)
        assert failed.returncode == 1
        assert failed.stderr.splitlines() == [
            f"error: {one_beat}: a beat grid needs at least 2 beats"
        ]
        clamped = run("sync", record.pop_audio, record.cover_midi, out, "--beats", short)
        assert clamped.returncode == 0
        lines = clamped.stderr.splitlines()
        assert lines and all(line.startswith("warning: ") for line in lines)
        assert any("clamped to the beat grid" in line for line in lines)

    def test_python_warnings_are_held(self, tmp_path, capsys, monkeypatch):
        # An unknown chunk, odd-sized and padded, is valid RIFF: the reader
        # skips it without a word.
        record, _, _, _ = make_pair(tmp_path, np.random.default_rng(0), name="song")
        data = Path(record.pop_audio).read_bytes()
        chunk = b"abcd" + struct.pack("<I", 3) + b"odd\0"
        wav = tmp_path / "chunked.wav"
        wav.write_bytes(data[:4] + struct.pack("<I", len(data) - 8 + len(chunk))
                        + data[8:12] + chunk + data[12:])
        assert np.array_equal(load_wav(wav), load_wav(record.pop_audio))
        out = tmp_path / "out.mid"
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            assert main(["sync", str(wav), record.cover_midi, str(out),
                         "--beats", record.beats]) == 0
            assert capsys.readouterr().err == ""

            # A Python warning raised under a command is held like a logged
            # one: printed after success, dropped on failure.
            def render(seq, rate):
                warnings.warn("the stage warned")
                return render_sine_audio(seq, rate)

            monkeypatch.setattr(cli, "render_sine_audio", render)
            assert main(["render", record.cover_midi, str(tmp_path / "out.wav")]) == 0
            assert capsys.readouterr().err.splitlines() == ["warning: the stage warned"]
            missing = tmp_path / "missing" / "out.wav"
            assert main(["render", record.cover_midi, str(missing)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("i/o error: ")

    def test_memory_error_is_one_line(self, tmp_path, capsys, monkeypatch, cli_inputs):
        # 4 EiB: numpy raises its MemoryError at once and allocates nothing.
        monkeypatch.setattr(cli, "render_sine_audio",
                            lambda seq, rate: np.empty(2**62, dtype=np.uint8))
        assert main(["render", cli_inputs["mid"], str(tmp_path / "out.wav")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("memory error: render: Unable to allocate 4.00 EiB")
        assert not (tmp_path / "out.wav").exists()

    def test_help_exits_zero(self, capsys):
        for argv in (["--help"], ["render", "--help"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
        assert "usage: pianocover render" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "bad_file,content,message",
        [
            pytest.param("dataset.json", b"{not json",
                         "dataset.json: not a dataset index",
                         id="index-not-json"),
            pytest.param("dataset.json", b"[" * 100_000,
                         "dataset.json: not a dataset index: RecursionError(",
                         id="index-nested-too-deep"),
            pytest.param("dataset.json", b'{"report": {}}',
                         "dataset.json: not a dataset index: KeyError('frames')",
                         id="index-no-examples"),
            pytest.param("dataset.json",
                         b'{"examples": [{"mel": "ex000000.mel.npy", "arranger_id": 0,'
                         b' "tokens": "ex000000.tokens.txt"}], "report": {}}',
                         "dataset.json: not a dataset index: KeyError('frames')",
                         id="index-per-window"),
            pytest.param("dataset.json", _index(arranger_ids=["x"]),
                         "dataset.json: arranger_ids must be a list of integers >= 0",
                         id="index-arranger"),
            pytest.param("dataset.json", _index(arranger_ids=[float("inf")]),
                         "dataset.json: arranger_ids must be a list of integers >= 0",
                         id="index-arranger-infinity"),
            pytest.param("dataset.json", _index(arranger_ids=[1.5]),
                         "dataset.json: arranger_ids must be a list of integers >= 0",
                         id="index-arranger-float"),
            pytest.param("dataset.json", _index(arranger_ids=[True]),
                         "dataset.json: arranger_ids must be a list of integers >= 0",
                         id="index-arranger-bool"),
            pytest.param("dataset.json", _index(frames=[0]),
                         "dataset.json: frames must be a list of integers >= 1",
                         id="index-frames-zero"),
            pytest.param("dataset.json", _index(frames=[4.0]),
                         "dataset.json: frames must be a list of integers >= 1",
                         id="index-frames-float"),
            pytest.param("dataset.json", _index(frames=4),
                         "dataset.json: frames must be a list of integers >= 1",
                         id="index-frames-not-a-list"),
            pytest.param("dataset.json", _index(frames=[3]),
                         "mels.npy: not the C-order float64 array of shape (3, 128)",
                         id="index-frames-sum"),
            pytest.param("dataset.json", _index(arranger_ids=[0, 0]),
                         "dataset.json: 1 frame counts and 2 arranger ids for 1 lines of "
                         "tokens.txt",
                         id="index-lengths"),
            pytest.param("mels.npy", b"not an array", NOT_THE_MELS,
                         id="mel-not-npy"),
            pytest.param("mels.npy", _npy(np.full((4, 128), "x")), NOT_THE_MELS,
                         id="mel-strings"),
            pytest.param("mels.npy", _npy(np.zeros((4, 128), complex)), NOT_THE_MELS,
                         id="mel-complex"),
            pytest.param("mels.npy", _npy(np.zeros((4, 128), bool)), NOT_THE_MELS,
                         id="mel-bool"),
            pytest.param("mels.npy", _npy(np.zeros(512)), NOT_THE_MELS,
                         id="mel-one-dimensional"),
            pytest.param("mels.npy", _npy(np.zeros((8, 64))), NOT_THE_MELS,
                         id="mel-narrow"),
            pytest.param("mels.npy", _npy(np.zeros((128, 4)).T), NOT_THE_MELS,
                         id="mel-fortran-order"),
            pytest.param("mels.npy", _npy(np.zeros((4, 128), ">f8")), NOT_THE_MELS,
                         id="mel-big-endian"),
            pytest.param("mels.npy", _npy(np.zeros((0, 128))), NOT_THE_MELS,
                         id="mel-zero-rows"),
            pytest.param("mels.npy", _VALID_MELS + bytes(8), NOT_THE_MELS,
                         id="mel-trailing-bytes"),
            pytest.param("mels.npy", _VALID_MELS[:-8], NOT_THE_MELS,
                         id="mel-truncated"),
            pytest.param("mels.npy", _npy(np.full((4, 128), np.nan)),
                         "mels.npy: non-finite value in row 0",
                         id="mel-all-nan"),
            pytest.param("mels.npy", _npy(np.where(np.arange(512) == 261, np.inf, 0.0)
                                          .reshape(4, 128)),
                         "mels.npy: non-finite value in row 2",
                         id="mel-one-inf"),
            pytest.param("tokens.txt", b"999 1\n",
                         "tokens.txt:1: id 999 outside the vocabulary",
                         id="tokens-bad-id"),
            pytest.param("tokens.txt", b"\xff1\n",
                         "tokens.txt: not UTF-8 text (at byte offset 0)",
                         id="tokens-not-utf8"),
            pytest.param("tokens.txt", f"{EOS}\n{EOS}\n".encode(),
                         "dataset.json: 1 frame counts and 1 arranger ids for 2 lines of "
                         "tokens.txt",
                         id="tokens-two-lines"),
        ],
    )
    def test_malformed_dataset_is_one_error_line(
        self, tmp_path, capsys, bad_file, content, message
    ):
        ds = tmp_path / "ds"
        example = (np.zeros((4, 128)), 0, TokenSeq((EOS,)))
        save_dataset(ds, [example], BuildReport(1, 1, 0, 0, []))
        (ds / bad_file).write_bytes(content)
        config = tmp_path / "train.cfg"
        config.write_text("epochs = 1\n")
        assert main(["train", str(ds), str(config), str(tmp_path / "m.ckpt")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda p: p.pop("dec1_ff2"), id="missing"),
            pytest.param(lambda p: p.update(dec0_sq=np.zeros((64, 32))), id="shape"),
        ],
    )
    def test_cover_rejects_mismatched_checkpoint(self, tmp_path, capsys, edit):
        rng = np.random.default_rng(15)
        record, _, _, _ = make_pair(tmp_path, rng, name="ck")
        cfg = desk_config(max_decode_len=8)
        params = init_params(cfg, seed=0)
        edit(params)
        ckpt = tmp_path / "bad.ckpt"
        save_checkpoint(ckpt, params, cfg)
        out = tmp_path / "cover.mid"
        code = main(
            ["cover", record.pop_audio, str(out), "--arranger", "0",
             "--checkpoint", str(ckpt), "--beats", record.beats]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    def test_full_chain(self, tmp_path):
        rng = np.random.default_rng(14)
        keep, _, _, _ = make_pair(tmp_path, rng, name="k0", arranger_id=1)
        drop, _, _, _ = make_pair(tmp_path, rng, name="k1", transpose=6)
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "pop_path,cover_path,arranger_id,beats_path,f0_path\n"
            f"{keep.pop_audio},{keep.cover_midi},1,{keep.beats},{keep.f0}\n"
            f"{drop.pop_audio},{drop.cover_midi},0,{drop.beats},{drop.f0}\n"
        )
        ds = tmp_path / "dataset"
        assert main(["build-dataset", str(manifest), str(ds)]) == 0
        _, report = load_dataset(ds)
        assert report["kept"] == 1 and report["discarded"] == 1

        config = tmp_path / "train.cfg"
        config.write_text(
            "# toy run\n"
            "d_model = 32\nnum_heads = 4\nd_ff = 64\n"
            "num_encoder_layers = 1\nnum_decoder_layers = 1\n"
            "num_arrangers = 4\nmax_decode_len = 48\n"
            "epochs = 2\nbatch_size = 2\nlearning_rate = 0.001\n"
            "seed = 0\n"
        )
        ckpt = tmp_path / "model.ckpt"
        assert main(["train", str(ds), str(config), str(ckpt)]) == 0

        cover_out = tmp_path / "generated.mid"
        code = main(
            ["cover", keep.pop_audio, str(cover_out),
             "--arranger", "1", "--checkpoint", str(ckpt), "--beats", keep.beats]
        )
        assert code == 0
        generated = parse_smf(cover_out.read_bytes())
        last_offset = {}
        for note in generated:
            assert 21 <= note.pitch <= 108
            # One sounding note per pitch at a time, or the file would
            # not have survived its own parse.
            assert note.onset >= last_offset.get(note.pitch, 0.0)
            last_offset[note.pitch] = note.offset


class TestChainOracle:
    """A model that memorizes build-dataset's output must give the training
    covers back from cover: the same grid, window mels and arranger id on
    both sides, and stitch of the decoded windows equal to stitch of the
    tokens build-dataset wrote."""

    def test_cover_gives_back_the_memorized_dataset(self, tmp_path, capsys):
        # Song "a" reads its beat file; song "b" is beat-tracked.
        a, grid_a, _, _ = make_pair(tmp_path, np.random.default_rng(1), name="a")
        b, _, _, _ = make_pair(tmp_path, np.random.default_rng(2), name="b", arranger_id=1)
        b = dataclasses.replace(b, beats=None)
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "pop_path,cover_path,arranger_id,beats_path,f0_path\n"
            f"{a.pop_audio},{a.cover_midi},0,{a.beats},{a.f0}\n"
            f"{b.pop_audio},{b.cover_midi},1,,{b.f0}\n"
        )
        ds = tmp_path / "dataset"
        assert main(["build-dataset", str(manifest), str(ds)]) == 0
        examples, report = load_dataset(ds)
        counts = [entry["n_examples"] for entry in report["entries"]]
        assert report["kept"] == 2 and sum(counts) == len(examples) == 8

        config = tmp_path / "train.cfg"
        config.write_text("max_decode_len = 64\nnum_arrangers = 2\n"
                          "epochs = 600\nbatch_size = 8\n")
        ckpt = tmp_path / "model.ckpt"
        assert main(["train", str(ds), str(config), str(ckpt)]) == 0

        grid_b = pipeline.track_beats(load_wav(b.pop_audio))
        starts = [0, counts[0]]
        windows = []
        for record, grid, start, count in zip((a, b), (grid_a, grid_b), starts, counts):
            out = tmp_path / f"{Path(record.pop_audio).stem}.cover.mid"
            beats = ["--beats", record.beats] if record.beats else []
            capsys.readouterr()
            assert main(["cover", record.pop_audio, str(out), "--arranger",
                         str(record.arranger_id), "--checkpoint", str(ckpt), *beats]) == 0
            n_windows = int(capsys.readouterr().out.split()[1])
            windows.append((count, n_windows))
            tokens = [tokens for _, _, tokens in examples[start:start + count]]
            expected = write_smf(halfbeats_to_seconds(stitch(tokens[:n_windows]), grid))
            assert out.read_bytes() == expected
            stats = tmp_path / f"{Path(record.pop_audio).stem}.stats.json"
            assert main(["stats", str(out), "--f0", record.f0, "--out", str(stats)]) == 0
            assert 0.0 <= json.loads(stats.read_text())["amca"] <= 1.0
        # The tracked grid ends before the cover does, so build-dataset
        # trains on a trailing partial window that cover drops.
        assert windows == [(4, 4), (4, 3)]
