import numpy as np
import pytest

from pianocover.errors import FormatError, UndefinedMetricError, ValidationError
from pianocover.midi import (
    DEFAULT_VELOCITY,
    MAX_VLQ,
    Note,
    NoteSequence,
    TimeUnit,
    note_density,
    parse_smf,
    write_smf,
)


def seconds_per_tick(bpm, tpq):
    # Same arithmetic as the writer/parser so round trips are exact.
    return round(60e6 / bpm) / (1e6 * tpq)


def random_sequence(rng, tpq=480, bpm=120.0, max_notes=40, max_tick=4000):
    """Random tick-aligned sequence with no same-pitch overlap."""
    spt = seconds_per_tick(bpm, tpq)
    per_pitch_end = {}
    notes = []
    for _ in range(rng.integers(0, max_notes + 1)):
        pitch = int(rng.integers(0, 128))
        lo = per_pitch_end.get(pitch, 0)
        if lo >= max_tick:
            continue
        start = int(rng.integers(lo, max_tick))
        end = start + int(rng.integers(1, 200))
        per_pitch_end[pitch] = end
        vel = int(rng.integers(1, 128))
        notes.append(Note(start * spt, pitch, end * spt, vel))
    return NoteSequence.build(notes, TimeUnit.SECONDS)


class TestNoteModel:
    def test_canonical_sort_and_merge(self):
        notes = [
            Note(1.0, 60, 2.0, 50),
            Note(0.5, 72, 1.0, 80),
            Note(1.0, 60, 2.0, 90),  # duplicate key, higher velocity wins
            Note(1.0, 55, 1.5, 70),
        ]
        seq = NoteSequence.build(notes)
        assert [(n.onset, n.pitch) for n in seq] == [(0.5, 72), (1.0, 55), (1.0, 60)]
        assert seq.notes[2].velocity == 90
        assert seq.duration == 2.0

    def test_build_is_idempotent(self):
        rng = np.random.default_rng(7)
        seq = random_sequence(rng)
        again = NoteSequence.build(seq.notes, seq.time_unit, seq.duration)
        assert again == seq

    def test_invariants_rejected(self):
        with pytest.raises(ValidationError):
            Note(0.0, 128, 1.0).validate()
        with pytest.raises(ValidationError):
            Note(1.0, 60, 1.0).validate()
        with pytest.raises(ValidationError):
            Note(0.0, 60, 1.0, velocity=0).validate()
        with pytest.raises(ValidationError):
            NoteSequence.build([Note(0.0, 60, 2.0)], duration=1.0)


class TestParseWrite:
    def test_single_note_timing(self):
        # note-on at tick 0, note-off one quarter later at 120 BPM -> 0.5 s
        tpq = 120
        track = bytes(
            [0, 0x90, 60, 80]  # delta 0, on
            + [tpq, 0x80, 60, 0]  # delta one quarter, off
            + [0, 0xFF, 0x2F, 0]
        )
        data = (
            b"MThd" + (6).to_bytes(4, "big") + b"\x00\x00\x00\x01" + tpq.to_bytes(2, "big")
            + b"MTrk" + len(track).to_bytes(4, "big") + track
        )
        seq = parse_smf(data)
        assert len(seq) == 1
        n = seq.notes[0]
        assert (n.pitch, n.velocity) == (60, 80)
        assert n.onset == 0.0
        assert n.offset == pytest.approx(0.5, abs=1e-12)

    def test_empty_track(self):
        data = write_smf(NoteSequence.build([]))
        seq = parse_smf(data)
        assert len(seq) == 0
        assert seq.duration == 0.0

    def test_one_note_delta_is_480_ticks(self):
        seq = NoteSequence.build([Note(0.0, 60, 0.5, 64)])
        data = write_smf(seq, ticks_per_quarter=480, tempo_bpm=120.0)
        # tempo event, then on at delta 0, then off at delta 480 (0x83 0x60)
        i = data.index(bytes([0x90, 60, 64]))
        assert data[i + 3 : i + 5] == bytes([0x83, 0x60])
        assert data[i + 5 : i + 8] == bytes([0x80, 60, 0])

    def test_velocity_zero_note_on_is_off(self):
        tpq = 100
        track = bytes([0, 0x90, 64, 99, 50, 0x90, 64, 0, 0, 0xFF, 0x2F, 0])
        data = (
            b"MThd" + (6).to_bytes(4, "big") + b"\x00\x00\x00\x01" + tpq.to_bytes(2, "big")
            + b"MTrk" + len(track).to_bytes(4, "big") + track
        )
        seq = parse_smf(data)
        assert len(seq) == 1
        assert seq.notes[0].offset == pytest.approx(0.25)

    def test_overlapping_same_pitch_closed_at_next_on(self):
        tpq = 100
        track = bytes(
            [0, 0x90, 60, 80, 100, 0x90, 60, 80, 100, 0x80, 60, 0, 0, 0xFF, 0x2F, 0]
        )
        data = (
            b"MThd" + (6).to_bytes(4, "big") + b"\x00\x00\x00\x01" + tpq.to_bytes(2, "big")
            + b"MTrk" + len(track).to_bytes(4, "big") + track
        )
        seq = parse_smf(data)
        assert [(n.onset, n.offset) for n in seq] == [(0.0, 0.5), (0.5, 1.0)]

    def test_unmatched_note_on_closed_at_end(self, caplog):
        tpq = 100
        track = bytes([0, 0x90, 60, 80, 0x81, 0x48, 0xFF, 0x2F, 0])  # delta 200
        data = (
            b"MThd" + (6).to_bytes(4, "big") + b"\x00\x00\x00\x01" + tpq.to_bytes(2, "big")
            + b"MTrk" + len(track).to_bytes(4, "big") + track
        )
        with caplog.at_level("WARNING", logger="pianocover.midi"):
            seq = parse_smf(data)
        assert len(seq) == 1
        assert seq.notes[0].offset == pytest.approx(1.0)
        assert any("unmatched" in r.message for r in caplog.records)

    def test_multi_tempo_parse(self):
        # 1 quarter at 120 BPM then tempo doubles to 60 BPM for the 2nd quarter
        tpq = 100
        track = bytes(
            [0, 0xFF, 0x51, 3] + list((500000).to_bytes(3, "big"))
            + [0, 0x90, 60, 80]
            + [100, 0xFF, 0x51, 3] + list((1000000).to_bytes(3, "big"))
            + [100, 0x80, 60, 0]
            + [0, 0xFF, 0x2F, 0]
        )
        data = (
            b"MThd" + (6).to_bytes(4, "big") + b"\x00\x00\x00\x01" + tpq.to_bytes(2, "big")
            + b"MTrk" + len(track).to_bytes(4, "big") + track
        )
        seq = parse_smf(data)
        assert seq.notes[0].offset == pytest.approx(0.5 + 1.0)

    def test_format_2_rejected(self):
        data = b"MThd" + (6).to_bytes(4, "big") + b"\x00\x02\x00\x01\x01\xe0"
        with pytest.raises(FormatError):
            parse_smf(data)

    def test_truncated_file_reports_offset(self):
        data = b"MThd" + (6).to_bytes(4, "big") + b"\x00\x00"
        with pytest.raises(FormatError) as exc:
            parse_smf(data)
        assert exc.value.offset is not None

    def test_longest_delta_round_trips_and_one_more_tick_raises(self):
        # At 480 ticks per quarter and 120 BPM a tick is 1/960 s.
        longest = NoteSequence.build([Note(0.0, 60, MAX_VLQ / 960)])
        assert MAX_VLQ == 2**28 - 1
        assert parse_smf(write_smf(longest)) == longest
        too_long = NoteSequence.build([Note(0.0, 60, (MAX_VLQ + 1) / 960)])
        with pytest.raises(ValidationError, match="delta time of 268435456 ticks exceeds"):
            write_smf(too_long)

    def test_write_rejects_halfbeat_sequences(self):
        seq = NoteSequence.build([Note(0, 60, 2)], TimeUnit.HALF_BEATS)
        with pytest.raises(ValidationError):
            write_smf(seq)


class TestRoundTrip:
    def test_random_round_trip(self):
        rng = np.random.default_rng(12345)
        for _ in range(200):
            seq = random_sequence(rng)
            assert parse_smf(write_smf(seq)) == seq

    def test_round_trip_other_tempi(self):
        rng = np.random.default_rng(99)
        for bpm, tpq in [(60.0, 96), (137.0, 480), (178.5, 960)]:
            for _ in range(30):
                seq = random_sequence(rng, tpq=tpq, bpm=bpm)
                assert parse_smf(write_smf(seq, tpq, bpm)) == seq

    def test_fuzz_never_crashes(self):
        rng = np.random.default_rng(2024)
        for _ in range(2000):
            blob = rng.integers(0, 256, size=rng.integers(0, 400)).astype(np.uint8)
            try:
                parse_smf(bytes(blob.tobytes()))
            except FormatError:
                pass

    def test_fuzz_with_valid_header_prefix(self):
        rng = np.random.default_rng(77)
        head = b"MThd" + (6).to_bytes(4, "big") + b"\x00\x01\x00\x02\x01\xe0"
        for _ in range(500):
            blob = head + bytes(rng.integers(0, 256, size=60).astype(np.uint8).tobytes())
            try:
                parse_smf(blob)
            except FormatError:
                pass


class TestNoteDensity:
    def test_plain_arithmetic(self):
        notes = [Note(i * 0.5, 60 + i, i * 0.5 + 0.25) for i in range(10)]
        seq = NoteSequence.build(notes, duration=5.0)
        assert note_density(seq) == 2.0

    def test_zero_notes(self):
        seq = NoteSequence.build([], duration=5.0)
        assert note_density(seq) == 0.0

    def test_zero_duration_is_error(self):
        with pytest.raises(UndefinedMetricError):
            note_density(NoteSequence.build([]))

    def test_matches_recount(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            seq = random_sequence(rng)
            if seq.duration == 0:
                continue
            recount = sum(1 for _ in seq.notes) / seq.duration
            assert note_density(seq) == recount
