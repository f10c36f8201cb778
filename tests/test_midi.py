import struct
import time

import numpy as np
import pytest

from pianocover.errors import FormatError, UndefinedMetricError, ValidationError
from pianocover.midi import (
    DEFAULT_VELOCITY,
    MAX_VLQ,
    TICKS_PER_QUARTER,
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


def random_sequence(rng, bpm=120.0, max_notes=40, max_tick=4000):
    """Random tick-aligned sequence with no same-pitch overlap."""
    spt = seconds_per_tick(bpm, TICKS_PER_QUARTER)
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
        data = write_smf(seq, tempo_bpm=120.0)
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
        for bpm in [60.0, 137.0, 178.5]:
            for _ in range(30):
                seq = random_sequence(rng, bpm=bpm)
                assert parse_smf(write_smf(seq, bpm)) == seq

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


def vlq(value):
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(out))


def smf_bytes(division, tracks):
    """A format 0/1 SMF holding the given MTrk bodies."""
    head = struct.pack(">IHHH", 6, 0 if len(tracks) == 1 else 1, len(tracks), division)
    return b"MThd" + head + b"".join(
        b"MTrk" + struct.pack(">I", len(t)) + t for t in tracks
    )


def random_smf(rng):
    """A seeded random SMF plus what it holds: its division, each track's
    note events as (tick, kind 0=off/1=on, pitch, velocity) in file order,
    every (tick, microseconds per quarter) tempo event and each track's
    end tick.

    Tracks mix note-ons (velocity 0 among them), note-offs, controller and
    program changes, text meta events and sysex, with and without running
    status. Tempo events land at tick 0, after it and in same-tick pairs;
    a handful of pitches makes retriggers, zero-length notes and unmatched
    ons and offs common."""
    division = int(rng.choice([1, 0x7FFF, int(rng.integers(1, 0x8000))]))
    tracks, bodies, tempos, ends = [], [], [], []
    for _ in range(int(rng.integers(1, 4))):
        body = bytearray()
        notes = []
        tick = 0
        running = None

        def channel(delta, status, data):
            nonlocal running
            body.extend(vlq(delta))
            if status != running or rng.random() < 0.3:
                body.append(status)
            body.extend(data)
            running = status

        def meta(delta, kind, data):
            nonlocal running
            body.extend(vlq(delta) + bytes([0xFF, kind]) + vlq(len(data)) + data)
            running = None

        if rng.random() < 0.5:
            tempos.append((0, int(rng.integers(1, 0x1000000))))
            meta(0, 0x51, tempos[-1][1].to_bytes(3, "big"))
        for _ in range(int(rng.integers(0, 60))):
            delta = int(rng.choice([0, 0, rng.integers(1, 50), rng.integers(1, 2**21)]))
            tick += delta
            roll = rng.random()
            if roll < 0.15:
                for _ in range(int(rng.integers(1, 3))):
                    tempos.append((tick, int(rng.integers(1, 0x1000000))))
                    meta(delta, 0x51, tempos[-1][1].to_bytes(3, "big"))
                    delta = 0
            elif roll < 0.8:
                pitch = int(rng.integers(60, 64) if rng.random() < 0.8 else rng.integers(0, 128))
                vel = int(rng.integers(0, 128)) if rng.random() < 0.3 else 0
                on = rng.random() < 0.6
                if on and vel == 0 and rng.random() < 0.7:
                    vel = int(rng.integers(1, 128))
                status = (0x90 if on else 0x80) | int(rng.integers(0, 16))
                channel(delta, status, bytes([pitch, vel]))
                notes.append((tick, int(on and vel > 0), pitch, vel if on else 0))
            elif roll < 0.87:
                channel(delta, 0xB0 | int(rng.integers(0, 16)), bytes([7, 100]))
            elif roll < 0.92:
                channel(delta, 0xC0 | int(rng.integers(0, 16)), bytes([3]))
            elif roll < 0.96:
                meta(delta, 0x01, b"text")
            else:
                body.extend(vlq(delta) + bytes([0xF0, 2, 0x7E, 0xF7]))
                running = None
        if rng.random() < 0.8:
            delta = int(rng.integers(0, 1000))
            tick += delta
            meta(delta, 0x2F, b"")
        tracks.append(notes)
        bodies.append(bytes(body))
        ends.append(tick)
    return smf_bytes(division, bodies), division, tracks, tempos, ends


def reference_parse(division, tracks, tempos, ends):
    """The notes, duration and warning lines parse_smf must give, from
    scalar arithmetic: seconds add up boundary by boundary, and a tick
    takes the last boundary at or before it."""
    changes = sorted(set(tempos))
    if not changes or changes[0][0] > 0:
        changes.insert(0, (0, 500_000))
    seconds = 0.0
    prev_tick, spt = changes[0][0], changes[0][1] / (1e6 * division)
    boundaries = [(prev_tick, 0.0, spt)]
    for tick, uspq in changes[1:]:
        seconds = seconds + (tick - prev_tick) * spt
        spt = uspq / (1e6 * division)
        boundaries.append((tick, seconds, spt))
        prev_tick = tick

    def at(tick):
        b_tick, b_sec, b_spt = [b for b in boundaries if b[0] <= tick][-1]
        return b_sec + (tick - b_tick) * b_spt

    # Offs before ons at a tick, then track and file order.
    events = sorted(
        (tick, kind, t, i, pitch, vel)
        for t, notes in enumerate(tracks)
        for i, (tick, kind, pitch, vel) in enumerate(notes)
    )
    final_tick = max(ends, default=0)
    open_notes = {}
    finished = []
    unmatched_off = 0
    for tick, kind, _, _, pitch, vel in events:
        if kind == 1:
            if pitch in open_notes:
                finished.append((*open_notes.pop(pitch), pitch, tick))
            open_notes[pitch] = (tick, vel)
        elif pitch in open_notes:
            finished.append((*open_notes.pop(pitch), pitch, tick))
        else:
            unmatched_off += 1
    warnings = []
    if open_notes:
        warnings.append(
            f"{len(open_notes)} unmatched note-on(s) closed at final event time"
        )
        for pitch, (tick, vel) in open_notes.items():
            finished.append((tick, vel, pitch, max(final_tick, tick)))
    if unmatched_off:
        warnings.append(f"{unmatched_off} note-off(s) had no matching note-on")
    notes = [
        Note(at(on), pitch, at(off), max(vel, 1))
        for on, vel, pitch, off in finished
        if off > on
    ]
    if len(notes) < len(finished):
        warnings.append(f"{len(finished) - len(notes)} zero-length note(s) dropped")
    duration = max(at(final_tick), max((n.offset for n in notes), default=0.0))
    return NoteSequence.build(notes, TimeUnit.SECONDS, duration), warnings


class TestTempoMap:
    def test_matches_scalar_reference_bit_for_bit(self, caplog):
        rng = np.random.default_rng(21)
        for _ in range(400):
            data, *held = random_smf(rng)
            want, want_warnings = reference_parse(*held)
            caplog.clear()
            with caplog.at_level("WARNING", logger="pianocover.midi"):
                got = parse_smf(data)
            assert [r.getMessage() for r in caplog.records] == want_warnings
            assert got.duration == want.duration
            assert [(n.onset, n.offset, n.pitch, n.velocity) for n in got] == [
                (n.onset, n.offset, n.pitch, n.velocity) for n in want
            ]

    def test_dense_tempo_map_parses_in_seconds(self):
        # 32,000 tempo changes interleaved with 32,000 notes, about 480 kB.
        step = b"".join([
            vlq(1) + bytes([0xFF, 0x51, 3]) + (400_000).to_bytes(3, "big"),
            vlq(0) + bytes([0x90, 60, 80]),
            vlq(3) + bytes([0x80, 60, 0]),
        ])
        track = step * 32_000 + vlq(0) + bytes([0xFF, 0x2F, 0])
        data = smf_bytes(480, [track])
        start = time.perf_counter()
        seq = parse_smf(data)
        elapsed = time.perf_counter() - start
        assert len(seq) == 32_000
        # The first tick runs at the default 120 BPM, the rest at 400,000 us.
        ticks = 32_000 * 4
        assert seq.duration == pytest.approx(
            (500_000 + (ticks - 1) * 400_000) / (1e6 * 480)
        )
        assert elapsed < 10.0


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
