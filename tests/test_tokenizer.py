import logging
import time

import numpy as np
import pytest

from pianocover.errors import ParameterError, ValidationError
from pianocover.midi import Note, NoteSequence, TimeUnit
from pianocover.tokenizer import (
    EOS,
    MAX_SEGMENTS,
    MAX_TOKENS,
    NOTE_OFF,
    NOTE_ON,
    PAD,
    SEGMENT_HALFBEATS,
    TokenSeq,
    VOCAB_SIZE,
    beat_shift_id,
    decode_segment,
    encode_piece,
    encode_segment,
    generated_segment,
    one_note_per_pitch,
    pitch_id,
    read_token_file,
    split_piece,
    stitch,
    symbol,
    symbol_id,
    write_token_file,
)

HB = TimeUnit.HALF_BEATS


def hb_seq(notes):
    return NoteSequence.build(notes, HB, validate=False)


def random_quantized_piece(rng, max_halfbeats=64):
    length = int(rng.integers(4, max_halfbeats + 1))
    notes = []
    busy_until = {}
    for t in range(length):
        if rng.random() < 0.6:
            size = int(rng.integers(1, 9))
            for p in rng.choice(np.arange(21, 109), size=size, replace=False):
                p = int(p)
                if busy_until.get(p, 0) > t:
                    continue
                dur = int(rng.integers(1, 13))
                notes.append(Note(t, p, t + dur))
                busy_until[p] = t + dur
    return NoteSequence.build(notes, HB)


class TestVocab:
    def test_size_law(self):
        assert VOCAB_SIZE == 232 == 128 + 2 + 100 + 2

    def test_bijection_over_all_ids(self):
        seen = set()
        for i in range(VOCAB_SIZE):
            sym = symbol(i)
            assert symbol_id(sym) == i
            seen.add(sym)
        assert len(seen) == VOCAB_SIZE

    def test_anchor_ids(self):
        assert PAD == 0 and EOS == 1
        assert beat_shift_id(1) == 2
        assert beat_shift_id(100) == 101
        assert NOTE_OFF == 102 and NOTE_ON == 103
        assert pitch_id(0) == 104
        assert pitch_id(127) == 231

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            beat_shift_id(0)
        with pytest.raises(ValidationError):
            beat_shift_id(101)
        with pytest.raises(ValidationError):
            pitch_id(128)
        with pytest.raises(ValidationError):
            symbol(232)


class TestTokenSeq:
    def test_accepts_padded_row(self):
        TokenSeq((pitch_id(60), NOTE_ON, EOS, PAD, PAD))

    def test_rejects_tokens_after_eos(self):
        with pytest.raises(ValidationError):
            TokenSeq((EOS, NOTE_ON))

    def test_rejects_pad_before_eos(self):
        with pytest.raises(ValidationError):
            TokenSeq((PAD, EOS))

    def test_rejects_out_of_vocab(self):
        with pytest.raises(ValidationError):
            TokenSeq((232,))

    def test_rejects_shift_overflow(self):
        with pytest.raises(ValidationError):
            TokenSeq((beat_shift_id(100), beat_shift_id(1), EOS))


class TestEncode:
    def test_empty_segment(self):
        assert encode_segment(hb_seq([])).ids == (EOS,)

    def test_single_note(self):
        seq = hb_seq([Note(0, 60, 2)])
        assert encode_segment(seq).ids == (
            pitch_id(60),
            NOTE_ON,
            beat_shift_id(2),
            pitch_id(60),
            NOTE_OFF,
            EOS,
        )

    def test_chord(self):
        seq = hb_seq([Note(1, p, 3) for p in (67, 60, 64)])
        assert encode_segment(seq).ids == (
            beat_shift_id(1),
            pitch_id(60),
            pitch_id(64),
            pitch_id(67),
            NOTE_ON,
            beat_shift_id(2),
            pitch_id(60),
            pitch_id(64),
            pitch_id(67),
            NOTE_OFF,
            EOS,
        )

    def test_carried_in_note_emits_only_off(self):
        seq = hb_seq([Note(-2, 70, 3)])
        assert encode_segment(seq).ids == (
            beat_shift_id(3),
            pitch_id(70),
            NOTE_OFF,
            EOS,
        )

    def test_carried_out_note_emits_only_on(self):
        seq = hb_seq([Note(2, 70, 8)])
        assert encode_segment(seq).ids == (
            beat_shift_id(2),
            pitch_id(70),
            NOTE_ON,
            EOS,
        )

    def test_off_at_segment_start(self):
        seq = hb_seq([Note(-4, 70, 0)])
        assert encode_segment(seq).ids == (pitch_id(70), NOTE_OFF, EOS)

    def test_off_group_precedes_on_group(self):
        seq = hb_seq([Note(0, 60, 2), Note(2, 60, 4)])
        assert encode_segment(seq).ids == (
            pitch_id(60),
            NOTE_ON,
            beat_shift_id(2),
            pitch_id(60),
            NOTE_OFF,
            pitch_id(60),
            NOTE_ON,
            beat_shift_id(2),
            pitch_id(60),
            NOTE_OFF,
            EOS,
        )

    def test_validation(self):
        with pytest.raises(ValidationError):
            encode_segment(hb_seq([Note(0, 20, 2)]))
        with pytest.raises(ValidationError):
            encode_segment(hb_seq([Note(0, 109, 2)]))
        with pytest.raises(ValidationError):
            encode_segment(hb_seq([Note(8, 60, 9)]))
        with pytest.raises(ValidationError):
            encode_segment(hb_seq([Note(-3, 60, -1)]))
        with pytest.raises(ValidationError):
            encode_segment(hb_seq([Note(0.5, 60, 2)]))
        with pytest.raises(ParameterError):
            encode_segment(NoteSequence.build([Note(0, 60, 2)]))

    def test_token_budget_enforced(self):
        notes = [
            Note(t, p, t + 1)
            for t in range(SEGMENT_HALFBEATS)
            for p in range(21, 109)
        ]
        with pytest.raises(ValidationError):
            encode_segment(hb_seq(notes))
        assert MAX_TOKENS == 512

    def test_shift_shape_properties(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            piece = random_quantized_piece(rng, 8)
            tokens = encode_segment(split_piece(piece)[0]).ids
            shifts = [k for k, i in enumerate(tokens) if 2 <= i <= 101]
            assert all(symbol(tokens[k])[1] >= 1 for k in shifts)
            for a, b in zip(shifts, shifts[1:]):
                assert b != a + 1, "two consecutive beat shifts"
            assert len(shifts) <= SEGMENT_HALFBEATS + 2


class TestDecode:
    def test_empty(self):
        seq, open_map = decode_segment(TokenSeq((EOS,)))
        assert len(seq) == 0
        assert open_map == {}

    def test_open_note(self):
        seq, open_map = decode_segment(TokenSeq((pitch_id(60), NOTE_ON, EOS)))
        assert len(seq) == 0
        assert open_map == {60: 0}

    def test_unmatched_off_dropped(self):
        seq, open_map = decode_segment(
            TokenSeq((pitch_id(60), NOTE_OFF, EOS))
        )
        assert len(seq) == 0 and open_map == {}

    def test_retrigger_closes_previous(self):
        ids = (
            pitch_id(60),
            NOTE_ON,
            beat_shift_id(2),
            pitch_id(60),
            NOTE_ON,
            beat_shift_id(2),
            pitch_id(60),
            NOTE_OFF,
            EOS,
        )
        seq, open_map = decode_segment(TokenSeq(ids))
        assert [(n.onset, n.offset) for n in seq] == [(0, 2), (2, 4)]
        assert open_map == {}

    def test_pending_pitches_dropped_at_eos(self):
        seq, open_map = decode_segment(TokenSeq((pitch_id(60), EOS)))
        assert len(seq) == 0 and open_map == {}

    def test_carried_state_closes(self):
        seq, open_map = decode_segment(
            TokenSeq((beat_shift_id(2), pitch_id(60), NOTE_OFF, EOS)),
            open_notes={60: -6},
        )
        assert [(n.onset, n.pitch, n.offset) for n in seq] == [(-6, 60, 2)]
        assert open_map == {}

    def test_round_trip_single_segment(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            piece = random_quantized_piece(rng, 8)
            view = split_piece(piece)[0]
            decoded, open_map = decode_segment(encode_segment(view))
            inside = [n for n in view if n.offset < SEGMENT_HALFBEATS and n.onset >= 0]
            crossing = {n.pitch for n in view if n.offset >= SEGMENT_HALFBEATS}
            assert list(decoded) == sorted(inside)
            assert set(open_map) == crossing

    def test_raw_id_stream_fuzz(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            ids = rng.integers(0, VOCAB_SIZE, size=rng.integers(1, 80))
            seq, open_map = decode_segment(ids.tolist())
            for n in seq:
                assert n.offset > n.onset
            assert all(0 <= p <= 127 for p in open_map)


class TestGeneratedSegment:
    def test_ids_after_eos_are_ignored(self, caplog):
        assert generated_segment([5, NOTE_ON, EOS, 5]).ids == (5, NOTE_ON, EOS)
        assert generated_segment([EOS, EOS, PAD, 999]).ids == (EOS,)
        assert generated_segment([5, NOTE_ON]).ids == (5, NOTE_ON)
        # Only the ids before the first EOS are filtered and counted.
        with caplog.at_level(logging.WARNING, logger="pianocover"):
            seq = generated_segment([PAD, pitch_id(60), NOTE_ON, EOS, PAD, pitch_id(5)])
        assert seq.ids == (pitch_id(60), NOTE_ON, EOS)
        assert "dropped 1 unusable generated tokens" in caplog.text


class TestStitch:
    def test_boundary_crossing_note(self):
        seg0 = TokenSeq((beat_shift_id(6), pitch_id(72), NOTE_ON, EOS))
        seg1 = TokenSeq((beat_shift_id(2), pitch_id(72), NOTE_OFF, EOS))
        out = stitch([seg0, seg1])
        assert [(n.onset, n.pitch, n.offset) for n in out] == [(6, 72, 10)]
        assert out.duration == 16

    def test_all_empty(self):
        out = stitch([TokenSeq((EOS,))] * 3)
        assert len(out) == 0
        assert out.duration == 24

    def test_never_closed_note_ends_at_piece_end(self):
        seg0 = TokenSeq((pitch_id(60), NOTE_ON, EOS))
        out = stitch([seg0, TokenSeq((EOS,))])
        assert [(n.onset, n.offset) for n in out] == [(0, 16)]

    def test_a_later_segment_ends_a_note_still_sounding(self):
        # The first segment's shifts close its note past its own end, at 9;
        # the second strikes the same pitch at 8.
        segments = [TokenSeq((pitch_id(60), NOTE_ON, beat_shift_id(9), pitch_id(60),
                              NOTE_OFF, EOS)),
                    TokenSeq((pitch_id(60), NOTE_ON, beat_shift_id(4), pitch_id(60),
                              NOTE_OFF, EOS))]
        out = stitch(segments)
        assert [(n.onset, n.pitch, n.offset) for n in out] == [(0, 60, 8), (8, 60, 12)]
        assert out.duration == 16

    def test_generated_streams_stitch_to_one_note_per_pitch(self, caplog):
        # Random decoder rows over six pitches, made into segments the way
        # generate_cover makes them.
        rng = np.random.default_rng(43)
        vocabulary = ([pitch_id(p) for p in (60, 61, 62, 64, 65, 67)] * 3
                      + [beat_shift_id(k) for k in range(1, 13)] + [NOTE_ON, NOTE_OFF] * 4
                      + [EOS])
        overlapping = 0
        with caplog.at_level(logging.ERROR, logger="pianocover"):
            for _ in range(2000):
                segments = [generated_segment(rng.choice(vocabulary,
                                                         size=int(rng.integers(1, 30))))
                            for _ in range(int(rng.integers(1, 5)))]
                by_pitch = {}
                for n in stitch(segments):
                    by_pitch.setdefault(n.pitch, []).append(n)
                for notes in by_pitch.values():
                    overlapping += any(a.offset > b.onset for a, b in zip(notes, notes[1:]))
        assert overlapping == 0


def one_note_per_pitch_reference(seq):
    """The rule by its definition, as (onset, pitch, offset, velocity) rows:
    of the notes of one pitch on one onset the longest stays (the louder
    of equally long ones), and each ends no later than the next onset of
    its pitch; a note that this leaves no length is gone."""
    longest = {}
    for n in seq:
        key = (n.pitch, n.onset)
        longest[key] = max(longest.get(key, (n.offset, n.velocity)), (n.offset, n.velocity))
    rows = set()
    for (pitch, onset), (offset, velocity) in longest.items():
        later = [t for p, t in longest if p == pitch and t > onset]
        offset = min([offset, *later])
        if offset > onset:
            rows.add((onset, pitch, offset, velocity))
    return rows


def random_restruck_piece(rng):
    """A half-beat piece over four pitches whose notes overlap, share
    onsets and restrike one another."""
    notes = []
    for _ in range(int(rng.integers(0, 30))):
        onset = int(rng.integers(0, 40))
        notes.append(Note(onset, int(rng.choice([60, 61, 64, 67])),
                          onset + int(rng.integers(0, 12)), int(rng.integers(1, 128))))
    return hb_seq([n for n in notes if n.offset > n.onset])


class TestOneNotePerPitch:
    def test_matches_the_definition(self):
        rng = np.random.default_rng(41)
        changed = 0
        for _ in range(500):
            piece = random_restruck_piece(rng)
            got = one_note_per_pitch(piece)
            assert {(n.onset, n.pitch, n.offset, n.velocity) for n in got} == \
                one_note_per_pitch_reference(piece)
            assert got.duration == piece.duration and got.time_unit is HB
            changed += got.notes != piece.notes
        # The pieces exercise the rule: most lose or clip a note.
        assert changed > 250

    def test_is_idempotent(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            once = one_note_per_pitch(random_restruck_piece(rng))
            assert one_note_per_pitch(once) == once


class TestFullRoundTrip:
    def test_random_pieces(self):
        rng = np.random.default_rng(2025)
        for _ in range(1000):
            piece = random_quantized_piece(rng)
            segments = encode_piece(piece)
            back = stitch(segments)
            assert back.notes == piece.notes

    def test_example_piece_with_long_notes(self):
        piece = NoteSequence.build(
            [Note(0, 21, 25), Note(6, 108, 10), Note(7, 60, 8), Note(23, 60, 24)],
            HB,
        )
        back = stitch(encode_piece(piece))
        assert back.notes == piece.notes

    def test_note_ending_at_piece_end(self):
        piece = NoteSequence.build([Note(0, 60, 16)], HB)
        back = stitch(encode_piece(piece))
        assert back.notes == piece.notes


def split_by_definition(seq):
    """split_piece's views, segment by segment: segment k holds the notes
    with onset < 8k + 8 and offset >= 8k, shifted by 8k."""
    total = max(seq.duration, max((n.offset for n in seq), default=0))
    n_segments = max(1, -(-total // SEGMENT_HALFBEATS))
    views = []
    for k in range(int(n_segments)):
        base = k * SEGMENT_HALFBEATS
        views.append(hb_seq([
            Note(n.onset - base, n.pitch, n.offset - base, n.velocity)
            for n in seq
            if n.onset < base + SEGMENT_HALFBEATS and n.offset >= base
        ]))
    return views


class TestSplitPiece:
    def test_matches_per_segment_definition(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            length = int(rng.integers(1, 120))
            notes = []
            for _ in range(int(rng.integers(0, 25))):
                on = int(rng.integers(0, length))
                # Short notes, notes spanning many segments, and notes that
                # end on a segment boundary.
                off = int(rng.choice([
                    on + rng.integers(1, 4),
                    on + rng.integers(8, 60),
                    (on // SEGMENT_HALFBEATS + rng.integers(1, 4)) * SEGMENT_HALFBEATS,
                ]))
                notes.append(Note(on, int(rng.integers(21, 109)), off))
            last = max((n.offset for n in notes), default=0)
            duration = last + int(rng.integers(0, 30)) if rng.random() < 0.5 else None
            piece = NoteSequence.build(notes, HB, duration=duration)
            assert split_piece(piece) == split_by_definition(piece)

    def test_edge_pieces(self):
        empty = NoteSequence.build([], HB)
        assert split_piece(empty) == [hb_seq([])]
        boundary = NoteSequence.build([Note(3, 60, 16), Note(0, 62, 40)], HB, 57)
        views = split_piece(boundary)
        assert views == split_by_definition(boundary)
        assert len(views) == 8
        # The note ending at half-beat 16 reaches segment 2 at relative 0.
        assert Note(-13, 60, 0) in views[2].notes
        assert all(any(n.pitch == 62 for n in v) for v in views[:6])

    def test_segment_bound(self):
        limit = SEGMENT_HALFBEATS * MAX_SEGMENTS
        at_limit = NoteSequence.build([Note(0, 60, 3)], HB, duration=limit)
        assert len(split_piece(at_limit)) == MAX_SEGMENTS
        # Past the bound by the duration, or by a note's offset.
        for piece in (NoteSequence.build([Note(0, 60, 3)], HB, duration=limit + 1),
                      NoteSequence.build([Note(0, 60, limit + 1)], HB)):
            with pytest.raises(ValidationError, match=f"piece spans {MAX_SEGMENTS + 1} "
                                                      f"segments, over the limit of "
                                                      f"{MAX_SEGMENTS}"):
                split_piece(piece)

    def test_long_piece_splits_in_seconds(self):
        # 20,000 notes over 4,001 segments.
        rng = np.random.default_rng(8)
        onsets = rng.integers(0, 31_977, size=20_000)
        notes = [
            Note(int(on), int(p), int(on + d))
            for on, p, d in zip(onsets, rng.integers(21, 109, size=20_000),
                                rng.integers(1, 24, size=20_000))
        ]
        piece = NoteSequence.build(notes, HB, duration=32_001)
        start = time.perf_counter()
        views = split_piece(piece)
        elapsed = time.perf_counter() - start
        assert len(views) == 4_001
        assert elapsed < 5.0


class TestTokenFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        segments = encode_piece(random_quantized_piece(rng))
        p = tmp_path / "tokens.txt"
        write_token_file(p, segments)
        back = read_token_file(p)
        assert [s.ids for s in back] == [s.ids for s in segments]

    def test_rejects_garbage(self, tmp_path):
        p = tmp_path / "tokens.txt"
        p.write_text("1 2 x\n")
        with pytest.raises(ValidationError):
            read_token_file(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "tokens.txt"
        p.write_text("")
        assert read_token_file(p) == []
