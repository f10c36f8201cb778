"""Token codec between quantized note segments and the 232-word vocabulary.

A piece is cut into 4-beat (8 half-beat) segments and each segment
becomes one decoder target. Within a segment, a time cursor starts at 0
and the stream reads: an optional beat shift to the next occupied
half-beat, the pitches ending there followed by a note-off marker, the
pitches starting there followed by a note-on marker, and so on until
EOS. Notes that cross a segment boundary carry over: their note-off
simply arrives in a later segment, and the decoder keeps them open in
between. There is no tie symbol.

The grammar has one on/off slot per pitch, so a piece holds at most one
sounding note per pitch (``one_note_per_pitch``): notes of one pitch
that share an onset keep the longest, and each note ends no later than
the next onset of its pitch. ``stitch`` applies the rule to every piece
it decodes, and the pipeline to every piece it quantizes.

Id layout: PAD 0, EOS 1, BeatShift(k) 1+k for k in 1..100, NoteOff 102,
NoteOn 103, Pitch(p) 104+p for p in 0..127. Size 232.
"""

from __future__ import annotations

import logging
import math
from collections import defaultdict
from dataclasses import dataclass

from .errors import ParameterError, ValidationError, read_text
from .midi import (
    PIANO_PITCH_MAX,
    PIANO_PITCH_MIN,
    Note,
    NoteSequence,
    TimeUnit,
)

log = logging.getLogger(__name__)

PAD = 0
EOS = 1
NOTE_OFF = 102
NOTE_ON = 103
VOCAB_SIZE = 232

SEGMENT_HALFBEATS = 8
MAX_TOKENS = 512
MAX_SHIFT = 100  # cap on one segment's summed beat shifts, in half-beats
# Segments one piece may split into: about 36 h at 120 BPM. A piece's
# length follows its MIDI file's last event, so a 36-byte file can claim
# millions of segments, each a list and a token line. A piece `build`
# makes has at most about 450 (the DTW budget's 10 minutes at 180 BPM).
MAX_SEGMENTS = 2**16

_SHIFT_MIN_ID = 2
_SHIFT_MAX_ID = 101
_PITCH_BASE = 104


def beat_shift_id(k: int) -> int:
    if not 1 <= k <= MAX_SHIFT:
        raise ValidationError(f"beat shift {k} outside [1, {MAX_SHIFT}]")
    return 1 + k


def pitch_id(pitch: int) -> int:
    if not 0 <= pitch <= 127:
        raise ValidationError(f"pitch {pitch} outside [0, 127]")
    return _PITCH_BASE + pitch


def symbol(token_id: int) -> tuple:
    """Human-readable symbol for an id: ("pad",), ("eos",), ("shift", k),
    ("off",), ("on",) or ("pitch", p)."""
    if token_id == PAD:
        return ("pad",)
    if token_id == EOS:
        return ("eos",)
    if _SHIFT_MIN_ID <= token_id <= _SHIFT_MAX_ID:
        return ("shift", token_id - 1)
    if token_id == NOTE_OFF:
        return ("off",)
    if token_id == NOTE_ON:
        return ("on",)
    if _PITCH_BASE <= token_id < VOCAB_SIZE:
        return ("pitch", token_id - _PITCH_BASE)
    raise ValidationError(f"id {token_id} outside the vocabulary")


def symbol_id(sym: tuple) -> int:
    kind = sym[0]
    if kind == "pad":
        return PAD
    if kind == "eos":
        return EOS
    if kind == "shift":
        return beat_shift_id(sym[1])
    if kind == "off":
        return NOTE_OFF
    if kind == "on":
        return NOTE_ON
    if kind == "pitch":
        return pitch_id(sym[1])
    raise ValidationError(f"unknown symbol {sym!r}")


@dataclass(frozen=True)
class TokenSeq:
    """One segment's token ids.

    Shape rules: ids lie in the vocabulary, at most one EOS occurs and
    only PAD may follow it, PAD never precedes EOS, and the beat shifts
    sum to at most 100.
    """

    ids: tuple

    def __post_init__(self):
        ids = tuple(int(i) for i in self.ids)
        shift_total = 0
        seen_end = False
        for k, i in enumerate(ids):
            if not 0 <= i < VOCAB_SIZE:
                raise ValidationError(f"id {i} outside the vocabulary")
            if seen_end and i != PAD:
                raise ValidationError("only PAD may follow EOS or PAD")
            if i in (EOS, PAD):
                seen_end = True
            if _SHIFT_MIN_ID <= i <= _SHIFT_MAX_ID:
                shift_total += i - 1
        if shift_total > MAX_SHIFT:
            raise ValidationError(
                f"beat shifts sum to {shift_total}, over the {MAX_SHIFT} cap"
            )
        object.__setattr__(self, "ids", ids)

    def __len__(self):
        return len(self.ids)

    def __iter__(self):
        return iter(self.ids)


def encode_segment(notes: NoteSequence) -> TokenSeq:
    """Tokens for one segment-relative view of a quantized piece.

    Carried-in notes (negative onset) contribute only their note-off;
    offsets at or past the segment end are left to a later segment.
    """
    if notes.time_unit is not TimeUnit.HALF_BEATS:
        raise ParameterError("encode_segment expects half-beat times")
    ons = {}
    offs = {}
    for n in notes:
        if not PIANO_PITCH_MIN <= n.pitch <= PIANO_PITCH_MAX:
            raise ValidationError(
                f"pitch {n.pitch} outside the piano range "
                f"[{PIANO_PITCH_MIN}, {PIANO_PITCH_MAX}]"
            )
        onset, offset = int(n.onset), int(n.offset)
        if onset != n.onset or offset != n.offset:
            raise ValidationError(f"non-integer half-beat times ({n.onset}, {n.offset})")
        if onset >= SEGMENT_HALFBEATS:
            raise ValidationError(f"onset {onset} beyond the segment end")
        if offset < 0:
            raise ValidationError(f"offset {offset} before the segment start")
        if onset >= 0:
            ons.setdefault(onset, []).append(n.pitch)
        if offset < SEGMENT_HALFBEATS:
            offs.setdefault(offset, []).append(n.pitch)
    ids = []
    cursor = 0
    for t in sorted(set(ons) | set(offs)):
        if t > cursor:
            ids.append(beat_shift_id(t - cursor))
            cursor = t
        if t in offs:
            ids.extend(pitch_id(p) for p in sorted(offs[t]))
            ids.append(NOTE_OFF)
        if t in ons:
            ids.extend(pitch_id(p) for p in sorted(ons[t]))
            ids.append(NOTE_ON)
    ids.append(EOS)
    if len(ids) > MAX_TOKENS:
        raise ValidationError(
            f"segment encodes to {len(ids)} tokens, over the {MAX_TOKENS} cap"
        )
    return TokenSeq(tuple(ids))


def decode_segment(tokens, open_notes=None):
    """Notes encoded by one segment, tolerating arbitrary id streams.

    ``tokens`` may be a TokenSeq or any iterable of ids. ``open_notes``
    maps still-sounding pitches to their (possibly negative) onset in
    this segment's time; note-offs close them. Returns the closed notes
    and the updated open-note mapping. Anomalies (note-off with nothing
    open, pitches never flushed, zero-length closes) are dropped with a
    warning.
    """
    ids = tuple(int(i) for i in tokens)
    open_map = dict(open_notes) if open_notes else {}
    closed = []
    pending = []
    dropped = 0
    cursor = 0
    for i in ids:
        if i == EOS:
            break
        if i == PAD:
            dropped += 1
        elif _SHIFT_MIN_ID <= i <= _SHIFT_MAX_ID:
            cursor += i - 1
        elif i in (NOTE_OFF, NOTE_ON):
            for p in pending:
                if p in open_map:
                    onset = open_map.pop(p)
                    if cursor > onset:
                        closed.append(Note(onset, p, cursor))
                    else:
                        dropped += 1
                elif i == NOTE_OFF:
                    dropped += 1
                if i == NOTE_ON:
                    open_map[p] = cursor
            pending = []
        else:
            pending.append(i - _PITCH_BASE)
    dropped += len(pending)
    if dropped:
        log.warning("decode_segment dropped %d anomalous events", dropped)
    seq = NoteSequence.build(closed, TimeUnit.HALF_BEATS, validate=False)
    return seq, open_map


def generated_segment(ids) -> TokenSeq:
    """The segment made of a model's generated ids up to and including
    the first EOS, without the ones it cannot hold: PAD, beat shifts past
    the MAX_SHIFT cap and pitches outside the piano range are dropped
    with a warning. Ids after the first EOS are ignored."""
    kept = []
    shift_total = 0
    dropped = 0
    for t in ids:
        sym = symbol(t)
        if sym[0] == "pad":
            dropped += 1
            continue
        if sym[0] == "shift":
            if shift_total + sym[1] > MAX_SHIFT:
                dropped += 1
                continue
            shift_total += sym[1]
        if sym[0] == "pitch" and not PIANO_PITCH_MIN <= sym[1] <= PIANO_PITCH_MAX:
            dropped += 1
            continue
        kept.append(t)
        if sym[0] == "eos":
            break
    if dropped:
        log.warning("dropped %d unusable generated tokens", dropped)
    return TokenSeq(tuple(kept))


def one_note_per_pitch(seq: NoteSequence) -> NoteSequence:
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


def stitch(segments, segment_halfbeats: int = SEGMENT_HALFBEATS) -> NoteSequence:
    """Concatenate decoded segments into one piece in absolute half-beats,
    with one sounding note per pitch.

    Notes left open by one segment stay open into the next; anything
    still sounding after the final segment closes at the piece end. A
    segment's beat shifts may run past its end, so a note it closes
    there can still sound when a later segment strikes its pitch again;
    that later onset ends it (``one_note_per_pitch``), so every stitched
    piece obeys the grammar's rule.
    A ``segment_halfbeats`` (kept for the benchmark) but SEGMENT_HALFBEATS
    raises ParameterError.
    """
    if segment_halfbeats != SEGMENT_HALFBEATS:
        raise ParameterError(f"segment length {segment_halfbeats} is not {SEGMENT_HALFBEATS}")
    open_abs = {}
    notes = []
    for k, seg in enumerate(segments):
        base = k * SEGMENT_HALFBEATS
        open_rel = {p: a - base for p, a in open_abs.items()}
        decoded, open_rel = decode_segment(seg, open_rel)
        notes.extend(
            Note(n.onset + base, n.pitch, n.offset + base, n.velocity)
            for n in decoded
        )
        open_abs = {p: r + base for p, r in open_rel.items()}
    total = len(segments) * SEGMENT_HALFBEATS
    tail_dropped = 0
    for p, a in open_abs.items():
        if total > a:
            notes.append(Note(a, p, total))
        else:
            tail_dropped += 1
    if tail_dropped:
        log.warning("stitch dropped %d notes opened past the piece end", tail_dropped)
    last = max((n.offset for n in notes), default=0)
    return one_note_per_pitch(NoteSequence.build(
        notes, TimeUnit.HALF_BEATS, duration=max(total, last)
    ))


def split_piece(seq: NoteSequence):
    """Segment-relative views of a quantized piece, ready to encode.

    A note appears in every segment it touches: with a negative onset
    where it carried in, and with an offset past the end where it
    carries out. A note ending exactly at a segment boundary appears in
    the next segment so its note-off lands at relative time 0.
    """
    if seq.time_unit is not TimeUnit.HALF_BEATS:
        raise ParameterError("split_piece expects half-beat times")
    last = max((n.offset for n in seq), default=0)
    total = max(seq.duration, last)
    n_segments = max(1, int(math.ceil(total / SEGMENT_HALFBEATS)))
    if n_segments > MAX_SEGMENTS:
        raise ValidationError(
            f"piece spans {n_segments} segments, over the limit of {MAX_SEGMENTS}"
        )
    # Segment k holds the notes with onset < 8k + 8 and offset >= 8k.
    kept = [[] for _ in range(n_segments)]
    for n in seq:
        first = max(0, math.floor(n.onset / SEGMENT_HALFBEATS))
        stop = min(math.floor(n.offset / SEGMENT_HALFBEATS) + 1, n_segments)
        for k in range(first, stop):
            base = k * SEGMENT_HALFBEATS
            kept[k].append(Note(n.onset - base, n.pitch, n.offset - base, n.velocity))
    return [NoteSequence.build(v, TimeUnit.HALF_BEATS, validate=False) for v in kept]


def encode_piece(seq: NoteSequence):
    """Encode a whole quantized piece as one TokenSeq per segment."""
    return [encode_segment(view) for view in split_piece(seq)]


def read_token_file(path):
    """Token segments from a text file, one line of space-separated ids
    per segment."""
    segments = []
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            ids = tuple(int(tok) for tok in line.split())
        except ValueError:
            raise ValidationError(
                f"{path}:{lineno}: token ids must be integers"
            ) from None
        try:
            segments.append(TokenSeq(ids))
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
    return segments


def write_token_file(path, segments):
    with open(path, "w") as fh:
        for seg in segments:
            fh.write(" ".join(str(i) for i in seg.ids) + "\n")
