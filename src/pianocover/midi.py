"""Standard MIDI File codec and the in-memory note model.

Every other module consumes :class:`NoteSequence`: a canonically sorted list
of notes tagged with its time unit (seconds or half-beat indices).  The SMF
parser accepts format 0/1 files with arbitrary tempo maps and merges all
tracks and channels; the writer always emits a single-tempo format-0 file on
channel 0.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass, field
from enum import Enum

from .errors import FormatError, UndefinedMetricError, ValidationError

log = logging.getLogger(__name__)

# Written for detokenized notes, which carry no velocity of their own.
DEFAULT_VELOCITY = 77

PIANO_PITCH_MIN = 21
PIANO_PITCH_MAX = 108

_META_TEMPO = 0x51
_META_END_OF_TRACK = 0x2F
_DEFAULT_USPQ = 500_000  # 120 BPM, SMF default


class TimeUnit(Enum):
    SECONDS = "seconds"
    HALF_BEATS = "half_beats"


@dataclass(frozen=True, order=True)
class Note:
    """One note event. Times are seconds or half-beat indices depending on
    the containing sequence's time unit. Ordering is (onset, pitch, offset)."""

    # Field order defines the canonical sort: onset, then pitch, then offset.
    onset: float
    pitch: int
    offset: float
    velocity: int = DEFAULT_VELOCITY

    def validate(self):
        if not 0 <= self.pitch <= 127:
            raise ValidationError(f"pitch {self.pitch} outside [0, 127]")
        if not 1 <= self.velocity <= 127:
            raise ValidationError(f"velocity {self.velocity} outside [1, 127]")
        if self.onset < 0:
            raise ValidationError(f"negative onset {self.onset}")
        if not self.offset > self.onset:
            raise ValidationError(
                f"offset {self.offset} not strictly after onset {self.onset}"
            )


@dataclass(frozen=True)
class NoteSequence:
    """Canonically sorted notes plus the unit their times are expressed in."""

    notes: tuple = ()
    time_unit: TimeUnit = TimeUnit.SECONDS
    duration: float = 0.0

    @classmethod
    def build(cls, notes, time_unit=TimeUnit.SECONDS, duration=None, validate=True):
        """Sort notes canonically, merge exact (onset, pitch, offset)
        duplicates (keeping the larger velocity), and fill in the duration
        as the last offset when not given."""
        merged = {}
        for n in notes:
            if validate:
                n.validate()
            key = (n.onset, n.pitch, n.offset)
            prev = merged.get(key)
            if prev is None or n.velocity > prev.velocity:
                merged[key] = n
        ordered = tuple(merged[k] for k in sorted(merged))
        last = max((n.offset for n in ordered), default=0.0)
        if duration is None:
            duration = last
        elif duration < last:
            raise ValidationError(
                f"duration {duration} shorter than final offset {last}"
            )
        return cls(ordered, time_unit, duration)

    def __len__(self):
        return len(self.notes)

    def __iter__(self):
        return iter(self.notes)


def note_density(seq: NoteSequence) -> float:
    """Note onsets per second. The sequence must be in seconds with a
    positive duration."""
    if seq.time_unit is not TimeUnit.SECONDS:
        raise ValidationError(f"expected a sequence in seconds, got {seq.time_unit}")
    if not seq.duration > 0:
        raise UndefinedMetricError("note density undefined for zero duration")
    return len(seq.notes) / seq.duration


# ---------------------------------------------------------------------------
# Parsing


class _Reader:
    """Byte cursor that raises FormatError with the current offset."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def need(self, n):
        if self.pos + n > len(self.data):
            raise FormatError(
                f"unexpected end of data, wanted {n} more bytes", self.pos
            )

    def bytes(self, n):
        self.need(n)
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self):
        return self.bytes(1)[0]

    def u16(self):
        return struct.unpack(">H", self.bytes(2))[0]

    def u32(self):
        return struct.unpack(">I", self.bytes(4))[0]

    def vlq(self):
        value = 0
        for _ in range(4):
            b = self.u8()
            value = (value << 7) | (b & 0x7F)
            if not b & 0x80:
                return value
        raise FormatError("variable-length quantity longer than 4 bytes", self.pos)


_CHANNEL_DATA_LEN = {0x8: 2, 0x9: 2, 0xA: 2, 0xB: 2, 0xC: 1, 0xD: 1, 0xE: 2}


def _parse_track(r: _Reader, length):
    """Return (note events, tempo events, end tick) for one MTrk body.

    Note events are (tick, order, kind, pitch, velocity) with kind 0 = off
    and 1 = on; tempo events are (tick, microseconds per quarter).
    """
    end = r.pos + length
    tick = 0
    running = None
    order = 0
    notes = []
    tempos = []
    while r.pos < end:
        tick += r.vlq()
        status = r.u8()
        if status < 0x80:
            if running is None:
                raise FormatError("data byte with no running status", r.pos - 1)
            r.pos -= 1
            status = running
        if status == 0xFF:
            running = None
            meta = r.u8()
            mlen = r.vlq()
            body = r.bytes(mlen)
            if meta == _META_TEMPO:
                if mlen != 3:
                    raise FormatError("tempo meta event must be 3 bytes", r.pos)
                tempos.append((tick, int.from_bytes(body, "big")))
            elif meta == _META_END_OF_TRACK:
                break
        elif status in (0xF0, 0xF7):
            running = None
            r.bytes(r.vlq())
        elif status >= 0xF0:
            raise FormatError(f"unsupported system message 0x{status:02x}", r.pos - 1)
        else:
            running = status
            kind = status >> 4
            data = r.bytes(_CHANNEL_DATA_LEN[kind])
            if kind == 0x9:
                pitch, vel = data
                if pitch > 127 or vel > 127:
                    raise FormatError("data byte above 0x7f in note event", r.pos - 1)
                notes.append((tick, order, 1 if vel > 0 else 0, pitch, vel))
            elif kind == 0x8:
                pitch = data[0]
                if pitch > 127 or data[1] > 127:
                    raise FormatError("data byte above 0x7f in note event", r.pos - 1)
                notes.append((tick, order, 0, pitch, 0))
            order += 1
    r.pos = end
    return notes, tempos, tick


class _TempoMap:
    """Piecewise-constant tempo map; converts absolute ticks to seconds."""

    def __init__(self, tempo_events, ticks_per_quarter):
        changes = sorted(set(tempo_events))
        if not changes or changes[0][0] > 0:
            changes.insert(0, (0, _DEFAULT_USPQ))
        self.boundaries = []  # (tick, seconds at tick, seconds per tick after)
        seconds = 0.0
        prev_tick, prev_uspq = changes[0]
        spt = prev_uspq / (1e6 * ticks_per_quarter)
        self.boundaries.append((prev_tick, 0.0, spt))
        for tick, uspq in changes[1:]:
            seconds = seconds + (tick - prev_tick) * spt
            spt = uspq / (1e6 * ticks_per_quarter)
            self.boundaries.append((tick, seconds, spt))
            prev_tick = tick

    def seconds(self, tick):
        b_tick, b_sec, spt = self.boundaries[0]
        for tick0, sec0, spt0 in self.boundaries:
            if tick0 > tick:
                break
            b_tick, b_sec, spt = tick0, sec0, spt0
        return b_sec + (tick - b_tick) * spt


def parse_smf(data: bytes) -> NoteSequence:
    """Parse a format 0/1 Standard MIDI File into a NoteSequence in seconds.

    All tracks and channels are merged.  Note-on with velocity 0 counts as
    note-off.  A note-on for a pitch that is already sounding closes the open
    note at that instant and starts a new one.  Unmatched note-ons at end of
    file are closed at the final event time with a logged warning.
    """
    r = _Reader(data)
    if r.bytes(4) != b"MThd":
        raise FormatError("missing MThd header", 0)
    hlen = r.u32()
    if hlen < 6:
        raise FormatError(f"header length {hlen} < 6", r.pos - 4)
    fmt = r.u16()
    ntracks = r.u16()
    division = r.u16()
    r.bytes(hlen - 6)
    if fmt not in (0, 1):
        raise FormatError(f"unsupported SMF format {fmt}", 8)
    if division & 0x8000:
        raise FormatError("SMPTE divisions are not supported", 12)
    if division == 0:
        raise FormatError("zero ticks per quarter", 12)

    all_notes = []
    all_tempos = []
    final_tick = 0
    parsed = 0
    while parsed < ntracks and r.pos < len(r.data):
        chunk_type = r.bytes(4)
        length = r.u32()
        if chunk_type != b"MTrk":
            r.bytes(length)  # alien chunks are skipped per the SMF spec
            continue
        notes, tempos, end_tick = _parse_track(r, length)
        all_notes.extend((t, parsed, o, k, p, v) for (t, o, k, p, v) in notes)
        all_tempos.extend(tempos)
        final_tick = max(final_tick, end_tick)
        parsed += 1
    if parsed == 0 and ntracks > 0:
        raise FormatError("no MTrk chunk found", r.pos)

    tmap = _TempoMap(all_tempos, division)
    # Off events sort before on events at the same tick so that back-to-back
    # same-pitch notes close/reopen correctly.
    all_notes.sort(key=lambda e: (e[0], e[3], e[1], e[2]))

    open_notes = {}  # pitch -> (tick, velocity)
    finished = []
    dropped = 0
    unmatched_off = 0
    for tick, _track, _order, kind, pitch, vel in all_notes:
        if kind == 1:
            if pitch in open_notes:
                finished.append((*open_notes.pop(pitch), pitch, tick))
            open_notes[pitch] = (tick, vel)
        else:
            if pitch in open_notes:
                finished.append((*open_notes.pop(pitch), pitch, tick))
            else:
                unmatched_off += 1
    if open_notes:
        log.warning(
            "%d unmatched note-on(s) closed at final event time", len(open_notes)
        )
        for pitch, (tick, vel) in open_notes.items():
            finished.append((tick, vel, pitch, max(final_tick, tick)))
    if unmatched_off:
        log.warning("%d note-off(s) had no matching note-on", unmatched_off)

    out = []
    for on_tick, vel, pitch, off_tick in finished:
        if off_tick <= on_tick:
            dropped += 1
            continue
        out.append(
            Note(tmap.seconds(on_tick), pitch, tmap.seconds(off_tick), max(vel, 1))
        )
    if dropped:
        log.warning("%d zero-length note(s) dropped", dropped)
    duration = max(
        tmap.seconds(final_tick), max((n.offset for n in out), default=0.0)
    )
    return NoteSequence.build(out, TimeUnit.SECONDS, duration)


# ---------------------------------------------------------------------------
# Writing


def _vlq(value: int) -> bytes:
    chunks = [value & 0x7F]
    value >>= 7
    while value:
        chunks.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(chunks))


def write_smf(seq: NoteSequence, ticks_per_quarter: int = 480,
              tempo_bpm: float = 120.0) -> bytes:
    """Serialize a NoteSequence in seconds to a format-0 SMF.

    One tempo event, all notes on channel 0, times rounded to the nearest
    tick.  Output is bit-exact for a fixed (sequence, ticks, tempo) triple.
    """
    if seq.time_unit is not TimeUnit.SECONDS:
        raise ValidationError("write_smf requires a sequence in seconds")
    if not 0 < ticks_per_quarter <= 0x7FFF:
        raise ValidationError(f"ticks_per_quarter {ticks_per_quarter} out of range")
    if not tempo_bpm > 0:
        raise ValidationError(f"tempo {tempo_bpm} must be positive")
    uspq = round(60e6 / tempo_bpm)
    if not 1 <= uspq <= 0xFFFFFF:
        raise ValidationError(f"tempo {tempo_bpm} BPM not representable")
    spt = uspq / (1e6 * ticks_per_quarter)

    events = []  # (tick, kind 0=off/1=on, pitch, velocity)
    for n in seq.notes:
        n.validate()
        on = round(n.onset / spt)
        off = round(n.offset / spt)
        if off <= on:
            off = on + 1  # rounding collapsed the note; keep one tick
        events.append((on, 1, n.pitch, n.velocity))
        events.append((off, 0, n.pitch, 0))
    events.sort()

    body = bytearray()
    body += _vlq(0) + bytes([0xFF, _META_TEMPO, 3]) + uspq.to_bytes(3, "big")
    tick = 0
    for etick, kind, pitch, vel in events:
        body += _vlq(etick - tick)
        tick = etick
        status = 0x90 if kind else 0x80
        body += bytes([status, pitch, vel])
    end_tick = max(tick, round(seq.duration / spt))
    body += _vlq(end_tick - tick) + bytes([0xFF, _META_END_OF_TRACK, 0])

    header = b"MThd" + struct.pack(">IHHH", 6, 0, 1, ticks_per_quarter)
    return header + b"MTrk" + struct.pack(">I", len(body)) + bytes(body)
