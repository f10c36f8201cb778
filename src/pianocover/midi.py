"""Standard MIDI File codec and the in-memory note model.

Every other module consumes :class:`NoteSequence`: a canonically sorted list
of notes tagged with its time unit (seconds or half-beat indices).  The SMF
parser accepts format 0/1 files with arbitrary tempo maps and merges all
tracks and channels, in time proportional to the file's events however
many tempo changes it holds: one sorted lookup maps every tick to seconds.
The writer always emits a single-tempo format-0 file on channel 0.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ByteCursor, FormatError, UndefinedMetricError, ValidationError

log = logging.getLogger(__name__)

# Written for detokenized notes, which carry no velocity of their own.
DEFAULT_VELOCITY = 77

PIANO_PITCH_MIN = 21
PIANO_PITCH_MAX = 108

_META_TEMPO = 0x51
_META_END_OF_TRACK = 0x2F
_DEFAULT_USPQ = 500_000  # 120 BPM, SMF default
# The largest variable-length quantity 4 bytes hold: about 77.7 h between
# two events at 480 ticks per quarter and 120 BPM.
MAX_VLQ = 2**28 - 1


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


def _read_vlq(r: ByteCursor) -> int:
    value = 0
    for _ in range(4):
        b = r.take(1)[0]
        value = (value << 7) | (b & 0x7F)
        if not b & 0x80:
            return value
    raise FormatError("variable-length quantity longer than 4 bytes", r.pos)


_CHANNEL_DATA_LEN = {0x8: 2, 0x9: 2, 0xA: 2, 0xB: 2, 0xC: 1, 0xD: 1, 0xE: 2}


def _parse_track(r: ByteCursor, length):
    """Return (note events, tempo events, end tick) for one MTrk body.

    Note events are (tick, kind, pitch, velocity) in file order, with
    kind 0 = off and 1 = on; tempo events are (tick, microseconds per
    quarter).
    """
    end = r.pos + length
    tick = 0
    running = None
    notes = []
    tempos = []
    while r.pos < end:
        tick += _read_vlq(r)
        status = r.take(1)[0]
        if status < 0x80:
            if running is None:
                raise FormatError("data byte with no running status", r.pos - 1)
            r.pos -= 1
            status = running
        if status == 0xFF:
            running = None
            meta = r.take(1)[0]
            mlen = _read_vlq(r)
            body = r.take(mlen)
            if meta == _META_TEMPO:
                if mlen != 3:
                    raise FormatError("tempo meta event must be 3 bytes", r.pos)
                tempos.append((tick, int.from_bytes(body, "big")))
            elif meta == _META_END_OF_TRACK:
                break
        elif status in (0xF0, 0xF7):
            running = None
            r.take(_read_vlq(r))
        elif status >= 0xF0:
            raise FormatError(f"unsupported system message 0x{status:02x}", r.pos - 1)
        else:
            running = status
            kind = status >> 4
            data = r.take(_CHANNEL_DATA_LEN[kind])
            if kind in (0x8, 0x9):
                pitch, vel = data
                if pitch > 127 or vel > 127:
                    raise FormatError("data byte above 0x7f in note event", r.pos - 1)
                on = kind == 0x9 and vel > 0
                notes.append((tick, 1, pitch, vel) if on else (tick, 0, pitch, 0))
    r.pos = end
    return notes, tempos, tick


def _ticks_to_seconds(ticks, tempo_events, ticks_per_quarter):
    """Seconds at each tick under a piecewise-constant tempo map.

    Each tempo boundary starts at the seconds of all spans before it,
    added in tick order; a tick takes the last boundary at or before it.
    Without a tempo event at tick 0 the map starts at 120 BPM.
    """
    changes = sorted(set(tempo_events))
    if not changes or changes[0][0] > 0:
        changes.insert(0, (0, _DEFAULT_USPQ))
    b_tick, uspq = np.array(changes, dtype=np.int64).T
    spt = uspq / (1e6 * ticks_per_quarter)
    b_sec = np.concatenate(([0.0], np.cumsum(np.diff(b_tick) * spt[:-1])))
    ticks = np.asarray(ticks, dtype=np.int64)
    i = np.searchsorted(b_tick, ticks, side="right") - 1
    return (b_sec[i] + (ticks - b_tick[i]) * spt[i]).tolist()


def parse_smf(data: bytes) -> NoteSequence:
    """Parse a format 0/1 Standard MIDI File into a NoteSequence in seconds.

    All tracks and channels are merged.  Note-on with velocity 0 counts as
    note-off.  A note-on for a pitch that is already sounding closes the open
    note at that instant and starts a new one.  Unmatched note-ons at end of
    file are closed at the final event time with a logged warning.
    """
    r = ByteCursor(data)
    if r.take(4) != b"MThd":
        raise FormatError("missing MThd header", 0)
    (hlen,) = r.unpack(">I")
    if hlen < 6:
        raise FormatError(f"header length {hlen} < 6", r.pos - 4)
    fmt, ntracks, division = r.unpack(">HHH")
    r.take(hlen - 6)
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
        chunk_type = r.take(4)
        (length,) = r.unpack(">I")
        if chunk_type != b"MTrk":
            r.take(length)  # alien chunks are skipped per the SMF spec
            continue
        notes, tempos, end_tick = _parse_track(r, length)
        all_notes.extend(notes)
        all_tempos.extend(tempos)
        final_tick = max(final_tick, end_tick)
        parsed += 1
    if parsed == 0 and ntracks > 0:
        raise FormatError("no MTrk chunk found", r.pos)

    # A stable sort keeps file order within a tick, with off events before
    # on events so that back-to-back same-pitch notes close/reopen correctly.
    all_notes.sort(key=lambda e: (e[0], e[1]))

    open_notes = {}  # pitch -> (tick, velocity)
    finished = []
    unmatched_off = 0
    for tick, kind, pitch, vel in all_notes:
        if pitch in open_notes:
            finished.append((*open_notes.pop(pitch), pitch, tick))
        elif not kind:
            unmatched_off += 1
        if kind:
            open_notes[pitch] = (tick, vel)
    if open_notes:
        log.warning(
            "%d unmatched note-on(s) closed at final event time", len(open_notes)
        )
        for pitch, (tick, vel) in open_notes.items():
            finished.append((tick, vel, pitch, max(final_tick, tick)))
    if unmatched_off:
        log.warning("%d note-off(s) had no matching note-on", unmatched_off)

    kept = [f for f in finished if f[3] > f[0]]
    if len(kept) < len(finished):
        log.warning("%d zero-length note(s) dropped", len(finished) - len(kept))
    ticks = [f[0] for f in kept] + [f[3] for f in kept] + [final_tick]
    seconds = _ticks_to_seconds(ticks, all_tempos, division)
    # offs ends with the final tick's seconds, so max(offs) is the later of
    # the last offset and the final event.
    ons, offs = seconds[: len(kept)], seconds[len(kept) :]
    out = [Note(on, p, off, max(v, 1)) for (_, v, p, _), on, off in zip(kept, ons, offs)]
    return NoteSequence.build(out, TimeUnit.SECONDS, max(offs))


# ---------------------------------------------------------------------------
# Writing


def _vlq(value: int) -> bytes:
    """A delta time as a variable-length quantity of at most 4 bytes, the
    most the SMF format (and parse_smf) reads."""
    if value > MAX_VLQ:
        raise ValidationError(
            f"delta time of {value} ticks exceeds the SMF maximum of {MAX_VLQ}"
        )
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
    Two events more than MAX_VLQ ticks apart raise ValidationError.
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
