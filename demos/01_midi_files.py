"""
Reading and writing Standard MIDI Files
=======================================

NoteSequence is the package's note container: a canonically sorted
tuple of (onset, pitch, offset, velocity) rows plus the unit its times
are in. write_smf serializes one to a single-track SMF and parse_smf
reads it back, tick-exactly.
"""

import tempfile
from pathlib import Path

from pianocover.midi import Note, NoteSequence, parse_smf, write_smf

# A two-bar C major arpeggio at 120 BPM, times in seconds.
notes = [
    Note(0.00, 60, 0.45),
    Note(0.50, 64, 0.95),
    Note(1.00, 67, 1.45),
    Note(1.50, 72, 2.45, velocity=101),
]
seq = NoteSequence.build(notes, duration=2.5)
print(f"sequence: {len(seq.notes)} notes, {seq.duration:.2f}s")

# Serialize. The writer's 480 ticks per quarter at 120 BPM put one tick at
# about one millisecond, so these times land exactly on ticks.
data = write_smf(seq, tempo_bpm=120.0)
print(f"file size: {len(data)} bytes, header chunk: {data[:4]!r}")

out = Path(tempfile.mkdtemp()) / "arpeggio.mid"
out.write_bytes(data)
print(f"wrote {out}")

# Parse it back. Round trips are exact for tick-aligned input: the
# parser rebuilds the identical NoteSequence, velocities included.
back = parse_smf(out.read_bytes())
print(f"round trip exact: {back == seq}")

# Off-grid times are quantized to the nearest tick on write, so a
# second write of the parsed sequence is byte-identical.
print(f"second write byte-identical: {write_smf(back) == data}")
