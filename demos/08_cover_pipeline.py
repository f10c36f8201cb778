"""
The full pipeline, end to end
=============================

Everything together: render a synthetic song, build a training dataset
from (audio, cover MIDI) pairs, train a small model, and generate a
piano cover MIDI for the same audio. The `pianocover` command line
wraps each stage (build-dataset, train, cover); here the same flow runs
through the library so the intermediate objects are visible.
"""

import tempfile
from pathlib import Path

import numpy as np

from pianocover.beats import BeatGrid, halfbeats_to_seconds, write_beat_file
from pianocover.features import SAMPLE_RATE, write_wav
from pianocover.midi import Note, NoteSequence, TimeUnit, note_density, write_smf
from pianocover.model import TrainConfig, desk_config, save_checkpoint, train
from pianocover.pipeline import (
    CoverJob,
    PairRecord,
    build_dataset,
    eval_stats,
    generate_cover,
    render_sine_audio,
)

work = Path(tempfile.mkdtemp())
print(f"working in {work}")

# 1. Fabricate a "song": a diatonic progression rendered as sines, with
# its own MIDI standing in for the human cover.
grid = BeatGrid(0.25 + 0.5 * np.arange(16))
rng = np.random.default_rng(4)
notes = []
busy = {}
for t in range(28):
    if rng.random() < 0.35:
        continue
    for p in rng.choice([48, 55, 60, 64, 67, 72], size=rng.integers(1, 3), replace=False):
        p = int(p)
        if busy.get(p, 0) > t:
            continue
        end = min(t + int(rng.integers(2, 6)), 32)
        busy[p] = end
        notes.append(Note(t, p, end))
piece = NoteSequence.build(notes, TimeUnit.HALF_BEATS, validate=False)
seconds = halfbeats_to_seconds(piece, grid)

write_wav(work / "song.wav", render_sine_audio(seconds, SAMPLE_RATE))
(work / "song.mid").write_bytes(write_smf(seconds))
write_beat_file(work / "song.beats", grid)

# 2. Build the dataset: align, quantize, filter, window, tokenize.
record = PairRecord(
    pop_audio=str(work / "song.wav"),
    cover_midi=str(work / "song.mid"),
    arranger_id=1,
    beats=str(work / "song.beats"),
)
examples, build_report = build_dataset([record], out_dir=work / "dataset")
print(f"dataset: {build_report.kept} pair kept, {len(examples)} training windows")

# 3. Train a small model on those windows.
config = desk_config(
    d_model=32,
    num_heads=4,
    d_ff=64,
    num_encoder_layers=1,
    num_decoder_layers=1,
    num_arrangers=4,
    max_decode_len=96,
)
train_config = TrainConfig(epochs=500, batch_size=4, learning_rate=0.001, seed=0)
params, history = train(examples, train_config, config)
save_checkpoint(work / "model.ckpt", params, config)
print(f"trained {len(history)} steps, loss {history[0]:.2f} -> {history[-1]:.3f}")

# 4. Generate a cover for the song and look at the result.
job = CoverJob(
    audio=str(work / "song.wav"),
    arranger_id=1,
    checkpoint=str(work / "model.ckpt"),
    output=str(work / "cover.mid"),
    beats=str(work / "song.beats"),
)
cover = generate_cover(job)
print(f"cover: {len(cover.notes)} notes over {cover.duration:.1f}s -> {job.output}")

stats = eval_stats([(cover, 1)])
print(f"note density {stats['arrangers'][1]['mean_density']:.2f} onsets/s "
      f"(source was {note_density(seconds):.2f})")
