"""The three workloads: set-up, one timed operation, and output checks.

Each workload drives the package only through its public API. ``op()``
runs one timed call and returns a :class:`Sample`; the checks run outside
the timed region; each failed check appends a message to
``self.failures`` and marks the outcomes it concerns as failed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import shutil
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs
from pianocover import features, model, pipeline, sync
from pianocover.beats import quantize, track_beats
from pianocover.filtering import Verdict
from pianocover.midi import parse_smf
from pianocover.model import network, optim, training
from pianocover.tokenizer import EOS, stitch

WINDOW_HALFBEATS = pipeline.WINDOW_HALFBEATS
TRAIN_EXAMPLES = 32
TRAIN_BATCH = 8
TRAIN_EPOCHS = 2
COVER_MAX_DECODE_LEN = 128
COVER_INIT_SEED = 0
# Prefix lengths at which the traced cover run times one decode_step.
DECODE_PROBE_LENGTHS = (16, 64, 128)


@dataclass
class Sample:
    """One timed operation and the work it did."""

    start: float  # time.perf_counter() when the operation began
    wall: float  # seconds
    audio_s: float  # seconds of input audio the operation covered
    examples: int  # 4-beat windows built, trained on or decoded
    tokens: int  # tokens encoded, trained on or decoded
    outcomes: int  # checked outcomes: records, train calls, covers
    failed: int = 0  # outcomes with at least one failed check
    scale: float = 1.0  # wall time to reference-speed time, see speed.py


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def resolve_overlaps(seq):
    """Reference for the pipeline's one-note-per-pitch rule.

    For each pitch, notes sharing an onset keep the longest, and each kept
    note ends no later than the next onset of the same pitch.
    """
    longest = defaultdict(dict)
    for n in seq:
        by_onset = longest[n.pitch]
        by_onset[n.onset] = max(by_onset.get(n.onset, n.offset), n.offset)
    notes = set()
    for pitch, by_onset in longest.items():
        onsets = sorted(by_onset)
        for i, onset in enumerate(onsets):
            offset = by_onset[onset]
            if i + 1 < len(onsets):
                offset = min(offset, onsets[i + 1])
            notes.add((onset, pitch, offset))
    return notes


class Workload:
    name = ""
    # Trace metrics are reported per operation; train reports per step.
    steps_per_op = 1

    def __init__(self):
        self.failures = []  # one message per failed check
        self.failed = set()  # outcomes of the current operation that failed
        self.save_s = []  # checkpoint saves timed during set-up

    def fail(self, message, outcomes=(0,)):
        """Record a failed check against ``outcomes`` of the current
        operation (indices below its ``Sample.outcomes``)."""
        self.failures.append(message)
        self.failed.update(outcomes)

    def setup(self, work: Path, seed: int) -> None:
        raise NotImplementedError

    def op(self) -> Sample:
        raise NotImplementedError

    def final_checks(self) -> int:
        """Checks too costly to repeat per operation; run once per run.
        Returns the number of outcomes checked."""
        return 0

    def probe(self) -> dict:
        """Per-layer timings taken outside the operations (traced runs)."""
        return {}


class Build(Workload):
    """build_dataset over the seeded manifest, writing a dataset directory."""

    name = "build"

    def setup(self, work, seed):
        self.work = work
        self.manifest = inputs.build_inputs(work / "inputs", seed)
        self.records = [
            pipeline.PairRecord(r["pop_audio"], r["cover_midi"], r["arranger_id"], f0=r["f0"])
            for r in self.manifest
        ]
        self.audio_s = sum(r["seconds"] for r in self.manifest)
        self.first = None

    def op(self):
        out = self.work / "dataset"
        shutil.rmtree(out, ignore_errors=True)
        start = time.perf_counter()
        examples, report = pipeline.build_dataset(self.records, out_dir=out)
        wall = time.perf_counter() - start
        self._check_pass(examples, report, _digest(out))
        return Sample(start, wall, self.audio_s, len(examples),
                      sum(len(t) for _, _, t in examples), len(self.records))

    def _check_pass(self, examples, report, digest):
        """One outcome per record; a check on the whole pass fails them all."""
        everyone = range(len(self.manifest))
        for i, (record, entry) in enumerate(zip(self.manifest, report.entries)):
            name = Path(record["pop_audio"]).name
            if entry["status"] != record["expected"]:
                self.fail(f"build: {name} was {entry['status']}, "
                          f"expected {record['expected']}", (i,))
            elif entry["status"] == "kept":
                # Every window of the tracked grid is built or dropped, so a
                # tracker that loses the tempo cuts fewer and fails here.
                cut = entry["n_examples"] + entry["dropped_segments"]
                if cut != record["windows"]:
                    self.fail(f"build: {name} cut {cut} windows, expected "
                              f"{record['windows']}", (i,))
        if len(report.entries) != len(self.manifest):
            self.fail(f"build: {len(report.entries)} report entries for "
                      f"{len(self.manifest)} records", everyone)
        if self.first is None:
            self.first = (examples, report, digest)
        elif digest != self.first[2]:
            self.fail("build: dataset bytes differ from the first pass", everyone)

    def final_checks(self):
        """Every kept window is a finite (t, 128) mel, and the windows' tokens
        stitch back to the record's quantized notes, recomputed here from
        the same files through the public stage functions."""
        examples, report, _ = self.first
        cursor = 0
        checked = 0
        for i, (record, entry) in enumerate(zip(self.manifest, report.entries)):
            if entry["status"] != "kept":
                continue
            checked += 1
            mine = examples[cursor : cursor + entry["n_examples"]]
            cursor += entry["n_examples"]
            for spec, _, _ in mine:
                frames = spec.frames
                if frames.ndim != 2 or frames.shape[1] != 128 or len(frames) < 1 \
                        or not np.isfinite(frames).all():
                    self.fail(f"build: bad mel window shaped {frames.shape}", (i,))
            audio = features.load_wav(record["pop_audio"])
            cover = parse_smf(Path(record["cover_midi"]).read_bytes())
            grid = track_beats(audio, features.SAMPLE_RATE)
            expected = resolve_overlaps(
                quantize(sync.align_to_audio(cover, audio, features.SAMPLE_RATE), grid))
            got = stitch([tokens for _, _, tokens in mine], WINDOW_HALFBEATS)
            if {(n.onset, n.pitch, n.offset) for n in got} != expected:
                self.fail(f"build: {Path(record['pop_audio']).name} tokens do not "
                          "stitch back to its quantized notes", (i,))
        return checked


class Train(Workload):
    """train() at desk_config from one fixed initialisation per call."""

    name = "train"
    steps_per_op = TRAIN_EPOCHS * TRAIN_EXAMPLES // TRAIN_BATCH

    def setup(self, work, seed):
        records = inputs.train_inputs(work / "inputs", seed)
        pairs = [
            pipeline.PairRecord(r["pop_audio"], r["cover_midi"], r["arranger_id"],
                                beats=r["beats"], f0=r["f0"])
            for r in records
        ]
        examples, _ = pipeline.build_dataset(pairs)
        if len(examples) < TRAIN_EXAMPLES:
            raise RuntimeError(f"train set-up built {len(examples)} windows, "
                               f"needs {TRAIN_EXAMPLES}")
        self.dataset = examples[:TRAIN_EXAMPLES]
        self.config = model.desk_config()
        self.train_config = model.TrainConfig(
            epochs=TRAIN_EPOCHS, batch_size=TRAIN_BATCH, seed=seed)
        self.params0 = model.init_params(self.config, seed=seed)
        # Arranger ids name the song, and each song has a steady beat.
        window_s = {r["arranger_id"]: 4 * r["beat_period"] for r in records}
        self.audio_s = TRAIN_EPOCHS * sum(window_s[a] for _, a, _ in self.dataset)
        self.tokens = TRAIN_EPOCHS * sum(len(t) for _, _, t in self.dataset)
        self.first_history = None
        self.final_losses = []

    def op(self):
        params = {k: v.copy() for k, v in self.params0.items()}
        start = time.perf_counter()
        _, history = model.train(self.dataset, self.train_config, self.config, params=params)
        wall = time.perf_counter() - start
        if len(history) != self.steps_per_op:
            self.fail(f"train: {len(history)} steps, expected {self.steps_per_op}")
        elif not np.isfinite(history).all():
            self.fail("train: non-finite loss")
        elif not history[-1] < history[0]:
            self.fail(f"train: final loss {history[-1]:.4f} not below initial {history[0]:.4f}")
        if self.first_history is None:
            self.first_history = history
        elif history != self.first_history:
            self.fail("train: loss history differs between identical calls")
        self.final_losses.append(history[-1])
        return Sample(start, wall, self.audio_s, TRAIN_EPOCHS * len(self.dataset),
                      self.tokens, 1)


class Cover(Workload):
    """generate_cover with an untrained checkpoint, alternating two songs."""

    name = "cover"

    def setup(self, work, seed):
        self.work = work
        self.songs = inputs.cover_inputs(work / "inputs", seed)
        config = model.desk_config(max_decode_len=COVER_MAX_DECODE_LEN)
        # One fixed untrained model for every input seed: some
        # initialisations put EOS first from the start, which would decode
        # nothing instead of the never-EOS case this workload stands for.
        params = model.init_params(config, seed=COVER_INIT_SEED)
        self.checkpoint = work / "untrained.ckpt"
        start = time.perf_counter()
        model.save_checkpoint(self.checkpoint, params, config)
        self.save_s.append(time.perf_counter() - start)
        self.calls = 0
        self.midi = {}

    def op(self):
        index = self.calls % len(self.songs)
        self.calls += 1
        song = self.songs[index]
        output = self.work / f"cover{index}.mid"
        job = pipeline.CoverJob(song["audio"], song["arranger_id"], str(self.checkpoint),
                                str(output))
        start = time.perf_counter()
        pipeline.generate_cover(job)
        wall = time.perf_counter() - start
        name = Path(song["audio"]).name
        # The expected count comes from the grid the song was rendered on,
        # not the tracked one, so a tracker that loses the tempo fails here.
        if job.windows != song["windows"]:
            self.fail(f"cover: {name} cut {job.windows} windows, expected {song['windows']}")
        # A window ends early only if it emits EOS, so windows that all hit
        # the cap each decoded exactly max_decode_len tokens.
        if job.truncated_segments != job.windows:
            self.fail(f"cover: {name} has {job.windows - job.truncated_segments} "
                      f"windows that stopped before {COVER_MAX_DECODE_LEN} tokens")
        midi = output.read_bytes()
        if self.midi.setdefault(index, midi) != midi:
            self.fail(f"cover: {name} MIDI bytes differ between repeats")
        return Sample(start, wall, song["seconds"], job.windows,
                      job.windows * COVER_MAX_DECODE_LEN, 1)

    def probe(self):
        """decode_step at fixed prefix lengths on a real encoder state.

        The probe lifts the config's length cap, which only guards the
        prefix length, so the longest probe can equal the cap itself.
        """
        params, config = model.load_checkpoint(self.checkpoint)
        config = dataclasses.replace(config, max_decode_len=max(DECODE_PROBE_LENGTHS) + 1)
        audio = features.load_wav(self.songs[0]["audio"])
        spec = features.melspectrogram(audio[: 2 * features.SAMPLE_RATE])
        state = model.encode(spec, self.songs[0]["arranger_id"], params, config)
        prefix = [int(t) for t in np.random.default_rng(0).integers(2, 232, size=200)]
        out = {}
        for length in DECODE_PROBE_LENGTHS:
            times = []
            for _ in range(15):
                start = time.perf_counter()
                model.decode_step(state, prefix[:length], params, config)
                times.append(time.perf_counter() - start)
            out[f"network.decode_step_ms.p{length}"] = 1e3 * statistics.median(times)
        return out


WORKLOADS = {w.name: w for w in (Build, Train, Cover)}


# ---------------------------------------------------------------------------
# Tracing: where each layer is entered, and what is counted there.

# Spans the benchmark adds to measure a layer, not work the program does.
PROBE_SPANS = ("network.compute_loss",)


def _count(key, amount=lambda args, result: 1):
    def after(tracer, args, result):
        tracer.counts[key] += amount(args, result)
    return after


def _filter_verdict(tracer, args, result):
    kept = result.verdict is Verdict.KEEP
    tracer.counts["filtering.kept" if kept else "filtering.discarded"] += 1


def _window(tracer, args, result):
    tracer.counts["network.windows"] += 1
    tracer.counts["network.eos"] += bool(result.ids) and result.ids[-1] == EOS


def _decode_token(tracer, args, result):
    if tracer.inside("network.greedy_generate"):
        tracer.counts["network.decode_tokens"] += 1


def instrument(tracer):
    """Wrap each layer's entry points where their callers look them up."""
    for attr, name, after in (
        ("load_wav", "features.load_wav", None),
        ("melspectrogram", "features.melspectrogram", _count("features.mel_calls")),
        ("track_beats", "beats.track_beats",
         _count("beats.beats_found", lambda a, grid: len(grid.beats))),
        ("quantize", "beats.quantize", None),
        ("align_to_audio", "sync.align_to_audio", None),
        ("melody_chroma_accuracy", "filtering.mca", None),
        ("filter_pair", "filtering.filter_pair", _filter_verdict),
        ("parse_smf", "midi.parse_smf", None),
        ("write_smf", "midi.write_smf", None),
        ("encode_segment", "tokenizer.encode_segment", _count("tokenizer.segments")),
        ("stitch", "tokenizer.stitch", None),
        ("load_checkpoint", "checkpoint.load", None),
        ("greedy_generate", "network.greedy_generate", _window),
        ("build_pair", "pipeline.build_pair", None),
        ("save_dataset", "pipeline.save_dataset", None),
        ("generate_cover", "pipeline.generate_cover", None),
    ):
        tracer.wrap(pipeline, attr, name, after)
    tracer.wrap(sync, "audio_chroma", "sync.audio_chroma")
    tracer.wrap(sync, "midi_chroma", "sync.midi_chroma")
    tracer.wrap(sync, "dtw", "sync.dtw",
                _count("sync.dtw_cells", lambda args, _: len(args[0]) * len(args[1])))
    tracer.wrap(sync, "apply_warp", "sync.apply_warp")
    tracer.wrap(network, "encode", "network.encode")
    tracer.wrap(network, "decoder_forward", "network.decoder_forward", _decode_token,
                span=False)
    tracer.wrap(optim.Adafactor, "update", "optim.update")
    tracer.wrap(training, "loss_and_grads", "network.loss_and_grads")
    loss_and_grads = training.loss_and_grads

    def forward_then_backward(examples, params, config):
        # The forward pass alone, timed as its own span, so backward time
        # is loss_and_grads minus compute_loss on the same batch.
        span = tracer.begin("network.compute_loss")
        network.compute_loss(examples, params, config)
        tracer.end(span)
        tracer.probe_s += span[3] - span[2]
        return loss_and_grads(examples, params, config)

    tracer.patch(training, "loss_and_grads", forward_then_backward)


LAYERS = ("midi", "beats", "sync", "filtering", "features", "tokenizer",
          "network", "optim", "checkpoint", "pipeline")


def layer_metrics(tracer, steps, workload, probes):
    """Per-layer figures per operation (per optimizer step for train)."""
    total = tracer.totals()
    own = tracer.self_times()
    counts = tracer.counts
    steps = max(steps, 1)

    def per(value):
        return value / steps

    out = {
        "features.load_wav_s": per(total["features.load_wav"]),
        "features.melspectrogram_s": per(total["features.melspectrogram"]),
        "features.mel_calls": per(counts["features.mel_calls"]),
        "beats.track_beats_s": per(total["beats.track_beats"]),
        "beats.quantize_s": per(total["beats.quantize"]),
        "beats.beats_found": per(counts["beats.beats_found"]),
        "sync.audio_chroma_s": per(total["sync.audio_chroma"]),
        "sync.midi_chroma_s": per(total["sync.midi_chroma"]),
        "sync.dtw_s": per(total["sync.dtw"]),
        "sync.dtw_cells": per(counts["sync.dtw_cells"]),
        "sync.apply_warp_s": per(total["sync.apply_warp"]),
        "filtering.mca_s": per(total["filtering.mca"]),
        "filtering.kept": per(counts["filtering.kept"]),
        "filtering.discarded": per(counts["filtering.discarded"]),
        "midi.parse_smf_s": per(total["midi.parse_smf"]),
        "midi.write_smf_s": per(total["midi.write_smf"]),
        "tokenizer.encode_segment_s": per(total["tokenizer.encode_segment"]),
        "tokenizer.segments": per(counts["tokenizer.segments"]
                                  + counts["tokenizer.encode_segment.errors"]),
        "tokenizer.dropped_segments": per(counts["tokenizer.encode_segment.errors"]),
        "tokenizer.stitch_s": per(total["tokenizer.stitch"]),
        "network.compute_loss_s": per(total["network.compute_loss"]),
        "network.loss_and_grads_s": per(total["network.loss_and_grads"]),
        "network.encode_s": per(total["network.encode"]),
        "network.greedy_generate_s": per(total["network.greedy_generate"]),
        "network.decode_tokens": per(counts["network.decode_tokens"]),
        "network.eos_rate": (counts["network.eos"] / counts["network.windows"]
                             if counts["network.windows"] else 0.0),
        "optim.update_s": per(total["optim.update"]),
        "checkpoint.load_s": per(total["checkpoint.load"]),
        "checkpoint.save_s": statistics.median(workload.save_s) if workload.save_s else 0.0,
        "pipeline.build_pair.self_s": per(own["pipeline.build_pair"]),
        "pipeline.save_dataset.self_s": per(own["pipeline.save_dataset"]),
        "pipeline.generate_cover.self_s": per(own["pipeline.generate_cover"]),
    }
    for length in DECODE_PROBE_LENGTHS:
        key = f"network.decode_step_ms.p{length}"
        out[key] = probes.get(key, 0.0)
    layer_self = defaultdict(float)
    for name, seconds in own.items():
        if name not in PROBE_SPANS:
            layer_self[name.split(".")[0]] += seconds
    for layer in LAYERS:
        out[f"{layer}.self_s"] = per(layer_self[layer])
    return out
