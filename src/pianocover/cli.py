"""Command line interface.

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 numeric or
divergence error.

The tokenize/detokenize commands exchange quantized pieces as MIDI with
a fixed-tempo convention: at the given --bpm, one half-beat lasts
30/bpm seconds, and note times must sit on that grid.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from pathlib import Path


from .beats import halfbeats_to_seconds, write_beat_file
from .errors import DivergenceError, ParameterError, ValidationError, read_text
from .features import SAMPLE_RATE, load_wav, write_wav
from .filtering import filter_pair, melody_chroma_accuracy, midi_topline, read_f0_csv
from .midi import Note, NoteSequence, TimeUnit, parse_smf, write_smf
from .model import (
    ModelConfig,
    OptimizerKind,
    TrainConfig,
    desk_config,
    save_checkpoint,
    train,
)
from .pipeline import (
    CoverJob,
    PairRecord,
    aligned_notes,
    build_dataset,
    eval_stats,
    generate_cover,
    load_dataset,
    render_sine_audio,
    song_grid,
)
from .tokenizer import encode_piece, read_token_file, stitch, write_token_file


def _print_json(payload, out_path):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out_path:
        Path(out_path).write_text(text + "\n")
    else:
        print(text)


def _load_midi(path) -> NoteSequence:
    return parse_smf(Path(path).read_bytes())


# ---------------------------------------------------------------------------
# Subcommands


def cmd_sync(args) -> int:
    audio = load_wav(args.pop)
    cover = _load_midi(args.cover)
    grid = song_grid(audio, args.beats)
    _, quantized = aligned_notes(cover, audio, grid)
    Path(args.out).write_bytes(write_smf(halfbeats_to_seconds(quantized, grid)))
    if args.save_beats:
        write_beat_file(args.save_beats, grid)
    return 0


def cmd_filter(args) -> int:
    seq = _load_midi(args.aligned)
    contour = read_f0_csv(args.f0)
    mca = melody_chroma_accuracy(contour, midi_topline(seq, contour.times))
    cover_len = args.cover_seconds if args.cover_seconds is not None else seq.duration
    report = filter_pair(mca, args.pop_seconds, cover_len)
    payload = dataclasses.asdict(report)
    payload["verdict"] = report.verdict.value
    payload["reasons"] = list(report.reasons)
    _print_json(payload, args.out)
    return 0


def _halfbeat_seconds(bpm: float) -> float:
    if bpm <= 0:
        raise ParameterError("bpm must be positive")
    return 30.0 / bpm


def cmd_tokenize(args) -> int:
    seq = _load_midi(args.midi)
    step = _halfbeat_seconds(args.bpm)
    notes = []
    for note in seq:
        onset = note.onset / step
        offset = note.offset / step
        if abs(onset - round(onset)) > 1e-6 or abs(offset - round(offset)) > 1e-6:
            raise ValidationError(
                f"note at {note.onset:.6f}s is off the {args.bpm:g} bpm half-beat grid"
            )
        notes.append(Note(int(round(onset)), note.pitch, int(round(offset)), note.velocity))
    piece = NoteSequence.build(
        notes, TimeUnit.HALF_BEATS, duration=round(seq.duration / step)
    )
    write_token_file(args.out, encode_piece(piece))
    return 0


def cmd_detokenize(args) -> int:
    segments = read_token_file(args.tokens)
    piece = stitch(segments)
    step = _halfbeat_seconds(args.bpm)
    notes = [
        Note(n.onset * step, n.pitch, n.offset * step, n.velocity) for n in piece
    ]
    seconds = NoteSequence.build(
        notes, TimeUnit.SECONDS, duration=piece.duration * step, validate=False
    )
    Path(args.out).write_bytes(write_smf(seconds, tempo_bpm=args.bpm))
    return 0


def _parse_manifest(path):
    records = []
    reader = csv.DictReader(io.StringIO(read_text(path), newline=""))
    required = {"pop_path", "cover_path", "arranger_id"}
    if reader.fieldnames is None or not required.issubset(reader.fieldnames):
        raise ValidationError(
            f"{path}: manifest needs columns pop_path,cover_path,arranger_id"
        )
    for row in reader:
        try:
            arranger_id = int(row["arranger_id"])
        except (TypeError, ValueError):  # TypeError: None in a short row
            raise ValidationError(
                f"{path}:{reader.line_num}: arranger_id "
                f"{row['arranger_id']!r} is not an integer"
            ) from None
        for column in ("pop_path", "cover_path"):
            if row[column] is None:
                raise ValidationError(f"{path}:{reader.line_num}: missing {column}")
        records.append(
            PairRecord(
                pop_audio=row["pop_path"],
                cover_midi=row["cover_path"],
                arranger_id=arranger_id,
                beats=row.get("beats_path") or None,
                f0=row.get("f0_path") or None,
            )
        )
    return records


def cmd_build_dataset(args) -> int:
    records = _parse_manifest(args.manifest)
    _, report = build_dataset(records, out_dir=args.out_dir)
    print(
        f"records: {report.total} kept: {report.kept} "
        f"discarded: {report.discarded} failed: {report.failed}"
    )
    return 0


def _parse_config_file(path):
    """Flat key=value text split across ModelConfig and TrainConfig."""
    model_fields = {f.name: f.type for f in dataclasses.fields(ModelConfig)}
    train_fields = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
    model_kwargs = {}
    train_kwargs = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "optimizer":
            try:
                train_kwargs[key] = OptimizerKind[value.upper()]
            except KeyError:
                raise ValidationError(
                    f"{path}:{lineno}: unknown optimizer {value!r}"
                ) from None
            continue
        if key in model_fields:
            kwargs, parse = model_kwargs, int
        elif key == "learning_rate":
            kwargs, parse = train_kwargs, float
        elif key in train_fields:
            kwargs, parse = train_kwargs, int
        else:
            raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            kwargs[key] = parse(value)
        except ValueError:
            raise ValidationError(
                f"{path}:{lineno}: cannot read {key} = {value!r} as {parse.__name__}"
            ) from None
    return desk_config(**model_kwargs), TrainConfig(**train_kwargs)


def cmd_train(args) -> int:
    config, train_config = _parse_config_file(args.config)
    examples, _ = load_dataset(args.dataset)
    params, history = train(examples, train_config, config)
    save_checkpoint(args.out, params, config)
    print(
        f"steps: {len(history)} first loss: {history[0]:.4f} "
        f"final loss: {history[-1]:.4f}"
    )
    return 0


def cmd_cover(args) -> int:
    job = CoverJob(
        audio=args.audio,
        arranger_id=args.arranger,
        checkpoint=args.checkpoint,
        output=args.out,
        beats=args.beats,
    )
    generate_cover(job)
    if job.truncated_segments:
        print(f"warning: {job.truncated_segments} truncated segments", file=sys.stderr)
    print(f"windows: {job.windows} -> {args.out}")
    return 0


def cmd_stats(args) -> int:
    covers = [(_load_midi(path), args.arranger) for path in args.midis]
    contours = [read_f0_csv(p) for p in args.f0] if args.f0 else None
    _print_json(eval_stats(covers, contours), args.out)
    return 0


def cmd_render(args) -> int:
    seq = _load_midi(args.midi)
    write_wav(args.out, render_sine_audio(seq, args.rate), args.rate)
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pianocover",
        description="Pop audio to piano-cover MIDI: preprocessing, training, generation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sync", help="align a cover MIDI to pop audio on its beat grid")
    p.add_argument("pop"), p.add_argument("cover"), p.add_argument("out")
    p.add_argument("--beats", help="precomputed beat-times file")
    p.add_argument("--save-beats", help="write the beat grid used")
    p.set_defaults(func=cmd_sync)

    p = sub.add_parser("filter", help="melody/length filter report for an aligned pair")
    p.add_argument("aligned"), p.add_argument("f0")
    p.add_argument("--pop-seconds", type=float, required=True)
    p.add_argument("--cover-seconds", type=float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("tokenize", help="quantized MIDI to token text")
    p.add_argument("midi"), p.add_argument("out")
    p.add_argument("--bpm", type=float, default=120.0)
    p.set_defaults(func=cmd_tokenize)

    p = sub.add_parser("detokenize", help="token text to MIDI")
    p.add_argument("tokens"), p.add_argument("out")
    p.add_argument("--bpm", type=float, default=120.0)
    p.set_defaults(func=cmd_detokenize)

    p = sub.add_parser("build-dataset", help="manifest CSV to training dataset dir")
    p.add_argument("manifest"), p.add_argument("out_dir")
    p.set_defaults(func=cmd_build_dataset)

    p = sub.add_parser("train", help="train a model on a dataset directory")
    p.add_argument("dataset"), p.add_argument("config"), p.add_argument("out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("cover", help="generate a piano cover MIDI from audio")
    p.add_argument("audio"), p.add_argument("out")
    p.add_argument("--arranger", type=int, required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--beats")
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("stats", help="note-density statistics over cover MIDIs")
    p.add_argument("midis", nargs="+")
    p.add_argument("--arranger", type=int, default=0)
    p.add_argument("--f0", nargs="*", help="melody references, one per MIDI")
    p.add_argument("--out")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("render", help="sine-synthesize a MIDI to WAV")
    p.add_argument("midi"), p.add_argument("out")
    p.add_argument("--rate", type=int, default=SAMPLE_RATE)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (DivergenceError, ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
