"""Reach audit: every function under src/pianocover is called by one of
the nine CLI subcommands, or ALLOWED says why it stays.

The subcommands run in-process under sys.setprofile on the small inputs
the pipeline tests build. A function none of them calls, and that
ALLOWED does not name, is code only tests reach: delete it, or reach it.
"""

import ast
import sys
from pathlib import Path

import numpy as np

import pianocover
from pianocover.cli import main
from test_pipeline import make_pair

SRC = Path(pianocover.__file__).resolve().parent

# Functions no subcommand calls, by name, with the reason each stays.
ALLOWED = {
    # Error constructors run only when an input is refused.
    "in_file": "builds a FormatError naming the file",
    "_Parser.error": "reports a usage error as exit 1",
    "_HeldWarnings.showwarning": "holds a Python warning until the command ends",
    # Reference paths that perfbench wraps and times beside the fast ones.
    "decode_step": "full-prefix reference for one IncrementalDecoder step",
    "decoder_forward": "full-sequence reference for IncrementalDecoder",
    "greedy_generate": "one-window reference for greedy_generate_windows",
    "compute_loss": "loss-only reference for loss_and_grads",
    "write_f0_csv": "writes the perfbench melody inputs",
    "paper_scale_config": "the published shape, which MAX_PARAMS is sized from",
    "symbol_id": "the token oracle of the acceptance suite",
}


def defined_functions():
    """{(file, first line): name} of every def under SRC, methods and
    nested functions named by their enclosing class or function."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A decorated function's code starts at its first decorator.
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = prefix + child.name
                visit(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return found


def run_every_subcommand(root):
    """Runs the nine subcommands on one synthetic pair; returns the code
    objects of every Python function called."""
    record, _, _, seconds = make_pair(root, np.random.default_rng(0), name="song")
    plain, _, _, _ = make_pair(root, np.random.default_rng(1), name="plain")
    manifest = root / "manifest.csv"
    manifest.write_text(
        "pop_path,cover_path,arranger_id,beats_path,f0_path\n"
        f"{record.pop_audio},{record.cover_midi},1,{record.beats},{record.f0}\n"
        f"{plain.pop_audio},{plain.cover_midi},0,,\n"
    )
    config = root / "train.cfg"
    config.write_text(
        "d_model = 16\nnum_heads = 2\nd_ff = 16\nnum_encoder_layers = 1\n"
        "num_decoder_layers = 1\nmax_decode_len = 48\nnum_arrangers = 2\n"
        "epochs = 1\nbatch_size = 4\n"
    )
    out = {name: str(root / name) for name in (
        "synced.mid", "grid.beats", "report.json", "piece.tokens", "piece.mid",
        "dataset", "model.ckpt", "cover.mid", "stats.json", "song.wav")}
    commands = [
        ["sync", record.pop_audio, record.cover_midi, out["synced.mid"],
         "--save-beats", out["grid.beats"]],
        ["filter", out["synced.mid"], record.f0, "--pop-seconds", str(seconds.duration),
         "--cover-seconds", str(seconds.duration), "--out", out["report.json"]],
        ["tokenize", record.cover_midi, out["piece.tokens"]],
        ["detokenize", out["piece.tokens"], out["piece.mid"]],
        ["build-dataset", str(manifest), out["dataset"]],
        ["train", out["dataset"], str(config), out["model.ckpt"]],
        ["cover", record.pop_audio, out["cover.mid"], "--arranger", "1",
         "--checkpoint", out["model.ckpt"]],
        ["stats", out["cover.mid"], "--f0", record.f0, "--out", out["stats.json"]],
        ["render", record.cover_midi, out["song.wav"]],
    ]
    # Cached functions run only on a cache miss, so empty every cache first.
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("pianocover"):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    for argv in commands:
        sys.setprofile(profile)
        try:
            code = main(argv)
        finally:
            sys.setprofile(None)
        assert code == 0, argv
    return called


def test_every_function_is_reached_by_a_subcommand(tmp_path):
    defined = defined_functions()
    called = {(str(Path(code.co_filename).resolve()), code.co_firstlineno)
              for code in run_every_subcommand(tmp_path)}
    unreached = sorted(
        f"{Path(path).relative_to(SRC)}: {name}"
        for (path, line), name in defined.items()
        if (path, line) not in called
        and not (name.split(".")[-1].startswith("__") and name.endswith("__"))
        and name not in ALLOWED and name.split(".")[-1] not in ALLOWED
    )
    assert not unreached, "no subcommand calls:\n" + "\n".join(unreached)
    # Every allowance still names a function that exists and goes unreached.
    names = {name: (path, line) for (path, line), name in defined.items()}
    for allowed in ALLOWED:
        matches = [key for name, key in names.items()
                   if name == allowed or name.endswith("." + allowed)]
        assert matches, f"ALLOWED names {allowed}, which is not defined"
        assert not set(matches) <= called, f"{allowed} is reached; drop it from ALLOWED"
