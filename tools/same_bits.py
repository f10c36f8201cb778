"""Same-bits check: what one checkout's benchmark workloads write, as hashes.

For each seed, a child process imports the checkout's ``perfbench/workloads.py``
and ``src/`` and runs, in one temporary work directory, one ``build`` op and
its ``final_checks``, one ``train`` op and two ``cover`` ops. It prints one
JSON object with, per seed:

- ``mels_sha256``, ``tokens_sha256``: the built dataset's two data files;
- ``dataset_json_sha256``: ``dataset.json`` with the work directory's path
  replaced by ``<work>``, since the report names every input file;
- ``examples_sha256``: the examples the ``build`` op returned, in order:
  each one's float64 frame bytes, arranger id and token ids;
- ``train_loss_final``: ``repr`` of the train op's last loss;
- ``cover_midi_sha256``: the two cover MIDI files;
- ``failures``: every failed workload check, empty when all passed.

Two checkouts write the same bits when their JSON objects are equal apart
from ``root``. Run from anywhere, for this checkout or another one:

    python3 tools/same_bits.py --seed 7 --seed 401
    python3 tools/same_bits.py --root ../parent --seed 7

With ``--against ROOT`` it runs that checkout too, at the same seeds, and
lists every field whose value differs, as ``seed 7: train_loss_final``, in
the JSON's ``differences``; it exits 1 if any differs or any check failed:

    python3 tools/same_bits.py --against ../parent --seed 7 --seed 401

BLAS is pinned to one thread in the child, as ``perfbench/run.py`` pins it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TOOLS = Path(__file__).resolve().parent
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MASK = "<work>"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dataset_hashes(dataset: Path, work: Path) -> dict:
    """The hashes of a dataset directory's three files, ``dataset.json``
    with ``work`` masked."""
    index = (dataset / "dataset.json").read_bytes().replace(str(work).encode(), MASK.encode())
    return {"mels_sha256": sha256((dataset / "mels.npy").read_bytes()),
            "tokens_sha256": sha256((dataset / "tokens.txt").read_bytes()),
            "dataset_json_sha256": sha256(index)}


def examples_hash(examples) -> str:
    """One hash of built examples: each one's frame count, arranger id and
    token ids as JSON, then its frames as little-endian float64 bytes."""
    digest = hashlib.sha256()
    for spec, arranger_id, tokens in examples:
        frames = np.ascontiguousarray(spec.frames, dtype="<f8")
        digest.update(json.dumps([len(frames), arranger_id, list(tokens.ids)]).encode())
        digest.update(frames.tobytes())
    return digest.hexdigest()


def run_seed(seed: int) -> dict:
    """The workloads' outputs at one seed, in this process: the checkout's
    ``perfbench`` and ``src`` must come first on ``sys.path``."""
    import workloads

    # The corrupt and discarded records warn on every build; the JSON
    # output is the report.
    logging.disable(logging.WARNING)
    with tempfile.TemporaryDirectory(prefix="same_bits-") as tmp:
        work = Path(tmp).resolve()
        build, train, cover = workloads.Build(), workloads.Train(), workloads.Cover()
        build.setup(work, seed)
        build.op()
        build.final_checks()
        train.setup(work, seed)
        train.op()
        cover.setup(work, seed)
        cover.op()
        cover.op()
        return dict(
            dataset_hashes(work / "dataset", work),
            examples_sha256=examples_hash(build.first[0]),
            train_loss_final=repr(float(train.final_losses[-1])),
            cover_midi_sha256=[sha256(cover.midi[i]) for i in sorted(cover.midi)],
            failures=build.failures + train.failures + cover.failures,
        )


def child_main(root: str, seed: str) -> None:
    sys.path[:0] = [str(Path(root) / "perfbench"), str(Path(root) / "src")]
    print(json.dumps(run_seed(int(seed))))


def same_bits(root: Path, seed: int) -> dict:
    """``run_seed`` in a child process with BLAS pinned to one thread."""
    env = dict(os.environ, **{name: "1" for name in THREAD_VARIABLES})
    # Only the checkout's own src/ may provide the package.
    env.pop("PYTHONPATH", None)
    code = (f"import sys; sys.path.insert(0, {str(TOOLS)!r}); import same_bits; "
            "same_bits.child_main(*sys.argv[1:])")
    child = subprocess.run([sys.executable, "-c", code, str(root), str(seed)], env=env,
                           capture_output=True, text=True, check=False)
    if child.returncode != 0:
        raise RuntimeError(f"seed {seed} failed:\n{child.stderr}")
    return json.loads(child.stdout.splitlines()[-1])


def differences(ours: dict, theirs: dict) -> list:
    """``seed <seed>: <field>`` for every field of a seed's result that
    differs between two runs' ``seeds`` objects."""
    return [f"seed {seed}: {name}" for seed, result in ours.items()
            for name in sorted(result.keys() | theirs[seed].keys())
            if result.get(name) != theirs[seed].get(name)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout whose perfbench/ and src/ to run (default: this one)")
    parser.add_argument("--seed", type=int, action="append",
                        help="input seed; repeat for more (default: 7 and 401)")
    parser.add_argument("--against", type=Path,
                        help="second checkout to run at the same seeds and compare")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    seeds = args.seed or [7, 401]
    result = {"root": str(root), "seeds": {str(seed): same_bits(root, seed) for seed in seeds}}
    runs = [result["seeds"]]
    if args.against:
        other = args.against.resolve()
        runs.append({str(seed): same_bits(other, seed) for seed in seeds})
        result.update(against={"root": str(other), "seeds": runs[1]},
                      differences=differences(*runs))
    print(json.dumps(result, indent=2, sort_keys=True))
    failed = any(entry["failures"] for run in runs for entry in run.values())
    return 1 if failed or result.get("differences") else 0


if __name__ == "__main__":
    sys.exit(main())
