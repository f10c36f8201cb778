"""tools/same_bits.py: one checkout's workload outputs as hashes."""

import importlib
import json
import math
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEX = re.compile(r"[0-9a-f]{64}")


def load_tool(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module("same_bits")


def test_one_seed_reports_every_output(monkeypatch):
    same_bits = load_tool(monkeypatch)
    result = same_bits.same_bits(ROOT, 7)
    assert set(result) == {"mels_sha256", "tokens_sha256", "dataset_json_sha256",
                           "train_loss_final", "cover_midi_sha256", "failures"}
    assert result["failures"] == []
    for key in ("mels_sha256", "tokens_sha256", "dataset_json_sha256"):
        assert HEX.fullmatch(result[key])
    assert len(result["cover_midi_sha256"]) == 2
    assert all(HEX.fullmatch(digest) for digest in result["cover_midi_sha256"])
    # Two epochs from a fresh model leave the loss under ln(232) and finite.
    loss = float(result["train_loss_final"])
    assert repr(loss) == result["train_loss_final"]
    assert 0.0 < loss < math.log(232)


def test_dataset_hash_masks_the_work_directory(monkeypatch, tmp_path):
    same_bits = load_tool(monkeypatch)
    hashes = []
    for name in ("one", "another"):
        work = tmp_path / name
        dataset = work / "dataset"
        dataset.mkdir(parents=True)
        (dataset / "mels.npy").write_bytes(b"mels")
        (dataset / "tokens.txt").write_text("1\n")
        report = {"entries": [{"cover_midi": str(work / "inputs" / "a.mid"),
                               "reason": f"{work / 'inputs' / 'a.mid'}: cut short"}]}
        (dataset / "dataset.json").write_text(json.dumps(report))
        hashes.append(same_bits.dataset_hashes(dataset, work))
    assert hashes[0] == hashes[1]
    (tmp_path / "one" / "dataset" / "tokens.txt").write_text("2\n")
    assert same_bits.dataset_hashes(tmp_path / "one" / "dataset", tmp_path / "one") \
        != hashes[1]
