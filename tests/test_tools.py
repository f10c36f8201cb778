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


def canned(loss="4.7916496202602", midi="c3"):
    return {"mels_sha256": "a" * 64, "tokens_sha256": "b" * 64,
            "dataset_json_sha256": "c" * 64, "train_loss_final": loss,
            "cover_midi_sha256": ["f" * 64, midi * 32], "failures": []}


def test_differences_name_each_field_that_differs(monkeypatch):
    same_bits = load_tool(monkeypatch)
    ours = {"7": canned(), "401": canned()}
    assert same_bits.differences(ours, {"7": canned(), "401": canned()}) == []
    theirs = {"7": canned(loss="4.79164962020"), "401": canned(midi="c4")}
    assert same_bits.differences(ours, theirs) == ["seed 7: train_loss_final",
                                                    "seed 401: cover_midi_sha256"]


def test_against_exits_1_when_a_field_differs(monkeypatch, capsys, tmp_path):
    same_bits = load_tool(monkeypatch)
    tmp_path = tmp_path.resolve()
    results = {(tmp_path, 7): canned(), (tmp_path / "parent", 7): canned(midi="c4")}
    monkeypatch.setattr(same_bits, "same_bits", lambda root, seed: results[root, seed])
    assert same_bits.main(["--root", str(tmp_path), "--seed", "7",
                           "--against", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["differences"] == []
    assert same_bits.main(["--root", str(tmp_path), "--seed", "7",
                           "--against", str(tmp_path / "parent")]) == 1
    output = json.loads(capsys.readouterr().out)
    assert output["differences"] == ["seed 7: cover_midi_sha256"]
    assert output["against"]["seeds"]["7"] == canned(midi="c4")
