"""Knob audit: every train.cfg key takes a value other than its default,
and the checkpoint that train writes with it drives cover.

A key whose every other value fails train or cover is a constant posing
as a knob: it should be deleted, not audited.
"""

import dataclasses

import numpy as np
import pytest

from pianocover.cli import main
from pianocover.model import ModelConfig, TrainConfig
from test_pipeline import make_pair

# One legal value per train.cfg key, each off its default.
KNOBS = {
    "d_model": 32,
    "num_heads": 2,
    "d_ff": 48,
    "num_encoder_layers": 1,
    "num_decoder_layers": 1,
    "num_arrangers": 3,
    "max_decode_len": 40,
    "epochs": 2,
    "batch_size": 1,
    "learning_rate": 0.01,
    "seed": 1,
}
# Every run trains one epoch on small batches and decodes short windows,
# unless its key is the one that changes.  The longest target is 38
# tokens.
BASE = {"epochs": 1, "batch_size": 8, "max_decode_len": 48}
DEFAULTS = {f.name: f.default
            for f in dataclasses.fields(ModelConfig) + dataclasses.fields(TrainConfig)}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("knobs")
    pairs = [make_pair(root, np.random.default_rng(seed), name=f"pair{seed}",
                       arranger_id=seed)[0] for seed in (0, 1)]
    manifest = root / "manifest.csv"
    manifest.write_text("pop_path,cover_path,arranger_id,beats_path,f0_path\n" + "".join(
        f"{p.pop_audio},{p.cover_midi},{p.arranger_id},{p.beats},{p.f0}\n" for p in pairs))
    assert main(["build-dataset", str(manifest), str(root / "dataset")]) == 0
    return root / "dataset", pairs[0]


def test_every_key_is_audited():
    assert sorted(KNOBS) == sorted(DEFAULTS)


@pytest.mark.parametrize("key", DEFAULTS)
def test_train_then_cover_with_the_key_changed(dataset, tmp_path, key):
    directory, pair = dataset
    assert KNOBS[key] != DEFAULTS[key]
    config = tmp_path / "train.cfg"
    config.write_text("".join(f"{name} = {value}\n"
                              for name, value in dict(BASE, **{key: KNOBS[key]}).items()))
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", str(directory), str(config), str(ckpt)]) == 0
    assert main(["cover", pair.pop_audio, str(tmp_path / "cover.mid"), "--arranger", "0",
                 "--checkpoint", str(ckpt), "--beats", pair.beats]) == 0
