"""Tests for the numpy transformer: buckets, shapes, causality, gradients."""

import ast
import json
import math
import re
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import float32_checkpoint, gradient_check, random_model_batch
from pianocover.errors import (
    DivergenceError,
    FormatError,
    ParameterError,
    ValidationError,
)
from pianocover.model import (
    ModelConfig,
    TrainConfig,
    compute_loss,
    count_params,
    decode_step,
    desk_config,
    encode,
    greedy_generate,
    greedy_generate_windows,
    init_params,
    load_checkpoint,
    loss_and_grads,
    param_shapes,
    paper_scale_config,
    relative_position_bucket,
    save_checkpoint,
    train,
    zero_grads,
)
from pianocover.model.config import MAX_FRAMES, MAX_LAYERS, MAX_PARAMS
from pianocover import features
from pianocover.midi import Note, NoteSequence, parse_smf, write_smf
from pianocover.model import network, optim
from pianocover.model.checkpoint import MAGIC, VERSION
from pianocover.tokenizer import EOS, MAX_TOKENS, PAD, symbol


def tiny_config(**overrides):
    base = dict(
        d_model=24,
        num_heads=4,
        d_ff=32,
        num_encoder_layers=1,
        num_decoder_layers=1,
        n_mels=12,
        num_arrangers=3,
        relative_bias_buckets=8,
        relative_bias_max_distance=20,
        max_decode_len=16,
    )
    base.update(overrides)
    return desk_config(**base)


def bucket_ref(rel, bidirectional, num_buckets, max_distance):
    # Scalar reference: exact buckets below half the range, log-spaced above.
    bucket = 0
    if bidirectional:
        num_buckets //= 2
        if rel > 0:
            bucket += num_buckets
        rel = abs(rel)
    else:
        rel = -min(rel, 0)
    max_exact = num_buckets // 2
    if rel < max_exact:
        return bucket + rel
    large = max_exact + int(
        math.log(rel / max_exact)
        / math.log(max_distance / max_exact)
        * (num_buckets - max_exact)
    )
    return bucket + min(large, num_buckets - 1)


class TestBuckets:
    @pytest.mark.parametrize("bidirectional", [True, False])
    @pytest.mark.parametrize("num_buckets,max_distance", [(32, 128), (8, 20)])
    def test_matches_scalar_reference(self, bidirectional, num_buckets, max_distance):
        rels = np.arange(-300, 301)
        got = relative_position_bucket(rels, bidirectional, num_buckets, max_distance)
        want = [bucket_ref(int(r), bidirectional, num_buckets, max_distance) for r in rels]
        assert got.tolist() == want

    def test_output_range(self):
        rels = np.arange(-1000, 1001)
        for bidirectional in (True, False):
            got = relative_position_bucket(rels, bidirectional, 32, 128)
            assert got.min() >= 0 and got.max() < 32

    def test_translation_invariance(self):
        # Prepending positions shifts queries and memory together, so
        # buckets between the original pairs are unchanged.
        def matrix(n):
            rel = np.arange(n)[None, :] - np.arange(n)[:, None]
            return relative_position_bucket(rel, False, 32, 128)

        small = matrix(6)
        big = matrix(10)
        assert np.array_equal(big[4:, 4:], small)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            desk_config(d_model=30, num_heads=4)
        with pytest.raises(ValidationError):
            desk_config(vocab_size=100)
        with pytest.raises(ValidationError):
            desk_config(d_ff=0)
        # Checked before d_model % num_heads, which would divide by zero.
        with pytest.raises(ValidationError, match="num_heads must be positive"):
            desk_config(num_heads=0)

    @pytest.mark.parametrize("value", [64.0, "64", None, True])
    @pytest.mark.parametrize("field", ["d_model", "num_heads", "vocab_size", "max_decode_len"])
    def test_fields_must_be_integers(self, field, value):
        message = re.escape(f"{field} must be an integer, got {value!r}")
        with pytest.raises(ValidationError, match=message):
            desk_config(**{field: value})

    def test_fuzzed_fields_build_or_raise_validation_error(self, tmp_path):
        # Each field's bound where __post_init__ checks one, else its default.
        bounds = dict(ModelConfig().to_dict(), max_decode_len=MAX_TOKENS,
                      relative_bias_buckets=4, relative_bias_max_distance=16,
                      num_encoder_layers=MAX_LAYERS, num_decoder_layers=MAX_LAYERS)
        # Trials start from the default layer counts: MAX_LAYERS layers of
        # the default width are over MAX_PARAMS.
        base = dict(bounds, num_encoder_layers=2, num_decoder_layers=2)
        rng = np.random.default_rng(15)
        path = tmp_path / "model.ckpt"
        outcomes = set()
        for trial in range(400):
            fields = dict(base)
            for name, bound in bounds.items():
                draws = [0, 1, 2, 3, bound, bound - 1, bound + 1, 2**31, 64.0, "64", None, True]
                if rng.random() < 0.3:
                    fields[name] = draws[int(rng.integers(len(draws)))]
            try:
                ModelConfig(**fields)
                outcomes.add("built")
            except ValidationError:
                outcomes.add("refused")
            # The same config as a checkpoint with no tensors: refused on
            # the config, or for lacking the tensors it names.
            config = json.dumps(fields, sort_keys=True).encode()
            path.write_bytes(MAGIC + struct.pack("<II", 1, len(config)) + config
                             + struct.pack("<I", 0))
            with pytest.raises(FormatError):
                load_checkpoint(path)
        assert outcomes == {"built", "refused"}

    def test_decoder_bounds(self):
        # Each bound holds at its edge and fails one step past it.
        desk_config(max_decode_len=512)
        desk_config(relative_bias_buckets=4, relative_bias_max_distance=3)
        for overrides, message in (
            (dict(max_decode_len=513), "max_decode_len must be at most 512"),
            (dict(relative_bias_buckets=3), "relative_bias_buckets must be at least 4"),
            (dict(relative_bias_buckets=32, relative_bias_max_distance=16),
             "relative_bias_max_distance must exceed"),
        ):
            with pytest.raises(ValidationError, match=message):
                desk_config(**overrides)

    def test_layer_bound(self, tmp_path, monkeypatch):
        narrow = dict(d_model=1, num_heads=1, d_ff=1, n_mels=1, num_arrangers=1)
        desk_config(**narrow, num_encoder_layers=MAX_LAYERS, num_decoder_layers=MAX_LAYERS)
        # 16M narrow layers fit MAX_PARAMS; the bound refuses them before
        # anything names their tensors.
        defaults = ModelConfig().to_dict()

        def no_table(config):
            raise AssertionError("tensor table built")
        monkeypatch.setattr("pianocover.model.config.tensor_table", no_table)
        monkeypatch.setattr(network, "tensor_table", no_table)
        for name in ("num_encoder_layers", "num_decoder_layers"):
            deep = dict(defaults, **narrow, **{name: 16_000_000})
            with pytest.raises(ValidationError, match=f"{name} must be at most {MAX_LAYERS}"):
                ModelConfig(**deep)
            config = json.dumps(deep, sort_keys=True).encode()
            path = tmp_path / "deep.ckpt"
            path.write_bytes(MAGIC + struct.pack("<II", 1, len(config)) + config
                             + struct.pack("<I", 0))
            with pytest.raises(FormatError, match=f"{name} must be at most {MAX_LAYERS}"):
                load_checkpoint(path)
        with pytest.raises(ValidationError, match="must be at most"):
            desk_config(**narrow, num_encoder_layers=MAX_LAYERS + 1)

    def test_param_budget(self):
        # The budget holds at its edge: encoder layers add a fixed count each.
        one = count_params(desk_config(num_encoder_layers=1))
        per_layer = count_params(desk_config(num_encoder_layers=2)) - one
        layers = 1 + (MAX_PARAMS - one) // per_layer
        assert count_params(desk_config(num_encoder_layers=layers)) <= MAX_PARAMS
        for overrides in (dict(num_encoder_layers=layers + 1), dict(d_model=2**30)):
            with pytest.raises(ValidationError, match=f"over the budget of {MAX_PARAMS}"):
                desk_config(**overrides)
        assert count_params(paper_scale_config()) <= MAX_PARAMS

    def test_count_params_closed_form(self):
        cfg = desk_config(
            d_model=8,
            num_heads=2,
            d_ff=16,
            num_encoder_layers=1,
            num_decoder_layers=1,
            n_mels=16,
            num_arrangers=4,
        )
        # 16*8 proj + 4*8 arranger + 232*8 tokens + 2*32*2 bias tables
        # + encoder (8 + 4*64 + 8 + 128 + 128) + 8 + decoder (3*8 + 8*64 + 256) + 8
        want = 128 + 32 + 1856 + 128 + 528 + 8 + 792 + 8
        assert count_params(cfg) == want

    def test_count_matches_enumeration(self):
        for cfg in (tiny_config(), desk_config(), tiny_config(num_encoder_layers=3, num_decoder_layers=2)):
            enumerated = sum(
                int(np.prod(shape)) for shape in param_shapes(cfg).values()
            )
            assert count_params(cfg) == enumerated

    def test_arranger_table_arithmetic(self):
        base = tiny_config(num_arrangers=4)
        grown = tiny_config(num_arrangers=9)
        assert count_params(grown) - count_params(base) == 5 * base.d_model

    def test_paper_scale_window(self):
        n = count_params(paper_scale_config())
        assert 50_000_000 <= n <= 70_000_000

    def test_paper_scale_reads_the_frontend_mels(self):
        assert paper_scale_config().n_mels == features.N_MELS


def _pianocover_imports(path):
    """The top-level pianocover modules a source file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level != 1:  # level 1: model/
            root = "pianocover" if node.level == 2 else None
            modules = [".".join(filter(None, [root, node.module, a.name])) for a in node.names]
        else:
            continue
        found.update(m.split(".")[1] for m in modules if m.startswith("pianocover."))
    return found


def test_model_package_leaves_the_token_grammar_to_the_tokenizer():
    model_dir = Path(network.__file__).parent
    imports = {path.name: _pianocover_imports(path) for path in model_dir.glob("*.py")}
    assert "tokenizer" in imports["network.py"]
    for name, modules in imports.items():
        assert not modules & {"midi", "features", "pipeline"}, name


def test_features_module_is_the_only_spectral_path():
    # The blocked STFT in features.py keeps memory bounded; a direct
    # stft_power or np.fft call elsewhere would bring back whole-song spectra.
    # Filterbanks are applied over their nonzero bands by features.mel_power
    # alone, so no other module reads a dense mel_filterbank.
    src = Path(network.__file__).parent.parent
    for path in sorted(src.rglob("*.py")):
        if path.name == "features.py" and path.parent == src:
            continue
        tree = ast.parse(path.read_text())
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {alias.name for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        assert not names & {"stft_power", "fft", "numpy.fft", "rfft", "mel_filterbank"}, path.name


class TestInitParams:
    def test_shapes_and_order(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=0)
        shapes = param_shapes(cfg)
        assert list(params) == list(shapes)
        for name, value in params.items():
            assert value.shape == shapes[name]
            assert np.all(np.isfinite(value))

    def test_norms_and_biases(self):
        params = init_params(tiny_config(), seed=1)
        assert np.all(params["enc0_ln1"] == 1.0)
        assert np.all(params["dec_ln_final"] == 1.0)
        assert np.all(params["enc_rel_bias"] == 0.0)
        assert np.all(params["dec_rel_bias"] == 0.0)

    def test_dtype(self):
        cfg = tiny_config()
        assert {value.dtype for value in init_params(cfg).values()} == {np.dtype(np.float64)}
        with pytest.raises(TypeError):
            init_params(cfg, dtype=np.float32)

    @pytest.mark.parametrize("cfg", [
        pytest.param(tiny_config(), id="tiny"),
        pytest.param(desk_config(), id="desk"),
        pytest.param(tiny_config(num_encoder_layers=1, num_decoder_layers=3), id="1-3"),
    ])
    def test_matches_scalar_reference(self, cfg):
        # The initialisation rules by tensor name, drawn one scalar at a
        # time from one generator in param_shapes order.
        def init(name, shape, rng):
            if re.fullmatch(r"(enc|dec)(\d+_ln\d|_ln_final)", name):
                return np.ones(shape)
            if name.endswith("rel_bias"):
                return np.zeros(shape)
            std = {"input_proj": cfg.n_mels**-0.5, "arranger_emb": 1.0,
                   "token_emb": 0.2}.get(name)
            if std is None:
                std = cfg.d_ff**-0.5 if name.endswith("ff2") else cfg.d_model**-0.5
            draws = [rng.normal(0.0, std) for _ in range(math.prod(shape))]
            return np.array(draws).reshape(shape)

        for seed in (0, 7):
            rng = np.random.default_rng(seed)
            want = {name: init(name, shape, rng) for name, shape in param_shapes(cfg).items()}
            got = init_params(cfg, seed=seed)
            assert list(got) == list(want)
            for name, value in got.items():
                assert value.dtype == np.float64 and value.shape == want[name].shape
                assert value.tobytes() == want[name].tobytes(), name


class TestEncode:
    def test_state_length(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=0)
        rng = np.random.default_rng(0)
        for n_frames in (1, 5, 11):
            state = encode(rng.normal(size=(n_frames, cfg.n_mels)), 0, params, cfg)
            assert state.shape == (1 + n_frames, cfg.d_model)

    def test_deterministic(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=0)
        frames = np.random.default_rng(1).normal(size=(4, cfg.n_mels))
        a = encode(frames, 1, params, cfg)
        b = encode(frames.copy(), 1, params, cfg)
        assert np.array_equal(a, b)

    def test_accepts_spectrogram_object(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=0)
        frames = np.random.default_rng(2).normal(size=(4, cfg.n_mels))
        wrapped = SimpleNamespace(frames=frames)
        assert np.array_equal(encode(wrapped, 0, params, cfg), encode(frames, 0, params, cfg))

    def test_arranger_changes_output(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=0)
        frames = np.random.default_rng(3).normal(size=(4, cfg.n_mels))
        assert not np.array_equal(
            encode(frames, 0, params, cfg), encode(frames, 1, params, cfg)
        )

    def test_zeroed_branches_localize_arranger(self):
        # With attention and FFN residual branches zeroed out, rows never
        # mix, so only the arranger row can differ between arranger ids.
        cfg = tiny_config(num_encoder_layers=2)
        params = init_params(cfg, seed=0)
        for i in range(cfg.num_encoder_layers):
            params[f"enc{i}_o"][:] = 0.0
            params[f"enc{i}_ff2"][:] = 0.0
        frames = np.random.default_rng(4).normal(size=(5, cfg.n_mels))
        a = encode(frames, 0, params, cfg)
        b = encode(frames, 2, params, cfg)
        assert np.array_equal(a[1:], b[1:])
        assert not np.array_equal(a[0], b[0])

    def test_every_frame_reaches_every_row(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=0)
        frames = np.random.default_rng(5).normal(size=(6, cfg.n_mels))
        base = encode(frames, 0, params, cfg)
        for j in (0, 5):
            moved = frames.copy()
            moved[j] += 1.0
            assert np.all(np.any(encode(moved, 0, params, cfg) != base, axis=1))

    def test_bad_arguments(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=0)
        frames = np.zeros((4, cfg.n_mels))
        with pytest.raises(ParameterError):
            encode(frames, cfg.num_arrangers, params, cfg)
        with pytest.raises(ParameterError):
            encode(frames, -1, params, cfg)
        with pytest.raises(ParameterError):
            encode(np.zeros((4, cfg.n_mels + 1)), 0, params, cfg)

    def test_frame_budget(self, monkeypatch):
        cfg = tiny_config()
        params = init_params(cfg, seed=0)
        assert encode(np.zeros((MAX_FRAMES, cfg.n_mels)), 0, params, cfg).shape == (
            MAX_FRAMES + 1, cfg.d_model)

        def forbidden(*args, **kwargs):
            raise AssertionError("allocated before the frame budget was checked")

        frames = np.zeros((MAX_FRAMES + 1, cfg.n_mels))
        batch = [(np.zeros((2, cfg.n_mels)), 0, (EOS,)), (frames, 1, (EOS,))]
        monkeypatch.setattr(network.np, "zeros", forbidden)
        with pytest.raises(ParameterError, match=f"{MAX_FRAMES + 1} frames are over the "
                                                 f"encoder budget of {MAX_FRAMES}"):
            encode(frames, 0, params, cfg)
        with pytest.raises(ParameterError, match="over the encoder budget"):
            loss_and_grads(batch, params, cfg)


class TestDecodeStep:
    def _setup(self, seed=0):
        cfg = tiny_config()
        params = init_params(cfg, seed=seed)
        rng = np.random.default_rng(seed)
        state = encode(rng.normal(size=(4, cfg.n_mels)), 0, params, cfg)
        return cfg, params, state, rng

    def test_logits_shape_and_softmax(self):
        cfg, params, state, _ = self._setup()
        logits = decode_step(state, [5, 104, 103], params, cfg)
        assert logits.shape == (cfg.vocab_size,)
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        assert abs(float(probs.sum()) - 1.0) < 1e-6
        assert np.all(probs >= 0.0)

    def test_prefix_length_guard(self):
        cfg, params, state, _ = self._setup()
        with pytest.raises(ParameterError):
            decode_step(state, [5] * cfg.max_decode_len, params, cfg)

    def test_matches_full_forward(self):
        cfg, params, state, rng = self._setup(1)
        prefix = [int(t) for t in rng.integers(2, cfg.vocab_size, size=7)]
        logits, _ = network.decoder_forward([PAD] + prefix, state, params, cfg)
        assert np.array_equal(decode_step(state, prefix, params, cfg), logits[-1])

    def test_causality_exact(self):
        # Perturbing position j leaves every logit row before j bit-identical.
        cfg, params, state, rng = self._setup(2)
        ids = [int(t) for t in rng.integers(2, cfg.vocab_size, size=12)]
        base, _ = network.decoder_forward([PAD] + ids, state, params, cfg)
        for j in (0, 4, 11):
            mutated = list(ids)
            mutated[j] = (mutated[j] + 57) % 230 + 2
            assert mutated[j] != ids[j]
            got, _ = network.decoder_forward([PAD] + mutated, state, params, cfg)
            assert np.array_equal(got[: j + 1], base[: j + 1])
            assert not np.array_equal(got, base)


DECODER_SHAPES = [
    pytest.param(dict(num_decoder_layers=1), id="one-layer"),
    pytest.param(dict(num_decoder_layers=2), id="two-layers"),
    # Distances up to 47 pass relative_bias_max_distance=20, so the far
    # buckets saturate.
    pytest.param(dict(num_decoder_layers=2, max_decode_len=48), id="saturated"),
]
# Frame counts of windows stepped together, so every window but the
# longest has padded cross-attention keys.
RAGGED_FRAMES = (5, 9, 2, 7, 1)


def reference_greedy(frames, arranger_id, params, cfg):
    """Raw argmax ids from a loop over the stateless decode_step."""
    state = encode(frames, arranger_id, params, cfg)
    raw = []
    while len(raw) < cfg.max_decode_len:
        raw.append(int(np.argmax(decode_step(state, raw, params, cfg))))
        if raw[-1] == EOS:
            break
    return raw


class TestIncrementalDecoder:
    def _setup(self, cfg, seed):
        params = init_params(cfg, seed=seed)
        rng = np.random.default_rng(seed)
        params["dec_rel_bias"] = rng.normal(size=params["dec_rel_bias"].shape)
        # init_params sets every norm gain to 1, which would hide a gain
        # folded into the wrong weight, or not folded at all.
        for name in params:
            if name.startswith("dec") and name.endswith(("ln1", "ln2", "ln3", "ln_final")):
                params[name] = rng.normal(1.0, 0.25, size=params[name].shape)
        state = encode(rng.normal(size=(5, cfg.n_mels)), 1, params, cfg)
        ids = [PAD] + [int(t) for t in rng.integers(0, 232, size=cfg.max_decode_len - 1)]
        return params, state, ids

    def _spy_raw(self, monkeypatch):
        """Collects the raw ids greedy_generate hands to its token filter."""
        seen = []
        generated_segment = network.generated_segment
        monkeypatch.setattr(
            network,
            "generated_segment",
            lambda raw: seen.append(list(raw)) or generated_segment(raw),
        )
        return seen

    def _cached_rows(self, state, ids, params, cfg):
        decoder = network.IncrementalDecoder([state], params, cfg)
        return np.array([decoder.step([t])[0] for t in ids])

    def _ragged(self, cfg, seed):
        """Encoder states of different frame counts and one id row each."""
        params, _, _ = self._setup(cfg, seed)
        rng = np.random.default_rng(seed + 100)
        states = [
            encode(rng.normal(size=(n, cfg.n_mels)), n % cfg.num_arrangers, params, cfg)
            for n in RAGGED_FRAMES
        ]
        ids = rng.integers(0, 232, size=(len(states), cfg.max_decode_len))
        ids[:, 0] = PAD
        return params, states, ids

    def _lockstep_rows(self, states, ids, params, cfg):
        """Logits (W, n, vocab) of all windows stepped together."""
        decoder = network.IncrementalDecoder(states, params, cfg)
        return np.stack([decoder.step(column) for column in ids.T], axis=1)

    @pytest.mark.parametrize("overrides", DECODER_SHAPES)
    def test_cached_logits_match_full_forward(self, overrides):
        cfg = tiny_config(**overrides)
        for seed in (0, 1):
            params, state, ids = self._setup(cfg, seed)
            full, _ = network.decoder_forward(ids, state, params, cfg)
            cached = self._cached_rows(state, ids, params, cfg)
            assert cached.shape == full.shape
            assert np.max(np.abs(cached - full)) < 1e-10

    @pytest.mark.parametrize("overrides", DECODER_SHAPES)
    def test_lockstep_rows_match_each_window(self, overrides):
        cfg = tiny_config(**overrides)
        for seed in (0, 1):
            params, states, ids = self._ragged(cfg, seed)
            rows = self._lockstep_rows(states, ids, params, cfg)
            for state, window_ids, got in zip(states, ids, rows):
                full, _ = network.decoder_forward(window_ids, state, params, cfg)
                assert got.shape == full.shape
                assert np.max(np.abs(got - full)) < 1e-10

    def test_greedy_never_recomputes_prefix(self, monkeypatch):
        cfg = tiny_config(num_decoder_layers=2, max_decode_len=24)
        cases = []
        for seed in range(4):
            params = init_params(cfg, seed=seed)
            frames = np.random.default_rng(seed).normal(size=(4, cfg.n_mels))
            cases.append((frames, seed % cfg.num_arrangers, params))
        expected = [reference_greedy(*case, cfg) for case in cases]
        # The untrained models never emit EOS.
        assert all(len(raw) == cfg.max_decode_len and EOS not in raw for raw in expected)
        # Giving EOS the output row of the token seed 3 settles on makes
        # it win the tie there (lowest id), so this case stops mid-way.
        frames, arranger_id, params = cases[3]
        eager = dict(params, token_emb=params["token_emb"].copy())
        eager["token_emb"][EOS] = eager["token_emb"][expected[3][-1]]
        cases.append((frames, arranger_id, eager))
        expected.append(reference_greedy(frames, arranger_id, eager, cfg))
        assert expected[-1][-1] == EOS and 1 < len(expected[-1]) < cfg.max_decode_len

        def forbidden(*args, **kwargs):
            raise AssertionError("greedy_generate ran the full-sequence decoder")

        generated_segment = network.generated_segment
        seen = self._spy_raw(monkeypatch)
        monkeypatch.setattr(network, "decoder_forward", forbidden)
        for case, raw in zip(cases, expected):
            seq = greedy_generate(*case, cfg)
            assert seen.pop() == raw
            assert seq.ids == generated_segment(raw).ids

    def test_lockstep_greedy_matches_each_window(self, monkeypatch):
        cfg = tiny_config(num_decoder_layers=2, max_decode_len=24)
        params = init_params(cfg, seed=3)
        rng = np.random.default_rng(3)
        windows = [rng.normal(size=(n, cfg.n_mels)) for n in (4, 9, 2, 6, 1)]
        alone = reference_greedy(windows[0], 0, params, cfg)
        # The EOS trick of test_greedy_never_recomputes_prefix: with
        # these frames, two windows stop at EOS (one mid-way, one after
        # two tokens) and three never do.
        eager = dict(params, token_emb=params["token_emb"].copy())
        eager["token_emb"][EOS] = eager["token_emb"][alone[-1]]
        expected = [reference_greedy(frames, 0, eager, cfg) for frames in windows]
        assert [len(raw) for raw in expected] == [12, 24, 24, 2, 24]
        assert [raw[-1] == EOS for raw in expected] == [True, False, False, True, False]

        def forbidden(*args, **kwargs):
            raise AssertionError("greedy_generate_windows ran the full-sequence decoder")

        generated_segment = network.generated_segment
        seen = self._spy_raw(monkeypatch)
        monkeypatch.setattr(network, "decoder_forward", forbidden)
        seqs = greedy_generate_windows(windows, 0, eager, cfg)
        # The token filter gets each window's row as stepped with its group;
        # through its first EOS, the row holds what the window decodes alone.
        assert [len(row) for row in seen] == [cfg.max_decode_len] * len(windows)
        assert [row[: len(raw)] for row, raw in zip(seen, expected)] == expected
        assert [seq.ids for seq in seqs] == [generated_segment(raw).ids for raw in expected]

    def test_lockstep_groups_are_bounded(self, monkeypatch):
        cfg = tiny_config(max_decode_len=6)
        params = init_params(cfg, seed=5)
        rng = np.random.default_rng(5)
        count = network._LOCKSTEP_WINDOWS + 3
        windows = [rng.normal(size=(1 + k % 7, cfg.n_mels)) for k in range(count)]
        expected = [reference_greedy(frames, 2, params, cfg) for frames in windows]
        groups = []
        decoder = network.IncrementalDecoder
        monkeypatch.setattr(
            network,
            "IncrementalDecoder",
            lambda states, *rest: groups.append(len(states)) or decoder(states, *rest),
        )
        seen = self._spy_raw(monkeypatch)
        greedy_generate_windows(windows, 2, params, cfg)
        assert groups == [network._LOCKSTEP_WINDOWS, 3]
        assert seen == expected

    @pytest.mark.parametrize("count", [5, network._LOCKSTEP_WINDOWS + 3])
    def test_encodes_each_window_once(self, monkeypatch, count):
        # A tracer times encoding by wrapping the module's encode, so
        # each window must still go through it, once.
        cfg = tiny_config(max_decode_len=2)
        params = init_params(cfg, seed=6)
        rng = np.random.default_rng(6)
        windows = [rng.normal(size=(1 + k % 4, cfg.n_mels)) for k in range(count)]
        seen = []
        encode_one = network.encode
        monkeypatch.setattr(
            network,
            "encode",
            lambda frames, *rest: seen.append(frames) or encode_one(frames, *rest),
        )
        greedy_generate_windows(windows, 1, params, cfg)
        assert len(seen) == count
        assert all(got is frames for got, frames in zip(seen, windows))

    def test_step_past_max_decode_len_raises(self):
        cfg = tiny_config()
        params, state, ids = self._setup(cfg, 0)
        decoder = network.IncrementalDecoder([state], params, cfg)
        for t in ids:
            decoder.step([t])
        assert decoder.length == cfg.max_decode_len
        with pytest.raises(ParameterError, match="max_decode_len"):
            decoder.step([5])


class TestGreedy:
    def test_zero_head_ties_break_low(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=0)
        params["token_emb"][:] = 0.0
        rng = np.random.default_rng(0)
        state = encode(rng.normal(size=(3, cfg.n_mels)), 0, params, cfg)
        logits = decode_step(state, [], params, cfg)
        assert np.all(logits == logits[0])
        assert int(np.argmax(logits)) == PAD

    def test_duplicate_rows_tie_break(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=3)
        params["token_emb"][150] = params["token_emb"][40]
        rng = np.random.default_rng(3)
        state = encode(rng.normal(size=(3, cfg.n_mels)), 1, params, cfg)
        logits = decode_step(state, [5], params, cfg)
        assert logits[40] == logits[150]
        ranked = np.argsort(logits)
        if ranked[-1] in (40, 150):
            assert int(np.argmax(logits)) == 40

    def test_output_pitches_within_piano_range(self):
        cfg = tiny_config(max_decode_len=24)
        for seed in range(3):
            params = init_params(cfg, seed=seed)
            frames = np.random.default_rng(seed).normal(size=(3, cfg.n_mels))
            seq = greedy_generate(frames, 0, params, cfg)
            for token in seq.ids:
                sym = symbol(token)
                if sym[0] == "pitch":
                    assert 21 <= sym[1] <= 108

    def test_deterministic_and_excludes_pad(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=4)
        rng = np.random.default_rng(4)
        frames = rng.normal(size=(3, cfg.n_mels))
        a = greedy_generate(frames, 0, params, cfg)
        b = greedy_generate(frames, 0, params, cfg)
        assert a.ids == b.ids
        assert PAD not in a.ids
        assert len(a.ids) <= cfg.max_decode_len


class TestLoss:
    def test_init_loss_near_uniform(self):
        cfg = tiny_config()
        for seed in (0, 1, 2):
            params = init_params(cfg, seed=seed)
            rng = np.random.default_rng(seed + 10)
            batch = []
            for i in range(3):
                frames = rng.normal(size=(3, cfg.n_mels))
                ids = tuple(int(t) for t in rng.integers(0, cfg.vocab_size, size=10))
                batch.append((frames, i % cfg.num_arrangers, ids))
            loss = compute_loss(batch, params, cfg)
            assert abs(loss - math.log(232)) < 0.2

    def test_pad_targets_never_change_loss(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=5)
        rng = np.random.default_rng(5)
        frames = rng.normal(size=(4, cfg.n_mels))
        ids = (3, 104, 103, 9, 104, 102, EOS)
        base = compute_loss([(frames, 0, ids)], params, cfg)
        padded = compute_loss([(frames, 0, ids + (PAD, PAD, PAD))], params, cfg)
        assert padded == base

    def test_errors(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=0)
        with pytest.raises(ParameterError):
            compute_loss([], params, cfg)
        frames = np.zeros((2, cfg.n_mels))
        with pytest.raises(ParameterError):
            compute_loss([(frames, 0, (PAD, PAD))], params, cfg)
        too_long = tuple([5] * (cfg.max_decode_len + 1))
        with pytest.raises(ParameterError):
            compute_loss([(frames, 0, too_long)], params, cfg)


class TestGradients:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_finite_differences(self, seed):
        worst = gradient_check(tiny_config(), seed=seed, entries_per_tensor=8)
        bad = {k: v for k, v in worst.items() if v > 1e-3}
        assert not bad, f"gradient mismatches: {bad}"

    def test_finite_differences_two_layers(self):
        # The relative bias tables are shared by the layers of a stack, so
        # their gradients sum over layers.
        cfg = tiny_config(num_encoder_layers=2, num_decoder_layers=2)
        worst = gradient_check(cfg, seed=2, entries_per_tensor=8)
        bad = {k: v for k, v in worst.items() if v > 1e-3}
        assert not bad, f"gradient mismatches: {bad}"

    def test_ragged_batch_matches_single_examples(self):
        # Frame counts and target lengths all differ, so every example but
        # the longest is padded in both the encoder and the decoder.
        cfg = tiny_config(num_encoder_layers=2, num_decoder_layers=2, max_decode_len=24)
        rng = np.random.default_rng(21)
        params = init_params(cfg, seed=21)
        for name in ("enc_rel_bias", "dec_rel_bias"):
            params[name] = rng.normal(size=params[name].shape)
        batch = []
        counts = [12, 5, 20, 9]
        for i, (n_frames, count, n_pad) in enumerate(zip([3, 9, 6, 1], counts, [0, 0, 0, 2])):
            ids = tuple(int(t) for t in rng.integers(2, cfg.vocab_size, size=count - 1))
            ids += (EOS,) + (PAD,) * n_pad
            batch.append((rng.normal(size=(n_frames, cfg.n_mels)), i % 3, ids))
        loss, grads = loss_and_grads(batch, params, cfg)
        assert compute_loss(batch, params, cfg) == loss
        # The batch mean weights each example's mean by its non-PAD targets.
        want_loss = 0.0
        want = zero_grads(params)
        for example, count in zip(batch, counts):
            single_loss, single = loss_and_grads([example], params, cfg)
            want_loss += single_loss * count / sum(counts)
            for name in want:
                want[name] += single[name] * count / sum(counts)
        assert abs(loss - want_loss) <= 1e-12 * want_loss
        for name in params:
            scale = np.max(np.abs(want[name]))
            assert scale > 0, name
            assert np.max(np.abs(grads[name] - want[name])) <= 1e-12 * scale, name


class TestNorms:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bits_match_mean_formula(self, dtype):
        rng = np.random.default_rng(0)
        for shape in [(1, 64), (43, 64), (8, 43, 64)]:
            x = rng.normal(size=shape).astype(dtype)
            g = rng.normal(size=shape[-1]).astype(dtype)
            inv = 1.0 / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + network._NORM_EPS)
            got, _ = network._norm_f(x, g)
            assert got.dtype == dtype and np.array_equal(got, x * inv * g)
            assert optim._rms(x) == float(np.sqrt(np.mean(x * x)))


class TestOptimizers:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_adafactor_statistics_match_mean_formula(self, dtype):
        # Reference step written with ndarray.mean; two steps so that
        # beta2 is non-zero and the old statistics enter the new ones.
        rng = np.random.default_rng(1)
        for shape in [(1, 64), (43, 64), (64, 256), (232, 64)]:
            w = rng.normal(size=shape).astype(dtype)
            params = {"w": w.copy()}
            opt = optim.Adafactor(params, learning_rate=0.01)
            row = np.zeros(shape[0], dtype)
            col = np.zeros(shape[1], dtype)
            for step in (1, 2):
                g = rng.normal(size=shape).astype(dtype)
                opt.update(params, {"w": g})
                beta2 = 1.0 - step**-0.8
                sq = g * g + optim._EPS_FACTORED
                row = beta2 * row + (1.0 - beta2) * sq.mean(axis=1)
                col = beta2 * col + (1.0 - beta2) * sq.mean(axis=0)
                r = row / row.mean()
                update = g * (r**-0.5)[:, None] * (col**-0.5)[None, :]
                update /= max(1.0, optim._rms(update) / optim._CLIP_RMS)
                w -= 0.01 * update
                state = opt._state["w"]
                assert state["row"].dtype == dtype and np.array_equal(state["row"], row)
                assert state["col"].dtype == dtype and np.array_equal(state["col"], col)
                assert params["w"].dtype == dtype and np.array_equal(params["w"], w)

    def test_adafactor_state_is_factored(self):
        params = {"mat": np.zeros((6, 4)), "vec": np.zeros(5)}
        opt = optim.Adafactor(params)
        assert opt._state["mat"]["row"].shape == (6,)
        assert opt._state["mat"]["col"].shape == (4,)
        assert opt._state["vec"]["full"].shape == (5,)

    def test_descends_quadratic(self):
        rng = np.random.default_rng(0)
        params = {"w": rng.normal(size=(8, 8))}
        opt = optim.Adafactor(params, learning_rate=0.05)
        start = float(np.sum(params["w"] ** 2))
        for _ in range(200):
            opt.update(params, {"w": 2.0 * params["w"]})
        assert float(np.sum(params["w"] ** 2)) < 0.05 * start


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        cfg = tiny_config()
        params = init_params(cfg, seed=7)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg)
        loaded, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg == cfg
        assert list(loaded) == list(params)
        for name in params:
            assert np.array_equal(loaded[name], params[name])
            assert loaded[name].dtype == params[name].dtype

    def test_float32_tensor_is_refused(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "model32.ckpt"
        path.write_bytes(float32_checkpoint(init_params(cfg, seed=8), cfg))
        with pytest.raises(FormatError) as exc:
            load_checkpoint(path)
        assert str(exc.value) == (f"{path}: tensor 'input_proj' has dtype code 4; only 8 "
                                  "(float64) is read")

    def test_corruption_detected(self, tmp_path):
        cfg = tiny_config()
        params = init_params(cfg, seed=9)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg)
        blob = bytearray(path.read_bytes())
        blob[-5] ^= 0xFF
        bad = tmp_path / "corrupt.ckpt"
        bad.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_checkpoint(bad)

    def test_truncation_and_magic(self, tmp_path):
        cfg = tiny_config()
        params = init_params(cfg, seed=9)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg)
        blob = path.read_bytes()
        short = tmp_path / "short.ckpt"
        short.write_bytes(blob[:-10])
        with pytest.raises(FormatError):
            load_checkpoint(short)
        wrong = tmp_path / "magic.ckpt"
        wrong.write_bytes(b"X" + blob[1:])
        with pytest.raises(FormatError):
            load_checkpoint(wrong)

    def test_deeply_nested_config_is_a_format_error(self, tmp_path):
        config = b"[" * 100_000
        path = tmp_path / "deep.ckpt"
        path.write_bytes(MAGIC + struct.pack("<II", VERSION, len(config)) + config)
        with pytest.raises(FormatError, match="deep.ckpt: bad checkpoint config: maximum "
                                              "recursion depth exceeded"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit,message",
        [
            pytest.param(lambda p: p.pop("dec0_ff2"), "lacks tensors dec0_ff2", id="missing"),
            pytest.param(
                lambda p: p.update(dec0_sq=np.zeros((24, 12))), "'dec0_sq' has shape", id="shape"
            ),
            pytest.param(
                lambda p: p.update(dec0_ln1=np.ones((24, 1))), "'dec0_ln1' has shape", id="rank"
            ),
            pytest.param(
                lambda p: p.update(dec1_ff1=np.zeros((24, 32))), "unknown tensors dec1_ff1", id="extra"
            ),
        ],
    )
    def test_tensors_must_match_config(self, tmp_path, edit, message):
        cfg = tiny_config()
        params = init_params(cfg, seed=9)
        edit(params)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg)
        with pytest.raises(FormatError, match=message):
            load_checkpoint(path)

    def test_duplicate_tensor(self, tmp_path):
        cfg = tiny_config()
        params = init_params(cfg, seed=9)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg)
        one = tmp_path / "one.ckpt"
        save_checkpoint(one, {"dec0_sq": params["dec0_sq"]}, cfg)
        # Header: magic, version, config length and bytes, tensor count.
        header = len(b"PNOCOVR\x01") + 4 + 4 + len(json.dumps(cfg.to_dict(), sort_keys=True))
        blob = bytearray(path.read_bytes())
        blob[header : header + 4] = struct.pack("<I", len(params) + 1)
        blob += one.read_bytes()[header + 4 :]
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="duplicate tensor 'dec0_sq'"):
            load_checkpoint(path)

    def test_name_not_utf8(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(cfg, seed=9), cfg)
        blob = bytearray(path.read_bytes())
        blob[blob.index(b"input_proj")] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="not UTF-8"):
            load_checkpoint(path)


    def test_byte_mutations_raise_only_format_error(self, tmp_path):
        cfg = tiny_config(d_model=8, num_heads=2, d_ff=8, n_mels=4)
        params = init_params(cfg, seed=9)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg)
        blob = path.read_bytes()
        # Offsets outside the tensor payloads: the header and each tensor's
        # name, rank, dims, dtype and CRC. Half the edits land there.
        structure = list(range(len(MAGIC) + 4 + 4 + len(json.dumps(cfg.to_dict(), sort_keys=True)) + 4))
        pos = len(structure)
        for name, value in params.items():
            head = 2 + len(name) + 1 + 8 * value.ndim + 1 + 4
            structure += range(pos, pos + head)
            pos += head + value.nbytes
        assert pos == len(blob)
        rng = np.random.default_rng(31)
        mutant = tmp_path / "mutant.ckpt"
        for trial in range(3000):
            data = bytearray(blob)
            if rng.random() < 0.2:
                del data[int(rng.integers(0, len(data))):]
            else:
                for _ in range(int(rng.integers(1, 4))):
                    at = int(rng.choice(structure)) if rng.random() < 0.5 else int(
                        rng.integers(0, len(data)))
                    data[at] = int(rng.integers(0, 256))
            mutant.write_bytes(bytes(data))
            try:
                load_checkpoint(mutant)
            except FormatError:
                pass

    def test_truncation_reports_where_data_ran_out(self, tmp_path):
        def ran_out_at(exc, cut):
            # The read that failed began at the offset and wanted bytes past the cut.
            wanted = int(re.search(r"wanted (\d+) more bytes", str(exc)).group(1))
            return exc.offset <= cut < exc.offset + wanted

        smf = write_smf(NoteSequence.build([Note(0.0, 60, 0.5), Note(0.5, 64, 1.0)]))
        for cut, offset in ((3, 0), (13, 8), (len(smf) - 1, len(smf) - 1)):
            with pytest.raises(FormatError) as exc:
                parse_smf(smf[:cut])
            assert exc.value.offset == offset and ran_out_at(exc.value, cut)
            assert str(exc.value).endswith(f"(at byte offset {offset})")
        cfg = tiny_config()
        params = init_params(cfg, seed=9)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg)
        blob = path.read_bytes()
        last_tensor = len(blob) - list(params.values())[-1].nbytes
        short = tmp_path / "short.ckpt"
        # Magic at 0, config bytes at 16, the last tensor's payload at the end.
        for cut, offset in ((0, 0), (5, 0), (20, 16), (len(blob) - 1, last_tensor)):
            short.write_bytes(blob[:cut])
            with pytest.raises(FormatError) as exc:
                load_checkpoint(short)
            assert exc.value.offset == offset and ran_out_at(exc.value, cut)
            assert str(exc.value).startswith(f"{short}: unexpected end of data")


class TestTraining:
    def test_empty_dataset(self):
        with pytest.raises(ParameterError):
            train([], TrainConfig(epochs=1), tiny_config())

    def test_seeded_determinism(self):
        cfg = tiny_config()
        rng = np.random.default_rng(11)
        data = random_model_batch(cfg, rng, n_examples=3)
        tc = TrainConfig(epochs=4, batch_size=2, seed=5)
        params_a, hist_a = train(data, tc, cfg)
        params_b, hist_b = train(data, tc, cfg)
        assert hist_a == hist_b
        assert all(np.array_equal(params_a[k], params_b[k]) for k in params_a)
        _, hist_c = train(data, TrainConfig(epochs=4, batch_size=2, seed=6), cfg)
        assert hist_a != hist_c

    def test_divergence_reports_step(self):
        cfg = tiny_config()
        rng = np.random.default_rng(12)
        data = random_model_batch(cfg, rng, n_examples=2)
        params = init_params(cfg, seed=0)
        params["enc0_q"][0, 0] = np.nan
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError) as info:
                train(data, TrainConfig(epochs=1, batch_size=2), cfg, params=params)
        assert info.value.step == 0

    def test_single_pair_overfit(self):
        cfg = tiny_config(
            d_model=32, d_ff=64, n_mels=16, max_decode_len=32, num_arrangers=4
        )
        rng = np.random.default_rng(0)
        frames = rng.normal(size=(6, cfg.n_mels))
        targets = (3, 125, 131, 103, 9, 125, 102, 52, 103, EOS)
        tc = TrainConfig(epochs=2000, batch_size=1, seed=0)
        params, history = train([(frames, 2, targets)], tc, cfg)
        assert min(history) < 0.01
        assert greedy_generate(frames, 2, params, cfg).ids == targets
