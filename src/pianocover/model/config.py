"""Model and training configuration, and the table of the model's tensors.

N_MELS, the encoder's input width, is the contract that ``features``
imports and computes to; like VOCAB_SIZE, it is no ``ModelConfig`` field.
Nor is the relative-position bias shape: REL_BUCKETS buckets up to
REL_MAX_DISTANCE, T5's 32 and 128, are fixed architecture."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

from ..errors import ValidationError
from ..tokenizer import MAX_TOKENS, VOCAB_SIZE

# Parameters a model may have: about twice the published architecture
# (``paper_scale_config``, 58.9M), and 1 GB of float64 weights.  A larger
# config is refused before ``init_params`` tries to allocate it.
MAX_PARAMS = 2**27

# Layers a stack may have.  MAX_PARAMS alone admits 16M layers of width 1,
# and ``tensor_table`` (so ``count_params``) and every forward and backward
# pass walk the layers one at a time in Python, so a checkpoint config of a
# few hundred bytes could ask for gigabytes of parameter names.  At 4096 both
# stacks name under 90k tensors, and a desk-width model (d_model 64) still
# reaches MAX_PARAMS by depth alone (about 2700 encoder layers) before
# this bound; the published model has 8 layers per stack.
MAX_LAYERS = 4096

# Mel frames one example may give the encoder: about 23.8 s of audio, a
# 4-beat window at 10 BPM, six times the 86 frames of a window at the beat
# tracker's slowest tempo (60 BPM).  Encoder memory grows with the square
# of the frame count: at desk size a traced encode peaks at 48 MiB for 512
# frames and 181 MiB for 1024, and one example's loss_and_grads at 66 MiB
# for 512 frames; a training batch holds that once per example.  Without
# the bound a 100 000-frame mel asks for a 75 GiB relative-position matrix.
MAX_FRAMES = 512

# Log-mel channels in each frame the encoder reads.
N_MELS = 128

# T5's relative-position buckets per self-attention stack, and the
# distance from which every longer one shares the last bucket.
REL_BUCKETS = 32
REL_MAX_DISTANCE = 128

# Former fields that old checkpoints name, each at its one legal value.
_RETIRED_KEYS = {
    "vocab_size": VOCAB_SIZE,
    "n_mels": N_MELS,
    "relative_bias_buckets": REL_BUCKETS,
    "relative_bias_max_distance": REL_MAX_DISTANCE,
}


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 64
    num_heads: int = 4
    d_ff: int = 256
    num_encoder_layers: int = 2
    num_decoder_layers: int = 2
    num_arrangers: int = 21
    max_decode_len: int = 512

    def __post_init__(self):
        # Every field is a size, and checkpoint JSON can hold any type.
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValidationError(f"{field.name} must be an integer, got {value!r}")
            if value < 1:
                raise ValidationError(f"{field.name} must be positive")
        for name in ("num_encoder_layers", "num_decoder_layers"):
            if getattr(self, name) > MAX_LAYERS:
                raise ValidationError(
                    f"{name} must be at most {MAX_LAYERS}, got {getattr(self, name)}"
                )
        if self.d_model % self.num_heads != 0:
            raise ValidationError(
                f"d_model {self.d_model} not divisible by {self.num_heads} heads"
            )
        # The decoder sizes its caches from max_decode_len, and the token
        # grammar refuses segments longer than MAX_TOKENS anyway.
        if self.max_decode_len > MAX_TOKENS:
            raise ValidationError(
                f"max_decode_len must be at most {MAX_TOKENS}, got {self.max_decode_len}"
            )
        params = count_params(self)
        if params > MAX_PARAMS:
            raise ValidationError(
                f"model has {params} parameters, over the budget of {MAX_PARAMS}"
            )

    @property
    def d_head(self) -> int:
        return self.d_model // self.num_heads

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        """The config a checkpoint's JSON object names. The vocabulary size,
        the mel count and the relative-bias shape are constants, not
        fields; checkpoints written while they were fields name them by
        their _RETIRED_KEYS, each read only as its constant integer."""
        if not isinstance(d, dict):
            raise ValidationError(f"config must be a JSON object, got {type(d).__name__}")
        d = dict(d)
        for key, constant in _RETIRED_KEYS.items():
            value = d.pop(key, constant)
            if type(value) is not int or value != constant:
                raise ValidationError(f"{key} must be {constant}, got {value!r}")
        return cls(**d)


def desk_config(**overrides) -> ModelConfig:
    """Small preset that trains on one CPU core in minutes."""
    return ModelConfig(**overrides)


def paper_scale_config() -> ModelConfig:
    """Full-size preset matching the published architecture; used for
    parameter counting, not for desk training."""
    return ModelConfig(
        d_model=512,
        num_heads=8,
        d_ff=2048,
        num_encoder_layers=8,
        num_decoder_layers=8,
        num_arrangers=21,
    )


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 2000
    batch_size: int = 32
    learning_rate: float = 0.001
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or not 0 < self.learning_rate < math.inf:
            raise ValidationError(
                "epochs, batch_size and learning_rate must be positive and finite"
            )
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")


# The layer table: each stack's sublayers in order, as (kind, weight
# suffixes). Every sublayer is pre-norm residual, x + f(norm(x)); its
# gain is ln1, ln2, ... in this order.
_LAYOUT = {
    "enc": (("self", ("q", "k", "v", "o")), ("ffn", ("ff1", "ff2"))),
    "dec": (
        ("self", ("sq", "sk", "sv", "so")),
        ("cross", ("cq", "ck", "cv", "co")),
        ("ffn", ("ff1", "ff2")),
    ),
}

# Initial scales that are constants, not a normal's standard deviation;
# a bare 1.0 would not do, since arranger_emb draws with std 1.
ONES = ("fill", 1.0)
ZEROS = ("fill", 0.0)


def stack_layers(stack, config):
    """The layers of a stack ("enc" or "dec"), each a list of its
    sublayers in forward order as (norm gain, weight names, kind)."""
    count = config.num_encoder_layers if stack == "enc" else config.num_decoder_layers
    return [
        [
            (f"{stack}{i}_ln{j}", tuple(f"{stack}{i}_{w}" for w in weights), kind)
            for j, (kind, weights) in enumerate(_LAYOUT[stack], start=1)
        ]
        for i in range(count)
    ]


def tensor_table(config: ModelConfig):
    """(name, shape, initial scale) of every learnable tensor, in
    declaration order. The scale is a normal's standard deviation, ONES
    (norm gains) or ZEROS (relative biases)."""
    d, ff, h = config.d_model, config.d_ff, config.num_heads
    attention = [((d, d), d**-0.5)] * 4
    ffn = [((d, ff), d**-0.5), ((ff, d), ff**-0.5)]
    sizes = {"self": attention, "cross": attention, "ffn": ffn}
    table = [
        ("input_proj", (N_MELS, d), N_MELS**-0.5),
        ("arranger_emb", (config.num_arrangers, d), 1.0),
        # With the tied d_model**-0.5 scaled head, initial logits have std
        # about 0.2: the loss starts within hundredths of ln(VOCAB_SIZE).
        ("token_emb", (VOCAB_SIZE, d), 0.2),
        ("enc_rel_bias", (REL_BUCKETS, h), ZEROS),
        ("dec_rel_bias", (REL_BUCKETS, h), ZEROS),
    ]
    for stack in _LAYOUT:
        for layer in stack_layers(stack, config):
            for gain, weights, kind in layer:
                table.append((gain, (d,), ONES))
                table += [(name, *size) for name, size in zip(weights, sizes[kind])]
        table.append((stack + "_ln_final", (d,), ONES))
    return table


def count_params(config: ModelConfig) -> int:
    """Exact learnable-parameter total for a configuration."""
    return sum(math.prod(shape) for _, shape, _ in tensor_table(config))
