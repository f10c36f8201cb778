"""Numpy encoder-decoder transformer: config, network, training, checkpoints."""

from .checkpoint import load_checkpoint, save_checkpoint
from .config import (
    ModelConfig,
    TrainConfig,
    count_params,
    desk_config,
    paper_scale_config,
)
from .network import (
    compute_loss,
    decode_step,
    encode,
    greedy_generate,
    greedy_generate_windows,
    init_params,
    loss_and_grads,
    param_shapes,
    relative_position_bucket,
)
from .optim import Adafactor
from .training import train

__all__ = [
    "Adafactor",
    "ModelConfig",
    "TrainConfig",
    "compute_loss",
    "count_params",
    "decode_step",
    "desk_config",
    "encode",
    "greedy_generate",
    "greedy_generate_windows",
    "init_params",
    "load_checkpoint",
    "loss_and_grads",
    "param_shapes",
    "paper_scale_config",
    "relative_position_bucket",
    "save_checkpoint",
    "train",
]
