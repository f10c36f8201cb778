"""Numpy encoder-decoder transformer: config, network, training, checkpoints."""

from .checkpoint import load_checkpoint, save_checkpoint
from .config import (
    ModelConfig,
    OptimizerKind,
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
    zero_grads,
)
from .optim import Adafactor, Adam, make_optimizer
from .training import train

__all__ = [
    "Adafactor",
    "Adam",
    "ModelConfig",
    "OptimizerKind",
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
    "make_optimizer",
    "param_shapes",
    "paper_scale_config",
    "relative_position_bucket",
    "save_checkpoint",
    "train",
    "zero_grads",
]
