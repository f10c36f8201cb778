"""Training loop: seeded shuffling, minibatches, divergence detection.

Everything downstream of the seed is deterministic, so two runs with
the same dataset, configs, and seed produce identical loss histories
and identical final parameters.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from ..errors import DivergenceError, ParameterError
from .config import ModelConfig, TrainConfig
from .network import init_params, loss_and_grads
from .optim import Adafactor

log = logging.getLogger(__name__)


def train(dataset, train_config: TrainConfig, config: ModelConfig, params=None):
    """Optimizes params on (spectrogram, arranger_id, tokens) triples.

    Returns (params, loss_history) with one history entry per
    optimizer step. Raises DivergenceError if the loss goes non-finite,
    carrying the failing step index.
    """
    dataset = list(dataset)
    if not dataset:
        raise ParameterError("empty training dataset")
    if params is None:
        params = init_params(config, seed=train_config.seed)
    rng = np.random.default_rng(train_config.seed)
    optimizer = Adafactor(params, train_config.learning_rate)
    batch = train_config.batch_size
    history = []
    step = 0
    for epoch in range(train_config.epochs):
        order = rng.permutation(len(dataset))
        for lo in range(0, len(dataset), batch):
            examples = [dataset[i] for i in order[lo : lo + batch]]
            loss, grads = loss_and_grads(examples, params, config)
            if not math.isfinite(loss):
                raise DivergenceError(
                    f"non-finite loss at step {step} (epoch {epoch})", step=step
                )
            optimizer.update(params, grads)
            history.append(loss)
            step += 1
        if epoch % max(1, train_config.epochs // 10) == 0:
            log.debug("epoch %d loss %.6f", epoch, history[-1])
    return params, history
