"""Optimizers for the numpy transformer: Adafactor and Adam.

Adafactor keeps factored second-moment statistics for matrices (one
row vector and one column vector instead of a full matrix), uses the
step-dependent decay beta2(t) = 1 - t**-0.8, and clips each update to
unit root-mean-square. Learning rates are fixed, not scheduled.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from .config import OptimizerKind, TrainConfig

_EPS_FACTORED = 1e-30
_CLIP_RMS = 1.0


def _rms(x):
    # np.add.reduce skips np.mean's Python wrapper and gives the same bits.
    return float(np.sqrt(np.add.reduce(x * x, axis=None) / x.size))


class Adafactor:
    def __init__(self, params, learning_rate: float = 0.001):
        self.learning_rate = learning_rate
        self.step = 0
        self._state = {}
        for name, value in params.items():
            if value.ndim == 2:
                self._state[name] = {
                    "row": np.zeros(value.shape[0], dtype=value.dtype),
                    "col": np.zeros(value.shape[1], dtype=value.dtype),
                }
            else:
                self._state[name] = {"full": np.zeros_like(value)}

    def update(self, params, grads) -> None:
        self.step += 1
        beta2 = 1.0 - self.step**-0.8
        for name, w in params.items():
            g = grads[name]
            sq = g * g + _EPS_FACTORED
            state = self._state[name]
            if "row" in state:
                state["row"] = beta2 * state["row"] + (1.0 - beta2) * sq.mean(axis=1)
                state["col"] = beta2 * state["col"] + (1.0 - beta2) * sq.mean(axis=0)
                r = state["row"] / state["row"].mean()
                update = g * (r**-0.5)[:, None] * (state["col"] ** -0.5)[None, :]
            else:
                state["full"] = beta2 * state["full"] + (1.0 - beta2) * sq
                update = g / np.sqrt(state["full"])
            update /= max(1.0, _rms(update) / _CLIP_RMS)
            w -= self.learning_rate * update


class Adam:
    def __init__(self, params, learning_rate: float = 0.001,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step = 0
        self._m = {k: np.zeros_like(v) for k, v in params.items()}
        self._v = {k: np.zeros_like(v) for k, v in params.items()}

    def update(self, params, grads) -> None:
        self.step += 1
        b1c = 1.0 - self.beta1**self.step
        b2c = 1.0 - self.beta2**self.step
        for name, w in params.items():
            g = grads[name]
            m = self._m[name]
            v = self._v[name]
            m += (1.0 - self.beta1) * (g - m)
            v += (1.0 - self.beta2) * (g * g - v)
            w -= self.learning_rate * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


def make_optimizer(params, train_config: TrainConfig):
    if train_config.optimizer is OptimizerKind.ADAFACTOR:
        return Adafactor(params, train_config.learning_rate)
    if train_config.optimizer is OptimizerKind.ADAM:
        return Adam(params, train_config.learning_rate)
    raise ParameterError(f"unknown optimizer {train_config.optimizer!r}")
