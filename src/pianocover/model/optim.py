"""Adafactor, the one optimizer of the numpy transformer (the T5 recipe).

It keeps factored second-moment statistics for matrices (one
row vector and one column vector instead of a full matrix), uses the
step-dependent decay beta2(t) = 1 - t**-0.8, and clips each update to
unit root-mean-square. Learning rates are fixed, not scheduled.
"""

from __future__ import annotations

import numpy as np

_EPS_FACTORED = 1e-30
_CLIP_RMS = 1.0


def _mean(x, axis):
    # np.add.reduce skips np.mean's Python wrapper and gives the same bits.
    return np.add.reduce(x, axis=axis) / x.shape[axis]


def _rms(x):
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
                state["row"] = beta2 * state["row"] + (1.0 - beta2) * _mean(sq, 1)
                state["col"] = beta2 * state["col"] + (1.0 - beta2) * _mean(sq, 0)
                r = state["row"] / _mean(state["row"], 0)
                update = g * (r**-0.5)[:, None] * (state["col"] ** -0.5)[None, :]
            else:
                state["full"] = beta2 * state["full"] + (1.0 - beta2) * sq
                update = g / np.sqrt(state["full"])
            update /= max(1.0, _rms(update) / _CLIP_RMS)
            w -= self.learning_rate * update
