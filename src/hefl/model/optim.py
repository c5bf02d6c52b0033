"""Classic SGD with momentum, L2 weight decay and a step LR schedule.

Update rule per step:

    v <- mu * v + (g + lambda * w)
    w <- w - lr * v

The LR is recomputed from the epoch counter (lr = base * gamma^(epoch //
step)), so restoring the counter after a resume restores the schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import UsageError
from .nets import ModelState


@dataclass
class SgdState:
    base_lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 4e-4
    step_size: int = 10
    gamma: float = 0.1
    epoch: int = 0
    velocity: np.ndarray | None = None

    @property
    def lr(self) -> float:
        return self.base_lr * self.gamma ** (self.epoch // self.step_size)


def sgd_step(model: ModelState, grad: np.ndarray, state: SgdState) -> ModelState:
    if grad.shape != model.flat.shape:
        raise UsageError("gradient does not match the parameter layout")
    if state.velocity is None:
        state.velocity = np.zeros_like(model.flat)
    state.velocity = (state.momentum * state.velocity
                      + grad + state.weight_decay * model.flat)
    return ModelState(model.arch, model.flat - state.lr * state.velocity)
