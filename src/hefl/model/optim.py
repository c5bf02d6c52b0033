"""Classic SGD with momentum, L2 weight decay and a step LR schedule.

Update rule per step:

    v <- MOMENTUM * v + (g + WEIGHT_DECAY * w)
    w <- w - lr * v

The LR is recomputed from the epoch counter (lr = base * LR_GAMMA^(epoch
// LR_STEP)), so restoring the counter after a resume restores the
schedule.  The protocol passes the round index as the counter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import UsageError
from .nets import ModelState

# The one local-training recipe every run uses.
MOMENTUM = 0.9
WEIGHT_DECAY = 4e-4
LR_STEP = 10
LR_GAMMA = 0.1


@dataclass
class SgdState:
    base_lr: float = 0.01
    epoch: int = 0
    velocity: np.ndarray | None = None

    @property
    def lr(self) -> float:
        return self.base_lr * LR_GAMMA ** (self.epoch // LR_STEP)


def sgd_step(model: ModelState, grad: np.ndarray, state: SgdState) -> ModelState:
    if grad.shape != model.flat.shape:
        raise UsageError("gradient does not match the parameter layout")
    if state.velocity is None:
        state.velocity = np.zeros_like(model.flat)
    state.velocity = (MOMENTUM * state.velocity
                      + grad + WEIGHT_DECAY * model.flat)
    return ModelState(model.arch, model.flat - state.lr * state.velocity)
