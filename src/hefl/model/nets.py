"""Small reference networks with hand-written forward/backward passes.

Every architecture is one dense stack: sigmoid hidden layers
`fc1..fck`, then a linear head `out`.

    mlp2    hidden widths (64, 32)
    linear  the head alone (used by closed-form gradient oracles)

Parameters live in one flat float64 vector; `Architecture.layout` maps layer
names to slices so gradients, checkpoints and selection masks all share
the same indexing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import NumericError, UsageError

INIT_STREAM = 0x696E6974

# each architecture's hidden widths; the keys are the registered names
HIDDEN_WIDTHS = {"mlp2": (64, 32), "linear": ()}
_EVAL_BATCH = 256


@dataclass(frozen=True)
class LayerSlot:
    name: str
    shape: tuple[int, ...]
    start: int
    end: int


@dataclass(frozen=True)
class Architecture:
    name: str
    input_shape: tuple[int, ...]
    n_classes: int

    def __post_init__(self) -> None:
        if self.name not in HIDDEN_WIDTHS:
            raise UsageError(f"unknown architecture {self.name!r}")
        # type() is int also rejects bools and integral floats like 8.0
        if not all(type(side) is int and side >= 1
                   for side in self.input_shape):
            raise UsageError("input sides must be positive integers, got "
                             f"{list(self.input_shape)}")
        if type(self.n_classes) is not int or self.n_classes < 2:
            raise UsageError("need an integer of at least two classes, "
                             f"got {self.n_classes!r}")

    @cached_property
    def input_size(self) -> int:
        return int(math.prod(self.input_shape))

    @cached_property
    def dense(self) -> tuple[str, ...]:
        """Dense layer names, input side first: fc1..fck, then out."""
        hidden = len(HIDDEN_WIDTHS[self.name])
        return (*(f"fc{i}" for i in range(1, hidden + 1)), "out")

    @cached_property
    def layout(self) -> tuple[LayerSlot, ...]:
        """Parameter slots in flat-vector order, weight before bias."""
        shapes = []
        width = self.input_size
        widths = (*HIDDEN_WIDTHS[self.name], self.n_classes)
        for name, fan_out in zip(self.dense, widths):
            shapes += [(f"{name}.weight", (fan_out, width)),
                       (f"{name}.bias", (fan_out,))]
            width = fan_out
        slots = []
        pos = 0
        for name, shape in shapes:
            size = math.prod(shape)
            slots.append(LayerSlot(name, shape, pos, pos + size))
            pos += size
        return tuple(slots)

    @cached_property
    def slots(self) -> dict[str, LayerSlot]:
        return {s.name: s for s in self.layout}


@dataclass
class ModelState:
    arch: Architecture
    flat: np.ndarray

    def view(self, slot: LayerSlot) -> np.ndarray:
        return self.flat[slot.start:slot.end].reshape(slot.shape)

    @property
    def size(self) -> int:
        return self.flat.size


def build_model(arch: Architecture, seed: int) -> ModelState:
    """Uniform +-1/sqrt(fan_in) init per layer, weight then bias order."""
    rng = np.random.default_rng(np.random.SeedSequence((INIT_STREAM, seed)))
    flat = np.empty(arch.layout[-1].end, dtype=np.float64)
    model = ModelState(arch, flat)
    for slot in arch.layout:
        if slot.name.endswith(".weight"):
            fan_in = math.prod(slot.shape[1:])
            bound = 1.0 / math.sqrt(fan_in)
        # bias reuses its weight's fan-in bound, drawn right after it
        flat[slot.start:slot.end] = rng.uniform(-bound, bound,
                                                slot.end - slot.start)
    return model


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp of a non-positive argument cannot overflow on either side
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _cross_entropy(probs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Each example's cross-entropy, from its softmax probabilities."""
    return -np.log(np.maximum(probs[np.arange(len(probs)), y], 1e-300))


def _check_finite(name: str, a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise NumericError(f"non-finite values in layer {name!r}")


def _forward(model: ModelState, x: np.ndarray) -> dict:
    """Logits plus what the backward pass reads: each dense layer's input."""
    arch = model.arch
    layout = arch.slots
    acts: dict = {"inputs": []}
    a = x
    for name in arch.dense:
        acts["inputs"].append(a)
        a = (a @ model.view(layout[f"{name}.weight"]).T
             + model.view(layout[f"{name}.bias"]))
        if name != "out":
            a = _sigmoid(a)
    acts["logits"] = a
    return acts


def forward_logits(model: ModelState, x: np.ndarray) -> np.ndarray:
    return _forward(model, np.asarray(x, dtype=np.float64))["logits"]


def _softmax_terms(model: ModelState, x: np.ndarray, y: np.ndarray,
                   ) -> tuple[dict, np.ndarray, np.ndarray]:
    """Forward pass, softmax probabilities and each example's
    cross-entropy gradient w.r.t. its logits (probs minus one-hot)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if x.ndim != 2 or x.shape[1] != model.arch.input_size:
        raise UsageError(f"expected inputs of shape (B, {model.arch.input_size})")
    if len(x) == 0:
        raise UsageError("empty batch")
    acts = _forward(model, x)
    _check_finite("out", acts["logits"])
    probs = _softmax(acts["logits"])
    dlogits = probs.copy()
    dlogits[np.arange(len(x)), y] -= 1.0
    return acts, probs, dlogits


def _backward(model: ModelState, acts: dict, dlogits: np.ndarray,
              ) -> list[tuple[LayerSlot, np.ndarray, np.ndarray | None]]:
    """Per-example error terms of every slab, output layer first.

    A weight slab yields (slot, delta, a): example b's gradient is the
    outer product of delta[b] and a[b].  A bias slab yields
    (slot, delta, None), and example b's gradient is delta[b] itself.
    Nothing is contracted over the batch.
    """
    arch = model.arch
    layout = arch.slots
    out = []
    delta = dlogits
    for i in reversed(range(len(arch.dense))):
        name, a = arch.dense[i], acts["inputs"][i]
        weight = layout[f"{name}.weight"]
        out.append((weight, delta, a))
        out.append((layout[f"{name}.bias"], delta, None))
        if i:  # the layer below is a sigmoid hidden layer
            delta = (delta @ model.view(weight)) * a * (1.0 - a)
    return out


def example_terms(model: ModelState, x: np.ndarray, y: np.ndarray,
                  ) -> list[tuple[LayerSlot, np.ndarray, np.ndarray | None]]:
    """Each example's own batch-1 gradient, as uncontracted error terms.

    Same terms as `forward_backward` contracts, without its 1/B scale,
    so row b describes the gradient of example b alone.
    """
    acts, _, dlogits = _softmax_terms(model, x, y)
    return _backward(model, acts, dlogits)


def forward_backward(model: ModelState, x: np.ndarray,
                     y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy over the batch and its flat gradient."""
    acts, probs, dlogits = _softmax_terms(model, x, y)
    loss_value = float(np.mean(_cross_entropy(probs, y)))
    dlogits /= len(dlogits)

    terms = _backward(model, acts, dlogits)
    grad = np.zeros_like(model.flat)
    for slot, delta, a in terms:
        value = delta.sum(axis=0) if a is None else delta.T @ a
        grad[slot.start:slot.end] = value.reshape(-1)
    if not np.isfinite(grad).all():
        # name the first bad slab in backward order
        for slot, _, _ in terms:
            _check_finite(slot.name, grad[slot.start:slot.end])
    return loss_value, grad


def evaluate(model: ModelState, x: np.ndarray,
             y: np.ndarray) -> tuple[float, float]:
    """(accuracy, mean cross-entropy loss) over a dataset, batched."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if len(x) == 0:
        raise UsageError("cannot evaluate on an empty dataset")
    hits = 0
    loss_sum = 0.0
    for start in range(0, len(x), _EVAL_BATCH):
        xb = x[start:start + _EVAL_BATCH]
        yb = y[start:start + _EVAL_BATCH]
        logits = forward_logits(model, xb)
        loss_sum += float(_cross_entropy(_softmax(logits), yb).sum())
        hits += int((logits.argmax(axis=1) == yb).sum())
    return hits / len(x), loss_sum / len(x)
