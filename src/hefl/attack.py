"""Gradient-inversion attack against the plaintext-visible update share.

The attacker model: an honest-but-curious server sees, for one client,
the sparse plaintext coordinates of a single-batch gradient (everything
the selection mask left unencrypted) plus the broadcast model weights.
It never sees ciphertext contents, so the attack interface deliberately
accepts only the visible view; encrypted chunks cannot influence it.

Reconstruction follows the deep-leakage recipe: start from a random
image, descend on the squared distance between the visible coordinates
of the true gradient and the gradient the candidate image produces.
The descent direction is obtained by central finite differences over
pixels, which sidesteps second-order backprop: each step runs all
2 * n_pixels perturbed images through the model as one batch and reads
every probe's objective off its per-example error terms.  Labels are
inferred with the negative-row-mean rule on the final-layer weight
gradient when that slab is fully visible.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericError, ParseError, UsageError
from .model import forward_backward
from .model.nets import Architecture, ModelState, example_terms

ATTACK_STREAM = 0x61746B

# Adam on the pixels, driven by central differences of width FD_STEP
LR = 0.1
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
FD_STEP = 1e-3
STOP_OBJECTIVE = 1e-12   # a restart ends once its objective falls below it
SUCCESS_RATIO = 0.1      # success when MSE < ratio * Var(target)


@dataclass(frozen=True)
class AttackConfig:
    iterations: int = 300
    restarts: int = 5

    def __post_init__(self) -> None:
        if self.iterations < 1 or self.restarts < 1:
            raise UsageError("iterations and restarts must be at least 1, "
                             f"got {self.iterations} and {self.restarts}")


@dataclass(frozen=True)
class VisibleUpdate:
    """The plaintext-visible slice of one client's update."""
    indices: np.ndarray          # sorted int64 coordinates
    values: np.ndarray           # float64, aligned with indices
    total: int

    @property
    def count(self) -> int:
        return int(self.indices.size)


def visible_view(update, mask) -> VisibleUpdate:
    """The attacker-visible part of a protocol ClientUpdate.

    The plaintext share carries values only; the shared round mask
    supplies their coordinates (its complement).
    """
    return VisibleUpdate(mask.complement(), update.plaintext_sparse,
                         mask.total)


@dataclass
class AttackResult:
    reconstruction: np.ndarray
    target: np.ndarray
    input_mse: float
    baseline_mse: float          # MSE of the chosen restart's starting point
    psnr_db: float
    success: bool
    label_true: int
    label_inferred: int | None
    label_used: int
    objective: float
    visible_count: int
    visible_total: int


def infer_label(visible: VisibleUpdate, arch: Architecture) -> int | None:
    """Negative-row-mean rule on the final-layer weight gradient.

    With cross-entropy and non-negative last-layer inputs, the gradient
    row of the true class is the only one with negative mean.  Abstains
    (None) unless every coordinate of that weight slab is visible or
    the sign pattern is ambiguous.
    """
    if visible.count == 0:
        return None
    slot = arch.slots["out.weight"]
    span = np.arange(slot.start, slot.end, dtype=np.int64)
    pos = np.searchsorted(visible.indices, span)
    covered = (pos < visible.count) & (
        visible.indices[np.minimum(pos, visible.count - 1)] == span)
    if not covered.all():
        return None
    grad = visible.values[pos].reshape(slot.shape)
    row_means = grad.mean(axis=1)
    negative = np.flatnonzero(row_means < 0)
    if negative.size != 1:
        return None
    return int(negative[0])


def gradient_objective(model: ModelState, x: np.ndarray, label: int,
                       visible: VisibleUpdate) -> float:
    """Sum of squared gaps on the visible gradient coordinates."""
    y = np.array([label], dtype=np.int64)
    _, grad = forward_backward(model, x[None], y)
    gap = grad[visible.indices] - visible.values
    return float(np.dot(gap, gap))


def _probe_objectives(model: ModelState, xs: np.ndarray, label: int,
                      visible: VisibleUpdate) -> np.ndarray:
    """`gradient_objective` of every row of xs, in one batched pass.

    Works from each row's uncontracted error terms, so no per-example
    weight gradient is built.  With M the visibility mask and V the
    visible values (zero off the mask) of a weight slab whose
    per-example gradient is the outer product of delta and a, the
    squared gap is
    rowsum((delta^2 @ M) * a^2) - 2 rowsum((delta @ V) * a) + |V|^2.
    A bias slab's per-example gradient is delta itself.
    """
    seen = np.zeros(visible.total)
    seen[visible.indices] = 1.0
    want = np.zeros(visible.total)
    want[visible.indices] = visible.values
    y = np.full(len(xs), label, dtype=np.int64)
    out = np.zeros(len(xs))
    for slot, delta, a in example_terms(model, xs, y):
        m = seen[slot.start:slot.end]
        v = want[slot.start:slot.end]
        if a is None:                                # bias slab
            gap = delta - v
            out += (gap * gap) @ m
        else:                                        # outer-product slab
            m = m.reshape(slot.shape)
            v = v.reshape(slot.shape)
            out += np.einsum("bj,bj->b", (delta * delta) @ m, a * a)
            out -= 2.0 * np.einsum("bj,bj->b", delta @ v, a)
            out += np.dot(v.ravel(), v.ravel())
    return out


def _fd_gradient(model: ModelState, x: np.ndarray, label: int,
                 visible: VisibleUpdate, h: float) -> np.ndarray:
    """Central differences of the objective over pixels: all 2n
    perturbed inputs go through the model as one batch."""
    flat = x.reshape(-1)
    step = np.diag(np.full(flat.size, h))
    probes = np.concatenate([flat + step, flat - step])
    obj = _probe_objectives(model, probes, label, visible)
    return ((obj[:flat.size] - obj[flat.size:]) / (2.0 * h)).reshape(x.shape)


def reconstruct(model: ModelState, visible: VisibleUpdate, label: int,
                cfg: AttackConfig, seed: int,
                ) -> tuple[np.ndarray, float, np.ndarray]:
    """Adam descent on the gradient-matching objective.

    Returns (best reconstruction, its objective, its starting image).
    An empty visible view carries no signal: the objective is constant,
    so the first restart's starting image is returned unchanged.
    """
    rng = np.random.default_rng(np.random.SeedSequence((ATTACK_STREAM, seed)))
    size = model.arch.input_size
    best_x = best_init = None
    best_obj = math.inf
    for _ in range(cfg.restarts):
        init = rng.uniform(0.0, 1.0, size=size)
        x = init.copy()
        m = np.zeros_like(x)
        v = np.zeros_like(x)
        for t in range(1, cfg.iterations + 1):
            g = _fd_gradient(model, x, label, visible, FD_STEP)
            m = BETA1 * m + (1.0 - BETA1) * g
            v = BETA2 * v + (1.0 - BETA2) * g * g
            m_hat = m / (1.0 - BETA1 ** t)
            v_hat = v / (1.0 - BETA2 ** t)
            x = x - LR * m_hat / (np.sqrt(v_hat) + EPS)
            np.clip(x, 0.0, 1.0, out=x)
            obj = gradient_objective(model, x, label, visible)
            if obj < STOP_OBJECTIVE:
                break
        if obj < best_obj:
            best_x, best_obj, best_init = x, obj, init
        if best_obj < STOP_OBJECTIVE:
            break
    return best_x, best_obj, best_init


def attack_example(model: ModelState, visible: VisibleUpdate,
                   target_x: np.ndarray, target_y: int,
                   cfg: AttackConfig | None = None, seed: int = 0,
                   ) -> AttackResult:
    """Run one reconstruction and score it against the ground truth.

    Uses the inferred label when the inference rule fires, otherwise
    falls back to the true label (an upper bound on attacker power;
    the result records which one was used).
    """
    cfg = cfg or AttackConfig()
    target_x = np.asarray(target_x, dtype=np.float64).reshape(-1)
    if target_x.size != model.arch.input_size:
        raise UsageError(
            f"target has {target_x.size} values, the model input wants "
            f"{model.arch.input_size}")
    inferred = infer_label(visible, model.arch)
    label = inferred if inferred is not None else int(target_y)
    x_hat, objective, init = reconstruct(model, visible, label, cfg, seed)
    mse = float(np.mean((x_hat - target_x) ** 2))
    baseline = float(np.mean((init - target_x) ** 2))
    threshold = SUCCESS_RATIO * float(np.var(target_x))
    psnr = 10.0 * math.log10(1.0 / mse) if mse > 0 else math.inf
    return AttackResult(x_hat, target_x, mse, baseline, psnr,
                        mse < threshold, int(target_y), inferred, label,
                        objective, visible.count, visible.total)


# ---- capture files ---------------------------------------------------------


def load_capture(path: str | Path) -> dict:
    """Read a single-step capture written by the training protocol.

    Only the plaintext-visible fields are surfaced; encrypted chunks in
    the file are ignored by design.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ParseError(f"cannot read capture {path}: {exc}", 0) from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"capture {path} is not valid JSON: {exc}",
                         0) from None
    try:
        arch = Architecture(raw["arch"]["name"],
                            tuple(raw["arch"]["input_shape"]),
                            raw["arch"]["n_classes"])
        flat = np.frombuffer(
            base64.b64decode(raw["model_flat"]), dtype="<f8").copy()
        model = ModelState(arch, flat)
        total = raw["mask"]["total"]
        meta = {"round": raw["round"], "client_id": raw["client_id"],
                "encryption_ratio": raw["mask"]["ratio"]}
        for name, value in (("mask total", total), ("round", meta["round"]),
                            ("client_id", meta["client_id"])):
            if type(value) is not int or value < 0:  # not a bool or float
                raise ParseError(f"capture {path}: {name} {value!r} is not "
                                 "an integer >= 0", 0)
        ratio = meta["encryption_ratio"]
        if type(ratio) not in (int, float) or not 0 <= ratio <= 1:
            raise ParseError(f"capture {path}: mask ratio {ratio!r} is not "
                             "a number in [0, 1]", 0)
        visible = VisibleUpdate(
            np.asarray(raw["visible"]["indices"], dtype=np.int64),
            np.asarray(raw["visible"]["values"], dtype=np.float64), total)
        x = np.asarray(raw["example"]["x"], dtype=np.float64)
        y = np.asarray(raw["example"]["y"], dtype=np.int64)
    # UsageError: the architecture rejected its name, shape or classes
    except (KeyError, TypeError, ValueError, UsageError) as exc:
        raise ParseError(f"capture {path} is malformed: {exc}", 0) from None
    size = arch.layout[-1].end
    idx = visible.indices
    if idx.ndim != 1 or np.any(np.diff(idx) <= 0) or (
            idx.size and not (0 <= idx[0] and idx[-1] < visible.total)):
        raise ParseError(f"capture {path}: visible indices are not strictly "
                         f"increasing inside [0, {visible.total})", 0)
    if visible.values.shape != idx.shape:
        raise ParseError(f"capture {path}: {visible.values.size} visible "
                         f"values for {idx.size} indices", 0)
    if visible.total != size or model.size != size:
        raise ParseError(f"capture {path}: mask total {visible.total} and "
                         f"{model.size} model weights, the architecture has "
                         f"{size} parameters", 0)
    if x.ndim < 2 or x.shape[0] != 1 or x[0].size != arch.input_size:
        raise UsageError(
            "attack captures must hold exactly one example "
            f"(got batch shape {x.shape}); rerun with batch_size 1")
    if y.shape != (1,) or not 0 <= y[0] < arch.n_classes:
        raise ParseError(f"capture {path}: the example needs one label in "
                         f"[0, {arch.n_classes}), got {y.tolist()}", 0)
    for name, values in (("example.x", x), ("visible.values", visible.values)):
        if not np.isfinite(values).all():
            raise NumericError(f"capture {path}: non-finite values in {name}")
    return {"model": model, "visible": visible, "x": x[0].reshape(-1),
            "y": int(y[0]), **meta}


def write_pgm(path: str | Path, image: np.ndarray) -> None:
    """Dump a [0, 1] grayscale image as binary PGM."""
    if image.ndim != 2:
        raise UsageError(f"PGM wants a 2-d image, got shape {image.shape}")
    pixels = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    header = f"P5\n{image.shape[1]} {image.shape[0]}\n255\n".encode()
    Path(path).write_bytes(header + pixels.tobytes())
