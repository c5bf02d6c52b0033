"""Datasets: the synthetic toy-vision task, IID partitioning, and an
optional loader for CIFAR-10 binary batch files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import ParseError, UsageError

TOY_STREAM = 0x746F79

_CIFAR_RECORD = 3073  # 1 label byte + 3 * 32 * 32 pixels
_TEMPLATE_COARSE = 4
_TOY_NOISE = 0.12  # pixelwise Gaussian std added to the class templates


@dataclass
class Dataset:
    """Flat float features in [0, 1] with integer class labels."""

    x: np.ndarray                 # (n, d) float64
    y: np.ndarray                 # (n,) int64
    n_classes: int
    input_shape: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.x)


def _bilinear_upsample(coarse: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    ch, cw = coarse.shape
    ys = np.linspace(0, ch - 1, out_h)
    xs = np.linspace(0, cw - 1, out_w)
    y0 = np.clip(np.floor(ys).astype(int), 0, ch - 2)
    x0 = np.clip(np.floor(xs).astype(int), 0, cw - 2)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    tl = coarse[np.ix_(y0, x0)]
    tr = coarse[np.ix_(y0, x0 + 1)]
    bl = coarse[np.ix_(y0 + 1, x0)]
    br = coarse[np.ix_(y0 + 1, x0 + 1)]
    top = tl * (1 - wx) + tr * wx
    bot = bl * (1 - wx) + br * wx
    return top * (1 - wy) + bot * wy


def class_templates(seed: int, n_classes: int = 10,
                    shape: tuple[int, int] = (8, 8)) -> np.ndarray:
    """Smooth per-class base images: coarse random grids upsampled."""
    rng = np.random.default_rng(np.random.SeedSequence((TOY_STREAM, seed, 0)))
    out = np.empty((n_classes, *shape))
    for c in range(n_classes):
        coarse = rng.uniform(0, 1, (_TEMPLATE_COARSE, _TEMPLATE_COARSE))
        out[c] = _bilinear_upsample(coarse, *shape)
    return out


def make_toy_dataset(n: int, seed: int, n_classes: int = 10,
                     shape: tuple[int, int] = (8, 8),
                     split: int = 0) -> Dataset:
    """Templates plus pixelwise Gaussian noise, clipped back to [0, 1].

    The templates depend on the seed only, so different `split` values
    (train vs held-out) sample fresh noise from the same task.
    """
    if n <= 0:
        raise UsageError("dataset size must be positive")
    templates = class_templates(seed, n_classes, shape)
    rng = np.random.default_rng(
        np.random.SeedSequence((TOY_STREAM, seed, 1, split)))
    y = rng.integers(0, n_classes, size=n)
    x = templates[y] + rng.normal(0.0, _TOY_NOISE, size=(n, *shape))
    np.clip(x, 0.0, 1.0, out=x)
    return Dataset(x.reshape(n, -1), y.astype(np.int64), n_classes, shape)


def partition_iid(ds: Dataset, n_clients: int, seed: int) -> list[Dataset]:
    """Shuffled contiguous shards; sizes differ by at most one sample."""
    if n_clients < 1 or n_clients > len(ds):
        raise UsageError(f"cannot split {len(ds)} samples into {n_clients} shards")
    rng = np.random.default_rng(np.random.SeedSequence((TOY_STREAM, seed, 2)))
    order = rng.permutation(len(ds))
    return [Dataset(ds.x[part], ds.y[part], ds.n_classes, ds.input_shape)
            for part in np.array_split(order, n_clients)]


def load_cifar10_batches(paths: list[str | Path]) -> Dataset:
    """CIFAR-10 binary format: 3073-byte records, label byte then pixels."""
    if not paths:
        raise UsageError("no batch files given")
    xs, ys = [], []
    for path in paths:
        raw = Path(path).read_bytes()
        if len(raw) == 0 or len(raw) % _CIFAR_RECORD:
            raise ParseError(
                f"{path}: size {len(raw)} is not a multiple of {_CIFAR_RECORD}",
                offset=len(raw) - len(raw) % _CIFAR_RECORD)
        records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, _CIFAR_RECORD)
        labels = records[:, 0]
        if labels.max(initial=0) > 9:
            bad = int(np.argmax(labels > 9))
            raise ParseError(f"{path}: label {labels[bad]} out of range",
                             offset=bad * _CIFAR_RECORD)
        xs.append(records[:, 1:].astype(np.float64) / 255.0)
        ys.append(labels.astype(np.int64))
    return Dataset(np.concatenate(xs), np.concatenate(ys), 10, (3, 32, 32))
