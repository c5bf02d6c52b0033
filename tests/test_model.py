"""Model engine: shapes, gradients, optimizer algebra, data pipeline."""

import numpy as np
import pytest

from hefl.errors import NumericError, ParseError, UsageError
from hefl.model import (Architecture, SgdState, build_model, evaluate,
                        forward_backward, forward_logits,
                        load_cifar10_batches, make_toy_dataset,
                        partition_iid, sgd_step)
from hefl.model.nets import ModelState, _sigmoid
from hefl.model.optim import MOMENTUM, WEIGHT_DECAY


def numeric_gradient(model, x, y, eps=1e-6):
    base = model.flat.copy()
    out = np.empty_like(base)
    for i in range(base.size):
        for sign, slot in ((+1, 0), (-1, 1)):
            probe = ModelState(model.arch, base.copy())
            probe.flat[i] += sign * eps
            val, _ = forward_backward(probe, x, y)
            out[i] = val if slot == 0 else (out[i] - val) / (2 * eps)
    return out


def test_mlp2_parameter_count():
    arch = Architecture("mlp2", (8, 8), 10)
    model = build_model(arch, 0)
    # 64*64+64 + 64*32+32 + 32*10+10
    assert model.size == 6570
    assert arch.layout[-1].end == 6570


@pytest.mark.parametrize("name,shape,loss", [
    ("mlp2", (8, 8), "ce"),
    ("linear", (16,), "ce"),
], ids=["mlp2-shape0-ce", "linear-shape2-ce"])  # stable ids across removals
def test_gradcheck_finite_differences(name, shape, loss, rng):
    arch = Architecture(name, shape, 4)
    model = build_model(arch, 3)
    x = rng.uniform(0, 1, (3, arch.input_size))
    y = np.array([0, 2, 1])
    _, grad = forward_backward(model, x, y)
    num = numeric_gradient(model, x, y)
    denom = max(float(np.max(np.abs(num))), 1e-8)
    assert float(np.max(np.abs(grad - num))) / denom < 1e-4


@pytest.mark.parametrize("name,shape,n_classes,message", [
    ("resnet", (8, 8), 10, "unknown architecture"),
    ("conv-s", (8, 8), 10, "unknown architecture"),
    ("mlp2", (8, 8), 1, "two classes"),
    ("mlp2", (8.0, 8), 10, "positive integers"),
    ("mlp2", (0, 8), 10, "positive integers"),
    ("mlp2", (8, 8), 10.0, "two classes"),
], ids=["unknown", "conv-s", "one-class", "float-side", "zero-side",
        "float-classes"])
def test_architecture_rejects_at_construction(name, shape, n_classes,
                                              message):
    with pytest.raises(UsageError, match=message):
        Architecture(name, shape, n_classes)


def test_linear_softmax_closed_form(rng):
    arch = Architecture("linear", (6,), 3)
    model = build_model(arch, 1)
    x = rng.uniform(-1, 1, (5, 6))
    y = np.array([0, 1, 2, 0, 1])
    _, grad = forward_backward(model, x, y)
    logits = forward_logits(model, x)
    z = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    p[np.arange(5), y] -= 1.0
    slabs = arch.slots
    gw = grad[slabs["out.weight"].start:slabs["out.weight"].end].reshape(3, 6)
    gb = grad[slabs["out.bias"].start:slabs["out.bias"].end]
    assert np.allclose(gw, (p.T @ x) / 5, atol=1e-12)
    assert np.allclose(gb, p.mean(axis=0), atol=1e-12)


def test_nonfinite_gradient_names_first_bad_slab(rng):
    # an infinite pixel saturates fc1 to exactly 0 or 1, so the logits stay
    # finite while fc1's weight gradient multiplies a zero delta by inf
    arch = Architecture("mlp2", (4, 4), 3)
    model = build_model(arch, 2)
    x = rng.uniform(0, 1, (2, arch.input_size))
    x[1, 5] = np.inf
    assert np.isfinite(forward_logits(model, x)).all()
    with np.errstate(invalid="ignore"), \
            pytest.raises(NumericError, match="layer 'fc1.weight'"):
        forward_backward(model, x, np.array([0, 2]))


def test_sigmoid_exact_at_extremes():
    z = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308])
    with np.errstate(over="raise"):
        out = _sigmoid(z)
    assert out[:4].tolist() == [0.5, 0.5, 1.0, 0.0]
    assert np.isnan(out[4])
    assert out[5:].tolist() == [1.0, 0.0]


def test_sgd_matches_hand_unrolled_recurrence(rng):
    arch = Architecture("linear", (4,), 2)
    model = build_model(arch, 0)
    opt = SgdState(base_lr=0.1)
    w = model.flat.copy()
    v = np.zeros_like(w)
    for step in range(5):
        g = rng.normal(size=w.size)
        model = sgd_step(model, g, opt)
        v = MOMENTUM * v + (g + WEIGHT_DECAY * w)
        w = w - 0.1 * v
        assert np.allclose(model.flat, w, atol=1e-15)


def test_step_lr_schedule_values():
    opt = SgdState(base_lr=0.01)
    lrs = []
    for _ in range(25):
        lrs.append(opt.lr)
        opt.epoch += 1
    assert lrs[0] == lrs[9] == pytest.approx(0.01)
    assert lrs[10] == lrs[19] == pytest.approx(0.001)
    assert lrs[20] == pytest.approx(0.0001)


def test_toy_dataset_deterministic_and_split_disjoint():
    a = make_toy_dataset(128, 7, split=0)
    b = make_toy_dataset(128, 7, split=0)
    t = make_toy_dataset(128, 7, split=1)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    # same class templates, fresh noise: inputs differ, task is shared
    assert not np.array_equal(a.x, t.x)
    assert a.x.min() >= 0.0 and a.x.max() <= 1.0


def test_toy_dataset_is_learnable():
    train = make_toy_dataset(512, 9, split=0)
    test = make_toy_dataset(128, 9, split=1)
    arch = Architecture("mlp2", train.input_shape, train.n_classes)
    model = build_model(arch, 9)
    opt = SgdState(base_lr=0.05)
    for epoch in range(20):
        order = np.random.default_rng(epoch).permutation(len(train))
        for s in range(0, len(train), 16):
            sel = order[s:s + 16]
            _, g = forward_backward(model, train.x[sel], train.y[sel])
            model = sgd_step(model, g, opt)
    acc, _ = evaluate(model, test.x, test.y)
    assert acc > 0.9


def test_partition_iid_sizes_and_coverage():
    ds = make_toy_dataset(100, 3)
    shards = partition_iid(ds, 3, 0)
    sizes = sorted(len(s) for s in shards)
    assert sum(sizes) == 100 and max(sizes) - min(sizes) <= 1
    seen = np.concatenate([s.x for s in shards])
    assert seen.shape[0] == 100
    again = partition_iid(ds, 3, 0)
    assert all(np.array_equal(a.x, b.x) for a, b in zip(shards, again))


def test_cifar_parser_rejects_bad_label(tmp_path):
    record = bytes([17]) + bytes(3072)   # labels are 0..9
    p = tmp_path / "bad.bin"
    p.write_bytes(record)
    with pytest.raises(ParseError) as err:
        load_cifar10_batches([p])
    assert err.value.offset == 0


def test_cifar_parser_rejects_short_file(tmp_path):
    p = tmp_path / "short.bin"
    p.write_bytes(bytes(3072))           # one byte short of a record
    with pytest.raises(ParseError):
        load_cifar10_batches([p])


def test_cifar_parser_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, (2, 3072), dtype=np.uint8)
    raw = b"".join(bytes([c]) + pixels[c].tobytes() for c in range(2))
    p = tmp_path / "batch.bin"
    p.write_bytes(raw)
    ds = load_cifar10_batches([p])
    assert len(ds) == 2
    assert ds.y.tolist() == [0, 1]
    assert np.allclose(ds.x[0], pixels[0] / 255.0)
