"""Gradient-inversion attack: objective, label rule, reconstruction limits."""

import base64
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hefl import protocol
from hefl.attack import (AttackConfig, VisibleUpdate, _fd_gradient,
                         attack_example, gradient_objective, infer_label,
                         load_capture, reconstruct, visible_view, write_pgm)
from hefl.errors import ParseError, UsageError
from hefl.model import (Architecture, build_model, forward_backward,
                        make_toy_dataset)

FAST = AttackConfig(iterations=60, restarts=2)


def full_visible(model, x, y):
    """Every gradient coordinate leaked (encryption ratio 0)."""
    _, grad = forward_backward(model, x[None], np.array([y]))
    n = grad.size
    return VisibleUpdate(np.arange(n, dtype=np.int64), grad, n)


@pytest.fixture()
def small_setup():
    arch = Architecture("mlp2", (4, 4), 3)
    model = build_model(arch, 11)
    ds = make_toy_dataset(4, 11, n_classes=3, shape=(4, 4))
    return model, ds.x[0], int(ds.y[0])


def test_objective_zero_at_truth(small_setup):
    model, x, y = small_setup
    vis = full_visible(model, x, y)
    assert gradient_objective(model, x, y, vis) == 0.0
    assert gradient_objective(model, x + 0.05, y, vis) > 0.0
    empty = VisibleUpdate(np.array([], dtype=np.int64), np.array([]), vis.total)
    assert gradient_objective(model, x + 0.05, y, empty) == 0.0


def serial_fd_gradient(model, x, label, visible, h):
    """Reference for `_fd_gradient`: the per-pixel loop, two batch-1
    objective evaluations per pixel."""
    flat = x.reshape(-1)
    out = np.empty(flat.size, dtype=np.float64)
    for j in range(flat.size):
        keep = flat[j]
        flat[j] = keep + h
        hi = gradient_objective(model, x, label, visible)
        flat[j] = keep - h
        lo = gradient_objective(model, x, label, visible)
        flat[j] = keep
        out[j] = (hi - lo) / (2.0 * h)
    return out.reshape(x.shape)


# The batched step expands each squared gap (delta a - V)^2 into three
# sums that cancel, so it may differ from the loop by rounding: here up
# to 2e-9 of the largest component on mlp2 and 3e-12 on linear.
FD_RTOL = 1e-7


@pytest.mark.parametrize("arch_name", ["mlp2", "linear"])
def test_fd_gradient_matches_serial_loop(arch_name):
    arch = Architecture(arch_name, (8, 8), 4)
    model = build_model(arch, 5)
    rng = np.random.default_rng(0xFD)
    target = rng.uniform(0.0, 1.0, arch.input_size)
    full = full_visible(model, target, 2)
    n = full.total
    hidden = arch.layout[0]                  # first weight slab
    views = {
        "full": full.indices,
        "half": np.sort(rng.choice(n, n // 2, replace=False)),
        f"no {hidden.name}": np.setdiff1d(
            full.indices, np.arange(hidden.start, hidden.end)),
        "biases": np.concatenate([
            np.arange(s.start, s.end) for s in arch.layout
            if s.name.endswith(".bias")]),
    }
    x = rng.uniform(0.0, 1.0, arch.input_size)
    for name, idx in views.items():
        vis = VisibleUpdate(idx, full.values[idx], n)
        want = serial_fd_gradient(model, x.copy(), 2, vis, 1e-3)
        got = _fd_gradient(model, x.copy(), 2, vis, 1e-3)
        scale = np.abs(want).max()
        assert scale > 0, name
        assert np.abs(got - want).max() <= FD_RTOL * scale, name

    empty = VisibleUpdate(np.array([], dtype=np.int64), np.array([]), n)
    assert not _fd_gradient(model, x.copy(), 2, empty, 1e-3).any()
    x_hat, objective, init = reconstruct(model, empty, 2, FAST, seed=4)
    assert np.array_equal(x_hat, init) and objective == 0.0


def test_label_inference_full_visibility(small_setup):
    model, x, y = small_setup
    assert infer_label(full_visible(model, x, y), model.arch) == y


def test_label_inference_abstains():
    arch = Architecture("mlp2", (4, 4), 3)
    model = build_model(arch, 2)
    ds = make_toy_dataset(2, 2, n_classes=3, shape=(4, 4))
    vis = full_visible(model, ds.x[0], int(ds.y[0]))

    empty = VisibleUpdate(np.array([], dtype=np.int64), np.array([]), vis.total)
    assert infer_label(empty, arch) is None

    # drop one coordinate of the output weight slab: no longer fully visible
    slab = arch.slots["out.weight"]
    keep = vis.indices != slab.start
    partial = VisibleUpdate(vis.indices[keep], vis.values[keep], vis.total)
    assert infer_label(partial, arch) is None

    # two negative rows: sign pattern ambiguous
    forged = vis.values.copy()
    forged[slab.start:slab.end] = -1.0
    assert infer_label(
        VisibleUpdate(vis.indices, forged, vis.total), arch) is None


def test_reconstruction_recovers_input(small_setup):
    model, x, y = small_setup
    vis = full_visible(model, x, y)
    result = attack_example(model, vis, x, y, FAST, seed=0)
    assert result.label_inferred == y and result.label_used == y
    assert result.input_mse < 0.1 * np.var(x)
    assert result.success
    assert result.input_mse < result.baseline_mse


def test_fully_encrypted_returns_initialization(small_setup):
    model, x, y = small_setup
    empty = VisibleUpdate(np.array([], dtype=np.int64),
                          np.array([]), model.size)
    result = attack_example(model, empty, x, y, FAST, seed=3)
    assert result.input_mse == result.baseline_mse       # exactly the init
    assert result.input_mse / result.baseline_mse == 1.0
    assert not result.success
    assert result.label_inferred is None
    assert result.visible_count == 0


def test_attack_reads_only_the_visible_view(small_setup):
    # the attack signature admits no ciphertext input; identical visible
    # views must produce identical reconstructions regardless of what
    # else the protocol encrypted alongside
    model, x, y = small_setup
    vis = full_visible(model, x, y)
    half = VisibleUpdate(vis.indices[::2], vis.values[::2], vis.total)
    a = attack_example(model, half, x, y, FAST, seed=7)
    b = attack_example(model, half, x, y, FAST, seed=7)
    assert np.array_equal(a.reconstruction, b.reconstruction)
    assert a.objective == b.objective


def test_reconstruct_deterministic_per_seed(small_setup):
    model, x, y = small_setup
    vis = full_visible(model, x, y)
    tiny = AttackConfig(iterations=5, restarts=1)
    xa, oa, ia = reconstruct(model, vis, y, tiny, seed=1)
    xb, ob, ib = reconstruct(model, vis, y, tiny, seed=1)
    xc, _, ic = reconstruct(model, vis, y, tiny, seed=2)
    assert np.array_equal(xa, xb) and oa == ob and np.array_equal(ia, ib)
    assert not np.array_equal(ia, ic)


def test_attack_rejects_wrong_target_size(small_setup):
    model, _, y = small_setup
    vis = VisibleUpdate(np.array([], dtype=np.int64), np.array([]), model.size)
    with pytest.raises(UsageError, match="target has"):
        attack_example(model, vis, np.zeros(7), y, FAST)


def test_visible_view_matches_protocol_complement():
    cfg = protocol.config_from_dict(dict(
        clients=2, rounds=1, encryption_ratio=0.4, batch_size=1,
        train_size=32, test_size=16, seed=3,
        single_step=True, calibration_batches=1))
    state = protocol.init_experiment(cfg)
    mask = protocol.round_mask(state)
    update, _ = protocol.client_update(state, 0, mask)
    vis = visible_view(update, mask)
    assert vis.total == state.model.size
    assert np.array_equal(vis.indices, mask.complement())
    raw, _ = protocol.local_update_vector(state, 0)
    assert np.allclose(vis.values, raw[mask.complement()])


def test_capture_roundtrip_and_attack(tmp_path):
    cfg = protocol.config_from_dict(dict(
        clients=2, rounds=1, encryption_ratio=0.5, batch_size=1,
        train_size=32, test_size=16, seed=3,
        single_step=True, calibration_batches=1))
    protocol.run_experiment(cfg, tmp_path)
    cap = load_capture(tmp_path / "capture_r1_c0.json")
    vis = cap["visible"]
    assert vis.count == vis.total - round(0.5 * vis.total)
    result = attack_example(cap["model"], vis, cap["x"], cap["y"],
                            AttackConfig(iterations=40, restarts=1), seed=0)
    assert result.reconstruction.shape == cap["x"].shape
    assert np.isfinite(result.objective)


def test_load_capture_rejects_malformed(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        load_capture(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    with pytest.raises(ParseError, match="not valid JSON"):
        load_capture(bad)
    bad.write_text("{\"round\": 1}")
    with pytest.raises(ParseError, match="malformed"):
        load_capture(bad)

    # fields that parse but disagree with each other or the architecture
    cfg = protocol.config_from_dict(dict(
        clients=1, rounds=1, encryption_ratio=0.5, batch_size=1,
        train_size=16, test_size=16, seed=3,
        single_step=True, calibration_batches=1))
    protocol.run_experiment(cfg, tmp_path / "run")
    good = json.loads((tmp_path / "run" / "capture_r1_c0.json").read_text())
    vis, mask = good["visible"], good["mask"]
    flat = base64.b64decode(good["model_flat"])
    cases = [
        ("visible", {**vis, "indices": vis["indices"][:-1] + [mask["total"]]},
         "strictly increasing"),
        ("visible", {**vis, "indices": [-1] + vis["indices"][1:]},
         "strictly increasing"),
        ("visible", {**vis, "indices": vis["indices"][::-1]},
         "strictly increasing"),
        ("visible", {**vis, "values": vis["values"][:-1]}, "visible values"),
        ("mask", {**mask, "total": mask["total"] + 1}, "parameters"),
        ("mask", {**mask, "total": mask["total"] + 0.9}, "not an integer"),
        ("model_flat", base64.b64encode(flat[:-8]).decode(), "parameters"),
        ("example", {**good["example"], "y": []}, "one label"),
        ("example", {**good["example"], "y": [good["arch"]["n_classes"]]},
         "one label"),
        ("round", None, "malformed"),
        ("round", "x", "round 'x' is not an integer"),
        ("client_id", -1, "client_id -1 is not an integer"),
        ("mask", {**mask, "ratio": "abc"}, "not a number in"),
        ("arch", {**good["arch"], "name": "bogus"}, "malformed.*bogus"),
        ("arch", {**good["arch"], "name": "conv-s"}, "malformed.*conv-s"),
        ("arch", {**good["arch"], "n_classes": 1}, "malformed"),
        # integral floats used to load and fail later with a TypeError
        ("arch", {**good["arch"], "input_shape": [8.0, 8.0]}, "malformed"),
        ("arch", {**good["arch"], "n_classes": 10.0}, "malformed"),
    ]
    for key, value, match in cases:
        cap = {k: v for k, v in good.items() if k != key}
        if value is not None:
            cap[key] = value
        bad.write_text(json.dumps(cap))
        with pytest.raises(ParseError, match=match):
            load_capture(bad)


def test_pgm_writer_golden(tmp_path):
    img = np.array([[0.0, 0.5], [1.0, 0.25]])
    p = tmp_path / "out.pgm"
    write_pgm(p, img)
    raw = p.read_bytes()
    assert raw == b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64])
    with pytest.raises(UsageError):
        write_pgm(p, np.zeros(4))


def test_attack_eval_script_uses_protocol_mask(tmp_path):
    """scripts/attack_eval.py scores the protocol's shared mask: every
    coordinate visible at r=0, none at r=1."""
    root = Path(__file__).resolve().parent.parent
    out = tmp_path / "curve.csv"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(root / "src"), os.environ.get("PYTHONPATH")))))
    subprocess.run([sys.executable, str(root / "scripts" / "attack_eval.py"),
                    str(out), "--ratios", "0,1", "--seeds", "1",
                    "--iterations", "2", "--restarts", "1"],
                   check=True, env=env, capture_output=True)
    header, *rows = out.read_text().splitlines()
    assert header == ("encryption_ratio,seed,visible_count,input_mse,"
                      "psnr_db,success,label_inferred")
    cells = [row.split(",") for row in rows]
    assert [(c[0], c[1], c[2]) for c in cells] == [
        ("0.000000", "0", "6570"), ("1.000000", "0", "0")]
