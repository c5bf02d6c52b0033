"""Federated protocol: config handling, aggregation math, persistence."""

import dataclasses
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from hefl import attack, protocol
from hefl.errors import ConfigError, ProtocolError
from hefl.model import build_model
from hefl.protocol import (FlConfig, aggregate, config_from_dict,
                           init_experiment, load_checkpoint, load_config,
                           local_update_vector, run_experiment, run_round,
                           save_checkpoint, single_step_batch)


def tiny_cfg(**kw):
    base = dict(clients=3, rounds=2, encryption_ratio=0.1, batch_size=8,
                train_size=96, test_size=48, seed=5, calibration_batches=1)
    base.update(kw)
    return config_from_dict(base)


def strip_timing(line: str) -> dict:
    body = json.loads(line)
    body.pop("wall_ms")
    return body


def untimed(run_dir) -> dict:
    """A run's summary without its wall times."""
    summary = json.loads((run_dir / "summary.json").read_text())
    return {k: v for k, v in summary.items()
            if k not in ("stage_totals_ms", "total_wall_ms")}


def untimed_records(run_dir) -> list[dict]:
    lines = (run_dir / "records.jsonl").read_text().splitlines()
    return [strip_timing(line) for line in lines]


# ---- configuration ----------------------------------------------------------


def test_config_precedence_and_unknown_keys():
    cfg = config_from_dict({"rounds": 7, "seed": 1}, {"rounds": 3})
    assert cfg.rounds == 3 and cfg.seed == 1
    # None overrides are "not given on the command line"
    cfg = config_from_dict({"rounds": 7}, {"rounds": None})
    assert cfg.rounds == 7
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict({"round": 7})


@pytest.mark.parametrize("patch", [
    {"encryption_ratio": 1.5},
    {"clients": 0},
    {"rounds": 0},
    {"sensitivity_method": "entropy"},
    {"ckks_profile": "nonexistent"},
    {"arch": "resnet"},
    {"dataset": "imagenet"},
    {"lr": 0.0},
    {"batch_size": 0},
    {"encryption_ratio": -0.1},
    # the SGD recipe, the clip, the local epochs, the checkpoint spacing
    # and the toy task's shape and classes are constants, not config keys
    {"momentum": 0.9},
    {"weight_decay": 4e-4},
    {"lr_step_rounds": 10},
    {"lr_gamma": 0.1},
    {"clip": 8.0},
    {"local_epochs": 2},
    {"checkpoint_every": 5},
    {"n_classes": 10},
    {"input_shape": [8, 8]},
    # caught while building the experiment, not by FlConfig alone
    {"train_size": 0},
    {"test_size": 0},
    {"clients": 2000},
    {"dataset": "cifar10:/nonexistent-hefl-data/*.bin"},
    # wrong type
    {"seed": 1.0},
    {"sensitivity_method": None},
    {"lr": float("inf")},
    {"batch_size": 1.5},
    {"clients": "3"},
    {"rounds": 1.5},
    {"rounds": True},
    {"encryption_ratio": True},
    {"single_step": 1},
    {"lr": float("nan")},
    {"calibration_batches": 0},
    {"seed": -1},
    {"seed": 2 ** 63},
    # mlp2 and linear are the only architectures
    {"arch": "conv-s"},
])
def test_config_validation_rejects(patch):
    with pytest.raises(ConfigError):
        init_experiment(config_from_dict(patch))


def test_config_rejects_at_construction():
    with pytest.raises(ConfigError, match="encryption_ratio 1.5 outside"):
        FlConfig(encryption_ratio=1.5)
    with pytest.raises(ConfigError, match="clients must be an integer"):
        FlConfig(clients="3")


def test_config_types_accept_ints_for_floats():
    cfg = config_from_dict({"lr": 1, "encryption_ratio": 0})
    assert cfg.lr == 1 and cfg.encryption_ratio == 0


def test_config_digest_tracks_content(tmp_path):
    assert tiny_cfg().digest() == tiny_cfg().digest()
    assert tiny_cfg().digest() != tiny_cfg(seed=6).digest()
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"rounds": 2}))
    cfg = load_config(p, {"seed": 9})
    assert cfg.rounds == 2 and cfg.seed == 9
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(broken)


# ---- aggregation ------------------------------------------------------------


def test_zero_ratio_aggregation_is_bit_exact():
    cfg = tiny_cfg(encryption_ratio=0.0)
    shadow = init_experiment(cfg)
    expected = np.zeros(shadow.model.size)
    for cid in range(cfg.clients):
        expected += local_update_vector(shadow, cid)[0]
    expected /= cfg.clients

    state = init_experiment(cfg)
    record, updates, mask = run_round(state)
    agg = state.prev_update
    assert mask.count == 0
    assert all(not u.encrypted_chunks for u in updates)
    assert np.array_equal(agg, expected)          # no HE path, exact mean
    assert record.wall_ms["aggregate_he"] == 0.0 or mask.count == 0


def test_encrypted_aggregation_tracks_plaintext_mean():
    cfg = tiny_cfg(encryption_ratio=0.5)
    shadow = init_experiment(cfg)
    expected = np.zeros(shadow.model.size)
    for cid in range(cfg.clients):
        expected += local_update_vector(shadow, cid)[0]
    expected /= cfg.clients

    state = init_experiment(cfg)
    _, _, mask = run_round(state)
    agg = state.prev_update
    assert mask.count == round(0.5 * shadow.model.size)
    err = np.max(np.abs(agg - expected))
    assert err < 1e-4
    # off-mask coordinates take the plaintext path and stay exact
    assert np.array_equal(agg[mask.complement()],
                          expected[mask.complement()])


def test_update_clip_binds():
    # a very large lr drives the local model far from the global one
    state = init_experiment(tiny_cfg(lr=100.0))
    update, _ = local_update_vector(state, 0)
    assert np.abs(update).max() <= protocol.CLIP
    assert np.any(np.abs(update) == protocol.CLIP)


def test_first_round_mask_scores_global_weights():
    cfg = tiny_cfg(encryption_ratio=0.2)
    state = init_experiment(cfg)
    from hefl.sensitivity import magnitude_map, select_top_r
    want = select_top_r(magnitude_map(state.model.flat), 0.2)
    mask = protocol.round_mask(state)
    assert np.array_equal(mask.indices, want.indices)
    # after a round the mask re-ranks by the aggregated update instead
    run_round(state)
    mask2 = protocol.round_mask(state)
    want2 = select_top_r(magnitude_map(state.prev_update), 0.2)
    assert np.array_equal(mask2.indices, want2.indices)


def test_jacobian_mask_uses_calibration_split():
    cfg = tiny_cfg(sensitivity_method="jacobian", encryption_ratio=0.1)
    state = init_experiment(cfg)
    from hefl.sensitivity import jacobian_map, select_top_r
    want = select_top_r(jacobian_map(state.model, state.calibration), 0.1)
    mask = protocol.round_mask(state)
    assert np.array_equal(mask.indices, want.indices)
    assert len(state.calibration) == cfg.calibration_batches


def test_aggregate_rejects_malformed_updates():
    cfg = tiny_cfg(encryption_ratio=0.3, clients=2)
    state = init_experiment(cfg)
    mask = protocol.round_mask(state)
    updates = [protocol.client_update(state, c, mask)[0]
               for c in range(cfg.clients)]

    with pytest.raises(ProtocolError, match="no client updates"):
        aggregate(state, [], mask)
    dup = dataclasses.replace(updates[1], client_id=0)
    with pytest.raises(ProtocolError, match="duplicate client"):
        aggregate(state, [updates[0], dup], mask)
    fp = dataclasses.replace(updates[1], mask_fingerprint="0" * 16)
    with pytest.raises(ProtocolError, match="different mask"):
        aggregate(state, [updates[0], fp], mask)
    late = dataclasses.replace(updates[1], round_index=7)
    with pytest.raises(ProtocolError, match="targets round"):
        aggregate(state, [updates[0], late], mask)
    short = dataclasses.replace(updates[1],
                                encrypted_chunks=updates[1].encrypted_chunks[:-1])
    with pytest.raises(ProtocolError, match="chunks"):
        aggregate(state, [updates[0], short], mask)
    thin = dataclasses.replace(updates[1],
                               plaintext_sparse=updates[1].plaintext_sparse[:-1])
    with pytest.raises(ProtocolError, match="plaintext entries"):
        aggregate(state, [updates[0], thin], mask)


# ---- experiment driver ------------------------------------------------------


def test_run_experiment_deterministic(tmp_path):
    cfg = tiny_cfg(rounds=2, encryption_ratio=0.1)
    a = run_experiment(cfg, tmp_path / "a")
    run_experiment(cfg, tmp_path / "b")
    # a fresh run replaces the records a previous run left behind
    b = run_experiment(cfg, tmp_path / "b")
    ra = (tmp_path / "a" / "records.jsonl").read_text().splitlines()
    rb = (tmp_path / "b" / "records.jsonl").read_text().splitlines()
    assert [strip_timing(x) for x in ra] == [strip_timing(x) for x in rb]
    for key in ("final_train_accuracy", "final_test_accuracy",
                "final_train_loss"):
        assert a[key] == b[key]
    ca = (tmp_path / "a" / "checkpoint.bin").read_bytes()
    cb = (tmp_path / "b" / "checkpoint.bin").read_bytes()
    assert ca == cb


def test_resume_matches_uninterrupted_run(tmp_path):
    cfg = tiny_cfg(rounds=4, encryption_ratio=0.1)
    run_experiment(cfg, tmp_path / "full")

    # simulate a crash after round 2: records + checkpoint exist, rounds 3-4 lost
    part = tmp_path / "part"
    part.mkdir()
    state = init_experiment(cfg)
    lines = []
    for _ in range(2):
        record, *_ = run_round(state)
        lines.append(record.to_json())
    (part / "records.jsonl").write_text("\n".join(lines) + "\n")
    save_checkpoint(part / "checkpoint.bin", state)
    run_experiment(cfg, part, resume=True)

    assert len(untimed_records(part)) == 4
    assert untimed_records(part) == untimed_records(tmp_path / "full")

    assert {"final_train_accuracy", "final_test_accuracy",
            "final_train_loss"} <= untimed(part).keys()
    assert untimed(part) == untimed(tmp_path / "full")

    def wall_totals_match_records(run_dir):
        # the summary counts every round in records.jsonl, kept ones too
        summary = json.loads((run_dir / "summary.json").read_text())
        walls = [json.loads(x)["wall_ms"] for x in
                 (run_dir / "records.jsonl").read_text().splitlines()]
        for name, total in summary["stage_totals_ms"].items():
            assert total == pytest.approx(sum(w[name] for w in walls),
                                          abs=0.01), name
        assert summary["total_wall_ms"] == pytest.approx(
            sum(summary["stage_totals_ms"].values()))

    wall_totals_match_records(part)
    # a resume from the final round's checkpoint runs no round, so its
    # summary evaluates the restored model itself
    done = tmp_path / "done"
    done.mkdir()
    for name in ("records.jsonl", "checkpoint.bin"):
        (done / name).write_bytes((tmp_path / "full" / name).read_bytes())
    run_experiment(cfg, done, resume=True)
    assert untimed(done) == untimed(tmp_path / "full")
    wall_totals_match_records(done)
    assert (done / "records.jsonl").read_text() == \
        (tmp_path / "full" / "records.jsonl").read_text()


@pytest.mark.parametrize("arch,method", [("linear", "jacobian")])
def test_every_architecture_trains_and_resumes(tmp_path, arch, method):
    # mlp2 runs through the protocol everywhere else; this is the other
    # architecture on the toy task's 8x8 images
    cfg = tiny_cfg(arch=arch, sensitivity_method=method,
                   encryption_ratio=0.1)
    run_experiment(cfg, tmp_path / "fresh")
    done = tmp_path / "done"
    done.mkdir()
    for name in ("records.jsonl", "checkpoint.bin"):
        (done / name).write_bytes((tmp_path / "fresh" / name).read_bytes())
    run_experiment(cfg, done, resume=True)
    assert len(untimed_records(done)) == 2
    assert untimed_records(done) == untimed_records(tmp_path / "fresh")
    assert untimed(done) == untimed(tmp_path / "fresh")


def test_shipped_configs_load():
    # cifar10-full.json loads without its data: init_experiment is the
    # first step that reads the dataset glob
    paths = sorted((Path(__file__).resolve().parent.parent
                    / "configs").glob("*.json"))
    assert len(paths) >= 3
    for path in paths:
        load_config(path)


def test_run_experiment_calls_round_and_client_by_name(tmp_path, monkeypatch):
    # the benchmark times rounds and client uploads by patching these two
    # module attributes, so run_experiment must look them up per call
    calls = {"run_round": 0, "client_update": 0}
    for name in calls:
        original = getattr(protocol, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(protocol, name, counted)
    run_experiment(tiny_cfg(rounds=2, clients=3), tmp_path)
    assert calls == {"run_round": 2, "client_update": 6}


def test_resume_guards(tmp_path):
    cfg = tiny_cfg(rounds=2)
    run_experiment(cfg, tmp_path)
    with pytest.raises(ConfigError, match="different configuration"):
        state = init_experiment(tiny_cfg(rounds=2, seed=6))
        load_checkpoint(tmp_path / "checkpoint.bin", state)
    raw = (tmp_path / "checkpoint.bin").read_bytes()
    (tmp_path / "checkpoint.bin").write_bytes(raw[:-8])
    state = init_experiment(cfg)
    with pytest.raises(ConfigError, match="bytes"):
        load_checkpoint(tmp_path / "checkpoint.bin", state)
    with pytest.raises(ConfigError, match="does not exist"):
        run_experiment(cfg, tmp_path / "fresh", resume=True)
    for header, match in ((b"[]", "not a JSON object"),
                          (b'{"format": "hefl-checkpoint", "version": 1}',
                           "lacks")):
        (tmp_path / "checkpoint.bin").write_bytes(
            struct.pack("<I", len(header)) + header + raw[-8:])
        with pytest.raises(ConfigError, match=match):
            run_experiment(cfg, tmp_path, resume=True)
    # header fields of the wrong type or range, each beside a valid body
    head_len = struct.unpack_from("<I", raw)[0]
    good = json.loads(raw[4:4 + head_len])
    for key, value, match in (("round", "1", "round"), ("round", 1.5, "round"),
                              ("round", -1, "round"), ("round", 3, "round"),
                              ("round", True, "round"),
                              ("param_count", 10, "param_count"),
                              ("param_count", float(good["param_count"]),
                               "param_count"),
                              ("has_prev_update", 1, "has_prev_update")):
        header = json.dumps({**good, key: value}).encode()
        (tmp_path / "checkpoint.bin").write_bytes(
            struct.pack("<I", len(header)) + header + raw[4 + head_len:])
        with pytest.raises(ConfigError, match=match):
            run_experiment(cfg, tmp_path, resume=True)


def test_resume_requires_matching_records(tmp_path):
    cfg = tiny_cfg(rounds=3)
    state = init_experiment(cfg)
    kept = [run_round(state)[0].to_json() for _ in range(2)]
    save_checkpoint(tmp_path / "checkpoint.bin", state)
    records = tmp_path / "records.jsonl"
    records.write_text("")                          # lost the round records
    with pytest.raises(ConfigError, match="fewer rounds"):
        run_experiment(cfg, tmp_path, resume=True)
    records.unlink()                                # or the whole file
    with pytest.raises(ConfigError, match="fewer rounds"):
        run_experiment(cfg, tmp_path, resume=True)
    no_wall = json.loads(kept[0])
    del no_wall["wall_ms"]

    def with_train(value) -> str:
        body = json.loads(kept[1])
        body["wall_ms"]["train"] = value
        return json.dumps(body)               # float("nan") dumps as NaN

    for lines, bad in (([kept[0], "x"], 2),       # or lines that are no rounds
                       ([json.dumps(no_wall), kept[1]], 1),
                       (['{"wall_ms": {}}', kept[1]], 1),
                       ([kept[0], '{"wall_ms": 1}'], 2),
                       # stage times that float() would have coerced
                       ([kept[0], with_train("nan")], 2),
                       ([kept[0], with_train(True)], 2),
                       ([kept[0], with_train(float("nan"))], 2)):
        records.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(ConfigError,
                           match=f"round {bad} is not a round record"):
            run_experiment(cfg, tmp_path, resume=True)


def test_single_step_capture_contents(tmp_path):
    cfg = tiny_cfg(rounds=1, encryption_ratio=0.3, single_step=True,
                   batch_size=1)
    run_experiment(cfg, tmp_path)
    path = tmp_path / "capture_r1_c1.json"
    assert path.exists()
    cap = attack.load_capture(path)
    assert cap["round"] == 1 and cap["client_id"] == 1
    assert cap["encryption_ratio"] == 0.3

    state = init_experiment(cfg)
    x, y = single_step_batch(state, 1, 1)
    assert np.allclose(cap["x"], x[0].ravel()) and cap["y"] == int(y[0])
    assert np.array_equal(cap["model"].flat,
                          build_model(state.arch, cfg.seed).flat)

    # visible view = clipped raw gradient off the mask
    update, _ = local_update_vector(state, 1)
    mask = protocol.round_mask(state)
    assert cap["visible"].indices.tolist() == mask.complement().tolist()
    assert np.allclose(cap["visible"].values, update[mask.complement()])
