"""Command-line interface: exit codes, outputs, end-to-end flow."""

import base64
import json

import numpy as np
import pytest

from hefl.cli import main
from hefl.errors import (EXIT_CONFIG, EXIT_CRYPTO, EXIT_IO, EXIT_NUMERIC,
                         EXIT_USAGE)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_help_shows_subcommands(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    for name in ("keygen", "train", "attack", "report", "bench"):
        assert name in out
    # fixed formatter width: no line wraps past 80 columns
    assert all(len(line) <= 80 for line in out.splitlines())


def test_usage_errors_exit_2(tmp_path, capsys):
    assert run(capsys, "frobnicate")[0] == EXIT_USAGE
    assert run(capsys)[0] == EXIT_USAGE                  # command required
    assert run(capsys, "keygen")[0] == EXIT_USAGE        # --out required
    for argv in (("keygen", "--out", str(tmp_path / "k")), ("bench",),
                 ("attack", "--capture", str(tmp_path / "c.json"),
                  "--out", str(tmp_path / "a"))):
        for seed in ("-1", str(2 ** 63), "x"):
            code, _, err = run(capsys, *argv, "--seed", seed)
            assert code == EXIT_USAGE and "--seed" in err


def test_keygen_writes_deterministic_keys(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    code, out, _ = run(capsys, "keygen", "--out", str(a), "--seed", "42")
    assert code == 0 and "fingerprint" in out
    assert run(capsys, "keygen", "--out", str(b), "--seed", "42")[0] == 0
    assert (a / "secret.key").read_bytes() == (b / "secret.key").read_bytes()
    assert (a / "public.key").read_bytes() == (b / "public.key").read_bytes()
    c = tmp_path / "c"
    run(capsys, "keygen", "--out", str(c), "--seed", "43")
    assert (a / "secret.key").read_bytes() != (c / "secret.key").read_bytes()


def test_keygen_unknown_profile_exits_config(tmp_path, capsys):
    code, _, err = run(capsys, "keygen", "--out", str(tmp_path),
                       "--ckks-profile", "bogus")
    assert code == EXIT_USAGE or code == EXIT_CONFIG
    assert "bogus" in err


def test_bench_reports_all_operations(tmp_path, capsys):
    out_csv = tmp_path / "bench.csv"
    code, out, _ = run(capsys, "bench", "--repeats", "1",
                       "--out", str(out_csv))
    assert code == 0
    for op in ("encode", "encrypt", "he_add", "mul_rescale", "decrypt"):
        assert op in out
    lines = out_csv.read_bytes().split(b"\r\n")
    assert lines[0] == b"operation,median_ms" and len(lines) == 7


def test_bench_rejects_zero_repeats(capsys):
    code, _, err = run(capsys, "bench", "--repeats", "0")
    assert code == EXIT_USAGE and "repeats" in err


def test_attack_rejects_zero_restarts(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "clients": 1, "rounds": 1, "batch_size": 1,
        "train_size": 16, "test_size": 16, "single_step": True,
        "calibration_batches": 1,
    }))
    assert run(capsys, "train", "--config", str(cfg),
               "--out", str(tmp_path / "run"))[0] == 0
    code, _, err = run(capsys, "attack", "--capture",
                       str(tmp_path / "run" / "capture_r1_c0.json"),
                       "--out", str(tmp_path / "atk"), "--restarts", "0")
    assert code == EXIT_USAGE and "restarts" in err
    code, _, err = run(capsys, "attack", "--capture",
                       str(tmp_path / "run" / "capture_r1_c0.json"),
                       "--out", str(tmp_path / "atk"), "--iterations", "0")
    assert code == EXIT_USAGE and "iterations" in err
    assert not (tmp_path / "atk").exists()


def test_attack_missing_capture_exits_io(tmp_path, capsys):
    code, _, err = run(capsys, "attack", "--capture",
                       str(tmp_path / "none.json"), "--out", str(tmp_path))
    assert code == EXIT_IO and "cannot read" in err


def single_step_capture(tmp_path, capsys):
    """Train one single-step round of one client; its capture's path."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "clients": 1, "rounds": 1, "batch_size": 1,
        "train_size": 16, "test_size": 16, "single_step": True,
        "calibration_batches": 1,
    }))
    assert run(capsys, "train", "--config", str(cfg),
               "--out", str(tmp_path / "run"))[0] == 0
    return tmp_path / "run" / "capture_r1_c0.json"


def test_attack_non_finite_model_exits_numeric(tmp_path, capsys):
    path = single_step_capture(tmp_path, capsys)
    cap = json.loads(path.read_text())
    flat = np.frombuffer(base64.b64decode(cap["model_flat"]), dtype="<f8").copy()
    flat[0] = np.nan
    cap["model_flat"] = base64.b64encode(flat.tobytes()).decode()
    path.write_text(json.dumps(cap))
    code, _, err = run(capsys, "attack", "--capture", str(path),
                       "--out", str(tmp_path / "atk"), "--iterations", "2",
                       "--restarts", "1")
    assert code == EXIT_NUMERIC and "non-finite values" in err


def test_attack_non_finite_capture_fields_exit_numeric(tmp_path, capsys):
    # a NaN pixel used to reach result.json as NaN, and a NaN visible
    # value was blamed on the model's layer 'out'
    path = single_step_capture(tmp_path, capsys)
    good = path.read_text()
    for group, key in (("example", "x"), ("visible", "values")):
        cap = json.loads(good)
        values = np.asarray(cap[group][key])
        values.flat[0] = np.nan
        cap[group][key] = values.tolist()
        path.write_text(json.dumps(cap))
        code, _, err = run(capsys, "attack", "--capture", str(path),
                           "--out", str(tmp_path / "atk"),
                           "--iterations", "2", "--restarts", "1")
        assert code == EXIT_NUMERIC and f"{group}.{key}" in err, err
        assert err.startswith("hefl attack: ") and err.count("\n") == 1
        assert not (tmp_path / "atk").exists()


def test_train_bad_config_exits_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"encryption_ratio": 2.0}))
    code, _, err = run(capsys, "train", "--config", str(cfg),
                       "--out", str(tmp_path / "run"))
    assert code == EXIT_CONFIG and "encryption_ratio" in err
    # malformed values that used to exit 2 from deep inside set-up, or 1
    # with a traceback, are configuration errors with a one-line message
    for bad in ({"clients": 2000}, {"batch_size": 1.5}):
        cfg.write_text(json.dumps(dict(bad, rounds=1)))
        code, _, err = run(capsys, "train", "--config", str(cfg),
                           "--out", str(tmp_path / "run"))
        assert code == EXIT_CONFIG, err
        assert err.startswith("hefl train: ") and err.count("\n") == 1


def test_full_flow_train_attack_report(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "clients": 2, "rounds": 1, "batch_size": 1,
        "train_size": 32, "test_size": 16, "single_step": True,
        "calibration_batches": 1,
    }))
    runs = []
    for ratio in ("0.0", "0.5"):
        out = tmp_path / f"run{ratio}"
        code, text, err = run(capsys, "train", "--config", str(cfg),
                              "--out", str(out), "--encryption-ratio", ratio)
        assert code == 0, err
        assert "test accuracy" in text
        assert (out / "records.jsonl").exists()
        assert (out / "capture_r1_c0.json").exists()
        runs.append(str(out))

    atk = tmp_path / "atk"
    code, text, err = run(capsys, "attack",
                          "--capture", runs[0] + "/capture_r1_c0.json",
                          "--out", str(atk),
                          "--iterations", "40", "--restarts", "1")
    assert code == 0, err
    result = json.loads((atk / "result.json").read_text())
    assert result["visible_count"] == result["visible_total"]
    assert (atk / "reconstruction.pgm").read_bytes().startswith(b"P5\n8 8\n")
    assert (atk / "target.pgm").exists()

    rep = tmp_path / "report"
    code, text, err = run(capsys, "report", "--runs", *runs,
                          "--out", str(rep))
    assert code == 0, err
    for name in ("radar.csv", "per_round.csv", "gap.csv", "summary.json"):
        assert (rep / name).exists()
    radar = (rep / "radar.csv").read_text().splitlines()
    assert radar[1].startswith("0.000000,") and radar[2].startswith("0.500000,")


def test_report_names_each_tied_axis(tmp_path, capsys):
    # equal accuracies and losses tie two axes; the wall times differ
    runs = []
    for ratio, wall in ((0.0, 100.0), (1.0, 300.0)):
        run_dir = tmp_path / f"run{ratio}"
        run_dir.mkdir()
        (run_dir / "summary.json").write_text(json.dumps({
            "encryption_ratio": ratio, "sensitivity_method": "magnitude",
            "rounds": 1, "final_train_accuracy": 1.0,
            "final_test_accuracy": 1.0, "final_train_loss": 0.25,
            "total_wall_ms": wall}))
        (run_dir / "records.jsonl").write_text(json.dumps({
            "round": 1, "mask_count": 0, "train_accuracy": 1.0,
            "test_accuracy": 1.0, "avg_train_loss": 0.25}) + "\n")
        runs.append(str(run_dir))
    code, _, err = run(capsys, "report", "--runs", *runs,
                       "--out", str(tmp_path / "rep"))
    assert code == 0
    assert err.splitlines() == [
        f"hefl report: all runs tie on {axis}; scoring every run 1.0"
        for axis in ("efficiency_generalization", "efficiency_loss")]


def test_report_missing_run_exits_config(tmp_path, capsys):
    code, _, err = run(capsys, "report", "--runs", str(tmp_path / "ghost"),
                       "--out", str(tmp_path / "rep"))
    assert code == EXIT_CONFIG and "unreadable" in err
    assert not (tmp_path / "rep").exists()
    run_dir = tmp_path / "corrupt"
    run_dir.mkdir()
    (run_dir / "summary.json").write_text("{}")
    (run_dir / "records.jsonl").write_text("{not json\n")
    code, _, err = run(capsys, "report", "--runs", str(run_dir),
                       "--out", str(tmp_path / "rep"))
    assert code == EXIT_CONFIG and "invalid JSON" in err
    assert not (tmp_path / "rep").exists()
    for summary, records in (("[]", ""), ("{}", '{"round": 1}\n'),
                             ("{}", "[1]\n")):
        (run_dir / "summary.json").write_text(summary)
        (run_dir / "records.jsonl").write_text(records)
        code, _, err = run(capsys, "report", "--runs", str(run_dir),
                           "--out", str(tmp_path / "rep"))
        assert code == EXIT_CONFIG and "not a JSON object" in err
        assert err.startswith("hefl report: ") and err.count("\n") == 1
        assert not (tmp_path / "rep").exists()
    full = ('{"encryption_ratio": 0.1, "sensitivity_method": "magnitude", '
            '"rounds": 1, "final_train_accuracy": 0.5, '
            '"final_test_accuracy": 0.5, "final_train_loss": 1.0, '
            '"total_wall_ms": %s}')
    record = ('{"round": %s, "mask_count": 3, "train_accuracy": 0.5, '
              '"test_accuracy": 0.5, "avg_train_loss": 1.0}\n')
    for summary, records in ((full % '"slow"', record % 1),
                             (full % 12.5, record % '"one"')):
        (run_dir / "summary.json").write_text(summary)
        (run_dir / "records.jsonl").write_text(records)
        code, _, err = run(capsys, "report", "--runs", str(run_dir),
                           "--out", str(tmp_path / "rep"))
        assert code == EXIT_CONFIG and "not a number" in err
        assert err.startswith("hefl report: ") and err.count("\n") == 1
        assert not (tmp_path / "rep").exists()


def test_cifar_glob_skips_run_checkpoints(tmp_path, capsys, monkeypatch):
    # "**/*.bin" also matches every run's checkpoint.bin below the working
    # directory: a second run and a resume must still read only batches
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(0)
    (tmp_path / "data").mkdir()
    for i in range(2):
        records = rng.integers(0, 256, (24, 3073), dtype=np.uint8)
        records[:, 0] %= 10
        (tmp_path / "data" / f"batch_{i}.bin").write_bytes(records.tobytes())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "dataset": "cifar10:**/*.bin", "arch": "linear", "clients": 2,
        "rounds": 2, "batch_size": 4, "calibration_batches": 1,
    }))
    for argv in (("--out", "runs/a"), ("--out", "runs/b"),
                 ("--out", "runs/a", "--resume")):
        code, _, err = run(capsys, "train", "--config", str(cfg), *argv)
        assert code == 0, err

    def rounds(run_dir):
        lines = (tmp_path / run_dir / "records.jsonl").read_text()
        return [{k: v for k, v in json.loads(line).items() if k != "wall_ms"}
                for line in lines.splitlines()]

    assert len(rounds("runs/a")) == 2
    assert rounds("runs/a") == rounds("runs/b")
