"""Sweep scoring and report emission."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hefl.errors import ConfigError
from hefl.metrics import (emit_reports, gap_table, normalized_efficiency,
                          per_round_table, radar_scores, radar_table)


def summary(ratio, wall=100.0, train=0.9, test=0.8, loss=0.5, records=()):
    return {
        "encryption_ratio": ratio,
        "sensitivity_method": "magnitude",
        "rounds": 2,
        "final_train_accuracy": train,
        "final_test_accuracy": test,
        "final_train_loss": loss,
        "total_wall_ms": wall,
        "records": list(records),
    }


def test_normalization_boundaries_and_midpoint():
    out = normalized_efficiency([2.0, 4.0, 6.0])
    assert out.tolist() == [1.0, 0.5, 0.0]


def test_normalization_ties_score_one_with_warning():
    with pytest.warns(UserWarning, match="all runs tie on efficiency_loss;"):
        out = normalized_efficiency([3.0, 3.0, 3.0], "efficiency_loss")
    assert out.tolist() == [1.0, 1.0, 1.0]


def test_normalization_rejects_bad_input():
    with pytest.raises(ConfigError):
        normalized_efficiency([])
    with pytest.raises(ConfigError):
        normalized_efficiency([1.0, np.inf])


@given(st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=32))
def test_normalization_stays_in_unit_interval(values):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # ties are a valid input here
        out = normalized_efficiency(values)
    assert np.all(out >= 0.0) and np.all(out <= 1.0)
    if max(values) > min(values):
        assert out[int(np.argmin(values))] == 1.0
        assert out[int(np.argmax(values))] == 0.0


def test_radar_scores_ordering_and_axes():
    runs = [summary(0.5, wall=300, test=0.7, loss=0.9),
            summary(0.0, wall=100, test=0.9, loss=0.3),
            summary(1.0, wall=500, test=0.6, loss=1.5)]
    scores = radar_scores(runs)
    assert [s["encryption_ratio"] for s in scores] == [0.0, 0.5, 1.0]
    assert scores[0]["efficiency_compute"] == 1.0   # fastest run
    assert scores[2]["efficiency_compute"] == 0.0   # slowest run
    assert scores[0]["accuracy"] == 0.9             # accuracy is not rescaled
    assert scores[1]["efficiency_loss"] == pytest.approx(0.5)


def test_radar_scores_rejects_duplicates_and_gaps():
    with pytest.raises(ConfigError, match="duplicate"):
        radar_scores([summary(0.1), summary(0.1)])
    broken = summary(0.2)
    del broken["total_wall_ms"]
    with pytest.raises(ConfigError, match="missing"):
        radar_scores([broken])
    with pytest.raises(ConfigError, match="no run summaries"):
        radar_scores([])


def test_csv_format_contract():
    runs = [summary(0.0, wall=100),
            summary(1.0, wall=200, test=0.7, loss=0.8)]
    text = radar_table(radar_scores(runs))
    lines = text.split("\r\n")
    assert text.endswith("\r\n") and "\n" not in text.replace("\r\n", "")
    assert lines[0] == ("encryption_ratio,accuracy,efficiency_compute,"
                        "efficiency_generalization,efficiency_loss")
    assert lines[1].startswith("0.000000,0.800000,1.000000")
    gap = gap_table(runs).split("\r\n")
    assert gap[1] == "0.000000,0.900000,0.800000,0.100000"


def test_per_round_table_flattens_records():
    rec = {"round": 1, "mask_count": 657, "train_accuracy": 0.5,
           "test_accuracy": 0.4, "avg_train_loss": 1.25}
    text = per_round_table([summary(0.1, records=[rec])])
    lines = text.split("\r\n")
    assert lines[1] == "1,0.100000,657,0.500000,0.400000,1.250000"
    # integer columns stay bare, float columns carry six decimals
    assert lines[1].split(",")[0] == "1" and lines[1].split(",")[2] == "657"


def test_emit_reports_writes_all_files(tmp_path):
    runs = [summary(0.0, wall=100),
            summary(0.5, wall=200, test=0.75, loss=0.7)]
    report = emit_reports(runs, tmp_path)
    for name in ("radar.csv", "per_round.csv", "gap.csv", "summary.json"):
        assert (tmp_path / name).exists()
    raw = (tmp_path / "radar.csv").read_bytes()
    assert raw.count(b"\r\n") == 3          # header + 2 rows, no bare LF
    assert len(report["radar"]) == 2


def test_emit_reports_validates_before_writing(tmp_path):
    out = tmp_path / "reports"
    with pytest.raises(ConfigError):
        emit_reports([summary(0.1), summary(0.1)], out)
    assert not out.exists()                 # nothing partially written


def test_ratio_sweep_script_writes_runs_and_report(tmp_path):
    """scripts/ratio_sweep.py trains one run per ratio, then reports."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(root / "src"), os.environ.get("PYTHONPATH")))))
    subprocess.run([sys.executable, str(root / "scripts" / "ratio_sweep.py"),
                    str(tmp_path), "--ratios", "0,0.1"],
                   check=True, env=env, capture_output=True)
    for run_dir in ("run_r0", "run_r0.1"):
        assert (tmp_path / run_dir / "summary.json").is_file()
        assert len((tmp_path / run_dir / "records.jsonl").read_text()
                   .splitlines()) == 10
    report = tmp_path / "report"
    assert sorted(p.name for p in report.iterdir()) == [
        "gap.csv", "per_round.csv", "radar.csv", "summary.json"]
    rows = (report / "per_round.csv").read_text().splitlines()
    assert len(rows) == 1 + 20
