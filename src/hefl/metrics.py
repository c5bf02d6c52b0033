"""Cross-run evaluation tables for encryption-ratio sweeps.

Given one training summary per encryption ratio, this module scores
each run on four axes:

    accuracy                  final test accuracy, used as-is,
    efficiency_compute        min-max normalized total wall time,
    efficiency_generalization min-max normalized train/test gap,
    efficiency_loss           min-max normalized final training loss.

For the three normalized axes, the best run in the sweep scores 1 and
the worst scores 0; when every run ties, the axis is uninformative and
all runs score 1 (with a warning that names the axis).  Output files
are CSV (RFC 4180, CRLF line endings, six-decimal floats) plus one JSON
summary.  Nothing here embeds timestamps, so reruns of a deterministic
sweep reproduce every non-timing byte.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

from .errors import ConfigError

_REQUIRED = ("encryption_ratio", "sensitivity_method", "rounds",
             "final_train_accuracy", "final_test_accuracy",
             "final_train_loss", "total_wall_ms")

_RECORD_COLUMNS = ("round", "encryption_ratio", "mask_count",
                   "train_accuracy", "test_accuracy", "avg_train_loss")
# per-round columns taken from each record; the ratio comes from the summary
_RECORD_KEYS = tuple(c for c in _RECORD_COLUMNS if c != "encryption_ratio")
# summary keys that reports compute with; a missing one is reported later
_NUMERIC_SUMMARY_KEYS = tuple(k for k in _REQUIRED
                              if k != "sensitivity_method")


def load_run(run_dir: str | Path) -> dict:
    """A run's summary.json with its records.jsonl rows under "records"."""
    run = Path(run_dir)
    try:
        summary = json.loads((run / "summary.json").read_text())
        lines = (run / "records.jsonl").read_text().splitlines()
        records = [json.loads(ln) for ln in lines if ln]
    except OSError as exc:
        raise ConfigError(f"run directory {run} is unreadable: {exc}") \
            from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{run} holds invalid JSON: {exc}") from None
    if not isinstance(summary, dict):
        raise ConfigError(f"{run / 'summary.json'} is not a JSON object")
    _check_numbers(summary, _NUMERIC_SUMMARY_KEYS, run / "summary.json")
    for i, rec in enumerate(records, 1):
        if not isinstance(rec, dict) or not rec.keys() >= set(_RECORD_KEYS):
            raise ConfigError(f"{run / 'records.jsonl'} record {i} is not a "
                              f"JSON object with keys {list(_RECORD_KEYS)}")
        _check_numbers(rec, _RECORD_KEYS,
                       f"{run / 'records.jsonl'} record {i}")
    summary["records"] = records
    return summary


def _check_numbers(obj: dict, keys: tuple[str, ...], where) -> None:
    """ConfigError unless each of `keys` present in obj holds a number."""
    for k in (k for k in keys if k in obj):
        if isinstance(obj[k], bool) or not isinstance(obj[k], (int, float)):
            raise ConfigError(f"{where}: {k} is {obj[k]!r}, not a number")


def normalized_efficiency(values, axis: str = "this axis") -> np.ndarray:
    """Map values to [0, 1] with min -> 1 and max -> 0 (lower is better)."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ConfigError("cannot normalize an empty value list")
    if not np.isfinite(v).all():
        raise ConfigError("efficiency inputs must be finite")
    lo, hi = float(v.min()), float(v.max())
    if hi == lo:
        warnings.warn(f"all runs tie on {axis}; scoring every run 1.0",
                      stacklevel=2)
        return np.ones_like(v)
    return 1.0 - (v - lo) / (hi - lo)


def radar_scores(summaries: list[dict]) -> list[dict]:
    """Per-run scores on the four radar axes, sorted by ratio."""
    if not summaries:
        raise ConfigError("no run summaries to score")
    for s in summaries:
        missing = [k for k in _REQUIRED if k not in s]
        if missing:
            raise ConfigError(f"run summary is missing {missing}")
    runs = sorted(summaries, key=lambda s: s["encryption_ratio"])
    ratios = [s["encryption_ratio"] for s in runs]
    if len(set(ratios)) != len(ratios):
        raise ConfigError(f"duplicate encryption ratios in sweep: {ratios}")
    e_comp = normalized_efficiency([s["total_wall_ms"] for s in runs],
                                   "efficiency_compute")
    e_gen = normalized_efficiency(
        [s["final_train_accuracy"] - s["final_test_accuracy"] for s in runs],
        "efficiency_generalization")
    e_loss = normalized_efficiency([s["final_train_loss"] for s in runs],
                                   "efficiency_loss")
    return [{
        "encryption_ratio": s["encryption_ratio"],
        "accuracy": s["final_test_accuracy"],
        "efficiency_compute": float(e_comp[i]),
        "efficiency_generalization": float(e_gen[i]),
        "efficiency_loss": float(e_loss[i]),
    } for i, s in enumerate(runs)]


def _fmt(value) -> str:
    if isinstance(value, bool):
        raise ConfigError("boolean has no CSV representation here")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.6f}"


def _csv(rows: list[dict], columns: tuple[str, ...]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    return "\r\n".join(lines) + "\r\n"


def per_round_table(summaries: list[dict]) -> str:
    rows = []
    for s in sorted(summaries, key=lambda s: s["encryption_ratio"]):
        for rec in s.get("records", []):
            rows.append({**rec, "encryption_ratio": s["encryption_ratio"]})
    return _csv(rows, _RECORD_COLUMNS)


def gap_table(summaries: list[dict]) -> str:
    rows = [{
        "encryption_ratio": s["encryption_ratio"],
        "train_accuracy": s["final_train_accuracy"],
        "test_accuracy": s["final_test_accuracy"],
        "generalization_gap": (s["final_train_accuracy"]
                               - s["final_test_accuracy"]),
    } for s in sorted(summaries, key=lambda s: s["encryption_ratio"])]
    return _csv(rows, ("encryption_ratio", "train_accuracy",
                       "test_accuracy", "generalization_gap"))


def radar_table(scores: list[dict]) -> str:
    return _csv(scores, ("encryption_ratio", "accuracy",
                         "efficiency_compute", "efficiency_generalization",
                         "efficiency_loss"))


def emit_reports(summaries: list[dict], out_dir: str | Path) -> dict:
    """Validate, then write summary.json, radar.csv, per_round.csv, gap.csv.

    All contents are rendered before anything touches disk, so a
    validation failure leaves no partial report behind.
    """
    scores = radar_scores(summaries)
    files = {
        "radar.csv": radar_table(scores),
        "per_round.csv": per_round_table(summaries),
        "gap.csv": gap_table(summaries),
    }
    report = {
        "runs": [{k: s[k] for k in _REQUIRED}
                 for s in sorted(summaries,
                                 key=lambda s: s["encryption_ratio"])],
        "radar": scores,
    }
    files["summary.json"] = json.dumps(report, indent=2, sort_keys=True) + "\n"
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text, newline="")
    return report
