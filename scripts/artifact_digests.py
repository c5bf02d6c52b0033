#!/usr/bin/env python3
"""Print one sha256 per deterministic artifact of a fixed set of runs.

The set covers what hefl promises to reproduce bit for bit: the
toy-desk config at r = 0, 0.1 and 1, a paper-128 run at r = 0.1, a
linear run under the jacobian mask, a run stopped after round 5 and
resumed, the attack-capture captures at r = 0.1 with `hefl attack`'s
result and images, and `hefl keygen` keys of both profiles.  Records
are hashed without `wall_ms` and summaries without their timings; every
other artifact is hashed as written.

Two trees that print the same JSON write the same artifacts, so this is
the byte-identity check of a refactor: run it on both and diff.

Usage: PYTHONPATH=src python scripts/artifact_digests.py [--out FILE]
"""

import argparse
import hashlib
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from hefl import cli
from hefl.protocol import (CHECKPOINT_EVERY, CHECKPOINT_FILE, init_experiment,
                           load_config, run_round, save_checkpoint)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical(body) -> bytes:
    return json.dumps(body, sort_keys=True).encode()


def run_digests(run_dir: Path, name: str) -> dict[str, str]:
    """Digests of one run directory's records, summary, checkpoint and
    captures, keyed `name/file`."""
    records = [json.loads(line) for line in
               (run_dir / "records.jsonl").read_text().splitlines()]
    for record in records:
        del record["wall_ms"]
    summary = json.loads((run_dir / "summary.json").read_text())
    del summary["stage_totals_ms"], summary["total_wall_ms"]
    out = {f"{name}/records.jsonl": _sha(_canonical(records)),
           f"{name}/summary.json": _sha(_canonical(summary)),
           f"{name}/{CHECKPOINT_FILE}":
               _sha((run_dir / CHECKPOINT_FILE).read_bytes())}
    for capture in sorted(run_dir.glob("capture_*.json")):
        out[f"{name}/{capture.name}"] = _sha(capture.read_bytes())
    return out


def _hefl(*argv) -> None:
    # the CLI's progress lines go to stderr, so stdout holds only the JSON
    with redirect_stdout(sys.stderr):
        code = cli.main([str(a) for a in argv])
    if code:
        raise RuntimeError(f"hefl {' '.join(map(str, argv))} exited {code}")


def _config(work: Path, name: str, overrides: dict) -> Path:
    toy = json.loads((CONFIGS / "toy-desk.json").read_text())
    path = work / f"{name}.json"
    path.write_text(json.dumps({**toy, **overrides}))
    return path


def train(work: Path, name: str, overrides: dict) -> dict[str, str]:
    """`hefl train` on toy-desk with `overrides` applied."""
    _hefl("train", "--config", _config(work, name, overrides),
          "--out", work / name)
    return run_digests(work / name, name)


def resumed(work: Path, name: str, overrides: dict) -> dict[str, str]:
    """A run stopped after its first checkpoint, then `hefl train
    --resume`d to the end."""
    config = _config(work, name, overrides)
    state = init_experiment(load_config(config))
    run_dir = work / name
    run_dir.mkdir()
    lines = [run_round(state)[0].to_json() + "\n"
             for _ in range(CHECKPOINT_EVERY)]
    (run_dir / "records.jsonl").write_text("".join(lines))
    save_checkpoint(run_dir / CHECKPOINT_FILE, state)
    _hefl("train", "--config", config, "--out", run_dir, "--resume")
    return run_digests(run_dir, name)


def attacks(work: Path) -> dict[str, str]:
    """attack-capture's captures at r = 0.1, so that they carry
    ciphertexts, then `hefl attack` on each."""
    _hefl("train", "--config", CONFIGS / "attack-capture.json",
          "--encryption-ratio", 0.1, "--out", work / "capture")
    out = run_digests(work / "capture", "capture")
    for capture in sorted((work / "capture").glob("capture_*.json")):
        dest = work / f"attack_{capture.stem}"
        _hefl("attack", "--capture", capture, "--out", dest)
        for artifact in sorted(dest.iterdir()):
            out[f"attack/{capture.stem}/{artifact.name}"] = _sha(
                artifact.read_bytes())
    return out


def keys(work: Path, profile: str) -> dict[str, str]:
    _hefl("keygen", "--ckks-profile", profile, "--out", work / profile)
    return {f"keys/{profile}/{f.name}": _sha(f.read_bytes())
            for f in sorted((work / profile).iterdir())}


def all_digests(work: Path) -> dict[str, str]:
    out = {}
    for ratio in (0.0, 0.1, 1.0):
        out |= train(work, f"toy-desk-r{ratio:g}", {"encryption_ratio": ratio})
    out |= train(work, "paper-128-r0.1", {"ckks_profile": "paper-128"})
    out |= train(work, "linear-jacobian",
                 {"arch": "linear", "sensitivity_method": "jacobian"})
    out |= resumed(work, "resumed-r0.1", {})
    out |= attacks(work)
    for profile in ("test-small", "paper-128"):
        out |= keys(work, profile)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="also write the JSON to this file")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        text = json.dumps(all_digests(Path(tmp)), indent=2, sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
