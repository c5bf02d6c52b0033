"""The benchmark's workloads: the config each one hands to the program.

All four use the toy mlp2 task (6,570 parameters) with 3 clients.  The
seed comes from the benchmark's command line; the program only ever
sees the config generated here.
"""

from __future__ import annotations

import json
from pathlib import Path

# Rounds per `run_experiment` call.  A run makes calls until it has at
# least MIN_ROUNDS rounds, so ten rounds lie beyond p90, and checkpoints
# land on rounds 5, 10, 15 and 20 of every call.
UNIT_ROUNDS = 20
MIN_ROUNDS = 100

TRAIN = {
    "plain-small": {"encryption_ratio": 0.0, "ckks_profile": "test-small"},
    "enc-small": {"encryption_ratio": 1.0, "ckks_profile": "test-small"},
    "partial-paper": {"encryption_ratio": 0.1, "ckks_profile": "paper-128"},
}
ATTACK = "attack"
ATTACK_RATIO = 0.1
NAMES = (*TRAIN, ATTACK)


def config_dict(root: Path, workload: str, seed: int) -> dict:
    """The program's config for one workload and seed."""
    if workload == ATTACK:
        path = root / "configs" / "attack-capture.json"
        raw = json.loads(path.read_text())
        return dict(raw, encryption_ratio=ATTACK_RATIO, seed=seed)
    return dict(clients=3, rounds=UNIT_ROUNDS, dataset="toy", arch="mlp2",
                sensitivity_method="magnitude", seed=seed, **TRAIN[workload])
