"""Reference values the benchmark checks the program's outputs against.

Training runs are replayed as all-plaintext FedAvg with the protocol's
seeds and schedule.  The replay selects each round's mask and averages
the client updates itself, so it checks the program's sensitivity,
aggregation (encrypted and plaintext) and record paths; the local
training of each client comes from `protocol.local_update_vector`.  At
r = 0 the program must match the replay bit for bit.  With an encrypted
share the aggregate carries CKKS noise, so accuracies and losses get a
tolerance, while rounds, mask sizes and mask fingerprints stay exact.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

# Largest gaps allowed between program and replay when part of the
# update is encrypted.  Accuracies sit on a grid of 1/512 or finer.  Over
# a 20-round run, CKKS noise moved the loss by up to 1.5e-5 at test-small
# with r = 1 and by 1e-10 at paper-128 (seeds 0-2), against losses of
# about 0.04.
ACC_TOL = 2.5 / 512
LOSS_TOL = 2e-4

RECORD_EXACT = ("round", "encryption_ratio", "sensitivity_method",
                "mask_count", "mask_fingerprint")
RECORD_CLOSE = ("train_accuracy", "test_accuracy", "avg_train_loss")
SUMMARY_CLOSE = ("final_train_accuracy", "final_test_accuracy",
                 "final_train_loss")


def train_reference(protocol, model, cfg) -> tuple[list[dict], dict]:
    """Records and summary an uninterrupted run of `cfg` must produce."""
    if cfg.sensitivity_method != "magnitude":
        raise ValueError("the replay implements magnitude masks only")
    state = protocol.init_experiment(cfg)
    n = state.model.size
    k = math.floor(cfg.encryption_ratio * n + 0.5)
    records = []
    for rnd in range(1, cfg.rounds + 1):
        scores = np.abs(state.model.flat if state.prev_update is None
                        else state.prev_update)
        chosen = np.sort(np.argsort(-scores, kind="stable")[:k])
        digest = hashlib.sha256(np.array(n, "<i8").tobytes()
                                + chosen.astype("<i8").tobytes())
        total = np.zeros(n)
        for client in range(cfg.clients):
            total += protocol.local_update_vector(state, client)[0]
        agg = total / cfg.clients
        state.model = model.ModelState(state.arch, state.model.flat - agg)
        state.prev_update = agg
        state.round_index = rnd
        train_acc, train_loss = model.evaluate(
            state.model, state.train_all.x, state.train_all.y)
        test_acc, _ = model.evaluate(state.model, state.test.x, state.test.y)
        records.append({
            "round": rnd,
            "encryption_ratio": cfg.encryption_ratio,
            "sensitivity_method": cfg.sensitivity_method,
            "mask_count": k,
            "mask_fingerprint": digest.hexdigest()[:16],
            "train_accuracy": round(train_acc, 10),
            "test_accuracy": round(test_acc, 10),
            "avg_train_loss": round(train_loss, 10),
        })
    summary = {"final_train_accuracy": train_acc,
               "final_test_accuracy": test_acc,
               "final_train_loss": train_loss}
    return records, summary


def _close(key: str, got, want: float, exact: bool) -> bool:
    if exact:
        return got == want
    if not isinstance(got, (int, float)):
        return False
    return abs(got - want) <= (LOSS_TOL if "loss" in key else ACC_TOL)


def compare_train(records: list[dict], summary: dict, ref_records: list[dict],
                  ref_summary: dict, exact: bool) -> list[str]:
    """Mismatches between one run's outputs and the replay, one per field."""
    problems = []
    if len(records) != len(ref_records):
        return [f"{len(records)} records, expected {len(ref_records)}"]
    for got, want in zip(records, ref_records):
        for key in RECORD_EXACT:
            if got.get(key) != want[key]:
                problems.append(f"round {want['round']} {key}: "
                                f"{got.get(key)!r} != {want[key]!r}")
        for key in RECORD_CLOSE:
            if not _close(key, got.get(key), want[key], exact):
                problems.append(f"round {want['round']} {key}: "
                                f"{got.get(key)!r} vs {want[key]!r}")
    for key in SUMMARY_CLOSE:
        if not _close(key, summary.get(key), ref_summary[key], exact):
            problems.append(f"summary {key}: {summary.get(key)!r} vs "
                            f"{ref_summary[key]!r}")
    return problems


def attack_reference(protocol, cfg) -> tuple[dict[int, int], int]:
    """Label of the example each client drew for its round-1 capture,
    and how many coordinates the attacker sees."""
    state = protocol.init_experiment(cfg)
    labels = {c: int(protocol.single_step_batch(state, c, 1)[1][0])
              for c in range(cfg.clients)}
    total = state.model.size
    return labels, total - math.floor(cfg.encryption_ratio * total + 0.5)


def compare_attack(attacks: list[dict], labels: dict[int, int],
                   visible: int) -> list[str]:
    """Each attack must succeed, on the captured label, seeing `visible`."""
    problems = []
    for a in attacks:
        want = labels[a["client"]]
        if not a["success"]:
            problems.append(f"attack on client {a['client']} failed")
        if a["label_true"] != want or a["label_used"] != want:
            problems.append(f"client {a['client']} label true/used "
                            f"{a['label_true']}/{a['label_used']}, "
                            f"expected {want}")
        if a["visible_count"] != visible:
            problems.append(f"client {a['client']} saw {a['visible_count']} "
                            f"coordinates, expected {visible}")
    return problems
