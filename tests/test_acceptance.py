"""End-to-end acceptance gate.

One test per shipping criterion; each appends a PASS/FAIL line with its
measured values to the terminal summary.  Budgets are wall-clock guards
for a laptop-class machine, far above the expected times, so a pass
here means real headroom rather than a lucky run.
"""

import json
import time

import numpy as np

import hefl.ckks as ckks
from hefl.attack import AttackConfig, attack_example, visible_view
from hefl.ckks.modmath import largest_ntt_primes, mulmod_shoup, shoup
from hefl.ckks.ntt import make_prime_ntt, ntt_forward, ntt_inverse
from hefl.cli import _bench_once, main
from hefl.metrics import normalized_efficiency, radar_scores
from hefl.model import evaluate
from hefl.protocol import (apply_global_update, client_update,
                           config_from_dict, init_experiment,
                           local_update_vector, round_mask, run_round,
                           single_step_batch)
from hefl.sensitivity import select_top_r

from .oracles import negacyclic_kronecker, negacyclic_schoolbook, topr_select


def verdict(log, n, ok, detail):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'}  {detail}"
    log.append(line)
    assert ok, line


def plaintext_fedavg(cfg):
    """All-plaintext FedAvg reference with the same seeds and schedule."""
    state = init_experiment(cfg)
    for _ in range(cfg.rounds):
        total = np.zeros(state.model.size)
        for cid in range(cfg.clients):
            total += local_update_vector(state, cid)[0]
        agg = total / cfg.clients
        state.model = apply_global_update(state.model, agg)
        state.prev_update = agg
        state.round_index += 1
    return state


def test_criterion_1_ckks_precision(acceptance_log):
    """1000 trials at the 128-bit profile: encrypt/add/decrypt and
    scalar-multiply+rescale stay within fixed error bounds."""
    t0 = time.perf_counter()
    ctx = ckks.get_context(ckks.get_profile("paper-128"))
    sk, pk = ckks.keygen(ctx, 7)
    slots = ctx.params.slot_count
    master = np.random.SeedSequence(0xACC1)
    worst_add = worst_mul = 0.0
    k_inv = 1.0 / 3.0
    for trial, child in enumerate(master.spawn(1000)):
        rng = np.random.default_rng(child)
        a = rng.uniform(-1.0, 1.0, slots)
        b = rng.uniform(-1.0, 1.0, slots)
        ct_a = ckks.encrypt(ckks.encode(a, ctx), pk, ctx, (0xACC1, trial, 0))
        ct_b = ckks.encrypt(ckks.encode(b, ctx), pk, ctx, (0xACC1, trial, 1))
        got_sum = ckks.decode(
            ckks.decrypt(ckks.he_add(ct_a, ct_b, ctx), sk, ctx), ctx)
        worst_add = max(worst_add, float(np.max(np.abs(got_sum - (a + b)))))
        scaled = ckks.rescale(ckks.he_mul_scalar(ct_a, k_inv, ctx), ctx)
        got_third = ckks.decode(ckks.decrypt(scaled, sk, ctx), ctx)
        worst_mul = max(worst_mul,
                        float(np.max(np.abs(got_third - a * k_inv))))
    dt = time.perf_counter() - t0
    ok = worst_add <= 1e-6 and worst_mul <= 1e-5 and dt < 300
    verdict(acceptance_log, 1, ok,
            f"enc/add/dec max err {worst_add:.2e} (<=1e-6), "
            f"mul+rescale max err {worst_mul:.2e} (<=1e-5), "
            f"{dt:.0f}s (<300s)")


def test_criterion_2_ntt_oracle(acceptance_log):
    """Exact agreement with schoolbook convolution for small rings and
    with an independent big-integer oracle for 10^4 cases at N=1024."""
    t0 = time.perf_counter()

    def ring_multiply(a, b, tab):
        fa = ntt_forward(np.asarray(a, dtype=np.uint64), tab)
        fb = ntt_forward(np.asarray(b, dtype=np.uint64), tab)
        fb_sh = np.array([shoup(int(x), tab.q) for x in fb], dtype=np.uint64)
        return ntt_inverse(mulmod_shoup(fa, fb, fb_sh, tab.q_u64), tab)

    small_cases = 0
    mismatches = 0
    for n in (8, 16, 32):
        q = largest_ntt_primes(40, n, count=1)[0]
        tab = make_prime_ntt(n, q)
        for i in range(n):
            for j in range(n):
                a = np.zeros(n, dtype=np.uint64)
                b = np.zeros(n, dtype=np.uint64)
                a[i] = 123456789 % q
                b[j] = 987654321 % q
                if not np.array_equal(ring_multiply(a, b, tab),
                                      negacyclic_schoolbook(a, b, q)):
                    mismatches += 1
                small_cases += 1

    n = 1024
    q = largest_ntt_primes(50, n, count=1)[0]
    tab = make_prime_ntt(n, q)
    rng = np.random.default_rng(0xACC2)
    big_cases = 10_000
    for _ in range(big_cases):
        a = rng.integers(0, q, n, dtype=np.uint64)
        b = rng.integers(0, q, n, dtype=np.uint64)
        if not np.array_equal(ring_multiply(a, b, tab),
                              negacyclic_kronecker(a, b, q)):
            mismatches += 1
    dt = time.perf_counter() - t0
    ok = mismatches == 0 and dt < 300
    verdict(acceptance_log, 2, ok,
            f"{small_cases} exhaustive small-ring + {big_cases} random "
            f"N=1024 cases, {mismatches} mismatches, {dt:.0f}s")


def test_criterion_3_aggregation_equivalence(acceptance_log):
    """Encrypted-share FedAvg tracks the all-plaintext reference, and the
    fully encrypted run keeps the accuracy of the plaintext run."""
    t0 = time.perf_counter()
    base = dict(clients=3, rounds=10, seed=0)
    drift = {}
    accs = {}
    for ratio in (0.0, 0.1, 0.5, 1.0):
        cfg = config_from_dict(dict(base, encryption_ratio=ratio))
        state = init_experiment(cfg)
        for _ in range(cfg.rounds):
            run_round(state)
        ref = plaintext_fedavg(cfg)
        drift[ratio] = float(np.max(np.abs(state.model.flat
                                           - ref.model.flat)))
        accs[ratio] = (evaluate(state.model, state.train_all.x,
                                state.train_all.y)[0],
                       evaluate(state.model, state.test.x, state.test.y)[0])
    worst = max(drift.values())
    train_gap = abs(accs[0.0][0] - accs[1.0][0])
    test_gap = abs(accs[0.0][1] - accs[1.0][1])
    dt = time.perf_counter() - t0
    ok = (drift[0.0] == 0.0 and worst <= 1e-4
          and train_gap <= 0.005 and test_gap <= 0.005 and dt < 600)
    verdict(acceptance_log, 3, ok,
            f"r=0 drift {drift[0.0]:.1e} (exact), worst drift {worst:.1e} "
            f"(<=1e-4), r0-vs-r1 acc gap train {train_gap*100:.2f}pp / "
            f"test {test_gap*100:.2f}pp (<=0.5pp), {dt:.0f}s (<600s)")


def test_criterion_4_dlg_defense(acceptance_log):
    """Gradient inversion succeeds on unprotected single-step gradients
    and degrades to the random-init baseline under full encryption."""
    t0 = time.perf_counter()
    hits = {0.0: 0, 1.0: 0}
    ratio_gap = 0.0
    for seed in range(5):
        for ratio in (0.0, 1.0):
            cfg = config_from_dict(dict(
                clients=3, rounds=1, encryption_ratio=ratio, seed=seed,
                single_step=True, batch_size=1, train_size=96, test_size=32,
                calibration_batches=1))
            state = init_experiment(cfg)
            mask = round_mask(state)
            update, _ = client_update(state, 0, mask)
            x, y = single_step_batch(state, 0, 1)
            result = attack_example(state.model,
                                    visible_view(update, mask),
                                    x[0], int(y[0]), AttackConfig(), seed)
            hits[ratio] += result.success
            if ratio == 1.0:
                ratio_gap = max(ratio_gap, abs(
                    result.input_mse / result.baseline_mse - 1.0))
    dt = time.perf_counter() - t0
    ok = (hits[0.0] >= 3 and hits[1.0] == 0 and ratio_gap <= 0.10
          and dt < 900)
    verdict(acceptance_log, 4, ok,
            f"attack success {hits[0.0]}/5 at r=0 (>=3), {hits[1.0]}/5 at "
            f"r=1 (=0), r=1 mse within {ratio_gap*100:.1f}% of random init "
            f"(<=10%), {dt:.0f}s (<900s)")


def test_criterion_5_selection_oracle(acceptance_log):
    """Top-fraction selection equals brute-force sorting, exactly."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0xACC5)
    grid = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
    mismatches = 0
    cases = 1000
    for i in range(cases):
        n = int(rng.integers(1, 500))
        scores = rng.normal(size=n)
        if i % 3 == 0:                      # force score ties
            scores = np.round(scores, 1)
        ratio = grid[i % len(grid)]
        if select_top_r(scores, ratio).indices.tolist() \
                != topr_select(scores, ratio):
            mismatches += 1
    dt = time.perf_counter() - t0
    ok = mismatches == 0
    verdict(acceptance_log, 5, ok,
            f"{cases} random vectors across r grid, "
            f"{mismatches} mismatches, {dt:.0f}s")


def test_criterion_6_metrics_formulas(acceptance_log):
    """Normalization hits the boundary/midpoint values exactly and stays
    inside [0, 1] for random sweeps."""
    t0 = time.perf_counter()
    exact = normalized_efficiency([2.0, 4.0, 6.0]).tolist() == [1.0, 0.5, 0.0]
    rng = np.random.default_rng(0xACC6)
    in_range = True
    for _ in range(200):
        k = int(rng.integers(2, 9))
        runs = [{
            "encryption_ratio": float(j) / k,
            "sensitivity_method": "magnitude",
            "rounds": 10,
            "final_train_accuracy": float(rng.uniform(0, 1)),
            "final_test_accuracy": float(rng.uniform(0, 1)),
            "final_train_loss": float(rng.uniform(0, 5)),
            "total_wall_ms": float(rng.uniform(1, 1e5)),
        } for j in range(k)]
        for score in radar_scores(runs):
            for axis in ("efficiency_compute", "efficiency_generalization",
                         "efficiency_loss"):
                if not 0.0 <= score[axis] <= 1.0:
                    in_range = False
    dt = time.perf_counter() - t0
    ok = exact and in_range
    verdict(acceptance_log, 6, ok,
            f"boundary/midpoint exact: {exact}, 200 random sweeps in "
            f"[0,1]: {in_range}, {dt:.0f}s")


def test_criterion_7_determinism(acceptance_log, tmp_path):
    """Two identical `train` invocations agree byte for byte outside the
    timing fields."""
    t0 = time.perf_counter()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "clients": 3, "rounds": 3, "encryption_ratio": 0.1, "seed": 1,
        "train_size": 192, "test_size": 64, "calibration_batches": 1}))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)

    def stripped(path):
        rows = []
        for line in (path / "records.jsonl").read_text().splitlines():
            row = json.loads(line)
            row.pop("wall_ms")
            rows.append(row)
        return rows

    records_equal = stripped(outs[0]) == stripped(outs[1])
    ckpt_equal = ((outs[0] / "checkpoint.bin").read_bytes()
                  == (outs[1] / "checkpoint.bin").read_bytes())
    dt = time.perf_counter() - t0
    ok = records_equal and ckpt_equal
    verdict(acceptance_log, 7, ok,
            f"records identical: {records_equal}, checkpoints identical: "
            f"{ckpt_equal}, {dt:.0f}s")


def test_criterion_8_bench_ordering(acceptance_log):
    """Homomorphic addition is cheap relative to encryption on the
    128-bit profile (4096 slots)."""
    t0 = time.perf_counter()
    medians = _bench_once("paper-128", repeats=5, seed=0)
    dt = time.perf_counter() - t0
    ok = medians["he_add"] < medians["encrypt"]
    verdict(acceptance_log, 8, ok,
            f"he_add {medians['he_add']:.3f} ms < encrypt "
            f"{medians['encrypt']:.3f} ms, decrypt "
            f"{medians['decrypt']:.3f} ms, {dt:.0f}s")
