#!/usr/bin/env python3
"""Gradient-inversion success rate versus encryption ratio.

For each ratio and seed: set up the configs/attack-capture.json
experiment at that ratio and seed, build round 1's shared mask, take
client 0's single-step update, and try to reconstruct its input from
the plaintext share an observer sees.  This is the path the
acceptance suite's DLG criterion runs.  Writes a CSV and prints a
summary row per ratio.

Usage: python scripts/attack_eval.py OUT.csv [--ratios ...] [--seeds N]
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from hefl.attack import AttackConfig, attack_example, visible_view
from hefl.protocol import (client_update, config_from_dict, init_experiment,
                           round_mask, single_step_batch)

CAPTURE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / \
    "attack-capture.json"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", help="output CSV path")
    ap.add_argument("--ratios", default="0,0.1,0.25,0.5,0.75,0.9,1.0")
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--iterations", type=int, default=AttackConfig.iterations)
    ap.add_argument("--restarts", type=int, default=AttackConfig.restarts)
    args = ap.parse_args()

    base = json.loads(CAPTURE_CONFIG.read_text())
    attack_cfg = AttackConfig(iterations=args.iterations,
                              restarts=args.restarts)
    rows = ["encryption_ratio,seed,visible_count,input_mse,psnr_db,success,"
            "label_inferred"]
    for ratio in (float(r) for r in args.ratios.split(",")):
        wins, mses = 0, []
        for seed in range(args.seeds):
            state = init_experiment(config_from_dict(
                dict(base, encryption_ratio=ratio, seed=seed)))
            mask = round_mask(state)
            update, _ = client_update(state, 0, mask)
            x, y = single_step_batch(state, 0, 1)
            res = attack_example(state.model, visible_view(update, mask),
                                 x[0], int(y[0]), attack_cfg, seed=seed)
            wins += res.success
            mses.append(res.input_mse)
            rows.append(f"{ratio:.6f},{seed},{res.visible_count},"
                        f"{res.input_mse:.6e},{res.psnr_db:.3f},"
                        f"{int(res.success)},"
                        f"{'' if res.label_inferred is None else res.label_inferred}")
        print(f"ratio {ratio:g}: success {wins}/{args.seeds}, "
              f"median mse {np.median(mses):.2e}")
    Path(args.out).write_text("\r\n".join(rows) + "\r\n", newline="")
    print(f"rows -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
