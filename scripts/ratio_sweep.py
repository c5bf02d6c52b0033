#!/usr/bin/env python3
"""Train the desk-scale task at several encryption ratios and report.

Produces one run directory per ratio plus the cross-run tables
(radar.csv, per_round.csv, gap.csv) under OUT/report.

Usage: python scripts/ratio_sweep.py OUT [--ratios 0,0.1,0.5,1.0] [--seed N]
"""

import argparse
import sys
from pathlib import Path

from hefl.metrics import emit_reports
from hefl.protocol import config_from_dict, load_run, run_experiment


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", help="output directory")
    ap.add_argument("--ratios", default="0,0.1,0.5,1.0",
                    help="comma-separated encryption ratios")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--sensitivity-method", default="magnitude",
                    choices=("magnitude", "jacobian"))
    args = ap.parse_args()

    ratios = [float(r) for r in args.ratios.split(",")]
    out = Path(args.out)
    summaries = []
    for ratio in ratios:
        cfg = config_from_dict({
            "encryption_ratio": ratio,
            "seed": args.seed,
            "sensitivity_method": args.sensitivity_method,
        })
        run_dir = out / f"run_r{ratio:g}"
        run_experiment(cfg, run_dir)
        summary = load_run(run_dir)
        summaries.append(summary)
        print(f"ratio {ratio:g}: test accuracy "
              f"{summary['final_test_accuracy']:.4f}, "
              f"wall {summary['total_wall_ms'] / 1000.0:.1f} s")
    emit_reports(summaries, out / "report")
    print(f"report -> {out / 'report'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
