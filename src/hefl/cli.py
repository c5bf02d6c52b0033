"""Command-line front end.

Subcommands mirror the library layers: `keygen` and `bench` exercise
the encryption core, `train` runs the federated protocol, `attack`
replays a gradient-inversion attempt against a capture file, and
`report` aggregates finished runs into comparison tables.

Exit codes: 0 success, 2 usage, 3 configuration, 4 crypto failure,
5 numeric failure, 6 I/O or parse failure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import ckks
from .attack import AttackConfig, attack_example, load_capture, write_pgm
from .errors import EXIT_IO, EXIT_USAGE, HeflError, UsageError
from .metrics import emit_reports
from .protocol import config_from_dict, load_config, load_run, run_experiment

_BENCH_OPS = ("encode", "encrypt", "he_add", "mul_rescale", "decrypt")


def _formatter(prog: str) -> argparse.HelpFormatter:
    # Fixed width keeps --help output independent of the terminal.
    return argparse.HelpFormatter(prog, width=80)


def _seed(text: str) -> int:
    """argparse type of the key, attack and bench seeds: [0, 2**63)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seed {text!r} is not an integer") from None
    if not 0 <= value < 2 ** 63:
        raise argparse.ArgumentTypeError(f"seed {value} outside [0, 2**63)")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hefl",
        formatter_class=_formatter,
        description="Federated averaging with selectively encrypted "
                    "gradients (CKKS).")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    p = sub.add_parser(
        "keygen", formatter_class=_formatter,
        help="generate a key pair for a parameter profile",
        description="Generate a secret/public key pair and write both to "
                    "--out as secret.key and public.key.")
    p.add_argument("--ckks-profile", default="test-small",
                   help="parameter profile name (default: %(default)s)")
    p.add_argument("--seed", type=_seed, default=0,
                   help="key generation seed (default: %(default)s)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser(
        "train", formatter_class=_formatter,
        help="run a federated training experiment",
        description="Run federated rounds and write records.jsonl, "
                    "checkpoint.bin and summary.json to --out. Flags "
                    "override the config file, which overrides defaults.")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", required=True, help="run output directory")
    p.add_argument("--seed", type=int, help="experiment seed")
    p.add_argument("--encryption-ratio", type=float,
                   help="fraction of coordinates to encrypt, in [0, 1]")
    p.add_argument("--sensitivity-method", choices=("magnitude", "jacobian"),
                   help="mask scoring method")
    p.add_argument("--ckks-profile", help="parameter profile name")
    p.add_argument("--resume", action="store_true",
                   help="continue from the checkpoint in --out")
    p.add_argument("--single-step", action="store_const", const=True,
                   default=None, dest="single_step",
                   help="one-batch gradient mode; round 1 writes attack "
                        "capture files (diagnostic, not for training)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "attack", formatter_class=_formatter,
        help="reconstruct an input from a gradient capture",
        description="Run the gradient-inversion attack on a capture file "
                    "written by train --single-step. Writes result.json "
                    "plus reconstruction and target images to --out.")
    p.add_argument("--capture", required=True, help="capture JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=_seed, default=0,
                   help="attack seed (default: %(default)s)")
    p.add_argument("--iterations", type=int, default=AttackConfig.iterations,
                   help="descent steps per restart (default: %(default)s)")
    p.add_argument("--restarts", type=int, default=AttackConfig.restarts,
                   help="random restarts (default: %(default)s)")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser(
        "report", formatter_class=_formatter,
        help="aggregate finished runs into comparison tables",
        description="Read one or more train output directories and write "
                    "radar.csv, per_round.csv, gap.csv and summary.json.")
    p.add_argument("--runs", nargs="+", required=True,
                   help="train output directories, one per ratio")
    p.add_argument("--out", required=True, help="report output directory")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "bench", formatter_class=_formatter,
        help="time the core encrypted operations",
        description="Median wall time of encode, encrypt, he_add, "
                    "mul_rescale and decrypt on one profile.")
    p.add_argument("--ckks-profile", default="test-small",
                   help="parameter profile name (default: %(default)s)")
    p.add_argument("--repeats", type=int, default=5,
                   help="timings per operation (default: %(default)s)")
    p.add_argument("--seed", type=_seed, default=0,
                   help="input vector seed (default: %(default)s)")
    p.add_argument("--out", help="also write the table as CSV to this file")
    p.set_defaults(func=cmd_bench)
    return parser


def cmd_keygen(args: argparse.Namespace) -> None:
    params = ckks.get_profile(args.ckks_profile)
    ctx = ckks.get_context(params)
    sk, pk = ckks.keygen(ctx, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "secret.key").write_bytes(ckks.serialize_secret_key(sk, ctx))
    (out / "public.key").write_bytes(ckks.serialize_public_key(pk, ctx))
    print(f"wrote {out / 'secret.key'} and {out / 'public.key'} "
          f"(profile {args.ckks_profile}, "
          f"fingerprint {params.fingerprint().hex()})")


def cmd_train(args: argparse.Namespace) -> None:
    overrides = {
        "seed": args.seed,
        "encryption_ratio": args.encryption_ratio,
        "sensitivity_method": args.sensitivity_method,
        "ckks_profile": args.ckks_profile,
        "single_step": args.single_step,
    }
    if args.config:
        cfg = load_config(args.config, overrides)
    else:
        cfg = config_from_dict({}, overrides)
    summary = run_experiment(cfg, args.out, resume=args.resume)
    print(f"ratio {cfg.encryption_ratio}: "
          f"test accuracy {summary['final_test_accuracy']:.4f} "
          f"after {cfg.rounds} rounds -> {args.out}")


def cmd_attack(args: argparse.Namespace) -> None:
    capture = load_capture(args.capture)
    cfg = AttackConfig(iterations=args.iterations, restarts=args.restarts)
    result = attack_example(capture["model"], capture["visible"],
                            capture["x"], capture["y"], cfg, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    body = {k: v for k, v in vars(result).items()
            if not isinstance(v, np.ndarray)}
    body.update(capture=Path(args.capture).name,
                encryption_ratio=capture["encryption_ratio"])
    (out / "result.json").write_text(
        json.dumps(body, indent=2, sort_keys=True) + "\n")
    shape = capture["model"].arch.input_shape
    if len(shape) == 2:
        write_pgm(out / "reconstruction.pgm",
                  result.reconstruction.reshape(shape))
        write_pgm(out / "target.pgm", result.target.reshape(shape))
    status = "success" if result.success else "failure"
    print(f"attack {status}: mse {result.input_mse:.6f} "
          f"(visible {result.visible_count}/{result.visible_total}) "
          f"-> {out / 'result.json'}")


def cmd_report(args: argparse.Namespace) -> None:
    summaries = [load_run(run_dir) for run_dir in args.runs]
    # each warning (a tied axis) is one plain stderr line, not Python's
    # path-and-source-line format
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        emit_reports(summaries, args.out)
    for w in caught:
        print(f"hefl report: {w.message}", file=sys.stderr)
    print(f"report over {len(summaries)} runs -> {args.out}")


def _bench_once(profile: str, repeats: int, seed: int) -> dict[str, float]:
    params = ckks.get_profile(profile)
    ctx = ckks.get_context(params)
    sk, pk = ckks.keygen(ctx, seed)
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1.0, 1.0, params.slot_count)

    def timed(fn) -> float:
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
        return statistics.median(samples) * 1000.0

    pt = ckks.encode(values, ctx)
    ct = ckks.encrypt(pt, pk, ctx, seed)
    ct2 = ckks.encrypt(pt, pk, ctx, seed + 1)
    product = ckks.he_mul_scalar(ct, 0.5, ctx)
    return {
        "encode": timed(lambda: ckks.encode(values, ctx)),
        "encrypt": timed(lambda: ckks.encrypt(pt, pk, ctx, seed)),
        "he_add": timed(lambda: ckks.he_add(ct, ct2, ctx)),
        "mul_rescale": timed(
            lambda: ckks.rescale(ckks.he_mul_scalar(ct, 0.5, ctx), ctx)),
        "decrypt": timed(lambda: ckks.decrypt(product, sk, ctx)),
    }


def cmd_bench(args: argparse.Namespace) -> None:
    if args.repeats < 1:
        raise UsageError("--repeats must be at least 1")
    medians = _bench_once(args.ckks_profile, args.repeats, args.seed)
    width = max(len(op) for op in _BENCH_OPS)
    print(f"profile {args.ckks_profile}, median of {args.repeats}:")
    for op in _BENCH_OPS:
        print(f"  {op:<{width}}  {medians[op]:10.3f} ms")
    if args.out:
        lines = ["operation,median_ms"]
        lines += [f"{op},{medians[op]:.6f}" for op in _BENCH_OPS]
        Path(args.out).write_text("\r\n".join(lines) + "\r\n", newline="")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass through.
        return int(exc.code or 0)
    try:
        args.func(args)
    except HeflError as exc:
        print(f"hefl {args.command}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"hefl {args.command}: {exc}", file=sys.stderr)
        return EXIT_IO
    return 0


if __name__ == "__main__":
    sys.exit(main())
