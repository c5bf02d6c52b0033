#!/usr/bin/env python3
"""hefl benchmark: one workload per invocation, result as one JSON line.

    python3 perfbench/run.py --workload enc-small --seed 1 --seconds 20 \
        --trace 0

Run from anywhere inside a checkout that holds `src/hefl`; the program
is imported from that source tree, never from an installed copy.  With
--trace 0 a fresh worker process sets up and runs the workload for
--seconds (and at least MIN_ROUNDS rounds), more fresh processes repeat
the set-up alone, and the end-to-end metrics of BENCHMARK.json are
printed.  With --trace 1 two fixed-size runs of the same work, one
untraced and one traced, give the per-layer metrics and the tracing
overhead.  Every run checks the program's outputs against reference
values for the seed and exits 1 on a mismatch; without the program it
exits 2 and prints no result.  Outputs go to `.perfbench_out/` in the
checkout, on whatever disk holds it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from spans import SPANS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_BASE = ROOT / ".perfbench_out"

SETUP_SAMPLES = 7          # fresh processes whose set-up time gives setup_s
TRACE_UNITS = 2            # units of work per run in --trace 1
WORKER_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 30

# One thread everywhere: the protocol's client pool and BLAS.
PINNED_ENV = {"HEFL_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchFailure(Exception):
    """The workload could not produce a result."""


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args()


# ---- machine and disk ------------------------------------------------------


def fs_type(path: Path) -> str:
    target = str(path.resolve())
    best, kind = "", "unknown"
    with open("/proc/mounts") as mounts:
        for line in mounts:
            fields = line.split()
            point = fields[1]
            inside = (target == point
                      or target.startswith(point.rstrip("/") + "/"))
            if inside and len(point) > len(best):
                best, kind = point, fields[2]
    return kind


def disk_probe(out: Path, repeats: int = 5) -> dict:
    """Median cost of truncating and rewriting a small file vs appending."""
    probe = out / "probe.jsonl"
    line = "x" * 120 + "\n"
    probe.write_text(line * 20)
    rewrite, append = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        probe.write_text(line * 20)
        rewrite.append(time.perf_counter() - start)
    for _ in range(repeats):
        start = time.perf_counter()
        with probe.open("a") as fh:
            fh.write(line)
        append.append(time.perf_counter() - start)
    probe.unlink()
    return {"rewrite_ms": statistics.median(rewrite) * 1e3,
            "append_ms": statistics.median(append) * 1e3}


def machine_info(np, out: Path) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = blas.get("openblas configuration") or \
            f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_build,
            "threads": {k: os.environ[k] for k in PINNED_ENV},
            "out_fs": fs_type(out),
            **disk_probe(out)}


# ---- workers ---------------------------------------------------------------


def run_worker(args, out: Path, tag: str, *mode: str,
               timeout: float = WORKER_TIMEOUT_S) -> dict:
    """Run one fresh worker process and return its result."""
    result = out / f"{tag}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--out", str(out / tag), "--result", str(result), *mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=timeout,
                              stdout=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        raise BenchFailure(f"worker {tag} ran past {timeout} s") from None
    if proc.returncode != 0:
        raise BenchFailure(f"worker {tag} exited with {proc.returncode}")
    data = json.loads(result.read_text())
    if not Path(data["hefl_file"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchFailure(f"worker imported hefl from {data['hefl_file']}")
    return data


# ---- correctness -----------------------------------------------------------


class Checks:
    """Named correctness checks; each one that finds a problem fails."""

    def __init__(self) -> None:
        self.count = 0
        self.problems: list[str] = []

    def add(self, what: str, problems: list[str]) -> None:
        self.count += 1
        if problems:
            self.problems.append(f"{what}: " + "; ".join(problems[:5]))

    @property
    def failed(self) -> int:
        return len(self.problems)


def check_units(checks: Checks, tag: str, units: list[dict],
                reference) -> None:
    """Compare every unit of a worker with the reference for the seed,
    and its upload sizes with those of the first unit."""
    first = units[0]["upload"]
    for i, unit in enumerate(units):
        where = f"{tag} unit {i}"
        checks.add(where, reference(unit))
        upload = unit["upload"]
        problems = []
        if not upload["uniform"]:
            problems.append("upload size differs between rounds or clients")
        if upload != first:
            problems.append(f"upload {upload} differs from unit 0 {first}")
        checks.add(f"{where} upload", problems)


def make_reference(hefl, args):
    """A function unit -> list of problems, for this workload and seed."""
    from reference import (attack_reference, compare_attack, compare_train,
                           train_reference)
    cfg = hefl.protocol.config_from_dict(
        workloads.config_dict(ROOT, args.workload, args.seed))
    if args.workload == workloads.ATTACK:
        labels, visible = attack_reference(hefl.protocol, cfg)
        return lambda unit: compare_attack(unit["attacks"], labels, visible)
    records, summary = train_reference(hefl.protocol, hefl.model, cfg)
    exact = cfg.encryption_ratio == 0.0
    return lambda unit: compare_train(unit["records"], unit["summary"],
                                      records, summary, exact)


# ---- metrics ---------------------------------------------------------------


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(run: dict, setups: list[float]) -> dict:
    upload = run["units"][0]["upload"]
    return {"setup_s": statistics.median(setups),
            "ops_per_s": run["ops"] / run["loop_s"],
            "op_ms_p50": statistics.median(run["op_ms"]),
            "op_ms_p90": p90(run["op_ms"]),
            "upload_bytes_per_round": upload["ct_bytes"] + upload["pt_bytes"],
            "peak_rss_mb": run["peak_rss_mb"]}


def per_layer(traced: dict, untraced: dict) -> dict:
    units = len(traced["units"])
    wall_s = sum(u["unit_s"] for u in traced["units"])
    self_s = dict.fromkeys(SPANS, 0.0)
    total_s = dict.fromkeys(SPANS, 0.0)
    for row in traced["spans"]:
        self_s[row["name"]] += row["self_ms"] / 1e3
        total_s[row["name"]] += row["total_ms"] / 1e3
    counts = traced["unit_counts"][0]
    out = {}
    for name in SPANS:
        out[f"{name}.calls"] = counts.get(f"{name}.calls", 0)
        out[f"{name}.self_share"] = self_s[name] / wall_s
    butterflies = counts.get("ckks.ntt.butterflies", 0)
    ntt_s = total_s["ckks.ntt_forward"] + total_s["ckks.ntt_inverse"]
    out["ckks.ntt.butterflies"] = butterflies
    out["ckks.ntt.butterflies_per_s"] = \
        butterflies * units / ntt_s if ntt_s else 0.0
    upload = traced["units"][0]["upload"]
    out["ckks.slot_fill"] = upload["slot_fill"]
    out["protocol.ct_bytes_per_round"] = upload["ct_bytes"]
    out["protocol.pt_bytes_per_round"] = upload["pt_bytes"]
    out["attack.adam_steps"] = counts.get("attack.fd_gradient.calls", 0)
    attacks = [a for u in traced["units"] for a in u.get("attacks", [])]
    out["attack.success_ratio"] = \
        sum(a["success"] for a in attacks) / len(attacks) if attacks else 0.0
    plain = untraced["ops"] / untraced["loop_s"]
    slow = traced["ops"] / traced["loop_s"]
    out["trace.ops_per_s_untraced"] = plain
    out["trace.ops_per_s_traced"] = slow
    out["trace.overhead_share"] = 1.0 - slow / plain
    return out


def check_trace(checks: Checks, traced: dict, workload: str) -> None:
    """Exact counts repeat across units; expected spans ran."""
    counts = traced["unit_counts"]
    checks.add("exact counts repeat across units",
               [f"unit {i} counts differ from unit 0"
                for i, c in enumerate(counts) if c != counts[0]])
    layers = json.loads((BENCH / "layers.json").read_text())
    missing = [span for layer in layers["layers"]
               for span, on in layer["spans"].items()
               if workload in on and not counts[0].get(f"{span}.calls")]
    checks.add("expected spans ran", [f"{s} has zero calls" for s in missing])


# ---- main ------------------------------------------------------------------


def measure(args, out: Path, checks: Checks, reference) -> tuple[dict, int]:
    """Metric values and the number of operations the workers ran."""
    if args.trace == 0:
        run = run_worker(args, out, "run", "--seconds", str(args.seconds))
        setups = [run["setup_s"]] + [
            run_worker(args, out, f"setup{i}", "--setup-only",
                       timeout=SETUP_TIMEOUT_S)["setup_s"]
            for i in range(1, SETUP_SAMPLES)]
        check_units(checks, "run", run["units"], reference)
        if (args.workload in workloads.TRAIN
                and run["ops"] < workloads.MIN_ROUNDS):
            checks.add("round count", [f"only {run['ops']} rounds"])
        print(f"# {run['ops']} operations measured, setup samples "
              f"{[round(s, 4) for s in setups]}")
        return end_to_end(run, setups), run["ops"]
    units = str(TRACE_UNITS)
    untraced = run_worker(args, out, "untraced", "--units", units)
    traced = run_worker(args, out, "traced", "--units", units, "--trace")
    check_units(checks, "untraced", untraced["units"], reference)
    check_units(checks, "traced", traced["units"], reference)
    checks.add("uploads repeat across processes",
               [] if untraced["units"][0]["upload"]
               == traced["units"][0]["upload"] else
               ["untraced and traced uploads differ"])
    check_trace(checks, traced, args.workload)
    spans_file = OUT_BASE / f"spans-{args.workload}-seed{args.seed}.json"
    spans_file.write_text(json.dumps(
        {"sites": traced["sites"], "unit_counts": traced["unit_counts"],
         "spans": traced["spans"]}, indent=1))
    print(f"# spans written to {spans_file.relative_to(ROOT)}")
    return per_layer(traced, untraced), untraced["ops"] + traced["ops"]


def main() -> int:
    args = parse_args()
    if not (ROOT / "src" / "hefl" / "__init__.py").is_file():
        print(f"no hefl source tree under {ROOT}", file=sys.stderr)
        return 2
    # numpy and the reference replay load only now: OpenBLAS reads its
    # thread count once, when numpy is first imported.
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import hefl

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    out = OUT_BASE / f"run-{args.workload}-seed{args.seed}-{os.getpid()}"
    out.mkdir(parents=True)
    checks = Checks()
    try:
        machine = machine_info(np, out)
        print(f"# machine {json.dumps(machine)}")
        reference = make_reference(hefl, args)
        values, ops = measure(args, out, checks, reference)
    except BenchFailure as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    attempted = ops + checks.count
    for problem in checks.problems:
        print(f"# MISMATCH {problem}")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"# failed_share = {checks.failed}/{attempted}")
    print(json.dumps({"correct": checks.failed == 0, "attempted": attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
