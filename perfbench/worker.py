"""One workload in one fresh process: set up, then run units of work.

A unit is one `run_experiment` call of UNIT_ROUNDS rounds (training
workloads), or one single-step capture run followed by `load_capture` +
`attack_example` on each captured client (attack).  Set-up time runs
from the top of this file, before numpy and hefl are imported, to the
state being ready for round 1; for the attack it ends once the first
capture is written.  The result goes to --result as JSON.

    python3 perfbench/worker.py --root . --workload enc-small --seed 1 \
        --out DIR --result FILE (--setup-only | --seconds S | --units K) \
        [--trace]
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--units", type=int)
    ap.add_argument("--trace", action="store_true")
    return ap.parse_args()


class Uploads:
    """What each client ships: chunk and plaintext counts every round,
    and the last round's updates, serialized once the unit is over."""

    def __init__(self, protocol):
        self.shapes: set[tuple[int, int, int]] = set()
        self.last: dict[int, tuple] = {}
        original = protocol.client_update

        def client_update(state, client_id, mask):
            update, stages = original(state, client_id, mask)
            self.shapes.add((len(update.encrypted_chunks),
                             len(update.plaintext_sparse), mask.count))
            self.last[client_id] = (update, state.ctx)
            return update, stages

        protocol.client_update = client_update

    def settle(self, ckks) -> dict:
        """Per-client bytes of one round; every round must ship the same."""
        ct_bytes = {c: sum(len(ckks.serialize_ciphertext(ct, ctx))
                           for ct in u.encrypted_chunks)
                    for c, (u, ctx) in self.last.items()}
        chunks, plain, selected = max(self.shapes)
        ctx = self.last[0][1]
        shipped = chunks * ctx.params.slot_count
        out = {"ct_bytes": ct_bytes[0], "pt_bytes": 16 * plain,
               "uniform": len(self.shapes) == 1
               and len(set(ct_bytes.values())) == 1,
               "slot_fill": selected / shipped if shipped else 0.0}
        self.shapes.clear()
        self.last.clear()
        return out


def run_train(args, hefl, tracer) -> dict:
    protocol = hefl.protocol
    cfg = protocol.config_from_dict(
        workloads.config_dict(args.root, args.workload, args.seed))
    if args.setup_only:
        protocol.init_experiment(cfg)
        return {"setup_s": time.perf_counter() - T0}

    starts: list[float] = []
    original_round = protocol.run_round

    def run_round(state):
        starts.append(time.perf_counter())
        return original_round(state)

    protocol.run_round = run_round
    uploads = Uploads(protocol)
    setup_s, loop_s, op_ms, units = None, 0.0, [], []
    first = None
    while True:
        unit = len(units)
        if tracer:
            tracer.key = (unit, "run", "-")
        starts.clear()
        out = args.out / f"unit{unit}"
        unit_start = time.perf_counter()
        summary = protocol.run_experiment(cfg, out)
        end = time.perf_counter()
        upload = uploads.settle(hefl.ckks)
        unit_s = time.perf_counter() - unit_start
        if setup_s is None:
            setup_s, first = starts[0] - T0, starts[0]
        op_ms += [(b - a) * 1e3 for a, b in zip(starts, starts[1:] + [end])]
        loop_s += end - starts[0]
        records = [json.loads(line) for line in
                   (out / "records.jsonl").read_text().splitlines()]
        for rec in records:
            rec.pop("wall_ms")
        units.append({"records": records,
                      "summary": {k: v for k, v in summary.items()
                                  if k.startswith("final_")},
                      "upload": upload, "unit_s": unit_s})
        shutil.rmtree(out)
        if args.units is not None:
            if len(units) == args.units:
                break
        elif (len(op_ms) >= workloads.MIN_ROUNDS
              and end - first >= args.seconds):
            break
    return {"setup_s": setup_s, "ops": len(op_ms), "loop_s": loop_s,
            "op_ms": op_ms, "units": units}


def run_attack(args, hefl, tracer) -> dict:
    protocol, attack = hefl.protocol, hefl.attack
    cfg = protocol.config_from_dict(
        workloads.config_dict(args.root, args.workload, args.seed))
    uploads = Uploads(protocol)
    setup_s, loop_s, op_ms, units = None, 0.0, [], []
    first = None
    done = False
    while not done:
        unit = len(units)
        if tracer:
            tracer.key = (unit, "run", "-")
        out = args.out / f"unit{unit}"
        unit_start = time.perf_counter()
        protocol.run_experiment(cfg, out)
        if setup_s is None:
            setup_s = time.perf_counter() - T0
            if args.setup_only:
                return {"setup_s": setup_s}
        upload = uploads.settle(hefl.ckks)
        attacks = []
        for client in range(cfg.clients):
            if tracer:
                tracer.key = (unit, "attack", f"client{client}")
            start = time.perf_counter()
            first = first or start
            capture = attack.load_capture(
                out / f"capture_r1_c{client}.json")
            mid = time.perf_counter()
            result = attack.attack_example(
                capture["model"], capture["visible"], capture["x"],
                capture["y"], seed=args.seed)
            end = time.perf_counter()
            op_ms.append((end - mid) * 1e3)
            loop_s += end - start
            attacks.append({"client": client, "success": bool(result.success),
                            "label_true": result.label_true,
                            "label_used": result.label_used,
                            "visible_count": result.visible_count})
            if args.units is None and end - first >= args.seconds:
                done = True
                break
        units.append({"attacks": attacks, "upload": upload,
                      "unit_s": time.perf_counter() - unit_start})
        shutil.rmtree(out)
        done = done or (args.units is not None and len(units) == args.units)
    return {"setup_s": setup_s, "ops": len(op_ms), "loop_s": loop_s,
            "op_ms": op_ms, "units": units}


def main() -> int:
    args = parse_args()
    sys.path.insert(0, str(args.root / "src"))
    import hefl  # noqa: F401  (set-up time includes this import)

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    run = run_attack if args.workload == workloads.ATTACK else run_train
    result = run(args, hefl, tracer)
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["hefl_file"] = hefl.__file__
    if tracer:
        result["spans"] = tracer.table()
        result["sites"] = tracer.sites
        result["unit_counts"] = [tracer.unit_counts(u)
                                 for u in range(len(result["units"]))]
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
