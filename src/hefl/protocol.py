"""Federated averaging with selectively encrypted pseudo-gradients.

One round:

    1. the server scores the current global state and broadcasts a
       shared selection mask (top-r fraction of coordinates),
    2. every client trains locally, forms the pseudo-gradient
       (w_global - w_local), clips it, encrypts the masked coordinates
       in slot-packed chunks and sends the rest as plaintext values in
       mask-complement order,
    3. the server sums ciphertexts client-wise, multiplies by 1/K,
       rescales once, decrypts, and merges with the plaintext mean,
    4. the global model moves by the aggregated update and the round is
       logged.

All randomness is derived from (seed, round, client), so a resumed run
reproduces an uninterrupted one bit for bit.
"""

from __future__ import annotations

import base64
import glob
import hashlib
import json
import math
import struct
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import ckks
from .errors import ConfigError, ProtocolError, UsageError
from .model import (Dataset, SgdState, build_model, evaluate,
                    forward_backward, load_cifar10_batches, make_toy_dataset,
                    partition_iid, sgd_step)
from .model.nets import HIDDEN_WIDTHS, Architecture, ModelState
from .sensitivity import SelectionMask, jacobian_map, magnitude_map, select_top_r

CLIENT_STREAM = 0x636C69
KEY_SEED_STREAM = 0x6B7365

# Pseudo-gradient convention: the server applies the mean update with a
# unit step, so the global model lands on the average of client models.
GLOBAL_ETA = 1.0
# Every client update is clipped coordinate-wise to [-CLIP, CLIP].
CLIP = 8.0
# Local SGD passes over a client's shard per round.
LOCAL_EPOCHS = 2
# A checkpoint follows every CHECKPOINT_EVERY-th round and the last one.
CHECKPOINT_EVERY = 5

CHECKPOINT_MAGIC = "hefl-checkpoint"
CHECKPOINT_FILE = "checkpoint.bin"
_CHECKPOINT_KEYS = {"config_digest", "layout", "param_count",
                    "has_prev_update", "round"}
_STAGES = ("train", "encrypt", "aggregate_he", "aggregate_plain", "decrypt")
# what a value of each kind must be, under _has_kind
_KINDS = {bool: "a boolean", int: "an integer", float: "a finite number",
          str: "a string"}
# a records.jsonl line: the keys RoundRecord.to_json writes, their kinds
_RECORD_KINDS = {"round": int, "encryption_ratio": float,
                 "sensitivity_method": str, "mask_count": int,
                 "mask_fingerprint": str, "train_accuracy": float,
                 "test_accuracy": float, "avg_train_loss": float,
                 "wall_ms": dict.fromkeys(_STAGES, float)}
# summary.json's scalar keys and their kinds; stage_totals_ms is the rest
SUMMARY_KINDS = {"encryption_ratio": float, "sensitivity_method": str,
                 "rounds": int, "final_train_accuracy": float,
                 "final_test_accuracy": float, "final_train_loss": float,
                 "total_wall_ms": float}


def _has_kind(value, kind: type) -> bool:
    """True when value fits a field of that kind: only bool fields take
    bools, float fields also take ints within the float range."""
    if isinstance(value, bool) != (kind is bool):
        return False
    if kind is float:  # NaN compares False
        return (isinstance(value, (int, float))
                and abs(value) <= sys.float_info.max)
    return isinstance(value, kind)


def _check_kinds(obj, kinds: dict, prefix: str) -> None:
    """ConfigError unless obj holds kinds' keys alone, each of its kind."""
    if not isinstance(obj, dict) or obj.keys() != kinds.keys():
        raise ConfigError(f"{prefix}not a JSON object with keys {list(kinds)}")
    for key, kind in kinds.items():
        if isinstance(kind, dict):
            _check_kinds(obj[key], kind, f"{prefix}{key}: ")
        elif not _has_kind(obj[key], kind):
            raise ConfigError(
                f"{prefix}{key} must be {_KINDS[kind]}, got {obj[key]!r}")


@dataclass(frozen=True)
class FlConfig:
    clients: int = 3
    rounds: int = 10
    encryption_ratio: float = 0.1
    sensitivity_method: str = "magnitude"
    batch_size: int = 8
    ckks_profile: str = "test-small"
    seed: int = 0
    dataset: str = "toy"
    arch: str = "mlp2"
    lr: float = 0.05
    train_size: int = 1536
    test_size: int = 512
    single_step: bool = False
    calibration_batches: int = 2

    def __post_init__(self) -> None:
        _check_kinds(asdict(self), {f.name: type(f.default)
                                    for f in fields(self)}, "")
        if self.clients < 1:
            raise ConfigError("need at least one client")
        if self.rounds < 1:
            raise ConfigError("need at least one round")
        if not 0.0 <= self.encryption_ratio <= 1.0:
            raise ConfigError(
                f"encryption_ratio {self.encryption_ratio} outside [0, 1]")
        if self.sensitivity_method not in ("magnitude", "jacobian"):
            raise ConfigError(
                f"unknown sensitivity_method {self.sensitivity_method!r}")
        if self.batch_size < 1 or self.lr <= 0:
            raise ConfigError("batch_size and lr must be positive")
        if self.arch not in HIDDEN_WIDTHS:
            raise ConfigError(f"unknown arch {self.arch!r}")
        if self.dataset != "toy" and not self.dataset.startswith("cifar10:"):
            raise ConfigError(f"unknown dataset {self.dataset!r}")
        if self.calibration_batches < 1:
            raise ConfigError("calibration_batches must be positive")
        if not 0 <= self.seed < 2 ** 63:
            raise ConfigError(f"seed {self.seed} outside [0, 2**63)")
        try:
            ckks.get_profile(self.ckks_profile)
        except UsageError as exc:
            raise ConfigError(str(exc)) from None

    def digest(self) -> str:
        text = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


def config_from_dict(raw: dict, overrides: dict | None = None) -> FlConfig:
    """Build a config with precedence overrides > raw > defaults."""
    known = {f.name for f in FlConfig.__dataclass_fields__.values()}
    merged = dict(raw)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value
    unknown = set(merged) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        return FlConfig(**merged)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path: str | Path, overrides: dict | None = None) -> FlConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return config_from_dict(raw, overrides)


@dataclass
class ClientUpdate:
    client_id: int
    round_index: int                     # 1-based round this update belongs to
    mask_fingerprint: str
    encrypted_chunks: list[ckks.Ciphertext]
    plaintext_sparse: np.ndarray         # float64 values at mask.complement()


@dataclass
class RoundRecord:
    round_index: int
    encryption_ratio: float
    sensitivity_method: str
    mask_count: int
    mask_fingerprint: str
    train_accuracy: float
    test_accuracy: float
    avg_train_loss: float
    wall_ms: dict[str, float]

    def to_json(self) -> str:
        """One JSON line: metrics rounded to 10 decimals, wall times
        (the one dict field) to 3, round_index keyed as "round"."""
        body = {}
        for name, value in asdict(self).items():
            if isinstance(value, dict):
                value = {k: round(v, 3) for k, v in value.items()}
            elif isinstance(value, float):
                value = round(value, 10)
            body["round" if name == "round_index" else name] = value
        return json.dumps(body, sort_keys=True, separators=(",", ":"))


@dataclass
class ExperimentState:
    config: FlConfig
    arch: Architecture
    model: ModelState
    ctx: ckks.CkksContext
    secret_key: ckks.SecretKey
    public_key: ckks.PublicKey
    shards: list[Dataset]
    train_all: Dataset
    test: Dataset
    calibration: list[tuple[np.ndarray, np.ndarray]]
    round_index: int = 0                 # completed rounds
    prev_update: np.ndarray | None = None


def _load_dataset(cfg: FlConfig) -> tuple[Dataset, Dataset, Dataset]:
    n_calib = cfg.calibration_batches * cfg.batch_size
    if cfg.dataset == "toy":
        return (make_toy_dataset(cfg.train_size, cfg.seed, split=0),
                make_toy_dataset(cfg.test_size, cfg.seed, split=1),
                make_toy_dataset(n_calib, cfg.seed, split=2))
    pattern = cfg.dataset.split(":", 1)[1]
    # the checkpoint is the one binary file a run writes; a pattern broad
    # enough to reach run directories must not read it as a batch file
    paths = sorted(p for p in glob.glob(pattern, recursive=True)
                   if Path(p).name != CHECKPOINT_FILE)
    if not paths:
        raise ConfigError(f"dataset pattern {pattern!r} matches no files")
    full = load_cifar10_batches(paths)
    n_test = max(1, len(full) // 6)
    test = Dataset(full.x[:n_test], full.y[:n_test], full.n_classes,
                   full.input_shape)
    calib = Dataset(full.x[n_test:n_test + n_calib],
                    full.y[n_test:n_test + n_calib], full.n_classes,
                    full.input_shape)
    rest = slice(n_test + n_calib, None)
    train = Dataset(full.x[rest], full.y[rest], full.n_classes,
                    full.input_shape)
    return train, test, calib


def init_experiment(cfg: FlConfig) -> ExperimentState:
    try:
        train, test, calib = _load_dataset(cfg)
        arch = Architecture(cfg.arch, train.input_shape, train.n_classes)
        model = build_model(arch, cfg.seed)
        shards = partition_iid(train, cfg.clients, cfg.seed)
    except UsageError as exc:
        raise ConfigError(str(exc)) from None
    params = ckks.get_profile(cfg.ckks_profile)
    ctx = ckks.get_context(params)
    sk, pk = ckks.keygen(ctx, _mix(KEY_SEED_STREAM, cfg.seed))
    bs = cfg.batch_size
    batches = [(calib.x[i:i + bs], calib.y[i:i + bs])
               for i in range(0, len(calib), bs)]
    return ExperimentState(cfg, arch, model, ctx, sk, pk, shards, train,
                           test, batches)


def _mix(*parts: int) -> int:
    h = hashlib.sha256(struct.pack(f"<{len(parts)}q", *parts)).digest()
    return int.from_bytes(h[:8], "little")


def round_mask(state: ExperimentState) -> SelectionMask:
    """Shared per-round mask from the broadcast global state."""
    cfg = state.config
    if cfg.sensitivity_method == "jacobian":
        scores = jacobian_map(state.model, state.calibration)
    elif state.prev_update is None:
        scores = magnitude_map(state.model.flat)
    else:
        scores = magnitude_map(state.prev_update)
    return select_top_r(scores, cfg.encryption_ratio)


def _client_rng(state: ExperimentState, client_id: int,
                round_index: int) -> np.random.Generator:
    """The (seed, round, client) stream a client draws its batches from."""
    return np.random.default_rng(np.random.SeedSequence(
        (CLIENT_STREAM, state.config.seed, round_index, client_id)))


def local_update_vector(state: ExperimentState,
                        client_id: int) -> tuple[np.ndarray, float]:
    """One client's clipped update for the upcoming round.

    Normal mode: local SGD epochs, then the pseudo-gradient
    (w_global - w_local) / GLOBAL_ETA.  Single-step mode: the raw
    gradient of one batch, for attack evaluation.
    """
    cfg = state.config
    if not 0 <= client_id < cfg.clients:
        raise UsageError(f"client_id {client_id} out of range")
    shard = state.shards[client_id]
    rnd = state.round_index + 1

    if cfg.single_step:
        x, y = single_step_batch(state, client_id, rnd)
        local_loss, update = forward_backward(state.model, x, y)
    else:
        rng = _client_rng(state, client_id, rnd)
        local = ModelState(state.arch, state.model.flat.copy())
        opt = SgdState(base_lr=cfg.lr, epoch=state.round_index)
        local_loss = 0.0
        steps = 0
        for _ in range(LOCAL_EPOCHS):
            order = rng.permutation(len(shard))
            for s in range(0, len(shard), cfg.batch_size):
                sel = order[s:s + cfg.batch_size]
                loss, grad = forward_backward(local, shard.x[sel],
                                              shard.y[sel])
                local = sgd_step(local, grad, opt)
                local_loss += loss
                steps += 1
        local_loss /= max(steps, 1)
        update = (state.model.flat - local.flat) / GLOBAL_ETA
    return np.clip(update, -CLIP, CLIP), float(local_loss)


def single_step_batch(state: ExperimentState,
                      client_id: int, round_index: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Replay the batch a single-step client drew for a given round."""
    shard = state.shards[client_id]
    take = min(state.config.batch_size, len(shard))
    pick = _client_rng(state, client_id, round_index).permutation(
        len(shard))[:take]
    return shard.x[pick], shard.y[pick]


def client_update(state: ExperimentState, client_id: int,
                  mask: SelectionMask) -> tuple[ClientUpdate, dict[str, float]]:
    cfg = state.config
    rnd = state.round_index + 1

    t0 = time.perf_counter()
    update, _ = local_update_vector(state, client_id)
    train_s = time.perf_counter() - t0

    t1 = time.perf_counter()
    slot = state.ctx.params.slot_count
    selected = update[mask.indices]
    chunks = []
    for j in range(0, selected.size, slot):
        piece = selected[j:j + slot]
        pt = ckks.encode(piece, state.ctx)
        seed = (cfg.seed, rnd, client_id, j // slot)
        chunks.append(ckks.encrypt(pt, state.public_key, state.ctx, seed))
    plaintext = update[mask.complement()]
    encrypt_s = time.perf_counter() - t1

    return (ClientUpdate(client_id, rnd, mask.fingerprint(), chunks,
                         plaintext),
            {"train": train_s, "encrypt": encrypt_s})


def aggregate(state: ExperimentState, updates: list[ClientUpdate],
              mask: SelectionMask) -> tuple[np.ndarray, dict[str, float]]:
    """Mean update across clients: homomorphic on the mask, plain elsewhere."""
    if not updates:
        raise ProtocolError("no client updates to aggregate")
    updates = sorted(updates, key=lambda u: u.client_id)
    if len({u.client_id for u in updates}) != len(updates):
        raise ProtocolError("duplicate client ids in aggregation")
    fp = mask.fingerprint()
    n_chunks = math.ceil(mask.count / state.ctx.params.slot_count)
    plain_idx = mask.complement()
    for u in updates:
        if u.mask_fingerprint != fp:
            raise ProtocolError(
                f"client {u.client_id} used a different mask")
        if u.round_index != state.round_index + 1:
            raise ProtocolError(
                f"client {u.client_id} update targets round {u.round_index}")
        if len(u.encrypted_chunks) != n_chunks:
            raise ProtocolError(
                f"client {u.client_id} sent {len(u.encrypted_chunks)} chunks, "
                f"expected {n_chunks}")
        if u.plaintext_sparse.shape != plain_idx.shape:
            raise ProtocolError(
                f"client {u.client_id} sent {len(u.plaintext_sparse)} "
                f"plaintext entries, expected {plain_idx.size}")
    k = len(updates)
    agg = np.zeros(mask.total, dtype=np.float64)

    t0 = time.perf_counter()
    averaged: list[ckks.Ciphertext] = []
    for j in range(n_chunks):
        acc = updates[0].encrypted_chunks[j]
        for u in updates[1:]:
            acc = ckks.he_add(acc, u.encrypted_chunks[j], state.ctx)
        acc = ckks.rescale(ckks.he_mul_scalar(acc, 1.0 / k, state.ctx),
                           state.ctx)
        averaged.append(acc)
    he_s = time.perf_counter() - t0

    t1 = time.perf_counter()
    if mask.count:
        slots = np.concatenate([
            ckks.decode(ckks.decrypt(ct, state.secret_key, state.ctx),
                        state.ctx)
            for ct in averaged])
        agg[mask.indices] = slots[:mask.count]
    decrypt_s = time.perf_counter() - t1

    t2 = time.perf_counter()
    if plain_idx.size:
        agg[plain_idx] = sum(u.plaintext_sparse for u in updates) / k
    plain_s = time.perf_counter() - t2

    return agg, {"aggregate_he": he_s, "aggregate_plain": plain_s,
                 "decrypt": decrypt_s}


def apply_global_update(model: ModelState, agg: np.ndarray) -> ModelState:
    return ModelState(model.arch, model.flat - GLOBAL_ETA * agg)


def _evaluate(state: ExperimentState) -> tuple[float, float, float]:
    """(train accuracy, test accuracy, train loss) of the global model."""
    train_acc, train_loss = evaluate(state.model, state.train_all.x,
                                     state.train_all.y)
    test_acc, _ = evaluate(state.model, state.test.x, state.test.y)
    return train_acc, test_acc, train_loss


def run_round(state: ExperimentState
              ) -> tuple[RoundRecord, list[ClientUpdate], SelectionMask]:
    """One federated round.  It replaces state.model (never mutates it)
    and leaves the aggregated update in state.prev_update."""
    cfg = state.config
    mask = round_mask(state)
    results = [client_update(state, c, mask) for c in range(cfg.clients)]
    updates = [r[0] for r in results]
    stage = {"train": sum(r[1]["train"] for r in results),
             "encrypt": sum(r[1]["encrypt"] for r in results)}

    agg, agg_stage = aggregate(state, updates, mask)
    stage.update(agg_stage)

    state.model = apply_global_update(state.model, agg)
    state.prev_update = agg
    state.round_index += 1

    record = RoundRecord(state.round_index, cfg.encryption_ratio,
                         cfg.sensitivity_method, mask.count,
                         mask.fingerprint(), *_evaluate(state),
                         {k: stage[k] * 1000.0 for k in _STAGES})
    return record, updates, mask


# ---- persistence -----------------------------------------------------------


def _arch_header(arch: Architecture) -> dict:
    return {"name": arch.name, "input_shape": list(arch.input_shape),
            "n_classes": arch.n_classes}


def _layout_header(arch: Architecture) -> list:
    return [[s.name, list(s.shape), s.start, s.end] for s in arch.layout]


def save_checkpoint(path: str | Path, state: ExperimentState) -> None:
    header = {
        "format": CHECKPOINT_MAGIC,
        "version": 1,
        "arch": _arch_header(state.arch),
        "layout": _layout_header(state.arch),
        "round": state.round_index,
        "param_count": state.model.size,
        "config_digest": state.config.digest(),
        "has_prev_update": state.prev_update is not None,
    }
    head = json.dumps(header, sort_keys=True).encode()
    blob = state.model.flat.astype("<f8").tobytes()
    if state.prev_update is not None:
        blob += state.prev_update.astype("<f8").tobytes()
    Path(path).write_bytes(struct.pack("<I", len(head)) + head + blob)


def load_checkpoint(path: str | Path, state: ExperimentState) -> None:
    """Restore a checkpoint written under state.config into state."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read checkpoint {path}: {exc}") from None
    if len(raw) < 4:
        raise ConfigError("checkpoint truncated")
    head_len = struct.unpack_from("<I", raw)[0]
    try:
        header = json.loads(raw[4:4 + head_len])
    except (json.JSONDecodeError, UnicodeDecodeError):
        raise ConfigError("checkpoint header is not valid JSON") from None
    if not isinstance(header, dict):
        raise ConfigError("checkpoint header is not a JSON object")
    if header.get("format") != CHECKPOINT_MAGIC or header.get("version") != 1:
        raise ConfigError("not a recognized checkpoint file")
    missing = _CHECKPOINT_KEYS - header.keys()
    if missing:
        raise ConfigError(f"checkpoint header lacks {sorted(missing)}")
    if header["config_digest"] != state.config.digest():
        raise ConfigError(
            "checkpoint was produced by a different configuration")
    if header["layout"] != _layout_header(state.arch):
        raise ConfigError("checkpoint layout does not match the model")
    count, done = header["param_count"], header["round"]
    # bool is an int subclass, and 1.0 == 1: test the JSON types exactly
    if type(done) is not int or not 0 <= done <= state.config.rounds:
        raise ConfigError(f"checkpoint round {done!r} is not an integer in "
                          f"[0, {state.config.rounds}]")
    if type(count) is not int or count != state.model.size:
        raise ConfigError(f"checkpoint param_count {count!r}, expected "
                          f"{state.model.size}")
    if type(header["has_prev_update"]) is not bool:
        raise ConfigError("checkpoint has_prev_update is not a boolean")
    body = raw[4 + head_len:]
    need = count * 8 * (2 if header["has_prev_update"] else 1)
    if len(body) != need:
        raise ConfigError(
            f"checkpoint body is {len(body)} bytes, expected {need}")
    flat = np.frombuffer(body, dtype="<f8", count=count).copy()
    state.model = ModelState(state.arch, flat)
    if header["has_prev_update"]:
        state.prev_update = np.frombuffer(body, dtype="<f8", count=count,
                                          offset=count * 8).copy()
    else:
        state.prev_update = None
    state.round_index = done


def write_capture(path: str | Path, state: ExperimentState,
                  update: ClientUpdate, mask: SelectionMask,
                  model_flat: np.ndarray) -> None:
    """Attack handoff: one client's visible update plus scoring truth.

    `model_flat` must be the weights the update was computed against,
    not the post-round state; the example is the client's replayed
    single-step batch.
    """
    example_x, example_y = single_step_batch(state, update.client_id,
                                             update.round_index)
    payload = {
        "round": update.round_index,
        "client_id": update.client_id,
        "arch": _arch_header(state.arch),
        "mask": {"total": mask.total,
                 "indices": mask.indices.tolist(),
                 "ratio": mask.ratio},
        "visible": {"indices": mask.complement().tolist(),
                    "values": update.plaintext_sparse.tolist()},
        "encrypted_chunks": [
            base64.b64encode(
                ckks.serialize_ciphertext(ct, state.ctx)).decode()
            for ct in update.encrypted_chunks],
        "ckks_profile": state.config.ckks_profile,
        "model_flat": base64.b64encode(
            model_flat.astype("<f8").tobytes()).decode(),
        "example": {"x": example_x.tolist(), "y": example_y.tolist()},
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True))


def _parse_records(lines: list[str], path: Path) -> list[dict]:
    """records.jsonl lines, each held to what RoundRecord.to_json writes."""
    records = []
    for i, line in enumerate(lines, 1):
        where = f"{path} line {i}: "
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            raise ConfigError(f"{where}invalid JSON") from None
        _check_kinds(records[-1], _RECORD_KINDS, where)
        if records[-1]["round"] != i:
            raise ConfigError(f"{where}round is {records[-1]['round']}")
    return records


def load_run(run_dir: str | Path) -> dict:
    """A run's summary.json with its records.jsonl rows under "records"."""
    run = Path(run_dir)
    try:
        summary = json.loads((run / "summary.json").read_text())
        lines = (run / "records.jsonl").read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"run {run} is unreadable: {exc}") from None
    except json.JSONDecodeError:
        raise ConfigError(f"{run / 'summary.json'}: invalid JSON") from None
    records = _parse_records(lines, run / "records.jsonl")
    _check_kinds(summary, {**SUMMARY_KINDS,
                           "stage_totals_ms": _RECORD_KINDS["wall_ms"]},
                 f"{run / 'summary.json'}: ")
    return {**summary, "records": records}


def run_experiment(cfg: FlConfig, out_dir: str | Path,
                   resume: bool = False) -> dict:
    """Full training run; writes records.jsonl, checkpoints and captures."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    state = init_experiment(cfg)
    records_path = out / "records.jsonl"
    ckpt_path = out / CHECKPOINT_FILE

    kept: list[str] = []
    if resume:
        if not ckpt_path.exists():
            raise ConfigError(f"cannot resume: {ckpt_path} does not exist")
        load_checkpoint(ckpt_path, state)
        if records_path.exists():
            kept = records_path.read_text().splitlines()[:state.round_index]
        if len(kept) < state.round_index:
            raise ConfigError(
                "records.jsonl has fewer rounds than the checkpoint")
    # the summary totals every round in records.jsonl, kept ones too
    walls = [r["wall_ms"] for r in _parse_records(kept, records_path)]
    records_path.write_text("".join(line + "\n" for line in kept))

    record = None
    while state.round_index < cfg.rounds:
        pre_round = state.model
        record, updates, mask = run_round(state)
        with records_path.open("a") as fh:
            fh.write(record.to_json() + "\n")
        walls.append(record.wall_ms)
        if cfg.single_step and record.round_index == 1:
            for u in updates:
                write_capture(out / f"capture_r1_c{u.client_id}.json",
                              state, u, mask, pre_round.flat)
        if (record.round_index % CHECKPOINT_EVERY == 0
                or record.round_index == cfg.rounds):
            save_checkpoint(ckpt_path, state)

    if record is None:  # resumed with no rounds left: nothing evaluated yet
        train_acc, test_acc, train_loss = _evaluate(state)
    else:  # the last round already evaluated the final model
        train_acc, test_acc, train_loss = (record.train_accuracy,
                                           record.test_accuracy,
                                           record.avg_train_loss)
    stage_totals = {name: sum((w[name] for w in walls), 0.0)
                    for name in _STAGES}
    summary = {
        "encryption_ratio": cfg.encryption_ratio,
        "sensitivity_method": cfg.sensitivity_method,
        "rounds": cfg.rounds,
        "final_train_accuracy": train_acc,
        "final_test_accuracy": test_acc,
        "final_train_loss": train_loss,
        "stage_totals_ms": stage_totals,
        "total_wall_ms": sum(stage_totals.values()),
    }
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary
