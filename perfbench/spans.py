"""Spans around hefl's public functions, installed from outside the package.

Each span name maps to the function that defines it.  `Tracer.install`
replaces that function at every name a loaded hefl module holds it
under (`ntt_forward` also lives in `ckks.context` and `ckks.ops`,
`mulmod_shoup` in `ntt`, `context` and `ops`, `forward_backward` in
`protocol`, `attack` and `sensitivity`), then checks that no module
still holds the original.  Spans stay in memory, aggregated per name and
key; the key is (unit, round, client) for training and
(unit, "attack", client) for attacks.  Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from collections import defaultdict

SPANS = {
    "ckks.ntt_forward": "hefl.ckks.ntt:ntt_forward",
    "ckks.ntt_inverse": "hefl.ckks.ntt:ntt_inverse",
    "ckks.mulmod_shoup": "hefl.ckks.modmath:mulmod_shoup",
    "ckks.encode": "hefl.ckks.encoding:encode",
    "ckks.encrypt": "hefl.ckks.ops:encrypt",
    "ckks.he_add": "hefl.ckks.ops:he_add",
    "ckks.he_mul_scalar": "hefl.ckks.ops:he_mul_scalar",
    "ckks.rescale": "hefl.ckks.ops:rescale",
    "ckks.decrypt": "hefl.ckks.ops:decrypt",
    "ckks.decode": "hefl.ckks.encoding:decode",
    "ckks.compose_centered": "hefl.ckks.context:CkksContext.compose_centered",
    "ckks.serialize_ciphertext": "hefl.ckks.serialize:serialize_ciphertext",
    "ckks.get_context": "hefl.ckks.context:get_context",
    "ckks.keygen": "hefl.ckks.keys:keygen",
    "model.forward_backward": "hefl.model.nets:forward_backward",
    "model.sgd_step": "hefl.model.optim:sgd_step",
    "model.evaluate": "hefl.model.nets:evaluate",
    "model.make_toy_dataset": "hefl.model.data:make_toy_dataset",
    "sensitivity.magnitude_map": "hefl.sensitivity:magnitude_map",
    "sensitivity.select_top_r": "hefl.sensitivity:select_top_r",
    "protocol.round_mask": "hefl.protocol:round_mask",
    "protocol.local_update_vector": "hefl.protocol:local_update_vector",
    "protocol.client_update": "hefl.protocol:client_update",
    "protocol.aggregate": "hefl.protocol:aggregate",
    "protocol.save_checkpoint": "hefl.protocol:save_checkpoint",
    "protocol.write_capture": "hefl.protocol:write_capture",
    "protocol.run_round": "hefl.protocol:run_round",
    "protocol.run_experiment": "hefl.protocol:run_experiment",
    "attack.gradient_objective": "hefl.attack:gradient_objective",
    # one call per Adam step of the reconstruction
    "attack.fd_gradient": "hefl.attack:_fd_gradient",
    "attack.load_capture": "hefl.attack:load_capture",
    "attack.attack_example": "hefl.attack:attack_example",
}


def _butterflies(args) -> int:
    n = args[0].size
    return n // 2 * int(math.log2(n))


# counts taken at a span's entry: span name -> (count name, argument rule)
COUNTS = {
    "ckks.ntt_forward": ("ckks.ntt.butterflies", _butterflies),
    "ckks.ntt_inverse": ("ckks.ntt.butterflies", _butterflies),
}

# spans that narrow the key for everything under them
KEYS = {
    "protocol.run_round":
        lambda key, args: (key[0], args[0].round_index + 1, "server"),
    "protocol.client_update":
        lambda key, args: (key[0], key[1], f"client{args[1]}"),
}


def _hefl_modules():
    return [m for name, m in list(sys.modules.items())
            if (name == "hefl" or name.startswith("hefl.")) and m is not None]


class Tracer:
    def __init__(self) -> None:
        self.key: tuple = (0, "setup", "-")
        # (name, key) -> [calls, total seconds, self seconds]
        self.spans: dict[tuple, list] = {}
        self.counts: dict[tuple, int] = defaultdict(int)  # (name, unit) -> n
        self.sites: dict[str, list[str]] = {}
        self._stack: list[list[float]] = []

    def install(self) -> None:
        """Wrap every span target at each place hefl looks it up."""
        originals = {}
        for name, target in SPANS.items():
            modname, attr = target.split(":")
            module = importlib.import_module(modname)
            owner_name, _, leaf = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                originals[name] = owner.__dict__[leaf]
                setattr(owner, leaf, self._wrap(name, originals[name]))
                self.sites[name] = [f"{modname}.{attr}"]
                continue
            originals[name] = getattr(module, leaf)
            wrapped = self._wrap(name, originals[name])
            self.sites[name] = []
            for mod in _hefl_modules():
                for key, value in list(vars(mod).items()):
                    if value is originals[name]:
                        setattr(mod, key, wrapped)
                        self.sites[name].append(f"{mod.__name__}.{key}")
        left = {id(f): n for n, f in originals.items()}
        for mod in _hefl_modules():
            for key, value in vars(mod).items():
                if id(value) in left:
                    raise RuntimeError(f"{mod.__name__}.{key} escaped the "
                                       f"{left[id(value)]} span")

    def _wrap(self, name: str, fn):
        tracer = self
        keyer = KEYS.get(name)
        counter = COUNTS.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            saved = tracer.key
            if keyer is not None:
                tracer.key = keyer(saved, args)
            if counter is not None:
                tracer.counts[(counter[0], saved[0])] += counter[1](args)
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += took
                rec = tracer.spans.get((name, tracer.key))
                if rec is None:
                    rec = tracer.spans[(name, tracer.key)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += took
                rec[2] += took - children[0]
                tracer.key = saved

        traced.__wrapped__ = fn
        return traced

    def table(self) -> list[dict]:
        """All spans, one row per (name, key), for writing out at the end."""
        return [{"name": name, "unit": key[0], "round": key[1],
                 "client": key[2], "calls": rec[0],
                 "total_ms": rec[1] * 1e3, "self_ms": rec[2] * 1e3}
                for (name, key), rec in sorted(self.spans.items(),
                                               key=lambda kv: str(kv[0]))]

    def unit_counts(self, unit: int) -> dict[str, int]:
        """Exact counts of one unit: calls per span plus derived counts."""
        out: dict[str, int] = defaultdict(int)
        for (name, key), rec in self.spans.items():
            if key[0] == unit:
                out[f"{name}.calls"] += rec[0]
        for (name, u), n in self.counts.items():
            if u == unit:
                out[name] += n
        return dict(out)
