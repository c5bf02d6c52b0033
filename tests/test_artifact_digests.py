"""scripts/artifact_digests.py: repeatable digests that see one bit."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / \
    "artifact_digests.py"


def _script():
    spec = importlib.util.spec_from_file_location("artifact_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_repeat_and_catch_one_flipped_bit(tmp_path):
    digests = _script()
    for work in ("a", "b"):
        (tmp_path / work).mkdir()
    first = digests.train(tmp_path / "a", "toy", {"encryption_ratio": 0.0})
    second = digests.train(tmp_path / "b", "toy", {"encryption_ratio": 0.0})
    assert first == second
    assert set(first) == {"toy/records.jsonl", "toy/summary.json",
                          "toy/checkpoint.bin"}

    records = tmp_path / "b" / "toy" / "records.jsonl"
    raw = bytearray(records.read_bytes())
    at = raw.index(b'"mask_fingerprint":"') + len(b'"mask_fingerprint":"')
    raw[at] ^= 1
    records.write_bytes(raw)
    flipped = digests.run_digests(tmp_path / "b" / "toy", "toy")
    assert [k for k in first if first[k] != flipped[k]] == \
        ["toy/records.jsonl"]
