"""Slot encoding: roundtrip precision, range guards, scalar residues."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hefl.ckks as ckks
from hefl.errors import EncodingRangeError, UsageError

from .oracles import crt_compose_centered


def test_roundtrip_small_profile(ctx_small, rng):
    v = rng.uniform(-10.0, 10.0, ctx_small.params.slot_count)
    out = ckks.decode(ckks.encode(v, ctx_small), ctx_small)
    assert np.max(np.abs(out - v)) < 1e-6


def test_roundtrip_paper_profile(ctx_paper, rng):
    v = rng.uniform(-10.0, 10.0, ctx_paper.params.slot_count)
    out = ckks.decode(ckks.encode(v, ctx_paper), ctx_paper)
    assert np.max(np.abs(out - v)) < 1e-12


def test_short_vectors_are_zero_padded(ctx_small):
    v = np.array([1.5, -2.25, 3.0])
    out = ckks.decode(ckks.encode(v, ctx_small), ctx_small)
    assert np.allclose(out[:3], v, atol=1e-6)
    assert np.max(np.abs(out[3:])) < 1e-6


def test_too_many_values_rejected(ctx_small):
    v = np.zeros(ctx_small.params.slot_count + 1)
    with pytest.raises(UsageError):
        ckks.encode(v, ctx_small)


def test_huge_values_rejected(ctx_small):
    v = np.full(4, 1e30)
    with pytest.raises(EncodingRangeError):
        ckks.encode(v, ctx_small)


def test_non_finite_rejected(ctx_small):
    with pytest.raises(UsageError):
        ckks.encode(np.array([1.0, np.nan]), ctx_small)


def test_encode_sets_level_and_scale(ctx_small):
    pt = ckks.encode(np.ones(4), ctx_small)
    assert pt.level == ctx_small.params.top_level
    assert pt.scale == ctx_small.params.scale


@given(st.floats(-1e4, 1e4, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_scalar_residues_match_bigint(scalar):
    from hefl.ckks.encoding import encode_scalar_residues
    ctx = ckks.get_context(ckks.get_profile("test-small"))
    level = ctx.params.top_level
    res, _, mag = encode_scalar_residues(scalar, ctx, level)
    fixed = int(np.rint(scalar * ctx.params.scale))
    for r, q in zip(res, ctx.params.modulus_chain[:level + 1]):
        assert int(r) == fixed % q
    assert mag == abs(fixed)


def test_compose_centered_matches_crt_oracle(ctx_small, rng):
    primes = ctx_small.params.modulus_chain
    level = len(primes) - 1
    n = ctx_small.params.ring_dim
    res = np.stack([rng.integers(0, q, n, dtype=np.uint64) for q in primes])
    got = ctx_small.compose_centered(res)
    for i in range(0, n, 97):  # spot-check a spread of coefficients
        expect = crt_compose_centered([int(res[j, i]) for j in
                                       range(level + 1)], primes)
        assert int(got[i]) == expect
