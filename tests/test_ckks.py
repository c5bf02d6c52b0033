"""End-to-end homomorphic pipeline: keygen, encrypt, add, scale, noise."""

import dataclasses
import functools
import hashlib
import math

import numpy as np
import pytest

import hefl.ckks as ckks
from hefl.ckks import context as ckks_context
from hefl.ckks import ops as ckks_ops
from hefl.ckks.encoding import encode_scalar_residues
from hefl.ckks.modmath import mulmod_shoup, shoup, shoup_rows
from hefl.ckks.ntt import make_prime_ntt, ntt_forward, ntt_inverse
from hefl.errors import (DecryptionIntegrityError, DepthExhaustedError,
                         UsageError)


def roundtrip(values, ctx, keys, seed=1):
    sk, pk = keys
    ct = ckks.encrypt(ckks.encode(values, ctx), pk, ctx, seed)
    return ckks.decode(ckks.decrypt(ct, sk, ctx), ctx)


_Q0, _Q1, _Q2 = ckks.get_profile("test-small").modulus_chain


@pytest.mark.parametrize("change,message", [
    ({"ring_dim": 1000}, "power of two"),
    ({"ring_dim": 4096}, "not 1 mod 2N"),
    ({"modulus_chain": (_Q0,)}, "at least two primes"),
    ({"modulus_chain": (_Q0, _Q0)}, "distinct"),
    ({"modulus_chain": (_Q0, _Q1 << 30, _Q2)}, "62-bit"),
    ({"log2_scale": 0}, "scale must be positive"),
    ({"log2_scale": 41}, "droppable prime budget"),
], ids=["ring-dim", "prime-residue", "one-prime", "repeated-prime",
        "wide-prime", "zero-scale", "wide-scale"])
def test_params_reject_at_construction(change, message):
    with pytest.raises(UsageError, match=message):
        dataclasses.replace(ckks.get_profile("test-small"), **change)


def test_keygen_deterministic(ctx_small):
    a = ckks.keygen(ctx_small, 99)
    b = ckks.keygen(ctx_small, 99)
    c = ckks.keygen(ctx_small, 100)
    assert np.array_equal(a[0].s_ternary, b[0].s_ternary)
    assert np.array_equal(a[1].pair, b[1].pair)
    assert not np.array_equal(a[0].s_ternary, c[0].s_ternary)


def test_encrypt_deterministic_by_seed(ctx_small, keys_small):
    _, pk = keys_small
    pt = ckks.encode(np.arange(8.0), ctx_small)
    x = ckks.encrypt(pt, pk, ctx_small, 5)
    y = ckks.encrypt(pt, pk, ctx_small, 5)
    z = ckks.encrypt(pt, pk, ctx_small, 6)
    assert np.array_equal(x.c, y.c)
    assert not np.array_equal(x.c, z.c)


def test_encrypt_decrypt_error_bound(ctx_small, keys_small, rng):
    v = rng.uniform(-8.0, 8.0, ctx_small.params.slot_count)
    out = roundtrip(v, ctx_small, keys_small)
    assert np.max(np.abs(out - v)) < 5e-5


def test_add_homomorphism(ctx_small, keys_small, rng):
    sk, pk = keys_small
    a = rng.uniform(-4.0, 4.0, ctx_small.params.slot_count)
    b = rng.uniform(-4.0, 4.0, ctx_small.params.slot_count)
    ca = ckks.encrypt(ckks.encode(a, ctx_small), pk, ctx_small, 11)
    cb = ckks.encrypt(ckks.encode(b, ctx_small), pk, ctx_small, 12)
    out = ckks.decode(ckks.decrypt(ckks.he_add(ca, cb, ctx_small), sk,
                                   ctx_small), ctx_small)
    assert np.max(np.abs(out - (a + b))) < 1e-4


def test_add_rejects_mismatched_scale(ctx_small, keys_small):
    _, pk = keys_small
    pt = ckks.encode(np.ones(4), ctx_small)
    ct = ckks.encrypt(pt, pk, ctx_small, 1)
    scaled = ckks.he_mul_scalar(ct, 0.5, ctx_small)
    with pytest.raises(UsageError):
        ckks.he_add(ct, scaled, ctx_small)


def test_add_rejects_mismatched_level(ctx_small, keys_small):
    _, pk = keys_small
    pt = ckks.encode(np.ones(4), ctx_small)
    ct = ckks.encrypt(pt, pk, ctx_small, 1)
    dropped = ckks.rescale(ckks.he_mul_scalar(ct, 1.0, ctx_small), ctx_small)
    with pytest.raises(UsageError):
        ckks.he_add(ct, dropped, ctx_small)


def test_mul_scalar_rescale_value_and_scale_algebra(ctx_small, keys_small,
                                                    rng):
    sk, pk = keys_small
    params = ctx_small.params
    v = rng.uniform(-4.0, 4.0, params.slot_count)
    ct = ckks.encrypt(ckks.encode(v, ctx_small), pk, ctx_small, 21)
    prod = ckks.he_mul_scalar(ct, 1.0 / 3.0, ctx_small)
    assert prod.scale == pytest.approx(ct.scale * params.scale)
    assert prod.level == ct.level
    low = ckks.rescale(prod, ctx_small)
    assert low.level == ct.level - 1
    q_top = params.modulus_chain[ct.level]
    assert low.scale == pytest.approx(prod.scale / q_top)
    out = ckks.decode(ckks.decrypt(low, sk, ctx_small), ctx_small)
    assert np.max(np.abs(out - v / 3.0)) < 1e-4


def test_depth_contract_reserved_base_prime(ctx_small, keys_small):
    _, pk = keys_small
    ct = ckks.encrypt(ckks.encode(np.ones(4), ctx_small), pk, ctx_small, 1)
    low = ckks.rescale(ckks.he_mul_scalar(ct, 0.5, ctx_small), ctx_small)
    assert low.level == 1
    with pytest.raises(DepthExhaustedError):
        ckks.rescale(ckks.he_mul_scalar(low, 0.5, ctx_small), ctx_small)


def test_mul_scalar_rejects_non_finite(ctx_small, keys_small):
    _, pk = keys_small
    ct = ckks.encrypt(ckks.encode(np.ones(4), ctx_small), pk, ctx_small, 1)
    with pytest.raises(UsageError):
        ckks.he_mul_scalar(ct, float("nan"), ctx_small)


def test_noise_budget_positive_and_decreasing(ctx_small, keys_small):
    _, pk = keys_small
    ct = ckks.encrypt(ckks.encode(np.ones(4), ctx_small), pk, ctx_small, 1)
    fresh = ckks.noise_budget_estimate(ct, ctx_small)
    assert fresh > 0
    summed = ckks.he_add(ct, ct, ctx_small)
    assert ckks.noise_budget_estimate(summed, ctx_small) <= fresh
    low = ckks.rescale(ckks.he_mul_scalar(ct, 0.5, ctx_small), ctx_small)
    assert ckks.noise_budget_estimate(low, ctx_small) < fresh


def test_exhausted_budget_refuses_decrypt(ctx_small, keys_small):
    sk, pk = keys_small
    ct = ckks.encrypt(ckks.encode(np.ones(4), ctx_small), pk, ctx_small, 1)
    # scale*value blows past the level modulus: integrity check must fire
    hot = ckks.he_mul_scalar(ct, 2.0**50, ctx_small)
    with pytest.raises(DecryptionIntegrityError):
        ckks.decrypt(hot, sk, ctx_small)


def test_value_bound_tracks_magnitude(ctx_small, keys_small):
    _, pk = keys_small
    big = ckks.encrypt(ckks.encode(np.full(4, 12.0), ctx_small), pk,
                       ctx_small, 1)
    small = ckks.encrypt(ckks.encode(np.full(4, 0.1), ctx_small), pk,
                         ctx_small, 2)
    assert big.value_bits == pytest.approx(np.log2(12.0))
    assert small.value_bits == 0.0          # bounded below by unity
    both = ckks.he_add(big, big, ctx_small)
    assert both.value_bits == pytest.approx(np.log2(24.0))
    shrunk = ckks.he_mul_scalar(big, 0.25, ctx_small)
    assert shrunk.value_bits == pytest.approx(np.log2(3.0), abs=1e-6)


def test_paper_profile_precision(ctx_paper, keys_paper, rng):
    sk, pk = keys_paper
    v = rng.uniform(-8.0, 8.0, ctx_paper.params.slot_count)
    out = roundtrip(v, ctx_paper, keys_paper)
    assert np.max(np.abs(out - v)) < 1e-6
    ct = ckks.encrypt(ckks.encode(v, ctx_paper), pk, ctx_paper, 31)
    low = ckks.rescale(ckks.he_mul_scalar(ct, 0.25, ctx_paper), ctx_paper)
    out = ckks.decode(ckks.decrypt(low, sk, ctx_paper), ctx_paper)
    assert np.max(np.abs(out - 0.25 * v)) < 1e-5


@pytest.mark.parametrize("profile, fixtures", [
    ("test-small", ("ctx_small", "keys_small")),
    ("paper-128", ("ctx_paper", "keys_paper")),
])
def test_fresh_noise_matches_estimate(profile, fixtures, request):
    """Measured fresh-encryption noise against the tracked estimate.

    Over 20 seeded encryptions, decrypted-minus-encoded coefficients
    have a sigma within 10% of the formula's (2^noise_bits / 6), and
    none reaches the 6-sigma bound 2^noise_bits.
    """
    ctx, (sk, pk) = (request.getfixturevalue(f) for f in fixtures)
    values = np.random.default_rng(3).uniform(-1, 1, ctx.params.slot_count)
    pt = ckks.encode(values, ctx)
    noise = []
    for seed in range(20):
        ct = ckks.encrypt(pt, pk, ctx, seed)
        diff = ctx.add(ckks.decrypt(ct, sk, ctx).poly, ctx.negate(pt.poly))
        # the noise is far below the base prime, so row 0 fixes it exactly
        noise.append(ctx.compose_centered(diff[:1]).astype(np.float64))
    noise = np.concatenate(noise)
    bound = 2.0 ** ct.noise_bits
    assert 0.9 <= np.sqrt(np.mean(noise**2)) / (bound / 6) <= 1.1
    assert np.abs(noise).max() < bound


# How many bits the tracked noise may sit above the largest measured
# coefficient: the estimate is a 6-sigma bound, the largest of N
# coefficients sits near 4 sigma, and he_add sums bounds where independent
# noise adds in quadrature, so the round's pipeline measured 0.6-1.9 bits
NOISE_SLACK_BITS = 2.5


@pytest.mark.parametrize("profile, fixtures, trials", [
    ("test-small", ("ctx_small", "keys_small"), 6),
    ("paper-128", ("ctx_paper", "keys_paper"), 3),
], ids=["test-small", "paper-128"])
def test_tracked_noise_bounds_aggregation(profile, fixtures, trials,
                                          request):
    """The round's pipeline (3 encryptions, two he_add, he_mul_scalar by
    1/3, rescale) against exact plaintexts: after each op the measured
    noise stays below 2^noise_bits, and no more than NOISE_SLACK_BITS
    below it."""
    ctx, (sk, pk) = (request.getfixturevalue(f) for f in fixtures)
    n = ctx.params.ring_dim

    def noise(ct, exact):
        coeffs = ctx.compose_centered(ckks.decrypt(ct, sk, ctx).poly)
        return float(np.abs((coeffs - exact).astype(np.float64)).max())

    measured: dict[str, list[float]] = {}
    tracked = {}
    for trial in range(trials):
        values = np.random.default_rng(trial).uniform(-8, 8, (3, n // 2))
        pts = [ckks.encode(v, ctx) for v in values]
        cts = [ckks.encrypt(pt, pk, ctx, (trial, i))
               for i, pt in enumerate(pts)]
        exact = [ctx.compose_centered(pt.poly) for pt in pts]
        two = ckks.he_add(cts[0], cts[1], ctx)
        three = ckks.he_add(two, cts[2], ctx)
        third = ckks.he_mul_scalar(three, 1 / 3, ctx)
        *_, const = encode_scalar_residues(1 / 3, ctx, three.level)
        mean = ckks.rescale(third, ctx)
        # the exact mean's coefficients at the output scale
        spectrum = np.zeros(2 * n, dtype=np.complex128)
        spectrum[ctx.slot_exponents] = values.mean(axis=0)
        spectrum[ctx.conj_exponents] = values.mean(axis=0)
        mean_coeffs = np.fft.fft(spectrum).real[:n] / n * mean.scale
        for op, ct, want in (
                ("encrypt", cts[0], exact[0]),
                ("he_add", two, exact[0] + exact[1]),
                ("he_add twice", three, sum(exact)),
                ("he_mul_scalar", third, int(const) * sum(exact)),
                ("rescale", mean, mean_coeffs)):
            measured.setdefault(op, []).append(noise(ct, want))
            tracked[op] = ct.noise_bits
    for op, samples in measured.items():
        peak = math.log2(max(samples))
        assert peak < tracked[op], op
        assert tracked[op] - peak <= NOISE_SLACK_BITS, (op, tracked[op], peak)


# HomomorphicEncryption.org standard (Albrecht et al., 2018), classical
# 128-bit security with a uniform ternary secret: the largest log2 Q at
# each ring dimension
HE_STANDARD_128_LOG2_Q = {1024: 27, 2048: 54, 4096: 109, 8192: 218,
                          16384: 438, 32768: 881}


def test_paper_profile_meets_128_bit_standard():
    params = ckks.get_profile("paper-128")
    log2_q = math.log2(math.prod(params.modulus_chain))
    assert params.ring_dim == 8192 and round(log2_q) == 172
    assert log2_q <= HE_STANDARD_128_LOG2_Q[params.ring_dim]
    # test-small is a test profile: its 110 bits at N = 1024 claim nothing
    small = ckks.get_profile("test-small")
    assert (math.log2(math.prod(small.modulus_chain))
            > HE_STANDARD_128_LOG2_Q[small.ring_dim])


def test_rescale_transforms_the_pair_once_each_way(ctx_small, keys_small,
                                                   monkeypatch):
    """c0 and c1 share one inverse NTT of their top rows and one forward
    NTT of their corrections."""
    _, pk = keys_small
    ct = ckks.encrypt(ckks.encode(np.ones(4), ctx_small), pk, ctx_small, 1)
    prod = ckks.he_mul_scalar(ct, 0.5, ctx_small)
    calls = []
    for module, name in ((ckks_ops, "ntt_inverse"),
                         (ckks_context, "ntt_forward"),
                         (ckks_context, "ntt_inverse")):
        monkeypatch.setattr(module, name, functools.partial(
            _logged, calls, name, getattr(module, name)))
    ckks.rescale(prod, ctx_small)
    n = ctx_small.params.ring_dim
    assert calls == [("ntt_inverse", (2, n)), ("ntt_forward", (2, 2, n))]


def _logged(calls, name, transform, values, tables):
    calls.append((name, values.shape))
    return transform(values, tables)


# sha256 of sk + pk + fresh ciphertext + rescaled ciphertext; a change to
# these bits breaks the byte-determinism promised for keys and ciphertexts
GOLDEN_DIGESTS = {
    "test-small":
        "a25fd6c08ff6b1b6a77c4379b7b27afc5a3c65d22441c08992fae0b496ea12d5",
    "paper-128":
        "bf5519f11af2c383ee9c7c0a60b5361b0e65de974efd31aa4d62bec830a9925b",
}


@pytest.mark.parametrize("profile, fixtures", [
    ("test-small", ("ctx_small", "keys_small")),
    ("paper-128", ("ctx_paper", "keys_paper")),
])
def test_key_and_ciphertext_bits_pinned(profile, fixtures, request):
    ctx, (sk, pk) = (request.getfixturevalue(f) for f in fixtures)
    values = np.linspace(-2, 2, ctx.params.slot_count)
    ct = ckks.encrypt(ckks.encode(values, ctx), pk, ctx, (7, 1))
    low = ckks.rescale(ckks.he_mul_scalar(ckks.he_add(ct, ct, ctx), 1 / 3,
                                          ctx), ctx)
    blob = (ckks.serialize_secret_key(sk, ctx)
            + ckks.serialize_public_key(pk, ctx)
            + ckks.serialize_ciphertext(ct, ctx)
            + ckks.serialize_ciphertext(low, ctx))
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_DIGESTS[profile]


@pytest.mark.parametrize("profile", ["test-small", "paper-128"])
def test_matrix_ops_match_per_prime_kernels(profile):
    """Every row of the context's one-call residue ops equals the
    one-prime kernel run with that row's own prime and tables."""
    ctx = ckks.get_context(ckks.get_profile(profile))
    n, chain = ctx.params.ring_dim, ctx.params.modulus_chain
    top = ctx.params.top_level
    rng = np.random.default_rng(6)
    a = np.stack([rng.integers(0, q, n, dtype=np.uint64) for q in chain])
    b = np.stack([rng.integers(0, q, n, dtype=np.uint64) for q in chain])
    b_sh = np.array([[shoup(int(v), q) for v in row]
                     for row, q in zip(b, chain)], dtype=np.uint64)
    signed = rng.integers(-40, 41, n)

    fwd = ctx.to_ntt(a)
    inv = ctx.to_coeff(a)
    prod = ctx.mul_fixed(a, b, b_sh)
    lifted = ctx.lift_signed(signed, top)
    # one constant per prime, as rescale multiplies by q_top^-1
    scaled = ctx.mul_fixed(a[:top], ctx.rescale_inv[top],
                           ctx.rescale_inv_sh[top])
    for i, q in enumerate(chain):
        tab, q64 = make_prime_ntt(n, q), np.uint64(q)
        assert np.array_equal(fwd[i], ntt_forward(a[i], tab)), i
        assert np.array_equal(inv[i], ntt_inverse(a[i], tab)), i
        assert np.array_equal(prod[i], mulmod_shoup(a[i], b[i], b_sh[i],
                                                    q64)), i
        assert np.array_equal(lifted[i], np.mod(signed, q)), i
        if i < top:
            k = pow(chain[top], -1, q)
            expect = mulmod_shoup(a[i], np.uint64(k), np.uint64(shoup(k, q)),
                                  q64)
            assert np.array_equal(scaled[i], expect), i
    # every residue op runs on a (P, R, N) stack as P separate calls, as
    # the ciphertext's (c0, c1) pair and encrypt's three draws rely on
    stacked = np.stack([a, b])
    pair_sh = np.stack([shoup_rows(a, ctx.chain_u64[:, None]), b_sh])
    consts, consts_sh = ctx.rescale_inv[top], ctx.rescale_inv_sh[top]
    signed_stack = np.stack([signed, -signed])
    cases = {
        "to_ntt": (ctx.to_ntt(stacked), lambda p: ctx.to_ntt(stacked[p])),
        "to_coeff": (ctx.to_coeff(stacked),
                     lambda p: ctx.to_coeff(stacked[p])),
        "add": (ctx.add(stacked, stacked[::-1]),
                lambda p: ctx.add(stacked[p], stacked[1 - p])),
        "negate": (ctx.negate(stacked), lambda p: ctx.negate(stacked[p])),
        "mul_fixed matrix": (ctx.mul_fixed(stacked, b, b_sh),
                             lambda p: ctx.mul_fixed(stacked[p], b, b_sh)),
        "mul_fixed stack": (ctx.mul_fixed(a, stacked, pair_sh),
                            lambda p: ctx.mul_fixed(a, stacked[p],
                                                    pair_sh[p])),
        "mul_fixed constants": (
            ctx.mul_fixed(stacked[:, :top], consts, consts_sh),
            lambda p: ctx.mul_fixed(stacked[p, :top], consts, consts_sh)),
        "lift_signed": (ctx.lift_signed(signed_stack, top),
                        lambda p: ctx.lift_signed(signed_stack[p], top)),
    }
    for name, (got, one) in cases.items():
        assert got.shape[0] == 2, name
        for p in range(2):
            assert np.array_equal(got[p], one(p)), (name, p)
    # rescale's (2, N) top rows run on the row-`top` slice of the stacked
    # tables
    tops = ntt_inverse(stacked[:, top], ctx.ntt.rows(top))
    for p in range(2):
        assert np.array_equal(tops[p], ntt_inverse(
            stacked[p, top], make_prime_ntt(n, chain[top]))), p
