"""Leveled homomorphic operations: encrypt, add, scalar multiply, rescale.

A ciphertext holds its two polynomials as one NTT-form (2, level + 1, N)
residue stack from encryption to decryption, so additions and the
supported products are pointwise and each runs once on both.  Levels
index the modulus chain; the base prime (index 0) is reserved decryption
headroom, so rescaling stops once only the base and one more prime
remain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DecryptionIntegrityError, DepthExhaustedError, UsageError
from .context import SIGMA, CkksContext
from .encoding import Plaintext, encode_scalar_residues
from .keys import ENCRYPT_STREAM, PublicKey, SecretKey
from .modmath import U64
from .ntt import ntt_inverse


@dataclass
class Ciphertext:
    """RLWE pair (c0, c1) as one NTT-form (2, level + 1, N) residue
    stack, with scale bookkeeping.

    noise_bits tracks log2 of a 6-sigma (not worst-case) estimate of the
    largest noise coefficient and value_bits bounds log2 of the largest
    slot magnitude; both feed the headroom and decrypt integrity checks.
    """

    c: np.ndarray
    scale: float
    noise_bits: float
    value_bits: float

    @property
    def level(self) -> int:
        return self.c.shape[-2] - 1


def _fresh_noise_bits(ring_dim: int) -> float:
    """log2 of 6 sigma of a fresh encryption's noise coefficient.

    The noise e0 + v*e_pk + e1*s has ternary v and s (variance 2/3 per
    coefficient), so each coefficient has variance sigma^2 * (1 + 4N/3)
    and is close to Gaussian.  A Gaussian coefficient passes 6 sigma
    with probability about 2e-9, so the bound fails somewhere in a
    ciphertext with probability about N * 2e-9 (2e-6 at N = 1024).
    """
    return math.log2(6 * SIGMA * math.sqrt(1 + 4 * ring_dim / 3))


def _rescale_added_bits(ring_dim: int) -> float:
    # rounding residue r0 + r1*s with |r| <= 1/2 per coefficient
    return math.log2(3 * math.sqrt(1 + 2 * ring_dim / 3))


def noise_budget_estimate(ct: Ciphertext, ctx: CkksContext) -> float:
    """Bits of headroom left between message-plus-noise and Q/2.

    Diagnostic: the message term uses the tracked slot-magnitude bound
    (coefficients of the canonical embedding stay within the slot peak),
    and is non-increasing along the supported homomorphic pipeline.
    """
    q_bits = math.log2(ctx.level_modulus[ct.level]) - 1
    occupied = np.logaddexp2(math.log2(ct.scale) + max(ct.value_bits, 0.0),
                             ct.noise_bits)
    return float(q_bits - occupied)


def encrypt(pt: Plaintext, pk: PublicKey, ctx: CkksContext,
            seed: int | tuple[int, ...]) -> Ciphertext:
    params = ctx.params
    if pt.level != params.top_level:
        raise UsageError("fresh encryptions start at the top of the chain")
    entropy = seed if isinstance(seed, tuple) else (seed,)
    rng = np.random.default_rng(
        np.random.SeedSequence((ENCRYPT_STREAM, *entropy)))
    top = params.top_level

    v, e0, e1 = ctx.lift_signed(np.stack([ctx.sample_ternary(rng),
                                          ctx.sample_gaussian(rng),
                                          ctx.sample_gaussian(rng)]), top)
    # the NTT is linear mod q, so e0 joins the message before its one NTT;
    # the three polynomials share one transform call
    ntt = ctx.to_ntt(np.stack([ctx.add(pt.poly, e0), e1, v]))
    # (c0, c1) = v * (b, a) + (m + e0, e1)
    c = ctx.add(ctx.mul_fixed(ntt[2], pk.pair, pk.pair_sh), ntt[:2])
    return Ciphertext(c, pt.scale, _fresh_noise_bits(params.ring_dim),
                      pt.value_bits)


def decrypt(ct: Ciphertext, sk: SecretKey, ctx: CkksContext) -> Plaintext:
    if noise_budget_estimate(ct, ctx) <= 0:
        raise DecryptionIntegrityError(
            "estimated noise reaches the modulus; refusing to decode")
    rows = slice(0, ct.level + 1)
    c0, c1 = ct.c
    raw = ctx.to_coeff(ctx.add(c0, ctx.mul_fixed(c1, sk.s_ntt[rows],
                                                 sk.s_sh[rows])))
    return Plaintext(raw, ct.scale, ct.value_bits)


def he_add(a: Ciphertext, b: Ciphertext, ctx: CkksContext) -> Ciphertext:
    if a.level != b.level:
        raise UsageError(f"level mismatch: {a.level} vs {b.level}")
    if a.scale != b.scale:
        raise UsageError(f"scale mismatch: {a.scale} vs {b.scale}")
    noise = float(np.logaddexp2(a.noise_bits, b.noise_bits))
    value = float(np.logaddexp2(a.value_bits, b.value_bits))
    return Ciphertext(ctx.add(a.c, b.c), a.scale, noise, value)


def he_mul_scalar(ct: Ciphertext, scalar: float, ctx: CkksContext) -> Ciphertext:
    if not math.isfinite(scalar):
        raise UsageError("scalar must be finite")
    if ct.level < 1:
        raise DepthExhaustedError(
            "no level remaining for a plaintext product")
    res, sh, magnitude = encode_scalar_residues(scalar, ctx, ct.level)
    c = ctx.mul_fixed(ct.c, res, sh)
    noise = ct.noise_bits + math.log2(max(magnitude, 1.0))
    value = ct.value_bits + (math.log2(magnitude / ctx.params.scale)
                             if magnitude else 0.0)
    return Ciphertext(c, ct.scale * ctx.params.scale, noise, value)


def rescale(ct: Ciphertext, ctx: CkksContext) -> Ciphertext:
    """Drop the top prime and divide the scale by it (round to nearest)."""
    lvl = ct.level
    if lvl < 2:
        raise DepthExhaustedError(
            "modulus chain exhausted: only the reserved base prime would remain")
    params = ctx.params
    q_top = params.modulus_chain[lvl]
    # (c - [c]_q_top) * q_top^-1 on the lower primes, with the top
    # residues of c0 and c1 centred so the division rounds to nearest
    last = ntt_inverse(ct.c[:, lvl], ctx.ntt.rows(lvl))
    signed = last.astype(np.int64)
    signed = np.where(last > U64(q_top // 2), signed - q_top, signed)
    corr = ctx.to_ntt(ctx.lift_signed(signed, lvl - 1))
    c = ctx.mul_fixed(ctx.add(ct.c[:, :lvl], ctx.negate(corr)),
                      ctx.rescale_inv[lvl], ctx.rescale_inv_sh[lvl])
    noise = float(np.logaddexp2(ct.noise_bits - math.log2(q_top),
                                _rescale_added_bits(params.ring_dim)))
    return Ciphertext(c, ct.scale / q_top, noise, ct.value_bits)
