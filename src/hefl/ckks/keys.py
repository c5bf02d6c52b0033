"""RLWE key material: ternary secret, noisy public-key pair.

The public key (b, a) is one NTT-form (2, L + 1, N) stack, so an
encryption multiplies both by v in one product.  Key generation is a
pure function of (params, seed); the same seed reproduces bit-identical
keys.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .context import CkksContext
from .modmath import shoup_rows

# stream tags keep the keygen / encryption RNG draws disjoint per seed
KEYGEN_STREAM = 0x6B6579
ENCRYPT_STREAM = 0x656E63


@dataclass
class SecretKey:
    """Ternary secret with its NTT image and Shoup words for decryption."""

    s_ternary: np.ndarray          # int64 coefficients in {-1, 0, 1}
    s_ntt: np.ndarray              # uint64, (level_count, ring_dim)
    s_sh: np.ndarray


@dataclass
class PublicKey:
    """(b, a) with b = -a*s + e, one NTT-form (2, L + 1, N) stack, with
    its Shoup words."""

    pair: np.ndarray
    pair_sh: np.ndarray


def keygen(ctx: CkksContext, seed: int) -> tuple[SecretKey, PublicKey]:
    rng = np.random.default_rng(np.random.SeedSequence((KEYGEN_STREAM, seed)))
    top = ctx.params.top_level

    s = ctx.sample_ternary(rng)
    e = ctx.sample_gaussian(rng)
    a = ctx.sample_uniform_ntt(rng, top)

    q = ctx.chain_u64[:, None]
    s_ntt, e_ntt = ctx.to_ntt(ctx.lift_signed(np.stack([s, e]), top))
    s_sh = shoup_rows(s_ntt, q)
    b = ctx.add(ctx.negate(ctx.mul_fixed(a, s_ntt, s_sh)), e_ntt)
    pair = np.stack([b, a])
    return SecretKey(s, s_ntt, s_sh), PublicKey(pair, shoup_rows(pair, q))

