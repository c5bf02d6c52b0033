"""Encryption parameter profiles and their validation rules."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache

from ..errors import UsageError
from .modmath import largest_ntt_primes


@dataclass(frozen=True)
class CkksParams:
    """Ring and modulus-chain description for one encryption context.

    The chain is ordered base-first: index 0 is the decryption base and
    is never dropped; rescaling peels primes off the top end.  The
    scale-sized prime sits last so the single supported rescale returns
    the scale to roughly 2^log2_scale.
    """

    ring_dim: int
    modulus_chain: tuple[int, ...]
    log2_scale: int

    @property
    def level_count(self) -> int:
        return len(self.modulus_chain)

    @property
    def top_level(self) -> int:
        return len(self.modulus_chain) - 1

    @property
    def scale(self) -> float:
        return float(1 << self.log2_scale)

    @property
    def slot_count(self) -> int:
        return self.ring_dim // 2

    def fingerprint(self) -> bytes:
        """16-byte digest of (N, chain, scale) used to tag serialized blobs."""
        text = f"{self.ring_dim}|{','.join(map(str, self.modulus_chain))}|{self.log2_scale}"
        return hashlib.sha256(text.encode()).digest()[:16]

    def __post_init__(self) -> None:
        n = self.ring_dim
        if n < 8 or n & (n - 1):
            raise UsageError(f"ring_dim must be a power of two >= 8, got {n}")
        if len(self.modulus_chain) < 2:
            raise UsageError("modulus chain needs at least two primes")
        if len(set(self.modulus_chain)) != len(self.modulus_chain):
            raise UsageError("modulus chain primes must be distinct")
        for q in self.modulus_chain:
            if q.bit_length() > 62:
                raise UsageError(f"prime {q} exceeds the 62-bit word budget")
            if (q - 1) % (2 * n) != 0:
                raise UsageError(f"prime {q} is not 1 mod 2N for N={n}")
        if self.log2_scale <= 0:
            raise UsageError("scale must be positive")
        for q in self.modulus_chain[1:]:
            # Rescale validity: each droppable prime must carry at least
            # one scale worth of bits, otherwise dividing by it collapses
            # the fixed-point precision.
            if self.log2_scale > q.bit_length():
                raise UsageError(
                    f"scale 2^{self.log2_scale} exceeds droppable prime budget "
                    f"({q.bit_length()} bits)")


def _build_profile(ring_dim: int, chain_bits: tuple[int, ...],
                   log2_scale: int) -> CkksParams:
    chain: list[int] = []
    used: set[int] = set()
    for bits in chain_bits:
        p = largest_ntt_primes(bits, ring_dim, 1, exclude=used)[0]
        chain.append(p)
        used.add(p)
    assert sum(q.bit_length() for q in chain) == sum(chain_bits)
    return CkksParams(ring_dim, tuple(chain), log2_scale)


# base prime first, scale-sized prime last (dropped by the one rescale)
_PROFILE_SHAPES = {
    "paper-128": (8192, (60, 60, 52), 52),
    "test-small": (1024, (40, 40, 30), 30),
}


@lru_cache(maxsize=None)
def get_profile(name: str) -> CkksParams:
    try:
        ring_dim, chain_bits, log2_scale = _PROFILE_SHAPES[name]
    except KeyError:
        raise UsageError(
            f"unknown ckks profile {name!r}; choose from {sorted(_PROFILE_SHAPES)}"
        ) from None
    return _build_profile(ring_dim, chain_bits, log2_scale)
