"""Batch encoding between real slot vectors and ring plaintexts.

A length-N/2 real vector is placed on the canonical-embedding slots
(evaluation points zeta^(5^j mod 2N) of X^N+1), mirrored to the
conjugate points, and interpolated back to real coefficients with one
length-2N FFT.  Coefficients are scaled by 2^log2_scale and rounded
half to even.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import EncodingRangeError, UsageError
from .context import CkksContext
from .modmath import U64, shoup_rows

# Signed coefficients must stay inside int64 for the residue lift.
_COEFF_WORD_LIMIT = float(2**62)


@dataclass
class Plaintext:
    """Encoded slot vector: a coefficient-form (level + 1, N) residue
    matrix plus scale bookkeeping.

    value_bits bounds log2 of the largest slot magnitude; homomorphic
    ops propagate it so the decrypt headroom check can be honest.
    """

    poly: np.ndarray
    scale: float
    value_bits: float = 0.0

    @property
    def level(self) -> int:
        return self.poly.shape[0] - 1


def encode(values: np.ndarray, ctx: CkksContext) -> Plaintext:
    """Top-level plaintext of a slot vector at the profile's scale."""
    params = ctx.params
    n = params.ring_dim
    level = params.top_level
    scale = params.scale
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size > n // 2:
        raise UsageError(
            f"expected a 1-d vector of at most {n // 2} slots, got {values.shape}")
    if not np.isfinite(values).all():
        raise UsageError("slot values must be finite")

    slots = np.zeros(n // 2, dtype=np.float64)
    slots[:values.size] = values
    spectrum = np.zeros(2 * n, dtype=np.complex128)
    spectrum[ctx.slot_exponents] = slots
    spectrum[ctx.conj_exponents] = slots
    coeffs = np.fft.fft(spectrum).real[:n] / n * scale
    max_coeff = float(np.max(np.abs(coeffs))) if n else 0.0

    headroom = ctx.level_modulus[level] / 2
    if max_coeff >= min(headroom, _COEFF_WORD_LIMIT):
        raise EncodingRangeError(
            f"scaled coefficients reach {max_coeff:.3e}, beyond the "
            f"level-{level} headroom {headroom:.3e}")

    rounded = np.rint(coeffs).astype(np.int64)
    peak = float(np.max(np.abs(values))) if values.size else 0.0
    return Plaintext(ctx.lift_signed(rounded, level), scale,
                     math.log2(max(peak, 1.0)))


def decode(pt: Plaintext, ctx: CkksContext) -> np.ndarray:
    """Real slot vector from a plaintext; exact CRT then one inverse FFT."""
    n = ctx.params.ring_dim
    if pt.scale <= 0:
        raise UsageError("plaintext scale must be positive")
    coeffs = ctx.compose_centered(pt.poly).astype(np.float64)
    spectrum = np.fft.ifft(coeffs, 2 * n) * (2 * n)
    return spectrum[ctx.slot_exponents].real / pt.scale


def encode_scalar_residues(scalar: float, ctx: CkksContext,
                           level: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Constant polynomial round(scalar * 2^log2_scale) as per-prime residues.

    Returns (residues, shoup words, encoded magnitude).  A constant has
    identical coefficient and NTT forms, so the residues multiply
    pointwise in either domain.
    """
    target = float(scalar) * ctx.params.scale
    fixed = int(np.rint(target))
    # Residues represent any integer exactly; only a constant too large
    # for the level's composite modulus is unrecoverable on decode.
    if 2 * abs(fixed) >= ctx.level_modulus[level]:
        raise EncodingRangeError(
            f"scalar {scalar} at scale 2^{ctx.params.log2_scale} exceeds "
            f"the level-{level} modulus")
    res = np.array([fixed % q for q in ctx.params.modulus_chain[:level + 1]],
                   dtype=U64)
    return res, shoup_rows(res, ctx.chain_u64[:level + 1]), abs(float(fixed))
