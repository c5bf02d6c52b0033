"""Binary container for ciphertexts and keys.

Layout (little endian):

    offset  field
    0       magic "HEFL"
    4       format version (u16)
    6       payload kind (u8): 1 ciphertext, 2 public key, 3 secret key
    7       params fingerprint (16 bytes, hash of N/chain/scale)
    23      level (u8)
    24      scale (f64)
    32      noise estimate bits (f64)
    40      slot magnitude bound bits (f64)
    48      polynomial count (u8)
    49      domain (u8): 0 coefficient, 1 NTT; fixed by the payload kind
    50      poly_count * (level+1) * ring_dim residues (u64 each)

The body is the payload's (count, level + 1, N) residue stack in row
order: a ciphertext's (c0, c1) and a public key's (b, a) are each one
(2, L + 1, N) stack, a secret key a (1, L + 1, N) one.  One stack
written as a block has the bytes of its polynomials written one after
the other, so format version 1 is the same either way.  Each payload
kind has one domain: a ciphertext and a public key are stored in NTT
form, a secret key in coefficient form.  Deserialization validates
against the caller's parameter set, rejects any other domain code and
any non-finite f64 field, and reports the byte offset of the first
inconsistent field.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from ..errors import ParseError
from .context import CkksContext
from .keys import PublicKey, SecretKey
from .modmath import U64, shoup_rows
from .ops import Ciphertext

MAGIC = b"HEFL"
FORMAT_VERSION = 1

KIND_CIPHERTEXT = 1
KIND_PUBLIC_KEY = 2
KIND_SECRET_KEY = 3

_HEADER = struct.Struct("<4sHB16sBdddBB")
# domain code of each payload kind: 0 coefficient, 1 NTT
_KIND_DOMAIN = {KIND_CIPHERTEXT: 1, KIND_PUBLIC_KEY: 1, KIND_SECRET_KEY: 0}


def _pack(kind: int, ctx: CkksContext, level: int, scale: float,
          noise_bits: float, value_bits: float,
          polys: np.ndarray) -> bytes:
    head = _HEADER.pack(MAGIC, FORMAT_VERSION, kind, ctx.params.fingerprint(),
                        level, scale, noise_bits, value_bits, len(polys),
                        _KIND_DOMAIN[kind])
    return head + np.ascontiguousarray(polys, dtype="<u8").tobytes()


def _unpack(data: bytes, ctx: CkksContext, expected_kind: int,
            ) -> tuple[int, float, float, float, np.ndarray]:
    if len(data) < _HEADER.size:
        raise ParseError("truncated header", offset=len(data))
    (magic, version, kind, fp, level, scale, noise_bits, value_bits, count,
     domain_code) = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise ParseError(f"bad magic {magic!r}", offset=0)
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format version {version}", offset=4)
    if kind != expected_kind:
        raise ParseError(f"payload kind {kind}, expected {expected_kind}",
                         offset=6)
    if fp != ctx.params.fingerprint():
        raise ParseError("params fingerprint mismatch", offset=7)
    if level > ctx.params.top_level:
        raise ParseError(f"level {level} outside the modulus chain", offset=23)
    for offset, name, value in ((24, "scale", scale),
                                (32, "noise estimate", noise_bits),
                                (40, "value bound", value_bits)):
        if not math.isfinite(value):
            raise ParseError(f"{name} {value} is not finite", offset=offset)
    if domain_code != _KIND_DOMAIN[kind]:
        raise ParseError(f"domain code {domain_code}, expected "
                         f"{_KIND_DOMAIN[kind]} for payload kind {kind}",
                         offset=49)
    n = ctx.params.ring_dim
    expected = _HEADER.size + count * (level + 1) * n * 8
    if len(data) != expected:
        raise ParseError(
            f"payload length {len(data)}, expected {expected}",
            offset=min(len(data), expected))
    polys = np.frombuffer(data, dtype="<u8", offset=_HEADER.size).reshape(
        count, level + 1, n).astype(U64)
    bad = np.argwhere((polys >= ctx.chain_u64[:level + 1, None]).any(axis=2))
    if bad.size:
        p, i = bad[0]
        raise ParseError(f"residue out of range for prime {i}",
                         offset=_HEADER.size + int(p) * (level + 1) * n * 8)
    return level, scale, noise_bits, value_bits, polys


def serialize_ciphertext(ct: Ciphertext, ctx: CkksContext) -> bytes:
    return _pack(KIND_CIPHERTEXT, ctx, ct.level, ct.scale, ct.noise_bits,
                 ct.value_bits, ct.c)


def deserialize_ciphertext(data: bytes, ctx: CkksContext) -> Ciphertext:
    _, scale, noise_bits, value_bits, polys = _unpack(
        data, ctx, KIND_CIPHERTEXT)
    if len(polys) != 2:
        raise ParseError(f"ciphertext carries {len(polys)} polys", offset=48)
    if scale <= 0:
        raise ParseError("non-positive scale", offset=24)
    return Ciphertext(polys, scale, noise_bits, value_bits)


def serialize_public_key(pk: PublicKey, ctx: CkksContext) -> bytes:
    return _pack(KIND_PUBLIC_KEY, ctx, ctx.params.top_level, 0.0, 0.0, 0.0,
                 pk.pair)


def deserialize_public_key(data: bytes, ctx: CkksContext) -> PublicKey:
    level, _, _, _, polys = _unpack(data, ctx, KIND_PUBLIC_KEY)
    if len(polys) != 2 or level != ctx.params.top_level:
        raise ParseError("malformed public key payload", offset=23)
    return PublicKey(polys, shoup_rows(polys, ctx.chain_u64[:, None]))


def serialize_secret_key(sk: SecretKey, ctx: CkksContext) -> bytes:
    coeff = ctx.lift_signed(sk.s_ternary[None], ctx.params.top_level)
    return _pack(KIND_SECRET_KEY, ctx, ctx.params.top_level, 0.0, 0.0, 0.0,
                 coeff)


def deserialize_secret_key(data: bytes, ctx: CkksContext) -> SecretKey:
    level, _, _, _, polys = _unpack(data, ctx, KIND_SECRET_KEY)
    if len(polys) != 1 or level != ctx.params.top_level:
        raise ParseError("malformed secret key payload", offset=23)
    rows = polys[0]
    q0 = ctx.params.modulus_chain[0]
    signed = rows[0].astype(np.int64)
    ternary = np.where(rows[0] > U64(q0 // 2), signed - q0, signed)
    if not np.isin(ternary, (-1, 0, 1)).all():
        raise ParseError("secret key coefficients are not ternary",
                         offset=_HEADER.size)
    # every row must lift the same ternary secret as row 0
    coeff = ctx.lift_signed(ternary, level)
    bad = np.flatnonzero((coeff != rows).any(axis=1))
    if bad.size:
        raise ParseError(f"secret key row {bad[0]} disagrees with row 0",
                         offset=_HEADER.size + int(bad[0]) * rows.shape[1] * 8)
    s_ntt = ctx.to_ntt(coeff)
    return SecretKey(ternary, s_ntt, shoup_rows(s_ntt, ctx.chain_u64[:, None]))
