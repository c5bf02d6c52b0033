"""Negacyclic number-theoretic transform over a stack of primes.

Iterative Cooley-Tukey forward / Gentleman-Sande inverse over
Z_q[X]/(X^N + 1) with the 2N-th root powers stored in bit-reversed
order.  Butterflies run as whole-level numpy operations on the last
axis, so one call transforms a single residue vector, every row of a
residue matrix (row i under prime i), or a stack of such matrices.
Every twiddle carries its Shoup companion so no product leaves 64 bits.

The butterflies are Harvey's lazy ones (Harvey, "Faster arithmetic for
number-theoretic transforms", JSC 2014): residues stay in [0, 4q)
(forward) or [0, 2q) (inverse) between levels, with no conditional
pass per level, and one exact reduction runs at the end.  4q must fit
a word, so every prime is below 2^62.  Each level writes into work
arrays allocated once per call.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..errors import UsageError
from .modmath import (U64, bit_reverse, mulmod_shoup, mulmod_shoup_lazy,
                      primitive_root_2n, shoup_rows, sub_if_ge)

# the lazy forward butterflies hold residues below 4q < 2^64
MAX_PRIME = 1 << 62


@dataclass(frozen=True)
class NttTables:
    """Transform tables of several primes, stacked one row per prime.

    The primes and 1/N words are (R, 1) columns beside (R, N) twiddle
    rows.  `rows(slice(0, r))` gives the tables of an (r, N) matrix and
    `rows(i)` those of prime i alone, for a 1-D residue vector.
    """

    q_u64: np.ndarray
    w: np.ndarray        # 2N-th root powers, bit-reversed exponent order
    w_sh: np.ndarray
    n_inv: np.ndarray
    n_inv_sh: np.ndarray

    @property
    def q(self) -> int:
        """The prime of a one-prime table."""
        return self.q_u64.item()

    def rows(self, sel: int | slice) -> NttTables:
        return NttTables(self.q_u64[sel], self.w[sel], self.w_sh[sel],
                         self.n_inv[sel], self.n_inv_sh[sel])


def make_ntt(ring_dim: int, primes: Sequence[int]) -> NttTables:
    if any(q >= MAX_PRIME for q in primes):
        raise UsageError("NTT primes must be below 2^62")
    logn = ring_dim.bit_length() - 1
    exps = [bit_reverse(i, logn) for i in range(ring_dim)]
    w = np.empty((len(primes), ring_dim), dtype=U64)
    for row, q in zip(w, primes):
        h = primitive_root_2n(ring_dim, q)
        row[:] = [pow(h, e, q) for e in exps]
    q_col = np.array(primes, dtype=U64)[:, None]
    n_inv = np.array([[pow(ring_dim, -1, q)] for q in primes], dtype=U64)
    return NttTables(q_col, w, shoup_rows(w, q_col), n_inv,
                     shoup_rows(n_inv, q_col))


def make_prime_ntt(ring_dim: int, q: int) -> NttTables:
    return make_ntt(ring_dim, (q,)).rows(0)


def _inner_width(n: int) -> int:
    """Block count from which a transform keeps its residues block-inner
    (see _level): about sqrt(N / 2), so that the innermost numpy loop of
    every level runs over at least that many residues."""
    return n // 2 >> ((n // 2).bit_length() - 1) // 2


def _block_inner(a: np.ndarray, inner: int) -> np.ndarray:
    """Natural-order rows viewed as (..., N / inner, inner): residue
    b * N / inner + j at [j, b]."""
    return a.reshape(*a.shape[:-1], inner, -1).swapaxes(-1, -2)


def _level(data: np.ndarray, work: np.ndarray, z: np.ndarray,
           z_sh: np.ndarray, half: int, inner: int):
    """Operands of one butterfly level: blocks of 2 * half residues, one
    twiddle z (with its Shoup word z_sh) per block.

    `data` holds each row block-inner, as _block_inner(natural, inner)
    laid out contiguously; inner = 1 is the natural order.  Blocks then
    lie `inner` apart on the last axis, so a level with short blocks
    still runs long innermost loops.  Returns the lower and upper
    halves, the twiddles and the five work arrays, all shaped or
    broadcast as (..., blocks / inner, half, inner).
    """
    lead = data.shape[:-1]
    blocks = z.shape[-1]
    outer = blocks // inner
    view = data.reshape(*lead, outer, 2 * half, inner)

    def per_block(tw):
        tw = tw.reshape(*tw.shape[:-1], inner, outer)
        return tw.swapaxes(-1, -2)[..., None, :]

    return (view[..., :half, :], view[..., half:, :], per_block(z),
            per_block(z_sh), work.reshape(5, *lead, outer, half, inner))


def ntt_forward(values: np.ndarray, tab: NttTables) -> np.ndarray:
    """Coefficient order in, bit-reversed evaluation order out."""
    a = values.astype(U64)  # a fresh copy, also of object-dtype input
    lead, n = a.shape[:-1], a.shape[-1]
    q = tab.q_u64[..., None, None]  # one prime per row
    two_q = q + q
    work = np.empty((5, *lead, n // 2), dtype=U64)
    split = _inner_width(n)
    data, inner = a, 1
    half, blocks = n // 2, 1
    while half >= 1:
        if blocks == split:
            data, inner = _block_inner(a, split).copy().reshape(a.shape), split
        x, y, z, z_sh, (t, *mul_work) = _level(
            data, work, tab.w[..., blocks:2 * blocks],
            tab.w_sh[..., blocks:2 * blocks], half, inner)
        # x, y in [0, 4q) -> x + t, x - t + 2q in [0, 4q)
        mulmod_shoup_lazy(y, z, z_sh, q, out=t, work=mul_work)
        sub_if_ge(x, two_q, mul_work[0])
        np.subtract(x, t, out=y)
        y += two_q
        x += t
        half //= 2
        blocks *= 2
    # the one exact reduction, written back in natural order
    src = data.reshape(*lead, -1, inner)
    dst = _block_inner(a, inner)
    tmp = work.reshape(5, *lead, -1, inner)[0]
    for sel in (slice(0, n // inner // 2), slice(n // inner // 2, None)):
        sub_if_ge(src[..., sel, :], two_q[..., 0], tmp)
        sub_if_ge(src[..., sel, :], q[..., 0], tmp, out=dst[..., sel, :])
    return a


def ntt_inverse(values: np.ndarray, tab: NttTables) -> np.ndarray:
    """Inverse of ntt_forward, including the 1/N factor."""
    lead, n = values.shape[:-1], values.shape[-1]
    q = tab.q_u64[..., None, None]
    two_q = q + q
    work = np.empty((5, *lead, n // 2), dtype=U64)
    inner = _inner_width(n)
    data = _block_inner(values, inner).astype(U64, order="C")
    data = data.reshape(values.shape)
    half, blocks = 1, n // 2
    while blocks >= 1:
        if blocks < inner:
            a = np.empty(values.shape, dtype=U64)
            np.copyto(_block_inner(a, inner), data.reshape(*lead, -1, inner))
            data, inner = a, 1
        # matching twiddles run top-down within the level: w[2B-1-b]
        x, y, z, z_sh, (s, *mul_work) = _level(
            data, work, tab.w[..., blocks:2 * blocks][..., ::-1],
            tab.w_sh[..., blocks:2 * blocks][..., ::-1], half, inner)
        # x, y in [0, 2q) -> x + y, (y - x + 2q) * z in [0, 2q)
        np.add(x, y, out=s)
        y -= x
        y += two_q
        sub_if_ge(s, two_q, mul_work[0], out=x)
        mulmod_shoup_lazy(y, z, z_sh, q, out=y, work=mul_work)
        half *= 2
        blocks //= 2
    for part in (data[..., :n // 2], data[..., n // 2:]):
        mulmod_shoup(part, tab.n_inv, tab.n_inv_sh, tab.q_u64, out=part,
                     work=work[:4])
    return data
