"""Negacyclic number-theoretic transform over a stack of primes.

Iterative Cooley-Tukey forward / Gentleman-Sande inverse over
Z_q[X]/(X^N + 1) with the 2N-th root powers stored in bit-reversed
order.  Butterflies run as whole-level numpy operations on the last
axis, so one call transforms a single residue vector or every row of a
residue matrix, row i under prime i.  Every twiddle carries its Shoup
companion so no product leaves 64 bits.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .modmath import (U64, bit_reverse, mulmod_shoup, primitive_root_2n,
                      shoup_rows)


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


def ntt_forward(values: np.ndarray, tab: NttTables) -> np.ndarray:
    """Coefficient order in, bit-reversed evaluation order out."""
    q = tab.q_u64[..., None]  # one prime per row, over (blocks, half)
    a = values.copy()
    half = a.shape[-1] // 2
    blocks = 1
    while half >= 1:
        view = a.reshape(*a.shape[:-1], blocks, 2 * half)
        lo = view[..., :half]
        hi = view[..., half:]
        z = tab.w[..., blocks:2 * blocks, None]
        z_sh = tab.w_sh[..., blocks:2 * blocks, None]
        y = mulmod_shoup(hi, z, z_sh, q)
        view[..., half:] = np.where(lo >= y, lo - y, lo + q - y)
        view[..., :half] = np.where(lo + y >= q, lo + y - q, lo + y)
        half //= 2
        blocks *= 2
    return a


def ntt_inverse(values: np.ndarray, tab: NttTables) -> np.ndarray:
    """Inverse of ntt_forward, including the 1/N factor."""
    q = tab.q_u64[..., None]
    a = values.copy()
    half = 1
    blocks = a.shape[-1] // 2
    while blocks >= 1:
        view = a.reshape(*a.shape[:-1], blocks, 2 * half)
        lo = view[..., :half].copy()
        hi = view[..., half:]
        # matching twiddles run top-down within the level: w[2B-1-b]
        z = tab.w[..., blocks:2 * blocks][..., ::-1, None]
        z_sh = tab.w_sh[..., blocks:2 * blocks][..., ::-1, None]
        s = lo + hi
        view[..., :half] = np.where(s >= q, s - q, s)
        d = np.where(hi >= lo, hi - lo, hi + q - lo)
        view[..., half:] = mulmod_shoup(d, z, z_sh, q)
        half *= 2
        blocks //= 2
    return mulmod_shoup(a, tab.n_inv, tab.n_inv_sh, tab.q_u64)
