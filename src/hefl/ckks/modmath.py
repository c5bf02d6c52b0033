"""Word-sized modular arithmetic on numpy uint64 arrays.

All residue math stays inside 64-bit words: products against fixed
operands use Shoup's trick (precomputed floor(w * 2^64 / q)), and the
needed high word of the 128-bit product is assembled from four 32-bit
partial products.  Valid for any modulus q < 2^63.

The product routines take optional `out` and `work` arrays of the
result's shape.  Every pass then writes into them, so a caller that
loops over same-shaped data (the NTT's butterfly levels) allocates
nothing per iteration.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

U64 = np.uint64
MASK32 = U64(0xFFFFFFFF)
SHIFT32 = U64(32)


def _empty(shape: tuple[int, ...], count: int) -> list[np.ndarray]:
    return [np.empty(shape, dtype=U64) for _ in range(count)]


def mulhi64(a: np.ndarray, b, out: np.ndarray | None = None,
            work: Sequence[np.ndarray] | None = None) -> np.ndarray:
    """High 64 bits of the 128-bit product a*b, elementwise.

    `out` and the three `work` arrays have the broadcast shape of a and
    b; `out` may be `a` itself.
    """
    if out is None or work is None:
        shape = np.broadcast_shapes(np.shape(a), np.shape(b))
        out = np.empty(shape, dtype=U64) if out is None else out
        work = _empty(shape, 3) if work is None else work
    lo, hi, mid = work
    b_lo = b & MASK32
    b_hi = b >> SHIFT32
    np.bitwise_and(a, MASK32, out=lo)
    np.right_shift(a, SHIFT32, out=hi)
    np.multiply(lo, b_lo, out=mid)
    mid >>= SHIFT32
    # each partial product is at most (2^32 - 1)^2, so adding a 32-bit
    # carry to one cannot wrap
    lo *= b_hi
    lo += mid                            # a_lo * b_hi + carry of a_lo * b_lo
    np.multiply(hi, b_lo, out=mid)
    np.bitwise_and(lo, MASK32, out=out)
    mid += out                           # a_hi * b_lo + low half of lo
    lo >>= SHIFT32
    mid >>= SHIFT32
    np.multiply(hi, b_hi, out=out)
    out += lo
    out += mid
    return out


def shoup(w: int, q: int) -> int:
    """Precomputed companion word for mulmod_shoup: floor(w << 64 / q)."""
    return (w << 64) // q


def shoup_rows(values: np.ndarray, q) -> np.ndarray:
    """Shoup words of a residue array; q is one prime or broadcasts as a
    column of row primes (an (R, 1) column for an (R, N) matrix)."""
    big = values.astype(object) << 64
    return (big // np.asarray(q).astype(object)).astype(U64)


def sub_if_ge(a: np.ndarray, m, tmp: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
    """a - m where a >= m, else a, for 0 < m < 2^64; in place in `a`
    unless `out` is given.

    Where a < m the wrapped difference a - m + 2^64 exceeds a, so the
    elementwise minimum picks the reduced value without a mask.
    """
    np.subtract(a, m, out=tmp)
    return np.minimum(a, tmp, out=a if out is None else out)


def mulmod_shoup_lazy(a: np.ndarray, w, w_sh, q,
                      out: np.ndarray | None = None,
                      work: Sequence[np.ndarray] | None = None) -> np.ndarray:
    """a * w mod q up to one extra q: the result lies in [0, 2q).

    Holds for any a < 2^64 and w < q < 2^63, because the Shoup quotient
    floor(a * w_sh / 2^64) falls short of floor(a * w / q) by at most
    one (Harvey, JSC 2014).  `out` and the four `work` arrays have the
    result's shape; `out` may be `a` itself.
    """
    if out is None or work is None:
        shape = np.broadcast_shapes(np.shape(a), np.shape(w), np.shape(q))
        out = np.empty(shape, dtype=U64) if out is None else out
        work = _empty(shape, 4) if work is None else work
    quot, prod, *hi_work = work
    mulhi64(a, w_sh, out=quot, work=(prod, *hi_work))
    quot *= q
    np.multiply(a, w, out=prod)
    return np.subtract(prod, quot, out=out)


def mulmod_shoup(a: np.ndarray, w, w_sh, q,
                 out: np.ndarray | None = None,
                 work: Sequence[np.ndarray] | None = None) -> np.ndarray:
    """a * w mod q in [0, q) where w carries its Shoup word.

    Holds for any a < 2^64 and w < q < 2^63: one conditional
    subtraction lands the lazy product in [0, q).  Buffers as for
    mulmod_shoup_lazy.
    """
    if work is None:
        shape = np.broadcast_shapes(np.shape(a), np.shape(w), np.shape(q))
        work = _empty(shape, 4)
    r = mulmod_shoup_lazy(a, w, w_sh, q, out, work)
    return sub_if_ge(r, q, work[0])


_SPRP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 2^64 (fixed base set)."""
    if n < 2:
        return False
    for p in _SPRP_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SPRP_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def largest_ntt_primes(bits: int, ring_dim: int, count: int,
                       exclude: set[int] | None = None) -> list[int]:
    """The `count` largest primes of exactly `bits` bits with p = 1 mod 2N.

    Searched downward from 2^bits so the choice is deterministic for a
    given (bits, ring_dim) pair.
    """
    step = 2 * ring_dim
    found: list[int] = []
    taken = set(exclude or ())
    p = (1 << bits) - step + 1
    p -= (p - 1) % step
    while p > (1 << (bits - 1)) and len(found) < count:
        if p not in taken and is_prime(p):
            found.append(p)
            taken.add(p)
        p -= step
    if len(found) < count:
        raise ValueError(f"not enough {bits}-bit NTT primes for 2N={step}")
    return found


def primitive_root_2n(n: int, q: int) -> int:
    """Smallest generator of the order-2n subgroup of Z_q* (negacyclic root).

    Same search as the classic CRT-free negacyclic NTT setup: h is a
    2n-th root of unity with h^n = -1.
    """
    if (q - 1) % (2 * n) != 0:
        raise ValueError(f"q={q} does not support a 2n-th root for n={n}")
    e = (q - 1) // (2 * n)
    for x in range(2, q):
        h = pow(x, e, q)
        if pow(h, n, q) == q - 1:
            return h
    raise ValueError(f"no primitive 2n-th root mod {q}")


def bit_reverse(i: int, width: int) -> int:
    r = 0
    for _ in range(width):
        r = (r << 1) | (i & 1)
        i >>= 1
    return r
