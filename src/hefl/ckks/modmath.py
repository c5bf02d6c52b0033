"""Word-sized modular arithmetic on numpy uint64 arrays.

All residue math stays inside 64-bit words: products against fixed
operands use Shoup's trick (precomputed floor(w * 2^64 / q)), and the
needed high word of the 128-bit product is assembled from four 32-bit
partial products.  Valid for any modulus q < 2^63.
"""

from __future__ import annotations

import numpy as np

U64 = np.uint64
MASK32 = U64(0xFFFFFFFF)
SHIFT32 = U64(32)


def mulhi64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit product a*b, elementwise."""
    a_lo = a & MASK32
    a_hi = a >> SHIFT32
    b_lo = b & MASK32
    b_hi = b >> SHIFT32
    p0 = a_lo * b_lo
    p1 = a_lo * b_hi
    p2 = a_hi * b_lo
    mid = (p0 >> SHIFT32) + (p1 & MASK32) + (p2 & MASK32)
    return a_hi * b_hi + (p1 >> SHIFT32) + (p2 >> SHIFT32) + (mid >> SHIFT32)


def shoup(w: int, q: int) -> int:
    """Precomputed companion word for mulmod_shoup: floor(w << 64 / q)."""
    return (w << 64) // q


def shoup_rows(values: np.ndarray, q) -> np.ndarray:
    """Shoup words of a residue array; q is one prime or broadcasts as a
    column of row primes (an (R, 1) column for an (R, N) matrix)."""
    big = values.astype(object) << 64
    return (big // np.asarray(q).astype(object)).astype(U64)


def mulmod_shoup(a: np.ndarray, w, w_sh, q: U64) -> np.ndarray:
    """a * w mod q where w carries its Shoup word.  Requires a, w < q < 2^63.

    The quotient estimate is off by at most one, so a single conditional
    subtraction lands the result in [0, q).
    """
    hi = mulhi64(a, w_sh)
    r = a * w - hi * q
    return np.where(r >= q, r - q, r)


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
