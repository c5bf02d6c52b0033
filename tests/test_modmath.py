"""Word-level modular arithmetic against exact big-integer oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hefl.ckks.modmath import (bit_reverse, is_prime, largest_ntt_primes,
                               mulhi64, mulmod_shoup, primitive_root_2n,
                               shoup)

U64_MAX = 2**64 - 1


@given(st.integers(0, U64_MAX), st.integers(0, U64_MAX))
@settings(max_examples=300)
def test_mulhi64_matches_bigint(a, b):
    got = int(mulhi64(np.uint64(a), np.uint64(b)))
    assert got == (a * b) >> 64


@given(st.integers(0, 2**62 - 1), st.integers(0, 2**62 - 1),
       st.sampled_from([1073707009, 1099511590913, 1152921504606830593]))
@settings(max_examples=300)
def test_mulmod_shoup_matches_bigint(a, w, q):
    a, w = a % q, w % q
    w_sh = np.uint64(shoup(w, q))
    lane = np.array([a], dtype=np.uint64)
    got = int(mulmod_shoup(lane, np.uint64(w), w_sh, np.uint64(q))[0])
    assert got == (a * w) % q


def test_mulmod_shoup_vectorized_lanes():
    q = 1099511590913
    rng = np.random.default_rng(7)
    a = rng.integers(0, q, 4096, dtype=np.uint64)
    w = rng.integers(0, q, 4096, dtype=np.uint64)
    w_sh = np.array([shoup(int(x), q) for x in w], dtype=np.uint64)
    got = mulmod_shoup(a, w, w_sh, np.uint64(q))
    expect = (a.astype(object) * w.astype(object)) % q
    assert np.array_equal(got.astype(object), expect)


def test_add_negate_wraparound(ctx_paper):
    # residues next to each 60/52-bit chain prime: sums past q, a sum of
    # exactly q, and the negation of zero
    q = ctx_paper.chain_u64[:, None]
    zero, one = np.zeros_like(q), np.ones_like(q)
    a = np.hstack([q - 1, q - 2, zero, one])
    b = np.hstack([q - 2, one, q - 1, q - 1])
    big_q = q.astype(object)
    big_a, big_b = a.astype(object), b.astype(object)
    got = ctx_paper.add(a, b)
    assert np.array_equal(got.astype(object), (big_a + big_b) % big_q)
    neg = ctx_paper.negate(a)
    assert np.array_equal(neg.astype(object), -big_a % big_q)
    got = ctx_paper.add(b, neg)
    assert np.array_equal(got.astype(object), (big_b - big_a) % big_q)


@pytest.mark.parametrize("n,expected", [
    (2, True), (3, True), (4, False), (561, False),      # Carmichael
    (2147483647, True),                                  # 2^31 - 1
    (1073707009, True), (1099511590913, True),
    (1152921504606830593, True), (1152921504606830591, False),
])
def test_is_prime(n, expected):
    assert is_prime(n) is expected


def test_largest_ntt_primes_properties():
    primes = largest_ntt_primes(40, 1024, count=3)
    assert len(primes) == len(set(primes)) == 3
    for q in primes:
        assert is_prime(q)
        assert q < 2**40
        assert q % (2 * 1024) == 1
    assert primes == sorted(primes, reverse=True)


def test_primitive_root_2n_order():
    n, q = 1024, 1073707009
    h = primitive_root_2n(n, q)
    assert pow(h, n, q) == q - 1           # h^N = -1: negacyclic root
    assert pow(h, 2 * n, q) == 1


def test_bit_reverse_is_permutation_involution():
    idx = [bit_reverse(i, 6) for i in range(64)]
    assert sorted(idx) == list(range(64))
    assert all(idx[idx[i]] == i for i in range(64))
    assert bit_reverse(0b000011, 6) == 0b110000
