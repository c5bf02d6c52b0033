"""Number-theoretic transform against exact convolution oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hefl.ckks.modmath import largest_ntt_primes, shoup
from hefl.ckks.ntt import make_prime_ntt, ntt_forward, ntt_inverse
from hefl.errors import UsageError

from .oracles import negacyclic_kronecker, negacyclic_schoolbook


def ntt_multiply(a, b, tab):
    """Product in the ring via forward transforms and pointwise Shoup."""
    from hefl.ckks.modmath import mulmod_shoup
    fa = ntt_forward(np.asarray(a, dtype=np.uint64), tab)
    fb = ntt_forward(np.asarray(b, dtype=np.uint64), tab)
    fb_sh = np.array([shoup(int(x), tab.q) for x in fb], dtype=np.uint64)
    prod = mulmod_shoup(fa, fb, fb_sh, tab.q_u64)
    return ntt_inverse(prod, tab)


@pytest.mark.parametrize("n", [8, 16, 32])
def test_monomial_products_exhaustive(n):
    """x^i * x^j covers every wraparound/sign case exactly once."""
    q = largest_ntt_primes(40, n, count=1)[0]
    tab = make_prime_ntt(n, q)
    c1, c2 = 123456789 % q, 987654321 % q
    for i in range(n):
        for j in range(n):
            a = np.zeros(n, dtype=np.uint64)
            b = np.zeros(n, dtype=np.uint64)
            a[i], b[j] = c1, c2
            got = ntt_multiply(a, b, tab)
            expect = negacyclic_schoolbook(a.tolist(), b.tolist(), q)
            assert got.tolist() == expect, (n, i, j)


@pytest.mark.parametrize("n,q_bits", [(8, 30), (64, 40), (256, 60),
                                      (256, 62)])
def test_random_products_match_schoolbook(n, q_bits, rng):
    q = largest_ntt_primes(q_bits, n, count=1)[0]
    tab = make_prime_ntt(n, q)
    pairs = [(rng.integers(0, q, n, dtype=np.uint64),
              rng.integers(0, q, n, dtype=np.uint64)) for _ in range(25)]
    # random residues rarely come near the lazy butterflies' 4q bound;
    # these sit at the top of [0, q) on every coefficient or every other
    edges = [np.full(n, q - 1, dtype=np.uint64),
             np.where(np.arange(n) % 2 == 1, q - 1, 0).astype(np.uint64)]
    pairs += [(a, b) for a in edges for b in edges]
    for a, b in pairs:
        got = ntt_multiply(a, b, tab)
        assert got.tolist() == negacyclic_schoolbook(a.tolist(), b.tolist(),
                                                     q)


def test_tables_reject_primes_past_the_lazy_range():
    """The lazy forward butterflies hold residues below 4q < 2^64."""
    q = largest_ntt_primes(63, 8, count=1)[0]
    with pytest.raises(UsageError, match="below 2\\^62"):
        make_prime_ntt(8, q)


def test_random_products_match_kronecker_n1024(rng):
    q = largest_ntt_primes(40, 1024, count=1)[0]
    tab = make_prime_ntt(1024, q)
    for _ in range(10):
        a = rng.integers(0, q, 1024, dtype=np.uint64)
        b = rng.integers(0, q, 1024, dtype=np.uint64)
        got = ntt_multiply(a, b, tab)
        assert got.tolist() == negacyclic_kronecker(a.tolist(), b.tolist(), q)


def test_oracles_agree_with_each_other(rng):
    q = largest_ntt_primes(30, 32, count=1)[0]
    for _ in range(10):
        a = rng.integers(0, q, 32).tolist()
        b = rng.integers(0, q, 32).tolist()
        assert negacyclic_schoolbook(a, b, q) == \
            negacyclic_kronecker(a, b, q)


@given(st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_roundtrip_returns_input(seed):
    n, q = 64, largest_ntt_primes(40, 64, count=1)[0]
    tab = make_prime_ntt(n, q)
    a = np.random.default_rng(seed).integers(0, q, n, dtype=np.uint64)
    assert np.array_equal(ntt_inverse(ntt_forward(a, tab), tab), a)


def test_forward_is_linear(rng):
    n, q = 128, largest_ntt_primes(40, 128, count=1)[0]
    tab = make_prime_ntt(n, q)
    a = rng.integers(0, q, n, dtype=np.uint64)
    b = rng.integers(0, q, n, dtype=np.uint64)
    lhs = ntt_forward((a.astype(object) + b) % q, tab)
    rhs = (ntt_forward(a, tab).astype(object) + ntt_forward(b, tab)) % q
    assert np.array_equal(lhs.astype(object), rhs)


def test_multiply_by_one_is_identity(rng):
    n, q = 64, largest_ntt_primes(40, 64, count=1)[0]
    tab = make_prime_ntt(n, q)
    one = np.zeros(n, dtype=np.uint64)
    one[0] = 1
    a = rng.integers(0, q, n, dtype=np.uint64)
    assert np.array_equal(ntt_multiply(a, one, tab), a)
