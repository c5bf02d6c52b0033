"""Precomputed tables tying parameters to executable ring arithmetic.

A polynomial in Z_Q[X]/(X^N+1) is a bare uint64 residue matrix of shape
(level + 1, N): row i holds the residues under chain prime i, so its
level is its row count minus one.  Its domain (coefficient or NTT) is
fixed by the container that holds it, not tagged on the array.  The
residue ops read the row count from the second-to-last axis, so each
also runs once over a stack of same-level polynomials.

A context bundles the NTT tables of all chain primes stacked row by
row, CRT reconstruction constants, rescale inverses and the slot
permutation of the canonical embedding.  Every residue operation runs
once over a polynomial's whole matrix, row i under prime i.  Contexts
are cached per parameter set; all polynomial operations take the
context explicitly.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ..errors import UsageError
from .modmath import U64, mulmod_shoup, shoup_rows
from .ntt import make_ntt, ntt_forward, ntt_inverse
from .params import CkksParams

# error distribution of the scheme: centered Gaussian, 6-sigma tail cut
SIGMA = 3.2
TAIL_BOUND = round(6 * SIGMA)


class CkksContext:
    def __init__(self, params: CkksParams):
        self.params = params
        n = params.ring_dim
        self.ntt = make_ntt(n, params.modulus_chain)
        self.chain_u64 = self.ntt.q_u64[:, 0]

        # canonical embedding: slot j sits at the 2N-th root exponent
        # 5^j mod 2N; the conjugate partner at 2N - that exponent
        exps = np.array([pow(5, j, 2 * n) for j in range(n // 2)])
        self.slot_exponents = exps
        self.conj_exponents = 2 * n - exps

        # CRT composition constants per level: coeff = sum r_i * c_i mod Q,
        # c_i = (Q/q_i) * ((Q/q_i)^-1 mod q_i) as an object column
        chain = params.modulus_chain
        self.level_modulus = [math.prod(chain[:lvl + 1])
                              for lvl in range(params.level_count)]
        self.crt_consts = [
            np.array([[big_q // q * pow(big_q // q, -1, q)]
                      for q in chain[:lvl + 1]], dtype=object)
            for lvl, big_q in enumerate(self.level_modulus)]

        # rescale by the top prime of each level: (q_top)^-1 mod q_i
        self.rescale_inv = [
            np.array([pow(chain[lvl], -1, q) for q in chain[:lvl]], dtype=U64)
            for lvl in range(params.level_count)]
        self.rescale_inv_sh = [shoup_rows(inv, self.chain_u64[:lvl])
                               for lvl, inv in enumerate(self.rescale_inv)]

    # ---- domain moves ----------------------------------------------------

    def to_ntt(self, a: np.ndarray) -> np.ndarray:
        return ntt_forward(a, self.ntt.rows(slice(0, a.shape[-2])))

    def to_coeff(self, a: np.ndarray) -> np.ndarray:
        return ntt_inverse(a, self.ntt.rows(slice(0, a.shape[-2])))

    # ---- arithmetic ------------------------------------------------------

    def _primes(self, a: np.ndarray) -> np.ndarray:
        """The (R, 1) prime column of an (R, N) matrix or a stack of them."""
        return self.chain_u64[:a.shape[-2], None]

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Sum of two polynomials (or stacks) held in the same domain."""
        if a.shape != b.shape:
            raise UsageError("polynomial level mismatch")
        q = self._primes(a)
        s = a + b
        return np.where(s >= q, s - q, s)

    def negate(self, a: np.ndarray) -> np.ndarray:
        return np.where(a == 0, a, self._primes(a) - a)

    def mul_fixed(self, a: np.ndarray, fixed: np.ndarray,
                  fixed_sh: np.ndarray) -> np.ndarray:
        """Pointwise product of NTT-form polynomials with an operand that
        carries Shoup words.

        The operand broadcasts against `a`: an (R, N) matrix, a stack of
        them, or a 1-D array of one constant per prime.
        """
        if fixed.ndim == 1:
            fixed, fixed_sh = fixed[:, None], fixed_sh[:, None]
        return mulmod_shoup(a, fixed, fixed_sh, self._primes(a))

    # ---- lifting and sampling --------------------------------------------

    def lift_signed(self, values: np.ndarray, level: int) -> np.ndarray:
        """Small signed integer coefficients -> coefficient-form residues;
        a (P, N) stack of coefficient vectors lifts to (P, level + 1, N)."""
        q = self.chain_u64[:level + 1, None].astype(np.int64)
        return np.mod(values[..., None, :].astype(np.int64), q).astype(U64)

    def sample_ternary(self, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(-1, 2, size=self.params.ring_dim, dtype=np.int64)

    def sample_gaussian(self, rng: np.random.Generator) -> np.ndarray:
        raw = np.rint(rng.normal(0.0, SIGMA, size=self.params.ring_dim))
        return np.clip(raw, -TAIL_BOUND, TAIL_BOUND).astype(np.int64)

    def sample_uniform_ntt(self, rng: np.random.Generator,
                           level: int) -> np.ndarray:
        """Uniform residues, read as an NTT-form polynomial."""
        rows = [rng.integers(0, q, size=self.params.ring_dim, dtype=U64)
                for q in self.params.modulus_chain[:level + 1]]
        return np.stack(rows)

    # ---- CRT reconstruction (decode path only) ----------------------------

    def compose_centered(self, a: np.ndarray) -> np.ndarray:
        """Exact signed integer coefficients of a coefficient-form
        polynomial via CRT, as an object array."""
        level = a.shape[0] - 1
        big_q = self.level_modulus[level]
        terms = a.astype(object) * self.crt_consts[level]
        total = terms.sum(axis=0) % big_q
        return np.where(total > big_q // 2, total - big_q, total)


@lru_cache(maxsize=8)
def get_context(params: CkksParams) -> CkksContext:
    return CkksContext(params)
