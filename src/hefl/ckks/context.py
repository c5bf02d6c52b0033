"""Precomputed tables tying parameters to executable ring arithmetic.

A context bundles the NTT tables of all chain primes stacked row by
row, CRT reconstruction constants, rescale inverses and the slot
permutation of the canonical embedding.  Every residue operation runs
once over a polynomial's whole (primes x N) matrix, row i under prime i.
Contexts are cached per parameter set; all polynomial operations take
the context explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import UsageError
from .modmath import U64, mulmod_shoup, shoup_rows
from .ntt import make_ntt, ntt_forward, ntt_inverse
from .params import CkksParams

COEFF = "coeff"
NTT = "ntt"

# error distribution of the scheme: centered Gaussian, 6-sigma tail cut
SIGMA = 3.2
TAIL_BOUND = round(6 * SIGMA)


@dataclass
class RnsPoly:
    """Polynomial in Z_Q[X]/(X^N+1), one residue row per chain prime."""

    residues: np.ndarray  # uint64, shape (level + 1, ring_dim)
    domain: str

    @property
    def level(self) -> int:
        return self.residues.shape[0] - 1


class CkksContext:
    def __init__(self, params: CkksParams):
        params.validate()
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

    def to_ntt(self, poly: RnsPoly) -> RnsPoly:
        if poly.domain == NTT:
            return poly
        rows = self.ntt.rows(slice(0, poly.residues.shape[0]))
        return RnsPoly(ntt_forward(poly.residues, rows), NTT)

    def to_coeff(self, poly: RnsPoly) -> RnsPoly:
        if poly.domain == COEFF:
            return poly
        rows = self.ntt.rows(slice(0, poly.residues.shape[0]))
        return RnsPoly(ntt_inverse(poly.residues, rows), COEFF)

    # ---- arithmetic ------------------------------------------------------

    def add(self, a: RnsPoly, b: RnsPoly) -> RnsPoly:
        if a.domain != b.domain:
            raise UsageError("polynomial domain mismatch")
        if a.residues.shape != b.residues.shape:
            raise UsageError("polynomial level mismatch")
        q = self.chain_u64[:a.residues.shape[0], None]
        s = a.residues + b.residues
        return RnsPoly(np.where(s >= q, s - q, s), a.domain)

    def negate(self, a: RnsPoly) -> RnsPoly:
        q = self.chain_u64[:a.residues.shape[0], None]
        out = np.where(a.residues == 0, a.residues, q - a.residues)
        return RnsPoly(out, a.domain)

    def mul_fixed(self, a: RnsPoly, fixed: np.ndarray,
                  fixed_sh: np.ndarray) -> RnsPoly:
        """Pointwise product with an operand that carries Shoup words.

        The operand has one row per prime: an (R, N) matrix, or one
        constant per prime.
        """
        if a.domain != NTT:
            raise UsageError("pointwise products need the NTT domain")
        rows = a.residues.shape[0]
        out = mulmod_shoup(a.residues, fixed.reshape(rows, -1),
                           fixed_sh.reshape(rows, -1),
                           self.chain_u64[:rows, None])
        return RnsPoly(out, NTT)

    # ---- lifting and sampling --------------------------------------------

    def lift_signed(self, values: np.ndarray, level: int) -> RnsPoly:
        """Small signed integer coefficients -> residues mod each prime."""
        q = self.chain_u64[:level + 1, None].astype(np.int64)
        return RnsPoly(np.mod(values.astype(np.int64), q).astype(U64), COEFF)

    def sample_ternary(self, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(-1, 2, size=self.params.ring_dim, dtype=np.int64)

    def sample_gaussian(self, rng: np.random.Generator) -> np.ndarray:
        raw = np.rint(rng.normal(0.0, SIGMA, size=self.params.ring_dim))
        return np.clip(raw, -TAIL_BOUND, TAIL_BOUND).astype(np.int64)

    def sample_uniform_ntt(self, rng: np.random.Generator,
                           level: int) -> RnsPoly:
        rows = [rng.integers(0, q, size=self.params.ring_dim, dtype=U64)
                for q in self.params.modulus_chain[:level + 1]]
        return RnsPoly(np.stack(rows), NTT)

    # ---- CRT reconstruction (decode path only) ----------------------------

    def compose_centered(self, poly: RnsPoly) -> np.ndarray:
        """Exact signed integer coefficients via CRT, as an object array."""
        if poly.domain != COEFF:
            raise UsageError("CRT composition needs the coefficient domain")
        big_q = self.level_modulus[poly.level]
        terms = poly.residues.astype(object) * self.crt_consts[poly.level]
        total = terms.sum(axis=0) % big_q
        return np.where(total > big_q // 2, total - big_q, total)


@lru_cache(maxsize=8)
def get_context(params: CkksParams) -> CkksContext:
    return CkksContext(params)
