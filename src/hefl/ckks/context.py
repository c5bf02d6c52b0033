"""Precomputed tables tying parameters to executable ring arithmetic.

A context bundles the per-prime NTT tables, CRT reconstruction
constants, rescale inverses and the slot permutation of the canonical
embedding.  Contexts are cached per parameter set; all polynomial
operations take the context explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import UsageError
from .modmath import U64, mulmod_shoup, shoup
from .ntt import PrimeNtt, make_prime_ntt, ntt_forward, ntt_inverse
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
        self.ntt_tables: tuple[PrimeNtt, ...] = tuple(
            make_prime_ntt(n, q) for q in params.modulus_chain)
        self.chain_u64 = np.array(params.modulus_chain, dtype=U64)

        # canonical embedding: slot j sits at the 2N-th root exponent
        # 5^j mod 2N; the conjugate partner at 2N - that exponent
        exps = np.array([pow(5, j, 2 * n) for j in range(n // 2)])
        self.slot_exponents = exps
        self.conj_exponents = 2 * n - exps

        # CRT composition constants per level: coeff = sum r_i * c_i mod Q
        self.level_modulus: list[int] = []
        self.crt_consts: list[list[int]] = []
        for lvl in range(params.level_count):
            primes = params.modulus_chain[:lvl + 1]
            big_q = 1
            for q in primes:
                big_q *= q
            consts = []
            for q in primes:
                m = big_q // q
                consts.append(m * pow(m, -1, q))
            self.level_modulus.append(big_q)
            self.crt_consts.append(consts)

        # rescale by the top prime of each level: (q_top)^-1 mod q_i
        self.rescale_inv: list[np.ndarray] = [np.empty(0, dtype=U64)]
        self.rescale_inv_sh: list[np.ndarray] = [np.empty(0, dtype=U64)]
        for lvl in range(1, params.level_count):
            q_top = params.modulus_chain[lvl]
            inv = [pow(q_top, -1, q) for q in params.modulus_chain[:lvl]]
            self.rescale_inv.append(np.array(inv, dtype=U64))
            self.rescale_inv_sh.append(
                np.array([shoup(v, q) for v, q in
                          zip(inv, params.modulus_chain[:lvl])], dtype=U64))

    # ---- domain moves ----------------------------------------------------

    def to_ntt(self, poly: RnsPoly) -> RnsPoly:
        if poly.domain == NTT:
            return poly
        out = np.empty_like(poly.residues)
        for i in range(poly.residues.shape[0]):
            out[i] = ntt_forward(poly.residues[i], self.ntt_tables[i])
        return RnsPoly(out, NTT)

    def to_coeff(self, poly: RnsPoly) -> RnsPoly:
        if poly.domain == COEFF:
            return poly
        out = np.empty_like(poly.residues)
        for i in range(poly.residues.shape[0]):
            out[i] = ntt_inverse(poly.residues[i], self.ntt_tables[i])
        return RnsPoly(out, COEFF)

    # ---- arithmetic ------------------------------------------------------

    def _check_pair(self, a: RnsPoly, b: RnsPoly) -> None:
        if a.domain != b.domain:
            raise UsageError("polynomial domain mismatch")
        if a.residues.shape != b.residues.shape:
            raise UsageError("polynomial level mismatch")

    def add(self, a: RnsPoly, b: RnsPoly) -> RnsPoly:
        self._check_pair(a, b)
        q = self.chain_u64[:a.residues.shape[0], None]
        s = a.residues + b.residues
        return RnsPoly(np.where(s >= q, s - q, s), a.domain)

    def negate(self, a: RnsPoly) -> RnsPoly:
        q = self.chain_u64[:a.residues.shape[0], None]
        out = np.where(a.residues == 0, a.residues, q - a.residues)
        return RnsPoly(out, a.domain)

    def mul_fixed(self, a: RnsPoly, fixed: np.ndarray,
                  fixed_sh: np.ndarray) -> RnsPoly:
        """Pointwise product with an operand that carries Shoup words."""
        if a.domain != NTT:
            raise UsageError("pointwise products need the NTT domain")
        rows = a.residues.shape[0]
        out = np.empty_like(a.residues)
        for i in range(rows):
            out[i] = mulmod_shoup(a.residues[i], fixed[i], fixed_sh[i],
                                  self.chain_u64[i])
        return RnsPoly(out, NTT)

    # ---- lifting and sampling --------------------------------------------

    def lift_signed(self, values: np.ndarray, level: int) -> RnsPoly:
        """Small signed integer coefficients -> residues mod each prime."""
        out = np.empty((level + 1, self.params.ring_dim), dtype=U64)
        v = values.astype(np.int64)
        for i in range(level + 1):
            q = self.params.modulus_chain[i]
            out[i] = np.mod(v, q).astype(U64)
        return RnsPoly(out, COEFF)

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
        lvl = poly.level
        big_q = self.level_modulus[lvl]
        consts = self.crt_consts[lvl]
        total = np.zeros(self.params.ring_dim, dtype=object)
        for i in range(lvl + 1):
            total += poly.residues[i].astype(object) * consts[i]
        total %= big_q
        return np.where(total > big_q // 2, total - big_q, total)


@lru_cache(maxsize=8)
def get_context(params: CkksParams) -> CkksContext:
    return CkksContext(params)
