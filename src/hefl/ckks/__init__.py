"""Leveled CKKS core: RNS residue matrices, stacked NTT, batch encoding.

Every polynomial is a bare uint64 residue matrix of shape (level + 1, N),
one row per chain prime.  A ciphertext's (c0, c1) and a public key's
(b, a) are each one (2, level + 1, N) stack, so every residue op runs
once on the pair; the wire format writes that stack as it is held.  The
container fixes the domain: ciphertexts and public keys hold NTT form,
`SecretKey.s_ntt` is NTT form, and plaintexts hold coefficient form.
"""

from .context import CkksContext, get_context
from .encoding import Plaintext, decode, encode
from .keys import PublicKey, SecretKey, keygen
from .ops import (Ciphertext, decrypt, encrypt, he_add, he_mul_scalar,
                  noise_budget_estimate, rescale)
from .params import CkksParams, get_profile
from .serialize import (deserialize_ciphertext, deserialize_public_key,
                        deserialize_secret_key, serialize_ciphertext,
                        serialize_public_key, serialize_secret_key)

__all__ = [
    "CkksContext", "get_context",
    "Plaintext", "decode", "encode",
    "PublicKey", "SecretKey", "keygen",
    "Ciphertext", "decrypt", "encrypt", "he_add", "he_mul_scalar",
    "noise_budget_estimate", "rescale",
    "CkksParams", "get_profile",
    "deserialize_ciphertext", "deserialize_public_key",
    "deserialize_secret_key", "serialize_ciphertext",
    "serialize_public_key", "serialize_secret_key",
]
