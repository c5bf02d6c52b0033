"""Federated learning with selectively encrypted gradients.

Layers, bottom up: `ckks` (leveled approximate homomorphic encryption
over RNS/NTT arithmetic), `model` (small dense nets with manual
backprop), `sensitivity` (which coordinates deserve encryption),
`protocol` (the federated rounds), `attack` (gradient inversion
against the plaintext share), `metrics` (cross-run comparison), and
`cli` (the `hefl` command).
"""

from . import attack, ckks, metrics, model, protocol, sensitivity
from .errors import (ConfigError, CryptoError, DecryptionIntegrityError,
                     DepthExhaustedError, EncodingRangeError, HeflError,
                     NumericError, ParseError, ProtocolError, UsageError)

__version__ = "0.1.0"

__all__ = [
    "attack", "ckks", "metrics", "model", "protocol", "sensitivity",
    "HeflError", "UsageError", "ConfigError", "ProtocolError", "CryptoError",
    "EncodingRangeError", "DepthExhaustedError", "DecryptionIntegrityError",
    "NumericError", "ParseError", "__version__",
]
