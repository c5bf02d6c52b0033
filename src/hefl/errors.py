"""Exception taxonomy shared across the package.

Each family maps to one process exit code so the CLI can translate
failures without inspecting messages.
"""

EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_CRYPTO = 4
EXIT_NUMERIC = 5
EXIT_IO = 6


class HeflError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class UsageError(HeflError):
    """Caller violated an operation contract (bad argument, wrong state)."""

    exit_code = EXIT_USAGE


class ConfigError(HeflError):
    """Invalid or inconsistent run configuration."""

    exit_code = EXIT_CONFIG


class ProtocolError(HeflError):
    """Clients and server disagree on shared round state (mask, keys)."""

    exit_code = EXIT_CONFIG


class CryptoError(HeflError):
    """Ciphertext-level contract violation (encoding headroom, modulus
    depth, noise budget)."""

    exit_code = EXIT_CRYPTO


class EncodingRangeError(CryptoError):
    """Scaled value does not fit the remaining coefficient headroom."""


class DepthExhaustedError(CryptoError):
    """Modulus chain has no droppable prime left for the requested op."""


class DecryptionIntegrityError(CryptoError):
    """Estimated noise exceeds the decodable headroom."""


class NumericError(HeflError):
    """Non-finite value produced during training or evaluation."""

    exit_code = EXIT_NUMERIC


class ParseError(HeflError):
    """Malformed serialized payload.  Records the failing byte offset."""

    exit_code = EXIT_IO

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset
