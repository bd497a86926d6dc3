"""Shared exception types."""


class ZeroModeError(ValueError):
    """Raised when the constant (zero) wave vector is used."""


class InfiniteMassError(ValueError):
    """Raised when a Levy-measure integral diverges on the requested region."""


class InadmissibleKernelError(ValueError):
    """Raised when a jump-kernel family cannot be normalized."""


class ConfigError(ValueError):
    """Raised on malformed run configuration (unknown key, bad value)."""


class CertificationError(RuntimeError):
    """Raised when a kernel fails the startup hypothesis checks."""

