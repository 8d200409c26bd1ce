"""Exception types shared across the package."""


class LowdegError(ValueError):
    """Base class for every domain error raised by this package."""


class MixedFieldError(LowdegError):
    """Values from different coefficient fields were combined."""


class AmbientMismatchError(LowdegError):
    """Operands live in projective spaces of different dimensions."""


class ConfigurationError(LowdegError):
    """A configuration violates the preconditions of an operation."""
