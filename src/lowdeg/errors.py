"""Exception types shared across the package, and how their messages quote input."""


class LowdegError(ValueError):
    """Base class for every domain error raised by this package."""


class MixedFieldError(LowdegError):
    """Values from different coefficient fields were combined."""


class AmbientMismatchError(LowdegError):
    """Operands live in projective spaces of different dimensions."""


class ConfigurationError(LowdegError):
    """A configuration violates the preconditions of an operation."""


class InputError(Exception):
    """Malformed input (bad file, bad JSON shape), or past a cap or work bound: exit code 2."""


def brief(value: object) -> str:
    """``repr(value)`` for an error message, cut to a prefix and its length
    when it is long, so that a message quoting an input stays one short line."""
    text = repr(value)
    if len(text) <= 60:
        return text
    return f"{text[:40]}... ({len(text)} characters)"
