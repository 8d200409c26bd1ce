"""Exception types shared across the package, how their messages quote input,
``MAX_INPUT``, the largest absolute value of an integer argument, and
:class:`Value`, the base of the slotted value classes (every module imports
this one, so the base adds no import)."""

MAX_INPUT = 10**6


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


class Value:
    """Base of the slotted value classes, whose ``_fields`` name their fields.

    An instance equals another of the same class with equal fields, and
    nothing else; it hashes as the tuple of its fields and prints as
    ``Class(name=value, ...)``.  Values are immutable by convention.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
