"""Exception types shared across the package, how their messages quote input (:func:`brief`),
the one integer-argument rule :func:`check_int`, ``MAX_INPUT``, and :class:`Value`, the base of
the slotted value classes (every module imports this one, so what it defines adds no import).

:func:`check_int` is the only integer-argument check in the package.  Every public function,
constructor and method that takes an int runs it on entry, and so do the JSON readers on an
ambient read from a file.  ``MAX_INPUT`` bounds every argument that sets a size (an ambient or
projective dimension, a family size, a trial count, the modulus of the Z/N model) and the
arguments of :mod:`lowdeg.numerology`.  Internal helpers trust their callers, and the scalars
that a field's methods take are operands, not arguments: they are not checked."""

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
    when it is long, so that a message quoting an input stays one short line.
    An int past Python's int-to-str digit limit, which ``repr`` refuses, is quoted by its size."""
    try:
        text = repr(value)
    except ValueError:  # such an int, or a value that holds one
        size = f" of {value.bit_length()} bits" if isinstance(value, int) else " too long to print"
        return f"<{type(value).__name__}{size}>"
    if len(text) <= 60:
        return text
    return f"{text[:40]}... ({len(text)} characters)"


def check_int(name: str, value: object, low=None, high=None, error=LowdegError) -> int:
    """``value`` if it is an int, not a bool, at least ``low`` and, when given with ``low``, at
    most ``high``; else raise ``error``, naming ``name`` and quoting ``value`` with :func:`brief`."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {brief(value)}")
    if low is not None and value < low or high is not None and value > high:
        rule = f"be at least {low}" if high is None else f"be in [{low}, {high}]"
        raise error(f"{name} must {rule}, got {brief(value)}")
    return value


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
