"""Exact coefficient fields: arbitrary-precision rationals and prime fields.

Rational values are plain :class:`fractions.Fraction` instances, which are
always stored fully reduced with a positive denominator, so equality of
values is equality of representations.  Prime-field values are plain ints in
``[0, p)``.  Arithmetic uses Python's operators; a field object supplies only
what differs between the two kinds of scalars: ``coerce`` validates a value
from outside, ``reduce`` maps an operator result to its canonical
representative, ``submul`` gives the canonical ``x - f * y`` of three
canonical values (the cell update of elimination), ``inv`` inverts one value,
``integral`` scales a row to integer entries, ``ratios`` divides a batch of
pairs, and ``is_zero`` tests a value for zero.
That keeps the matrix routines in :mod:`lowdeg.projective` and the
Sylvester-Gallai pass in :mod:`lowdeg.plane` generic over both.

Over QQ, ``submul`` builds one ``Fraction`` over the common denominator,
where ``x - f * y`` builds two, each with its own gcds.  That wins while the
bit lengths of the three denominators sum to at most ``_SUBMUL_BITS``; past
that, the operators' cancelling before they multiply is cheaper, so
``submul`` uses them.

A canonical zero, ``Fraction(0)`` or the int ``0``, is falsy and every other
canonical scalar is truthy, so code holding values from ``coerce`` or
``reduce`` tests them for zero by truthiness.  ``is_zero`` and ``ratios`` also
take unreduced values, such as differences of products, where any multiple of
``p``, not only ``0``, is zero in the field.  ``ratios`` is where the two
kinds differ most: over GF(p) one modular inverse serves the whole batch
(Montgomery's trick), while over QQ each pair is reduced by one gcd to an int
pair, the numerator and positive denominator that its ``Fraction`` would hold.
``integral`` gives ``ratios`` int arguments over both fields: a prime-field
row is already ints, and a rational row is scaled by the lcm of its
denominators, which moves it along its own line and so keeps every ratio.

Mixing scalars that belong to different fields is a contract violation and
raises :class:`~lowdeg.errors.MixedFieldError`.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Union

from .errors import LowdegError, MixedFieldError, brief, check_int

Scalar = Union[Fraction, int]

PRIME_LIMIT = 2**31

# The size rule of QQ's submul, in the three denominators' bit lengths summed.
# The one Fraction pays one gcd over the whole common denominator, where the
# operators pay a few over operand-sized ints.  Timed on elimination's own cell
# updates, the one Fraction is the faster below about this many bits and the
# slower above.
_SUBMUL_BITS = 2048

# The documented format, and what ``str(Fraction)`` writes.  It admits no exponent,
# so Python's limit on the digits of an int string bounds the cost of a parse; its
# groups are the numerator and the denominator, so the string is parsed once.
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


# Bases 2, 3, 5 and 7 make Miller-Rabin exact below this bound (Jaeschke 1993),
# which lies above PRIME_LIMIT.
_MILLER_RABIN_BOUND = 3_215_031_751


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with bases 2, 3, 5 and 7, memoized for the
    last 64 values asked about.  Raises :class:`~lowdeg.errors.LowdegError` (a
    ``ValueError``) from 3 215 031 751 on, where these bases stop being exact;
    :class:`PrimeField` never asks."""
    check_int("n", n)
    if n >= _MILLER_RABIN_BOUND:
        raise LowdegError(f"is_prime is exact only below {_MILLER_RABIN_BOUND}")
    return _miller_rabin(n)


# Every prime-field scalar of a JSON file names its modulus, so the same few
# moduli are tested over and over.  The cache sits behind the check, which
# refuses what it cannot hash and the bools that would hit the entries of 0 and 1.
@lru_cache(maxsize=64)
def _miller_rabin(n: int) -> bool:
    """:func:`is_prime` of an int below the bound."""
    if n < 2:
        return False
    for base in (2, 3, 5, 7):
        if n % base == 0:
            return n == base
    # n - 1 = d * 2^s with d odd; a prime n passes every base
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for base in (2, 3, 5, 7):
        x = pow(base, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The rational numbers.  Use the module-level singleton ``QQ``."""

    name = "QQ"
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value: object) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return Fraction(value)
        raise MixedFieldError(f"cannot interpret {brief(value)} as a rational number")

    def reduce(self, x: Fraction) -> Fraction:
        return x

    def submul(self, x: Fraction, f: Fraction, y: Fraction) -> Fraction:
        xd, fd, yd = x.denominator, f.denominator, y.denominator
        # summed bit lengths, not the product's: on long entries the product alone
        # costs a sixth of the operators
        if xd.bit_length() + fd.bit_length() + yd.bit_length() > _SUBMUL_BITS:
            return x - f * y
        return Fraction(x.numerator * fd * yd - f.numerator * y.numerator * xd, xd * fd * yd)

    def inv(self, a: Fraction) -> Fraction:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        # a reduced fraction's terms, swapped, are its inverse: cheaper than 1 / a
        return Fraction(a.denominator, a.numerator)

    def is_zero(self, a: Fraction) -> bool:
        return a == 0

    def integral(self, row: Sequence[Fraction]) -> list[int]:
        """The row scaled by the lcm of its denominators, so that its entries are
        integers.  A row whose first nonzero entry is 1, as a point's coordinates
        are, comes out primitive: that entry becomes the lcm itself."""
        scale = math.lcm(*(x.denominator for x in row))
        return [x.numerator * (scale // x.denominator) for x in row]

    def ratios(self, nums: Sequence[int], dens: Sequence[int]) -> list[Optional[tuple[int, int]]]:
        """The ratio ``n / d`` of each pair of ints as the int pair
        ``(numerator, denominator)`` that ``Fraction(n, d)`` holds, reduced with a
        positive denominator, or ``None`` where ``d`` is zero, so two keys are
        equal exactly when their ratios are.  A pair costs one gcd, a sign flip
        when ``d < 0`` and two exact divisions, and its key hashes in C, where
        building and hashing a ``Fraction`` runs Python code."""
        gcd = math.gcd
        keys: list[Optional[tuple[int, int]]] = []
        for n, d in zip(nums, dens):
            if d:
                g = gcd(n, d)
                if d < 0:
                    g = -g
                keys.append((n // g, d // g))
            else:
                keys.append(None)
        return keys

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("lowdeg.QQ")

    def __repr__(self) -> str:
        return "QQ"


QQ = RationalField()


class PrimeField:
    """The field with ``p`` elements, represented as ints in ``[0, p)``.

    ``p`` must be prime and below 2**31 so representatives stay machine-word
    sized.  ``p = 3`` is allowed on purpose: the Hesse configuration lives
    over GF(3).
    """

    __slots__ = ("p",)
    zero = 0
    one = 1

    def __init__(self, p: int) -> None:
        check_int("modulus", p, error=MixedFieldError)
        if p >= PRIME_LIMIT:
            raise MixedFieldError(f"modulus {brief(p)} exceeds the 2**31 limit")
        if not is_prime(p):
            raise MixedFieldError(f"modulus {brief(p)} is not prime")
        self.p = p

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.p == other.p
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.p,))

    @property
    def name(self) -> str:
        return f"GF({self.p})"

    def coerce(self, value: object) -> int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value % self.p
        if isinstance(value, Fraction) and value.denominator == 1:
            return int(value) % self.p
        raise MixedFieldError(f"cannot interpret {brief(value)} as an element of {self.name}")

    def reduce(self, x: int) -> int:
        return x % self.p

    def submul(self, x: int, f: int, y: int) -> int:
        return (x - f * y) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def is_zero(self, a: int) -> bool:
        return a % self.p == 0

    def integral(self, row: Sequence[int]) -> Sequence[int]:
        """The row itself: its entries are already ints."""
        return row

    def ratios(self, nums: Sequence[int], dens: Sequence[int]) -> list[Optional[int]]:
        """The canonical ``n / d`` for each pair, ``None`` where ``d`` is a multiple of p.

        Montgomery's batch inversion (Math. Comp. 48, 1987): each denominator
        is reduced once, one ``pow`` inverts the product of the nonzero ones,
        and a backward sweep peels that inverse off one denominator at a time.
        That is four reductions a pair (the denominator, the prefix product,
        the quotient and the inverse) instead of a ``pow`` each.
        """
        p = self.p
        reduced = [d % p for d in dens]
        # before[i]: the product of the nonzero denominators ahead of pair i
        before = []
        product = 1
        for d in reduced:
            before.append(product)
            if d:
                product = product * d % p
        # while sweeping back: the inverse of the nonzero denominators' product up to pair i
        inverse = pow(product, -1, p)
        out: list[Optional[int]] = [None] * len(dens)
        i = len(dens)
        for d in reversed(reduced):
            i -= 1
            if d:
                out[i] = nums[i] * before[i] * inverse % p
                inverse = inverse * d % p
        return out

    def __repr__(self) -> str:
        return self.name


Field = Union[RationalField, PrimeField]


def require_same_field(a: Field, b: Field) -> Field:
    # one field object is the common case, and the identity test spares its __eq__
    if a is not b and a != b:
        raise MixedFieldError(f"cannot mix values from {a!r} and {b!r}")
    return a


def max_bits(rows: Iterable[Sequence[Scalar]]) -> int:
    """B, the bit length of the longest numerator or denominator among the
    entries (0 for none); Python ints have both, so this reads either field."""
    return max(
        (n.bit_length() for row in rows for x in row for n in (x.numerator, x.denominator)),
        default=0,
    )


def scalar_to_json(field: Field, value: Scalar) -> object:
    """Serialize one scalar: ``"p/q"`` strings over QQ (``q`` omitted when 1),
    ``{"val": v, "mod": p}`` objects over a prime field."""
    if isinstance(field, PrimeField):
        return {"val": int(value), "mod": field.p}
    return str(value)


def scalar_from_json(raw: object) -> tuple[Field, Scalar]:
    """Parse one serialized scalar, returning the field it declares."""
    if isinstance(raw, dict):
        if set(raw) != {"val", "mod"}:
            raise MixedFieldError(
                f"prime-field value must have keys val/mod, got {brief(sorted(raw))}"
            )
        field = PrimeField(raw["mod"])
        return field, field.coerce(raw["val"])
    if isinstance(raw, str):
        match = _RATIONAL.fullmatch(raw)
        if not match:
            raise MixedFieldError(f"malformed rational {brief(raw)}")
        numerator, denominator = match.groups()
        try:
            return QQ, Fraction(int(numerator), int(denominator or 1))
        except (ValueError, ZeroDivisionError) as exc:
            raise MixedFieldError(f"malformed rational {brief(raw)}") from exc
    if isinstance(raw, int) and not isinstance(raw, bool):
        return QQ, Fraction(raw)
    raise MixedFieldError(f"cannot parse scalar {brief(raw)}")
