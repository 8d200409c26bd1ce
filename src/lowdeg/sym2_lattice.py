"""Numerical intersection theory on the symmetric square of an elliptic curve.

The numerical divisor classes on this ruled surface form a rank-2 lattice
spanned by two effective generators: the *section* class (all length-2
subschemes containing a fixed point of the curve) and the *fiber* class of
the addition map.  Their intersection table is

    section . section = 1,  section . fiber = 1,  fiber . fiber = 0,

the canonical class is ``-2*section + fiber``, and the nef and effective
cones coincide: ``a*section + b*fiber`` is effective iff ``a >= 0`` and
``a + 2b >= 0``.

A Debarre-Fahlaoui class is ``(d+m)*section - m*fiber`` with ``1 <= m <= d``;
integral curves in these classes carry a d-parameter worth of degree-d
divisors cut by the section family and are the known source of curves with
abundant degree-d points beyond covers of the line or of an elliptic curve.
"""

from __future__ import annotations

from .errors import LowdegError, Value, brief, check_int


class SurfaceClass(Value):
    """Integer class ``a*section + b*fiber`` in the numerical lattice."""

    __slots__ = _fields = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = check_int("a", a)
        self.b = check_int("b", b)

    def __add__(self, other: "SurfaceClass") -> "SurfaceClass":
        return SurfaceClass(self.a + other.a, self.b + other.b)

    def __rmul__(self, k: int) -> "SurfaceClass":
        return SurfaceClass(k * self.a, k * self.b)


def section_class() -> SurfaceClass:
    return SurfaceClass(1, 0)


def fiber_class() -> SurfaceClass:
    return SurfaceClass(0, 1)


def canonical_class() -> SurfaceClass:
    return SurfaceClass(-2, 1)


def pair(c1: SurfaceClass, c2: SurfaceClass) -> int:
    """Intersection pairing, the bilinear extension of the generator table."""
    return c1.a * c2.a + c1.a * c2.b + c2.a * c1.b


def is_effective(c: SurfaceClass) -> bool:
    """Cone membership: a >= 0 and a + 2b >= 0 (boundary included)."""
    return c.a >= 0 and c.a + 2 * c.b >= 0


def is_nef(c: SurfaceClass) -> bool:
    """The nef cone equals the effective cone on this surface."""
    return is_effective(c)


def adjunction_genus(c: SurfaceClass) -> int:
    """Arithmetic genus 1 + (C.C + C.K)/2 of a curve in class ``c``.

    ``C.(C + K) = (a - 1)(a + 2b)`` is always even on this lattice, so the
    division is exact for every integer class.
    """
    return 1 + (pair(c, c) + pair(c, canonical_class())) // 2


class DFParams(Value):
    """Parameters ``(d, m)`` of a Debarre-Fahlaoui class, ``1 <= m <= d``."""

    __slots__ = _fields = ("d", "m")

    def __init__(self, d: int, m: int) -> None:
        # both types before d's range, so that DFParams(1, "x") names m
        check_int("d", d)
        check_int("m", m)
        check_int("d", d, 2)
        if not 1 <= m <= d:
            raise LowdegError(f"m must satisfy 1 <= m <= d = {d}, got {brief(m)}")
        self.d = d
        self.m = m


def df_class(params: DFParams) -> SurfaceClass:
    """The class ``(d+m)*section - m*fiber``; always effective since
    a = d + m >= 0 and a + 2b = d - m >= 0."""
    return SurfaceClass(params.d + params.m, -params.m)


def df_genus(params: DFParams) -> int:
    """Genus of a Debarre-Fahlaoui class by adjunction.

    Closed form: 1 + d(d-1)/2 - m(m-1)/2.
    """
    return adjunction_genus(df_class(params))


def df_gonality_guard(params: DFParams) -> bool:
    """True when ``m < d/2``, which certifies that a nice curve in the class
    has geometric gonality above d (one of the two minimality ingredients;
    the other, very-ampleness of the class, is known for m = 1)."""
    return 2 * params.m < params.d
