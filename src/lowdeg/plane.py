"""Plane point sets and the Sylvester-Gallai property, checked exactly.

The lines are read off one anchored pass over the points: the lines through
an anchor p are the points of the quotient line P^2 / p, so each anchor
groups the later points by their image there, skipping pairs already on an
emitted line.  The pass reads each point's integer coordinates off
``Field.integral``: a prime-field point as it is, a rational point scaled by
the lcm of its denominators, which turns its leading 1 into that lcm.  With k
the lead index of p, the image of a later point q is read off q - p when q
leads at k with the same lead entry, off q itself when q leads later, and off
p[k] q - q[k] p otherwise.  The image is a ratio, and an anchor divides all
of its pairs in one ``Field.ratios`` batch: one modular inverse per anchor
over GF(p), one gcd a pair over QQ, whose key is the reduced int pair of
numerator and denominator, not a ``Fraction``.  Each line is found once at
its first point, and the lines come out sorted with n^2 bytes of
bookkeeping.  Only a key that repeats opens a group: a line of two points is
its anchor and its one later point, so :func:`line_counts` builds no such
line.  Any two points lie on exactly one line, so the ordinary lines are the
C(n, 2) pairs less those covered by the lines of three or more points, and the
first of them is the first pair whose key does not repeat.  :func:`collinear`
is the exact triple test (no tolerances anywhere): a 3 x 3 determinant of the
three points' integer rows, which is zero exactly when the points are collinear.

This module loads only :mod:`lowdeg.errors`, :mod:`lowdeg.fields` and
:mod:`lowdeg.projective`, so ``lowdeg sg`` loads no other gadget;
:mod:`lowdeg.configurations` wraps the counts in a report.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Optional, Union

from .errors import ConfigurationError, InputError, Value, check_int
from .fields import Field, PrimeField, Scalar, max_bits, require_same_field
from .projective import ProjPoint, _det3

Pair = tuple[int, int]
# the key of a line at its anchor, from ``Field.ratios``: an int over GF(p), a
# reduced (numerator, denominator) pair over QQ, None when r[a] = 0
Key = Union[int, Pair, None]


class PointConfig(Value):
    """A finite set of pairwise distinct points in a common projective space."""

    __slots__ = _fields = ("points",)

    def __init__(self, points: tuple[ProjPoint, ...]) -> None:
        if not points:
            raise ConfigurationError("a point configuration must be nonempty")
        first = points[0]
        first_index: dict[tuple[Scalar, ...], int] = {}
        for i, p in enumerate(points):
            require_same_field(first.field, p.field)
            if p.ambient != first.ambient:
                raise ConfigurationError(f"points live in P^{first.ambient} and P^{p.ambient}")
            j = first_index.setdefault(p.coords, i)
            if j != i:
                raise ConfigurationError(
                    f"duplicate point: points {j} and {i} are the same point of P^{p.ambient}"
                )
        self.points = points

    @property
    def field(self) -> Field:
        return self.points[0].field

    @property
    def ambient(self) -> int:
        return self.points[0].ambient

    def __len__(self) -> int:
        return len(self.points)


def collinear(config: PointConfig, i: int, j: int, k: int) -> bool:
    """Exact collinearity of three configuration points in the plane: the 3 x 3
    determinant of their ``Field.integral`` rows vanishes."""
    if config.ambient != 2:
        raise ConfigurationError("collinearity checks require points in the plane")
    pts = config.points
    for name, index in (("i", i), ("j", j), ("k", k)):
        check_int(name, index, 0, len(pts) - 1)
    return not _det3(config.field, pts[i].coords, pts[j].coords, pts[k].coords)


def charge_sylvester_gallai(config: PointConfig, limit: int) -> int:
    """The units of work of :func:`line_counts`, C(n, 2) x B^2: it keys C(n, 2)
    pairs of points, each at a cost that grows with B^2, B the bit length of the
    longest coordinate numerator or denominator.  Raises InputError past ``limit``."""
    check_int("limit", limit, 0, error=InputError)
    work = len(config) * (len(config) - 1) // 2 * max_bits(p.coords for p in config.points) ** 2
    if work > limit:
        raise InputError(
            f"sg takes at most {limit} units of work, C(n, 2) x B^2 for n points "
            f"whose longest numerator or denominator has B bits, got {work}"
        )
    return work


def line_counts(config: PointConfig) -> tuple[Optional[Pair], dict[int, int]]:
    """``(witness, lines_by_size)``, what folding the lines of :func:`maximal_lines`
    gives, counted without building a two-point line.  ``witness`` is the
    lexicographically first ordinary pair, None when every connecting line
    carries a third point; ``lines_by_size`` counts the lines by their number of
    points, in the order the sizes first occur.  Any two points lie on one line,
    so the ordinary lines are the C(n, 2) pairs that no line of three or more
    points covers.  Exact arithmetic throughout."""
    lines_by_size: dict[int, int] = {}
    # each size's first line (i, g): the lines through one anchor i differ in g
    first_line: dict[int, Pair] = {}
    witness: Optional[Pair] = None
    # the pass raises the ambient error, so it comes before the count check
    for i, first, rich in _anchored_groups(config):
        for group in rich.values():
            size = len(group) + 1
            lines_by_size[size] = lines_by_size.get(size, 0) + 1
        if len(first_line) < len(lines_by_size):  # a size first occurs at this anchor
            for g in sorted(rich):
                first_line.setdefault(len(rich[g]) + 1, (i, g))
        if witness is None and len(first) > len(rich):
            witness = (i, next(g for g in first.values() if g not in rich))
    n = len(config)
    if n < 3:
        raise ConfigurationError(f"need at least 3 points, got {n}")
    # the pairs of points on the lines of three or more points
    covered = sum(size * (size - 1) // 2 * count for size, count in lines_by_size.items())
    if covered < n * (n - 1) // 2:
        lines_by_size[2] = n * (n - 1) // 2 - covered
        first_line[2] = witness
    return witness, {size: lines_by_size[size] for size in sorted(first_line, key=first_line.get)}


def maximal_lines(config: PointConfig) -> tuple[tuple[int, ...], ...]:
    """All lines spanned by the configuration, as sorted index tuples of the
    points lying on them, each line listed once, in sorted order."""
    return tuple(
        (i, *rich[g]) if g in rich else (i, g)
        for i, first, rich in _anchored_groups(config)
        for g in first.values()
    )


def _anchored_groups(
    config: PointConfig,
) -> Iterator[tuple[int, dict[Key, int], dict[int, list[int]]]]:
    """``(i, first, rich)`` for each anchor i in turn, the lines on which i is the
    first point: ``first`` maps the key of each such line to its second point g,
    and ``rich`` maps g to the line's points after i, ``[g, ...]``, only when the
    line has three points or more.  So the line is ``(i, g)`` when g is not in
    ``rich``, and ``(i, *rich[g])`` otherwise.

    One anchored pass: the lines through p are the points of the quotient
    line P^2 / p.  The pass runs on the integral rows of the points, so every
    coordinate is an int.  Let k be the lead index of p and a < b the other
    two.  For a later point q, r = p[k] q - q[k] p spans the line pq together
    with p, is nonzero because the points are distinct, and has r[k] = 0; so
    the line is the point (r[a] : r[b]) of P^1, keyed by r[b] / r[a], or by
    ``None`` when r[a] = 0.  Scaling r changes no key, so a tag of each point,
    its lead index and lead entry, spares most of the products: when q has the
    tag of p, q[k] = p[k] and r = q - p; when q leads after k, q[k] = 0 and
    r = q; only otherwise, when q leads before k or at k with another lead
    entry, are the four products taken.  Over GF(p) every lead entry is 1, so
    that last case is q leading before k.  Each anchor i collects (r[a], r[b])
    for the later points j > i, skipping the pairs already known to share a
    line, so a line is found once, at its first point.  One
    ``ratios(rbs, ras)`` batch gives the anchor all of its keys, with one
    modular inverse and four reductions a pair over GF(p) and one gcd a pair
    over QQ, whose keys are reduced int pairs.  Each point meets its key in
    ``first`` with one dict probe, in increasing j; only a key already there
    opens or extends a group, so a line of two points costs no list.
    ``first`` holds the lines in increasing order of g, and the anchors
    increase, so the lines come out sorted.  What is kept from one anchor to
    the next is one byte per pair of points, set for the pairs of each rich
    group.
    """
    if config.ambient != 2:
        raise ConfigurationError(f"expected points in P^2, got P^{config.ambient}")
    field = config.field
    ratios = field.ratios
    coords = [field.integral(p.coords) for p in config.points]
    n = len(coords)
    # the first nonzero integral coordinate, where the point's own coordinates hold 1
    leads = [0 if q[0] else 1 if q[1] else 2 for q in coords]
    # the lead index k and the integral lead entry, the lcm of the point's denominators,
    # in one int, so that one compare tells whether two points share both: k < 3
    tags = [3 * q[k] + k for k, q in zip(leads, coords)]
    # on_a_line[u][v], for u < v: the pair lies on a line found at an earlier anchor
    on_a_line = [bytearray(n) for _ in range(n)]
    for i, p in enumerate(coords):
        skip = on_a_line[i]
        k, tag = leads[i], tags[i]
        a, b = ((1, 2), (0, 2), (0, 1))[k]
        pk, pa, pb = p[k], p[a], p[b]
        later, ras, rbs = [], [], []
        for j in range(i + 1, n):
            if skip[j]:
                continue
            q = coords[j]
            if tags[j] == tag:  # q[k] = p[k]
                ra, rb = q[a] - pa, q[b] - pb
            elif leads[j] > k:  # q[k] = 0
                ra, rb = q[a], q[b]
            else:
                t = q[k]
                ra, rb = pk * q[a] - t * pa, pk * q[b] - t * pb
            later.append(j)
            ras.append(ra)
            rbs.append(rb)
        if not later:
            continue
        first: dict[Key, int] = {}
        rich: dict[int, list[int]] = {}
        for j, key in zip(later, ratios(rbs, ras)):
            g = first.setdefault(key, j)
            if g != j:
                group = rich.get(g)
                if group is None:
                    rich[g] = [g, j]
                else:
                    group.append(j)
        for group in rich.values():
            for u, v in combinations(group, 2):
                on_a_line[u][v] = 1
        yield i, first, rich


def hesse_configuration() -> PointConfig:
    """The nine points (x, y, 1), x, y in GF(3): a Sylvester-Gallai
    configuration whose twelve lines carry three points each."""
    gf3 = PrimeField(3)
    points = tuple(ProjPoint(gf3, (x, y, 1)) for x in range(3) for y in range(3))
    return PointConfig(points)
