"""Lemma 5.2: the codimension-3 subspace Λ common to a family of
codimension-2 subspaces that pairwise lie in hyperplanes and jointly span.

Such a family is a set of distinct, non-collinear points of the quotient
plane P^n / Λ.  :func:`common_subspace` extracts Λ with one meet, the
meet of members 0 and 1, and one containment test per later member,
reading each member's point off its echelon rows and checking the member
as it arrives, then tests that the points span the plane with 3 x 3
determinants of their integer rows;
:func:`planted_family` builds seeded families around a planted Λ, each
member from Λ's echelon rows and one lifted quotient point, with no
elimination of its own.  :func:`charge_random` and :func:`charge_input` price
the two jobs of ``lowdeg lemma52`` before they start, in the same units of
work.
"""

from __future__ import annotations

import random
from bisect import bisect
from fractions import Fraction
from itertools import chain, islice
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .errors import MAX_INPUT, ConfigurationError, InputError, check_int
from .fields import QQ, Field, PrimeField, Scalar, max_bits, require_same_field
from .projective import ProjPoint, ProjSubspace, _det3, _rref, meet

# Draws random_subspace makes before it gives up on independent spanning vectors.
MAX_REDRAWS = 1000
# Units of work that a redraw of a quotient point in planted_family costs, about.
DRAW_WORK = 9


def common_subspace(subspaces: Iterable[ProjSubspace]) -> ProjSubspace:
    """The codimension-3 subspace contained in every member of the family.

    Preconditions: at least two subspaces, all of codimension 2 in a common
    P^n, any two of them lying in a common hyperplane, and the whole family
    spanning P^n.  By Lemma 5.2 these hold exactly when Λ, the meet of the
    first two members, has codimension 3, every member contains Λ, and the
    members project from Λ to distinct, non-collinear points of the quotient
    plane P^n / Λ.  That is what is checked, with no joins; Λ is returned.

    The points are distinct, so the first two span a line of the plane, and
    the family spans P^n exactly when some later point is off that line: a
    3 x 3 determinant of the first two points with each later one, in order,
    stopping at the first that is nonzero.  A family that fails spans the
    line's preimage, of dimension dim Λ + 2.

    A member s that contains Λ needs no elimination to give its point: Λ's
    pivot columns are among s's, and s's one echelon row with another pivot
    is zero on Λ's pivots and leads with 1 on a free column of Λ.  On those
    free columns that row is the canonical image of s in P^n / Λ.

    The family is read once, in order, and each member is checked as it
    arrives: its field, ambient and codimension first, then, once members 0
    and 1 have given Λ, that it contains Λ and where its point lies.  So the
    first fault found is the first in that order, and no member after it is
    asked for.  Members 0 and 1 contain their own meet, so only the later
    members are tested for containment.
    """
    members = _shaped(subspaces)
    first_two = list(islice(members, 2))
    if len(first_two) < 2:
        raise ConfigurationError(f"need at least two subspaces, got {len(first_two)}")
    ambient = first_two[0].ambient
    lam = meet(*first_two)
    if lam.dim == ambient - 2:
        raise ConfigurationError("subspaces 0 and 1 coincide")
    if lam.dim < ambient - 3:
        raise ConfigurationError(
            f"subspaces 0 and 1 span all of P^{ambient}; they do not lie in a common hyperplane"
        )
    lam_pivots = set(lam.pivot_columns)
    # Λ has codimension 3, so it has three free columns and the getter gives a 3-tuple
    free_columns = itemgetter(*(c for c in range(ambient + 1) if c not in lam_pivots))
    first_with_image: dict[tuple[Scalar, ...], int] = {}
    for i, s in enumerate(chain(first_two, members)):
        if i > 1 and not s.contains_subspace(lam):
            raise ConfigurationError(
                f"subspace {i} does not contain the codimension-3 meet of subspaces 0 and 1"
            )
        row = next(row for row, c in zip(s.rows, s.pivot_columns) if c not in lam_pivots)
        j = first_with_image.setdefault(free_columns(row), i)
        if j != i:
            raise ConfigurationError(f"subspaces {j} and {i} coincide")
    first, second, *later = first_with_image
    if not any(_det3(lam.field, first, second, image) for image in later):
        raise ConfigurationError(
            f"the family only spans a subspace of dimension {lam.dim + 2} in P^{ambient}"
        )
    return lam


def _shaped(subspaces: Iterable[ProjSubspace]) -> Iterator[ProjSubspace]:
    """The members in order, each passed on once its field and ambient match
    member 0's and its codimension is 2."""
    field = ambient = None
    for i, s in enumerate(subspaces):
        if i == 0:
            field, ambient = s.field, s.ambient
        else:
            require_same_field(field, s.field)
            if s.ambient != ambient:
                raise ConfigurationError(
                    f"subspace {i} lives in P^{s.ambient}, expected P^{ambient}"
                )
        if s.codim != 2:
            raise ConfigurationError(f"subspace {i} has codimension {s.codim}, expected 2")
        yield s


def _random_vector(rng: random.Random, field: Field, length: int) -> list[Scalar]:
    while True:
        if isinstance(field, PrimeField):
            vec: list[Scalar] = [rng.randrange(field.p) for _ in range(length)]
        else:
            vec = [Fraction(rng.randint(-9, 9)) for _ in range(length)]
        if any(vec):
            return vec


def _plane_size(field: Field) -> int:
    """The quotient points :func:`planted_family` can draw: p^2 + p + 1 over GF(p), and over QQ
    the 2881 points of P^2 with coordinates in [-9, 9], the range :func:`_random_vector` draws."""
    return field.p**2 + field.p + 1 if isinstance(field, PrimeField) else 2881


def random_point(rng: random.Random, field: Field, ambient: int) -> ProjPoint:
    check_int("ambient", ambient, 0, MAX_INPUT)
    return ProjPoint(field, tuple(_random_vector(rng, field, ambient + 1)))


def random_subspace(rng: random.Random, field: Field, ambient: int, dim: int) -> ProjSubspace:
    """Uniform-ish subspace of the requested projective dimension (resamples
    until the spanning vectors are independent, at most ``MAX_REDRAWS`` times)."""
    check_int("ambient", ambient, 0, MAX_INPUT)
    check_int("dim", dim, -1, ambient)
    if dim == -1:
        return ProjSubspace.empty(field, ambient)
    for _ in range(MAX_REDRAWS):
        vectors = [_random_vector(rng, field, ambient + 1) for _ in range(dim + 1)]
        candidate = ProjSubspace._canonical(field, ambient, *_rref(vectors, field))
        if candidate.dim == dim:
            return candidate
    raise ConfigurationError(f"no {dim}-plane of P^{ambient} over {field!r} in {MAX_REDRAWS} draws")


def _check_family_shape(field: Field, ambient: int, count: int) -> None:
    """Raise :class:`ConfigurationError` when :func:`planted_family` cannot build the family:
    fewer than three members never span P^n, and the members are distinct quotient points."""
    check_int("ambient", ambient, 3, MAX_INPUT, ConfigurationError)
    check_int("count", count, 3, MAX_INPUT, ConfigurationError)
    if count > (n := _plane_size(field)):
        raise ConfigurationError(
            f"at most {n} members over {field!r}, the quotient points that can be drawn, got {count}"
        )


def charge_random(field: Field, ambient: int, count: int, trials: int, limit: int) -> int:
    """The units of work of ``trials`` runs of :func:`planted_family` and :func:`common_subspace`,
    after the shape check: trials x (count x (ambient + 1)^3 + ``DRAW_WORK`` x redraws), a unit
    about 2 microseconds at most.  With i of the N = :func:`_plane_size` points drawn, a new one
    takes N / (N - i) draws on average; the floor beyond one counts as redraws, none while
    i < N / 2, so only draws past half the plane are summed.  Raises InputError past ``limit``."""
    _check_family_shape(field, ambient, count)
    check_int("trials", trials, 0, MAX_INPUT, InputError)
    check_int("limit", limit, 0, error=InputError)
    n = _plane_size(field)
    redraws = sum(n // (n - i) - 1 for i in range((n + 1) // 2, count))
    work = trials * (count * (ambient + 1) ** 3 + DRAW_WORK * redraws)
    if work > limit:
        raise InputError(
            f"lemma52 --random takes at most {limit} units of work, --trials x (--count x "
            f"(--ambient + 1)^3 + {DRAW_WORK} x {redraws} redraws of quotient points), got {work}"
        )
    return work


def charge_input(field: Field | None, members: Sequence[tuple[int, list]], limit: int) -> int:
    """The units of work of :func:`common_subspace` on the ``(ambient, rows)`` pairs
    of a file, by a rule fitted to timed files over QQ and GF(2^31 - 1), where an
    entry costs more as it grows.  Raises InputError past ``limit``."""
    # 2 x R x (n + 1)^2 x (1 + G/1024)^2 units, in integers: a row costs (n + 1)^2 cell operations,
    # a member at least n + 2 rows with its containment test and fixed costs, and an operation costs more
    # as its G-bit entries grow.  Over QQ an echelon entry is a ratio of minors of the rows cleared
    # of denominators, so G can reach (n + 1) x B; over GF(p) entries stay below p.
    check_int("limit", limit, 0, error=InputError)
    n = max((ambient for ambient, _ in members), default=0)
    charged_rows = sum(max(len(vectors), n + 2) for _, vectors in members)
    if isinstance(field, PrimeField):
        growth = field.p.bit_length()
    else:
        growth = (n + 1) * max_bits(QQ.integral(row) for _, rows in members for row in rows)
    work = charged_rows * (n + 1) ** 2 * (1024 + growth) ** 2 // 2**19
    if work > limit:
        raise InputError(
            f"lemma52 --input takes at most {limit} units of work, "
            "2 x R x (n + 1)^2 x (1 + G/1024)^2 for R rows in P^n, at least n + 2 a member, "
            "whose entries reach G bits: (n + 1) x B over QQ, B the bits of the longest entry "
            f"of a row scaled to integers, and the bits of p over GF(p), got {work}"
        )
    return work


def planted_family(
    rng: random.Random, field: Field, ambient: int, count: int = 4
) -> tuple[list[ProjSubspace], ProjSubspace]:
    """``(members, planted)``: a valid input for :func:`common_subspace` and
    the codimension-3 subspace it must return.

    The members through ``planted`` are the points of the quotient plane, so
    the family is built, not searched for: three non-collinear quotient
    points, then distinct further ones, each lifted onto the non-pivot
    columns of ``planted`` (the coordinates projection reads back).

    A member's echelon basis is known without elimination.  The lift is zero
    on the pivots of ``planted`` and is 1 at ``lead``, the free column where
    the point leads, so the basis is the rows of ``planted``, each cleared at
    ``lead`` by the lift in place: its cell at ``lead`` is set to zero, with one
    ``submul`` per nonzero cell of the lift after ``lead``.  The lift goes in
    where ``lead`` falls among the pivots of ``planted``."""
    _check_family_shape(field, ambient, count)
    planted = random_subspace(rng, field, ambient, ambient - 3)
    points: dict[tuple[Scalar, ...], None] = {}  # a set that keeps the draw order
    while len(points) < count:
        # one nonzero row of canonical scalars: its echelon form is the point
        point = _rref([_random_vector(rng, field, 3)], field)[0][0]
        on_first_line = len(points) == 2 and not _det3(field, *points, point)
        if not on_first_line:
            points.setdefault(point)
    pivots = planted.pivot_columns
    free = [c for c in range(ambient + 1) if c not in pivots]
    zero, submul = field.zero, field.submul
    members = []
    for point in points:
        lift = [zero] * (ambient + 1)
        for c, x in zip(free, point):
            lift[c] = x
        lead = free[point.index(field.one)]
        after = [k for k in range(lead + 1, ambient + 1) if lift[k]]
        rows = []
        for r in planted.rows:
            f = r[lead]
            if f:
                r = list(r)
                r[lead] = zero
                for k in after:
                    r[k] = submul(r[k], f, lift[k])
                r = tuple(r)
            rows.append(r)
        at = bisect(pivots, lead)
        rows.insert(at, tuple(lift))
        members.append(
            ProjSubspace._canonical(field, ambient, tuple(rows), (*pivots[:at], lead, *pivots[at:]))
        )
    return members, planted


def random_common_subspace_instance(
    rng: random.Random, field: Field, ambient: int, count: int = 4
) -> list[ProjSubspace]:
    """The members of :func:`planted_family`: ``count`` codimension-2 subspaces
    through one codimension-3 subspace, distinct non-collinear quotient points."""
    return planted_family(rng, field, ambient, count)[0]
