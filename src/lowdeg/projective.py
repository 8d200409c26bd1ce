"""Canonical projective linear algebra over an exact field.

A subspace of P^n is stored as the reduced row echelon basis of the
underlying linear subspace of k^(n+1).  The echelon basis is the unique
canonical representative, so subspace equality is tuple equality and every
operation (span, meet, join, projection) returns canonical output.

Conventions:

* the empty subspace has projective dimension -1 and an empty basis;
* a point is stored as its one-row reduced echelon form: the coordinates
  scaled so the first nonzero one is 1;
* ``meet(s1, s2)`` is the kernel of projecting ``s2`` away from ``s1``,
  found by one elimination over the rows ``[b mod s1 | b]``, b in ``s2``
  from its last row up: each left-half pivot then comes from the last row
  with a nonzero image, which leaves the right halves in reduced echelon
  form, or nearly;
* containment is read off the pivots: ``o`` lies in ``s`` exactly when the
  pivots of ``o`` are among those of ``s`` and each row v of ``o`` equals, on
  the free columns of ``s``, the row of ``s`` at v's pivot plus v[c] times
  the row of ``s`` at c, over the pivots c of ``s`` that ``o`` lacks; a point
  is its one echelon row, its pivot the index of its leading 1;
* :func:`rref`, whose one elimination loop is ``_rref``, is the one routine
  that puts a point or a subspace in canonical form, and the one that finds
  pivots: a subspace keeps the pivot columns it returned; ``_rref`` takes a
  single row, such as a point or a drawn quotient point, outside the loop:
  its pivot is its first nonzero cell, scaled to 1 with the loop's field
  calls, one ``inv`` unless it is already 1 and one ``reduce`` per nonzero
  cell after it;
* only the public constructor checks that rows are canonical: every other
  constructor and operation takes its rows from ``_rref``, with one
  exception: a member of :func:`~lowdeg.lemma52.planted_family` takes Λ's
  echelon rows, each cleared in place at the lead column of the member's
  lift, one ``submul`` per nonzero cell of the lift after it, plus that lift,
  which is canonical by construction, inserted at ``bisect(pivots, lead)``
  among Λ's rows, and its lead inserted among Λ's pivots;
* the public ``ProjSubspace`` constructors (``ProjSubspace(...)``,
  ``from_vectors``, ``empty`` and ``full``) and :func:`span` check ``ambient``
  with :func:`~lowdeg.errors.check_int`; ``_canonical`` trusts its caller,
  which passes an ambient so checked or one read off an existing subspace;
* elimination is sparse: a pivot row is scaled, unless its pivot is
  already 1, and subtracted from other rows, over its nonzero columns after
  the pivot only, found by the truthiness of canonical scalars; each cell
  it subtracts from is one ``Field.submul``, in ``_rref`` and ``_reduce``
  alike, which over QQ builds one ``Fraction`` instead of two; the pivot
  cell itself is set, to 1 in the pivot row and to 0 in each row it clears,
  never computed, and so is each pivot cell that ``_reduce`` clears;
* scalars are coerced once, at the boundary: :func:`rref`, ``ProjPoint``,
  the public ``ProjSubspace`` constructor, ``from_vectors`` and
  ``reduce_vector`` coerce their input, and the operations pass their
  canonical rows as they are to ``_rref`` and ``_reduce``.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterable, Optional, Sequence

from .errors import MAX_INPUT, AmbientMismatchError, LowdegError, Value, check_int
from .fields import Field, Scalar, require_same_field

Matrix = tuple[tuple[Scalar, ...], ...]


def rref(rows: Sequence[Sequence[Scalar]], field: Field) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with zero rows dropped.

    Returns ``(rows, pivot_columns)``.  The result is the unique reduced
    echelon form of the row space, so ``rref(rref(M)) == rref(M)`` and the
    number of returned rows is the rank.  Each cell is coerced once.
    """
    mat = [[field.coerce(x) for x in row] for row in rows]
    if any(len(row) != len(mat[0]) for row in mat):
        raise LowdegError("matrix rows must all have the same length")
    return _rref(mat, field)


def _rref(mat: list[list[Scalar]], field: Field) -> tuple[Matrix, tuple[int, ...]]:
    """:func:`rref` of a fresh list of equal-length lists of canonical
    scalars, which it eliminates in place.  The pivot of column c is the
    first row from r on that is nonzero there, r the number of pivots so far.

    One row, such as a drawn point, skips the loop: its pivot is its first
    nonzero cell, and it makes the loop's field calls, one ``inv`` unless that
    cell is already 1 and one ``reduce`` per nonzero cell after it.  A zero
    row gives ``((), ())``."""
    if not mat:
        return (), ()
    width = len(mat[0])
    height = len(mat)
    reduce = field.reduce
    one = field.one
    if height == 1:
        row = mat[0]
        for c, lead in enumerate(row):
            if lead:
                break
        else:
            return (), ()
        if lead != one:
            scale = field.inv(lead)
            for k in range(c + 1, width):
                if row[k]:
                    row[k] = reduce(scale * row[k])
            row[c] = one
        return (tuple(row),), (c,)
    submul = field.submul
    zero = field.zero
    pivots: list[int] = []
    r = 0
    for c in range(width):
        for p in range(r, height):
            if mat[p][c]:
                break
        else:
            continue
        row = mat[p]
        if p != r:
            mat[p] = mat[r]
            mat[r] = row
        # rows r.. are zero before column c, so the pivot row is zero outside column c
        # and its support; the pivot cell ends at one and each cell it clears at zero,
        # so those cells are set, not computed
        support = [k for k in range(c + 1, width) if row[k]]
        if row[c] != one:
            scale = field.inv(row[c])
            for k in support:
                row[k] = reduce(scale * row[k])
            row[c] = one
        for i, other in enumerate(mat):
            factor = other[c]
            if factor and i != r:
                for k in support:
                    other[k] = submul(other[k], factor, row[k])
                other[c] = zero
        pivots.append(c)
        r += 1
        if r == height:
            break
    return tuple(map(tuple, mat[:r])), tuple(pivots)


def _det3(field: Field, p: Sequence[Scalar], q: Sequence[Scalar], r: Sequence[Scalar]) -> int:
    """The determinant of the rows p, q and r up to a nonzero factor, so zero exactly
    when they are dependent.  It is computed on their ``Field.integral`` rows, in ints:
    over QQ each row is scaled by the lcm of its denominators, which changes the
    determinant by a nonzero factor, and the int is not reduced to a ``Fraction``."""
    p, q, r = field.integral(p), field.integral(q), field.integral(r)
    raw = (
        p[0] * q[1] * r[2]
        + p[1] * q[2] * r[0]
        + p[2] * q[0] * r[1]
        - p[2] * q[1] * r[0]
        - p[1] * q[0] * r[2]
        - p[0] * q[2] * r[1]
    )
    return field.reduce(raw)


class ProjPoint(Value):
    """A point of P^n, stored as the one-row reduced echelon form of its
    nonzero homogeneous coordinates: the first nonzero entry is 1."""

    __slots__ = _fields = ("field", "coords")

    def __init__(self, field: Field, coords: Sequence[Scalar]) -> None:
        rows, _ = rref([coords], field)
        if not rows:
            raise LowdegError("homogeneous coordinates must not all vanish")
        self.field = field
        self.coords = rows[0]

    @property
    def ambient(self) -> int:
        return len(self.coords) - 1


class ProjSubspace(Value):
    """A linear subspace of P^n in canonical reduced-echelon-basis form.

    ``rows`` must already be a reduced echelon basis with no zero rows; use
    :meth:`from_vectors` or :func:`span` to build one from arbitrary
    spanning vectors.  ``pivot_columns`` holds the pivots :func:`rref`
    returned with the rows; equality, hashing and ``repr`` read only
    ``field``, ``ambient`` and ``rows``.
    """

    _fields = ("field", "ambient", "rows")
    __slots__ = (*_fields, "pivot_columns")

    def __init__(self, field: Field, ambient: int, rows: Matrix) -> None:
        check_int("ambient", ambient, 0, MAX_INPUT)
        mat = [[field.coerce(x) for x in row] for row in rows]
        if any(len(row) != ambient + 1 for row in mat):
            raise LowdegError(f"every row must have {ambient + 1} entries in P^{ambient}")
        rows = tuple(tuple(row) for row in mat)
        # The reduced echelon form is unique, so rows are canonical iff it keeps them;
        # rows is taken first because _rref eliminates mat in place.
        reduced, pivots = _rref(mat, field)
        if reduced != rows:
            raise LowdegError("basis is not in reduced row echelon form without zero rows")
        self.field = field
        self.ambient = ambient
        self.rows = rows
        self.pivot_columns = pivots

    @classmethod
    def _canonical(
        cls, field: Field, ambient: int, rows: Matrix, pivots: tuple[int, ...]
    ) -> "ProjSubspace":
        """Wrap rows that are already a reduced echelon basis, with their pivot
        columns, skipping the checks."""
        subspace = cls.__new__(cls)
        subspace.field = field
        subspace.ambient = ambient
        subspace.rows = rows
        subspace.pivot_columns = pivots
        return subspace

    @classmethod
    def from_vectors(
        cls, field: Field, ambient: int, vectors: Iterable[Sequence[Scalar]]
    ) -> "ProjSubspace":
        check_int("ambient", ambient, 0, MAX_INPUT)
        vecs = [list(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient + 1:
                raise AmbientMismatchError(
                    f"vector of length {len(v)} cannot span inside P^{ambient}"
                )
        return cls._canonical(field, ambient, *rref(vecs, field))

    @classmethod
    def empty(cls, field: Field, ambient: int) -> "ProjSubspace":
        check_int("ambient", ambient, 0, MAX_INPUT)
        return cls._canonical(field, ambient, (), ())

    @classmethod
    def full(cls, field: Field, ambient: int) -> "ProjSubspace":
        # the identity basis holds (ambient + 1)^2 entries, at most MAX_INPUT of them
        check_int("ambient", ambient, 0, isqrt(MAX_INPUT) - 1)
        width = ambient + 1
        rows = tuple(
            tuple(field.one if i == j else field.zero for j in range(width)) for i in range(width)
        )
        return cls._canonical(field, ambient, rows, tuple(range(width)))

    @property
    def dim(self) -> int:
        """Projective dimension: number of basis rows minus one."""
        return len(self.rows) - 1

    @property
    def codim(self) -> int:
        return self.ambient - self.dim

    @property
    def is_empty(self) -> bool:
        return not self.rows

    def reduce_vector(self, vector: Sequence[Scalar]) -> list[Scalar]:
        """Subtract the component along this subspace, zeroing its pivot columns."""
        if len(vector) != self.ambient + 1:
            raise AmbientMismatchError(
                f"vector of length {len(vector)} does not live in P^{self.ambient}"
            )
        return self._reduce([self.field.coerce(x) for x in vector])

    def _reduce(self, vector: Sequence[Scalar]) -> list[Scalar]:
        """:meth:`reduce_vector` of canonical scalars of the right length."""
        submul = self.field.submul
        zero = self.field.zero
        v = list(vector)
        for row, c in zip(self.rows, self.pivot_columns):
            factor = v[c]
            if factor:
                # the row is zero before its pivot c and one at it, so v[c] is set to
                # zero and only the cells after c are reduced
                v[c] = zero
                for k in range(c + 1, len(row)):
                    if row[k]:
                        v[k] = submul(v[k], factor, row[k])
        return v

    def contains_point(self, point: ProjPoint) -> bool:
        """Membership test; the empty subspace contains no point."""
        _check_compatible(self, point)
        coords = point.coords
        return self._contains((coords,), (coords.index(self.field.one),))

    def contains_subspace(self, other: "ProjSubspace") -> bool:
        _check_compatible(self, other)
        return self._contains(other.rows, other.pivot_columns)

    def _contains(self, rows: Matrix, pivots: tuple[int, ...]) -> bool:
        """Whether the echelon rows ``rows``, with pivot columns ``pivots``, lie in
        this subspace, by the rule of the module docstring: a vector of the subspace
        leads at one of its pivots, and is the combination of its basis weighted by
        the vector's entries on those pivots."""
        by_pivot = dict(zip(self.pivot_columns, self.rows))
        extra = [(c, row) for c, row in by_pivot.items() if c not in pivots]
        # ``pivots`` are among this subspace's exactly when it has that many fewer
        # pivots outside them
        if len(extra) != len(by_pivot) - len(pivots):
            return False
        free = [k for k in range(self.ambient + 1) if k not in by_pivot]
        submul = self.field.submul
        for v, pv in zip(rows, pivots):
            target = by_pivot[pv]
            for k in free:
                x = v[k]
                for c, row in extra:
                    if v[c] and row[k]:
                        x = submul(x, v[c], row[k])
                if x != target[k]:
                    return False
        return True


def _check_compatible(a: ProjSubspace | ProjPoint, b: ProjSubspace | ProjPoint) -> Field:
    field = require_same_field(a.field, b.field)
    if a.ambient != b.ambient:
        raise AmbientMismatchError(
            f"operands live in P^{a.ambient} and P^{b.ambient}"
        )
    return field


def span(
    points: Sequence[ProjPoint],
    *,
    field: Optional[Field] = None,
    ambient: Optional[int] = None,
) -> ProjSubspace:
    """Smallest subspace containing the given points.

    The empty list spans the empty subspace (dimension -1); in that case the
    field and ambient dimension must be passed explicitly.
    """
    if not points:
        if field is None or ambient is None:
            raise LowdegError("spanning an empty set needs explicit field= and ambient=")
        return ProjSubspace.empty(field, ambient)
    first = points[0]
    for p in points[1:]:
        _check_compatible(first, p)
    if field is not None:
        require_same_field(field, first.field)
    if ambient is not None and check_int("ambient", ambient, 0, MAX_INPUT) != first.ambient:
        raise AmbientMismatchError(f"points live in P^{first.ambient}, not P^{ambient}")
    return ProjSubspace._canonical(
        first.field, first.ambient, *_rref([list(p.coords) for p in points], first.field)
    )


def join(s1: ProjSubspace, s2: ProjSubspace) -> ProjSubspace:
    """Smallest subspace containing both operands."""
    field = _check_compatible(s1, s2)
    rows = [list(row) for row in s1.rows + s2.rows]
    return ProjSubspace._canonical(field, s1.ambient, *_rref(rows, field))


def meet(s1: ProjSubspace, s2: ProjSubspace) -> ProjSubspace:
    """Intersection subspace: the kernel of projecting ``s2`` away from ``s1``.
    Reduced rows of ``[b mod s1 | b]`` (``b`` a basis row of ``s2``) with a
    zero left half carry the echelon basis of the intersection on the right.
    The rows go in last first, so that the right halves come out reduced, or
    nearly, with little work of their own; the reduced echelon form is unique,
    so the order changes the work, not the result."""
    field = _check_compatible(s1, s2)
    width = s1.ambient + 1
    reduced, pivots = _rref([s1._reduce(b) + list(b) for b in reversed(s2.rows)], field)
    # pivots increase, so the rows with a zero left half come last
    k = sum(c < width for c in pivots)
    rows = tuple(row[width:] for row in reduced[k:])
    return ProjSubspace._canonical(field, s1.ambient, rows, tuple(c - width for c in pivots[k:]))


def project_subspace_from(center: ProjSubspace, subspace: ProjSubspace) -> ProjSubspace:
    """Image of a subspace under projection away from ``center``.

    Quotient coordinates come from reducing against the center's echelon
    basis and deleting its pivot columns, independent of how the center was
    presented.  The image lives in P^(ambient - dim(center) - 1); projecting
    from the empty subspace is the identity, and a subspace inside the
    center has the empty image.  All of P^n is no center: its quotient has
    no points."""
    field = _check_compatible(center, subspace)
    if center.dim == center.ambient:
        raise LowdegError(f"cannot project from all of P^{center.ambient}")
    if center.is_empty:
        return subspace
    pivot_set = set(center.pivot_columns)
    images = []
    for row in subspace.rows:
        reduced = center._reduce(row)
        quotient = [x for c, x in enumerate(reduced) if c not in pivot_set]
        if any(quotient):
            images.append(quotient)
    return ProjSubspace._canonical(field, subspace.ambient - len(center.rows), *_rref(images, field))
