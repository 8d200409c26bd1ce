"""Canonical projective linear algebra over an exact field.

A subspace of P^n is stored as the reduced row echelon basis of the
underlying linear subspace of k^(n+1).  The echelon basis is the unique
canonical representative, so subspace equality is tuple equality and every
operation (span, meet, join, projection) returns canonical output.

Conventions:

* the empty subspace has projective dimension -1 and an empty basis;
* points are homogeneous coordinate vectors scaled so the first nonzero
  coordinate is 1;
* ``meet(s1, s2)`` is the kernel of projecting ``s2`` away from ``s1``,
  found by one elimination over the rows ``[b mod s1 | b]``, b in ``s2``;
* only the public constructor checks that rows are canonical: every other
  constructor and operation takes its rows from :func:`rref`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import AmbientMismatchError, LowdegError, ProjectionError
from .fields import Field, Scalar, require_same_field

Matrix = tuple[tuple[Scalar, ...], ...]


def rref(rows: Sequence[Sequence[Scalar]], field: Field) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with zero rows dropped.

    Returns ``(rows, pivot_columns)``.  The result is the unique reduced
    echelon form of the row space, so ``rref(rref(M)) == rref(M)`` and the
    number of returned rows is the rank.
    """
    mat = [[field.coerce(x) for x in row] for row in rows]
    if mat:
        width = len(mat[0])
        if any(len(row) != width for row in mat):
            raise LowdegError("matrix rows must all have the same length")
    else:
        return (), ()
    pivots: list[int] = []
    r = 0
    for c in range(width):
        pivot_row = next((i for i in range(r, len(mat)) if not field.is_zero(mat[i][c])), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        scale = field.inv(mat[r][c])
        mat[r] = [field.reduce(scale * x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and not field.is_zero(mat[i][c]):
                factor = mat[i][c]
                mat[i] = [field.reduce(x - factor * y) for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


def _scaled_to_lead_one(field: Field, coords: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """``coords`` scaled by the inverse of their first nonzero entry and
    reduced: the canonical form of a point.  Entries need not be reduced."""
    lead = next((x for x in coords if not field.is_zero(x)), None)
    if lead is None:
        raise LowdegError("homogeneous coordinates must not all vanish")
    scale = field.inv(lead)
    return tuple(field.reduce(scale * x) for x in coords)


@dataclass(frozen=True)
class ProjPoint:
    """A point of P^n: nonzero homogeneous coordinates, first nonzero entry 1."""

    field: Field
    coords: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        coords = [self.field.coerce(x) for x in self.coords]
        object.__setattr__(self, "coords", _scaled_to_lead_one(self.field, coords))

    @property
    def ambient(self) -> int:
        return len(self.coords) - 1


@dataclass(frozen=True)
class ProjSubspace:
    """A linear subspace of P^n in canonical reduced-echelon-basis form.

    ``rows`` must already be a reduced echelon basis with no zero rows; use
    :meth:`from_vectors` or :func:`span` to build one from arbitrary
    spanning vectors.
    """

    field: Field
    ambient: int
    rows: Matrix

    def __post_init__(self) -> None:
        if self.ambient < 0:
            raise LowdegError("ambient projective dimension must be >= 0")
        rows = tuple(tuple(self.field.coerce(x) for x in row) for row in self.rows)
        if any(len(row) != self.ambient + 1 for row in rows):
            raise LowdegError(f"every row must have {self.ambient + 1} entries in P^{self.ambient}")
        # The reduced echelon form is unique, so rows are canonical iff rref keeps them.
        if rref(rows, self.field)[0] != rows:
            raise LowdegError("basis is not in reduced row echelon form without zero rows")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _canonical(cls, field: Field, ambient: int, rows: Matrix) -> "ProjSubspace":
        """Wrap rows that are already a reduced echelon basis, skipping the check."""
        if ambient < 0:
            raise LowdegError("ambient projective dimension must be >= 0")
        subspace = object.__new__(cls)
        subspace.__dict__.update(field=field, ambient=ambient, rows=rows)
        return subspace

    @classmethod
    def from_vectors(
        cls, field: Field, ambient: int, vectors: Iterable[Sequence[Scalar]]
    ) -> "ProjSubspace":
        vecs = [list(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient + 1:
                raise AmbientMismatchError(
                    f"vector of length {len(v)} cannot span inside P^{ambient}"
                )
        reduced, _ = rref(vecs, field)
        return cls._canonical(field, ambient, reduced)

    @classmethod
    def empty(cls, field: Field, ambient: int) -> "ProjSubspace":
        return cls._canonical(field, ambient, ())

    @classmethod
    def full(cls, field: Field, ambient: int) -> "ProjSubspace":
        width = ambient + 1
        rows = tuple(
            tuple(field.one if i == j else field.zero for j in range(width)) for i in range(width)
        )
        return cls._canonical(field, ambient, rows)

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

    @cached_property
    def pivot_columns(self) -> tuple[int, ...]:
        return tuple(
            next(c for c, x in enumerate(row) if not self.field.is_zero(x)) for row in self.rows
        )

    def basis_points(self) -> tuple[ProjPoint, ...]:
        return tuple(ProjPoint(self.field, row) for row in self.rows)

    def reduce_vector(self, vector: Sequence[Scalar]) -> list[Scalar]:
        """Subtract the component along this subspace, zeroing its pivot columns."""
        field = self.field
        v = [field.coerce(x) for x in vector]
        for row, c in zip(self.rows, self.pivot_columns):
            if not field.is_zero(v[c]):
                factor = v[c]
                v = [field.reduce(x - factor * y) for x, y in zip(v, row)]
        return v

    def contains_point(self, point: ProjPoint) -> bool:
        """Membership test; the empty subspace contains no point."""
        _check_compatible(self, point)
        return all(self.field.is_zero(x) for x in self.reduce_vector(point.coords))

    def contains_subspace(self, other: "ProjSubspace") -> bool:
        _check_compatible(self, other)
        return all(
            all(self.field.is_zero(x) for x in self.reduce_vector(row)) for row in other.rows
        )


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
    if ambient is not None and ambient != first.ambient:
        raise AmbientMismatchError(f"points live in P^{first.ambient}, not P^{ambient}")
    return ProjSubspace.from_vectors(first.field, first.ambient, [p.coords for p in points])


def join(s1: ProjSubspace, s2: ProjSubspace) -> ProjSubspace:
    """Smallest subspace containing both operands."""
    field = _check_compatible(s1, s2)
    return ProjSubspace.from_vectors(field, s1.ambient, list(s1.rows) + list(s2.rows))


def meet(s1: ProjSubspace, s2: ProjSubspace) -> ProjSubspace:
    """Intersection subspace: the kernel of projecting ``s2`` away from ``s1``.
    Reduced rows of ``[b mod s1 | b]`` (``b`` a basis row of ``s2``) with a
    zero left half carry the echelon basis of the intersection on the right."""
    field = _check_compatible(s1, s2)
    width = s1.ambient + 1
    reduced, pivots = rref([s1.reduce_vector(b) + list(b) for b in s2.rows], field)
    rows = tuple(row[width:] for row, c in zip(reduced, pivots) if c >= width)
    return ProjSubspace._canonical(field, s1.ambient, rows)


def project_from(center: ProjSubspace, point: ProjPoint) -> ProjPoint:
    """Image of ``point`` under projection away from ``center``: the single
    row of :func:`project_subspace_from` applied to the point's span."""
    image = project_subspace_from(center, span([point]))
    if image.is_empty:
        raise ProjectionError("point lies in the projection center")
    return ProjPoint(image.field, image.rows[0])


def project_subspace_from(center: ProjSubspace, subspace: ProjSubspace) -> ProjSubspace:
    """Image of a subspace under projection away from ``center``.

    Quotient coordinates come from reducing against the center's echelon
    basis and deleting its pivot columns, independent of how the center was
    presented.  The image lives in P^(ambient - dim(center) - 1); projecting
    from the empty subspace is the identity, and a subspace inside the
    center has the empty image."""
    field = _check_compatible(center, subspace)
    if center.is_empty:
        return subspace
    pivot_set = set(center.pivot_columns)
    images = []
    for row in subspace.rows:
        reduced = center.reduce_vector(row)
        quotient = [x for c, x in enumerate(reduced) if c not in pivot_set]
        if any(not field.is_zero(x) for x in quotient):
            images.append(quotient)
    return ProjSubspace.from_vectors(field, subspace.ambient - len(center.rows), images)


def projected_span_dim(center: ProjSubspace, subspace: ProjSubspace) -> int:
    """Dimension of the image of ``subspace`` under projection from ``center``,
    which is ``dim join(subspace, center) - dim center - 1``; requires that
    the subspace is not contained in the center."""
    image = project_subspace_from(center, subspace)
    if image.is_empty:
        raise ProjectionError("subspace lies in the projection center")
    return image.dim
