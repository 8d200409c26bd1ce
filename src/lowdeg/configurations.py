"""Incidence configurations: exact checks and seeded random instances.

Three gadgets live here:

* extraction of the codimension-3 subspace Λ common to a family of
  codimension-2 subspaces that pairwise lie in hyperplanes and jointly span
  (Lemma 5.2): such a family is a set of distinct, non-collinear points of
  the quotient plane P^n / Λ,
* Sylvester-Gallai checks for plane point sets, read off one anchored pass
  over the points: the lines through an anchor p are the points of the
  quotient line P^2 / p, so each anchor groups the later points by their
  image there, skipping pairs already on an emitted line.  Each line is
  found once at its first point, and the lines come out sorted with n^2
  bytes of bookkeeping.  :func:`collinear` is the exact triple test (no
  tolerances anywhere),
* a finite stand-in for the symmetric square of an elliptic curve: unordered
  pairs over Z/N with the two divisor families "pairs containing x" and
  "pairs summing to s".  Each divisor is read once, into one membership
  index (each pair to the divisors containing it); the incidence counts come
  off that index alone and reproduce the lattice table of :mod:`lowdeg.sym2_lattice`;
  the model only claims the divisor combinatorics, not an actual curve.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import ConfigurationError, LowdegError
from .fields import Field, PrimeField, Scalar, require_same_field
from .projective import ProjPoint, ProjSubspace, meet, project_subspace_from

Pair = tuple[int, int]

# Draws random_subspace makes before it gives up on independent spanning vectors.
MAX_REDRAWS = 1000


# ---------------------------------------------------------------------------
# Common codimension-3 subspace of a pencil-like family


def common_subspace(subspaces: Sequence[ProjSubspace]) -> ProjSubspace:
    """The codimension-3 subspace contained in every member of the family.

    Preconditions: at least two subspaces, all of codimension 2 in a common
    P^n, any two of them lying in a common hyperplane, and the whole family
    spanning P^n.  By Lemma 5.2 these hold exactly when Λ, the meet of the
    first two members, has codimension 3, every member contains Λ, and the
    members project from Λ to distinct, non-collinear points of the quotient
    plane P^n / Λ.  That is what is checked, with no joins; Λ is returned.
    """
    subs = list(subspaces)
    if len(subs) < 2:
        raise ConfigurationError(f"need at least two subspaces, got {len(subs)}")
    field = subs[0].field
    ambient = subs[0].ambient
    for i, s in enumerate(subs[1:], start=1):
        require_same_field(field, s.field)
        if s.ambient != ambient:
            raise ConfigurationError(
                f"subspace {i} lives in P^{s.ambient}, expected P^{ambient}"
            )
    for i, s in enumerate(subs):
        if s.codim != 2:
            raise ConfigurationError(f"subspace {i} has codimension {s.codim}, expected 2")
    lam = meet(subs[0], subs[1])
    if lam.dim == ambient - 2:
        raise ConfigurationError("subspaces 0 and 1 coincide")
    if lam.dim < ambient - 3:
        raise ConfigurationError(
            f"subspaces 0 and 1 span all of P^{ambient}; they do not lie in a common hyperplane"
        )
    first_with_image: dict[tuple[Scalar, ...], int] = {}
    for i, s in enumerate(subs):
        # s contains lam exactly when its image is a single point
        image = project_subspace_from(lam, s).rows
        if len(image) != 1:
            raise ConfigurationError(
                f"subspace {i} does not contain the codimension-3 meet of subspaces 0 and 1"
            )
        j = first_with_image.setdefault(image[0], i)
        if j != i:
            raise ConfigurationError(f"subspaces {j} and {i} coincide")
    images = ProjSubspace.from_vectors(field, 2, list(first_with_image))
    if images.dim != 2:
        raise ConfigurationError(
            f"the family only spans a subspace of dimension {lam.dim + images.dim + 1} "
            f"in P^{ambient}"
        )
    return lam


def _random_vector(rng: random.Random, field: Field, length: int) -> list[Scalar]:
    while True:
        if isinstance(field, PrimeField):
            vec: list[Scalar] = [rng.randrange(field.p) for _ in range(length)]
        else:
            vec = [Fraction(rng.randint(-9, 9)) for _ in range(length)]
        if any(not field.is_zero(x) for x in vec):
            return vec


def random_point(rng: random.Random, field: Field, ambient: int) -> ProjPoint:
    return ProjPoint(field, tuple(_random_vector(rng, field, ambient + 1)))


def random_subspace(rng: random.Random, field: Field, ambient: int, dim: int) -> ProjSubspace:
    """Uniform-ish subspace of the requested projective dimension (resamples
    until the spanning vectors are independent, at most ``MAX_REDRAWS`` times)."""
    if not -1 <= dim <= ambient:
        raise LowdegError(f"dimension {dim} out of range for P^{ambient}")
    if dim == -1:
        return ProjSubspace.empty(field, ambient)
    for _ in range(MAX_REDRAWS):
        vectors = [_random_vector(rng, field, ambient + 1) for _ in range(dim + 1)]
        candidate = ProjSubspace.from_vectors(field, ambient, vectors)
        if candidate.dim == dim:
            return candidate
    raise ConfigurationError(f"no {dim}-plane of P^{ambient} over {field!r} in {MAX_REDRAWS} draws")


def check_family_shape(field: Field, ambient: int, count: int) -> None:
    """Raise :class:`ConfigurationError` when no family for :func:`planted_family`
    exists: fewer than three members never span P^n, and GF(p) has p^2 + p + 1 points."""
    if ambient < 3:
        raise ConfigurationError("need ambient dimension at least 3")
    if count < 3:
        raise ConfigurationError(f"need at least three members to span P^{ambient}, got {count}")
    if isinstance(field, PrimeField) and count > field.p**2 + field.p + 1:
        raise ConfigurationError(
            f"at most {field.p**2 + field.p + 1} members over {field!r} contain a common "
            f"codimension-3 subspace, got {count}"
        )


def excess_draws(field: PrimeField, count: int) -> int:
    """The quotient-point draws of :func:`planted_family` beyond ``count``,
    in integer arithmetic: with i of the N = p^2 + p + 1 points drawn, a new
    one takes N / (N - i) draws on average, of which this counts the floor.
    It is 0 while ``count`` is at most N / 2.  Needs ``count`` <= N."""
    n = field.p**2 + field.p + 1
    return sum(n // (n - i) for i in range(count)) - count


def planted_family(
    rng: random.Random, field: Field, ambient: int, count: int = 4
) -> tuple[list[ProjSubspace], ProjSubspace]:
    """``(members, planted)``: a valid input for :func:`common_subspace` and
    the codimension-3 subspace it must return.

    The members through ``planted`` are the points of the quotient plane, so
    the family is built, not searched for: three non-collinear quotient
    points, then distinct further ones, each lifted onto the non-pivot
    columns of ``planted`` (the coordinates projection reads back)."""
    check_family_shape(field, ambient, count)
    planted = random_subspace(rng, field, ambient, ambient - 3)
    points: dict[tuple[Scalar, ...], None] = {}  # a set that keeps the draw order
    while len(points) < count:
        point = random_point(rng, field, 2).coords
        on_first_line = len(points) == 2 and field.is_zero(_det3(field, *points, point))
        if point not in points and not on_first_line:
            points[point] = None
    free = [c for c in range(ambient + 1) if c not in planted.pivot_columns]
    members = []
    for point in points:
        lift = dict(zip(free, point))
        row = [lift.get(c, field.zero) for c in range(ambient + 1)]
        members.append(ProjSubspace.from_vectors(field, ambient, [*planted.rows, row]))
    return members, planted


def random_common_subspace_instance(
    rng: random.Random, field: Field, ambient: int, count: int = 4
) -> list[ProjSubspace]:
    """The members of :func:`planted_family`: ``count`` codimension-2 subspaces
    through one codimension-3 subspace, distinct non-collinear quotient points."""
    return planted_family(rng, field, ambient, count)[0]


# ---------------------------------------------------------------------------
# Plane point sets and the Sylvester-Gallai property


@dataclass(frozen=True)
class PointConfig:
    """A finite set of pairwise distinct points in a common projective space."""

    points: tuple[ProjPoint, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ConfigurationError("a point configuration must be nonempty")
        first = self.points[0]
        first_index: dict[tuple[Scalar, ...], int] = {}
        for i, p in enumerate(self.points):
            require_same_field(first.field, p.field)
            if p.ambient != first.ambient:
                raise ConfigurationError(
                    f"points live in P^{first.ambient} and P^{p.ambient}"
                )
            j = first_index.setdefault(p.coords, i)
            if j != i:
                raise ConfigurationError(
                    f"duplicate point: points {j} and {i} are the same point of P^{p.ambient}"
                )

    @property
    def field(self) -> Field:
        return self.points[0].field

    @property
    def ambient(self) -> int:
        return self.points[0].ambient

    def __len__(self) -> int:
        return len(self.points)


def _det3(field: Field, p: Sequence[Scalar], q: Sequence[Scalar], r: Sequence[Scalar]) -> Scalar:
    raw = (
        p[0] * q[1] * r[2]
        + p[1] * q[2] * r[0]
        + p[2] * q[0] * r[1]
        - p[2] * q[1] * r[0]
        - p[1] * q[0] * r[2]
        - p[0] * q[2] * r[1]
    )
    return field.reduce(raw)


def collinear(config: PointConfig, i: int, j: int, k: int) -> bool:
    """Exact collinearity of three configuration points in the plane."""
    if config.ambient != 2:
        raise ConfigurationError("collinearity checks require points in the plane")
    pts = config.points
    return config.field.is_zero(_det3(config.field, pts[i].coords, pts[j].coords, pts[k].coords))


@dataclass(frozen=True)
class SylvesterGallaiReport:
    """Outcome of the two incidence properties of a plane configuration:
    every connecting line carries a third point (``is_sylvester_gallai``)
    and the size of the largest collinear subset.  When the first property
    fails, ``witness`` holds the lexicographically first ordinary pair.
    ``lines_by_size`` counts the lines of :func:`maximal_lines` by their
    number of points, in the order the sizes first occur there; the lines
    themselves are not kept."""

    num_points: int
    is_sylvester_gallai: bool
    max_collinear: int
    witness: Optional[Pair]
    lines_by_size: dict[int, int]


def check_sylvester_gallai(config: PointConfig) -> SylvesterGallaiReport:
    """Fold the lines of :func:`maximal_lines` into the report as they are
    found; exact arithmetic throughout."""
    lines_by_size: dict[int, int] = {}
    witness: Optional[Pair] = None
    # the pass raises the ambient error, so it comes before the count check
    for line in _anchored_lines(config):
        size = len(line)
        lines_by_size[size] = lines_by_size.get(size, 0) + 1
        if size == 2 and witness is None:
            witness = line
    n = len(config)
    if n < 3:
        raise ConfigurationError(f"need at least 3 points, got {n}")
    return SylvesterGallaiReport(
        num_points=n,
        is_sylvester_gallai=witness is None,
        max_collinear=max(lines_by_size),
        witness=witness,
        lines_by_size=lines_by_size,
    )


def maximal_lines(config: PointConfig) -> tuple[tuple[int, ...], ...]:
    """All lines spanned by the configuration, as sorted index tuples of the
    points lying on them, each line listed once, in sorted order."""
    return tuple(_anchored_lines(config))


def _anchored_lines(config: PointConfig) -> Iterator[tuple[int, ...]]:
    """The lines of :func:`maximal_lines`, yielded in order as they are found.

    One anchored pass: the lines through p are the points of the quotient
    line P^2 / p.  Let k be the lead index of p, so p[k] = 1, and a < b the
    other two.  For a later point q, r = q - q[k] p spans the line pq together
    with p, is nonzero because the points are distinct, and has r[k] = 0; so
    the line is the point (r[a] : r[b]) of P^1, keyed by r[b] / r[a], or by
    ``None`` when r[a] = 0.  Each anchor i groups the later points j > i by
    that key, skipping the pairs already known to share a line, so a line is
    found once, at its first point.  The output is sorted by construction:
    the anchors increase, and at one anchor the groups open in increasing
    order of their second point.  What is kept from one anchor to the next is
    one byte per pair of points.
    """
    if config.ambient != 2:
        raise ConfigurationError(f"expected points in P^2, got P^{config.ambient}")
    field = config.field
    reduce, inv, is_zero = field.reduce, field.inv, field.is_zero
    coords = [p.coords for p in config.points]
    n = len(coords)
    # on_a_line[u][v], for u < v: the pair lies on a line already emitted
    on_a_line = [bytearray(n) for _ in range(n)]
    for i, p in enumerate(coords):
        skip = on_a_line[i]
        # points are scaled so their first nonzero coordinate is 1
        k = p.index(field.one)
        a, b = (c for c in range(3) if c != k)
        pa, pb = p[a], p[b]
        through_i: dict[Optional[Scalar], list[int]] = {}
        for j in range(i + 1, n):
            if skip[j]:
                continue
            q = coords[j]
            t = q[k]
            ra = q[a] - t * pa
            key = None if is_zero(ra) else reduce((q[b] - t * pb) * inv(ra))
            through_i.setdefault(key, []).append(j)
        for group in through_i.values():
            for u, v in combinations(group, 2):
                on_a_line[u][v] = 1
            yield (i, *group)


def hesse_configuration() -> PointConfig:
    """The nine points (x, y, 1), x, y in GF(3): a Sylvester-Gallai
    configuration whose twelve lines carry three points each."""
    gf3 = PrimeField(3)
    points = tuple(ProjPoint(gf3, (x, y, 1)) for x in range(3) for y in range(3))
    return PointConfig(points)


# ---------------------------------------------------------------------------
# Unordered pairs over Z/N and their two divisor families


@dataclass(frozen=True)
class Sym2GroupModel:
    """Unordered pairs {x, y} over Z/N, diagonal included; N(N+1)/2 elements."""

    modulus: int

    def __post_init__(self) -> None:
        if not isinstance(self.modulus, int) or isinstance(self.modulus, bool):
            raise ConfigurationError(f"modulus must be an integer, got {self.modulus!r}")
        if self.modulus < 5:
            raise ConfigurationError(f"modulus must be at least 5, got {self.modulus}")

    @property
    def size(self) -> int:
        return self.modulus * (self.modulus + 1) // 2

    def elements(self) -> tuple[Pair, ...]:
        n = self.modulus
        return tuple((x, y) for x in range(n) for y in range(x, n))

    def normalize(self, pair: Pair) -> Pair:
        x, y = pair[0] % self.modulus, pair[1] % self.modulus
        return (x, y) if x <= y else (y, x)


def sym2_model(modulus: int) -> Sym2GroupModel:
    return Sym2GroupModel(modulus)


def pairs_containing(model: Sym2GroupModel, x: int) -> frozenset[Pair]:
    """The point-divisor at x: every pair with x as a member (N pairs,
    the diagonal {x, x} included)."""
    return frozenset(model.normalize((x, y)) for y in range(model.modulus))


def pairs_with_sum(model: Sym2GroupModel, s: int) -> frozenset[Pair]:
    """The fiber-divisor at s: every pair {x, s - x}.

    For odd N this has (N+1)/2 elements for every s; for even N it has
    N/2 + 1 elements when s is even (two diagonal members) and N/2 when s
    is odd (none).
    """
    return frozenset(model.normalize((x, s - x)) for x in range(model.modulus))


class IncidenceReport(NamedTuple):
    modulus: int
    checks_run: int
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def _holders(divisors: Iterable[frozenset[Pair]]) -> dict[Pair, list[int]]:
    """The membership index: each pair mapped to the indices of the divisors
    containing it, in index order.  Each set is read once, never a closed formula."""
    holders: dict[Pair, list[int]] = {}
    for i, divisor in enumerate(divisors):
        for p in divisor:
            holders.setdefault(p, []).append(i)
    return holders


def incidence_pairing_check(model: Sym2GroupModel) -> IncidenceReport:
    """Exhaustively verify the three incidence counts of the divisor families:
    |point(x) & point(y)| = 1, |point(x) & fiber(s)| = 1, |fiber(s) & fiber(t)| = 0
    for x != y and s != t, the lattice products 1, 1, 0.  Each pair of the
    membership index adds one to the count shared by every two divisors holding it."""
    n = model.modulus
    divisors = (f(model, k) for f in (pairs_containing, pairs_with_sum) for k in range(n))
    shared = [[0] * (2 * n) for _ in range(2 * n)]  # [i][j], i < j: |divisor i & divisor j|
    for held_by in _holders(divisors).values():
        for i, j in combinations(held_by, 2):
            shared[i][j] += 1
    names = [f"point({x})" for x in range(n)] + [f"fiber({s})" for s in range(n)]
    # point-point, point-fiber and fiber-fiber violations, each in row order
    violations: tuple[list[str], ...] = ([], [], [])
    for i, row in enumerate(shared):
        for j in range(i + 1, 2 * n):
            kind = (i >= n) + (j >= n)
            expected = 0 if kind == 2 else 1
            if row[j] != expected:
                violations[kind].append(
                    f"|{names[i]} & {names[j]}| = {row[j]}, expected {expected}"
                )
    joined = tuple(v for per_kind in violations for v in per_kind)
    return IncidenceReport(modulus=n, checks_run=n * (2 * n - 1), violations=joined)


class TwoDivisorReport(NamedTuple):
    """Membership audit of a subset against the point-divisor family.

    Every off-diagonal pair must lie in exactly two point-divisors (the
    ones at its two members); diagonal pairs are flagged because they lie
    in only one.  ``degrees`` counts, per group element x, how many subset
    members the point-divisor at x contains."""

    modulus: int
    subset_size: int
    flagged_diagonal: tuple[Pair, ...]
    violations: tuple[str, ...]
    degrees: tuple[tuple[int, int], ...]

    @property
    def passed(self) -> bool:
        return not self.violations and not self.flagged_diagonal


def two_divisor_check(model: Sym2GroupModel, subset: Iterable[Pair]) -> TwoDivisorReport:
    n = model.modulus
    members = sorted({model.normalize(p) for p in subset})
    holders = _holders(pairs_containing(model, x) for x in range(n))
    flagged = tuple(p for p in members if p[0] == p[1])
    violations = []
    for p in members:
        xs = holders.get(p, [])
        if p[0] != p[1] and (len(xs) != 2 or set(xs) != {p[0], p[1]}):
            violations.append(f"pair {p} lies in point-divisors {xs}, expected {sorted(p)}")
    degree = Counter(x for p in members for x in holders.get(p, ()))
    return TwoDivisorReport(
        modulus=n,
        subset_size=len(members),
        flagged_diagonal=flagged,
        violations=tuple(violations),
        degrees=tuple((x, degree[x]) for x in range(n)),
    )
