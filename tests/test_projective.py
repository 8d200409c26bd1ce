import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowdeg import lemma52, projective
from lowdeg.configurations import PointConfig
from lowdeg.lemma52 import common_subspace, planted_family, random_point, random_subspace
from lowdeg.errors import (
    AmbientMismatchError,
    LowdegError,
    MixedFieldError,
)
from lowdeg.fields import QQ, PrimeField, RationalField
from lowdeg.projective import (
    ProjPoint,
    ProjSubspace,
    join,
    meet,
    project_subspace_from,
    rref,
    span,
)
from lowdeg.sym2_lattice import DFParams, df_class
from lowdeg.sym2_pairs import sym2_model
from support import count_calls, counting_field, int_rank, qpoint, qspace

GF5 = PrimeField(5)
GF101 = PrimeField(101)
BIG_PRIME = PrimeField(2147483647)
GF3 = PrimeField(3)


def unit(ambient, i):
    return qpoint(*(1 if j == i else 0 for j in range(ambient + 1)))


def image_of(center, point):
    """The image of one point under projection from ``center``: a point, or
    the empty subspace when the point lies in the center."""
    return project_subspace_from(center, span([point]))


class TestRref:
    def test_identity_fixed_point(self):
        rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        reduced, pivots = rref(rows, QQ)
        assert reduced == tuple(tuple(map(Fraction, r)) for r in rows)
        assert pivots == (0, 1, 2)

    def test_proportional_rows_collapse(self):
        reduced, _ = rref([[2, 4], [1, 2]], QQ)
        assert reduced == ((Fraction(1), Fraction(2)),)

    def test_hand_elimination(self):
        reduced, _ = rref([[1, 1, 0], [0, 1, 1], [1, 0, -1]], QQ)
        assert reduced == (
            (Fraction(1), Fraction(0), Fraction(-1)),
            (Fraction(0), Fraction(1), Fraction(1)),
        )

    def test_ragged_matrix_rejected(self):
        with pytest.raises(LowdegError):
            rref([[1, 2], [1]], QQ)

    def test_mixed_entries_rejected(self):
        with pytest.raises(MixedFieldError):
            rref([[Fraction(1, 2), 1]], GF5)

    @settings(max_examples=60)
    @given(
        rows=st.lists(
            st.lists(st.integers(-9, 9), min_size=4, max_size=4), min_size=1, max_size=5
        )
    )
    def test_idempotent_over_qq_and_gf5(self, rows):
        for field in (QQ, GF5):
            reduced, _ = rref(rows, field)
            again, _ = rref(reduced, field)
            assert again == reduced


class TestProjPoint:
    def test_normalization(self):
        assert qpoint(2, 4, 6).coords == (1, 2, 3)
        assert ProjPoint(GF5, (0, 2, 1)).coords == (0, 1, 3)  # scaled by inverse of 2

    def test_canonical_equality(self):
        assert qpoint(2, 4, 6) == qpoint(1, 2, 3)
        assert qpoint(1, 0, 0) != qpoint(0, 1, 0)

    def test_zero_vector_rejected(self):
        with pytest.raises(LowdegError):
            qpoint(0, 0, 0)


class TestSpan:
    def test_collinear_points_make_a_line(self):
        pts = [qpoint(1, 0, 1), qpoint(1, 1, 1), qpoint(1, 2, 1)]
        # collinear: all on the line through (1,0,1) with direction (0,1,0)
        assert span(pts).dim == 1

    def test_coordinate_points_span_everything(self):
        pts = [unit(3, i) for i in range(4)]
        assert span(pts) == ProjSubspace.full(QQ, 3)

    def test_empty_span(self):
        s = span([], field=QQ, ambient=2)
        assert s.dim == -1 and s.is_empty

    def test_empty_span_needs_context(self):
        with pytest.raises(LowdegError):
            span([])

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatchError):
            span([qpoint(1, 0), qpoint(1, 0, 0)])

    def test_field_mismatch(self):
        with pytest.raises(MixedFieldError):
            span([qpoint(1, 0, 0), ProjPoint(GF5, (0, 1, 0))])

    def test_canonical_independent_of_presentation(self):
        a = span([qpoint(1, 2, 3), qpoint(0, 1, 1)])
        b = span([qpoint(2, 4, 6), qpoint(1, 3, 4), qpoint(0, 2, 2)])
        assert a == b


class TestMeetJoin:
    def test_two_hyperplanes(self):
        for n in (3, 4):
            h1 = ProjSubspace.from_vectors(
                QQ, n, [[1 if j == i else 0 for j in range(n + 1)] for i in range(n)]
            )
            h2 = ProjSubspace.from_vectors(
                QQ, n, [[1 if j == i + 1 else 0 for j in range(n + 1)] for i in range(n)]
            )
            assert meet(h1, h2).dim == n - 2

    def test_meet_idempotent(self):
        s = qspace(3, [1, 2, 3, 4], [0, 1, 0, 1])
        assert meet(s, s) == s

    def test_general_planes_in_p5_miss(self):
        rng = random.Random(7)
        while True:
            rows1 = [[rng.randrange(101) for _ in range(6)] for _ in range(3)]
            rows2 = [[rng.randrange(101) for _ in range(6)] for _ in range(3)]
            s1 = ProjSubspace.from_vectors(GF101, 5, rows1)
            s2 = ProjSubspace.from_vectors(GF101, 5, rows2)
            stacked, _ = rref(rows1 + rows2, GF101)
            if s1.dim == 2 and s2.dim == 2 and len(stacked) == 6:
                break  # certified general: stacked basis has full rank
        assert meet(s1, s2).is_empty

    def test_degenerate_operands(self):
        # meet reduces s2 against s1, so each case runs in both orders
        rng = random.Random(20261018)
        for field in (QQ, PrimeField(2), GF101):
            for ambient in range(0, 6):
                width = ambient + 1
                for _ in range(6):
                    vectors = [
                        [rng.randrange(-4, 5) for _ in range(width)]
                        for _ in range(rng.randint(1, width))
                    ]
                    s = ProjSubspace.from_vectors(field, ambient, vectors)
                    inner = ProjSubspace.from_vectors(field, ambient, vectors[:1])
                    empty = ProjSubspace.empty(field, ambient)
                    full = ProjSubspace.full(field, ambient)
                    cases = [(empty, s, empty), (full, s, s), (inner, s, inner), (s, s, s)]
                    for a, b, expected in cases:
                        for s1, s2 in ((a, b), (b, a)):
                            met = meet(s1, s2)
                            assert met == expected
                            assert s1.contains_subspace(met) and s2.contains_subspace(met)
                            assert met.dim + join(s1, s2).dim == s1.dim + s2.dim

    def test_join_of_two_points_is_a_line(self):
        assert join(span([qpoint(1, 0, 0)]), span([qpoint(0, 1, 0)])).dim == 1

    def test_join_with_empty_is_identity(self):
        s = qspace(3, [1, 0, 0, 2], [0, 1, 1, 0])
        assert join(s, ProjSubspace.empty(QQ, 3)) == s

    def test_skew_lines_fill_p3(self):
        l1 = qspace(3, [1, 0, 0, 0], [0, 1, 0, 0])
        l2 = qspace(3, [0, 0, 1, 0], [0, 0, 0, 1])
        assert join(l1, l2).dim == 3

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatchError):
            meet(qspace(2, [1, 0, 0]), qspace(3, [1, 0, 0, 0]))

    def test_field_mismatch(self):
        s_q = qspace(2, [1, 0, 0])
        s_5 = ProjSubspace.from_vectors(GF5, 2, [[1, 0, 0]])
        with pytest.raises(MixedFieldError):
            join(s_q, s_5)


class TestContains:
    def test_basis_points_are_members(self):
        s = qspace(3, [1, 0, 2, 0], [0, 1, 1, 1])
        for row in s.rows:
            assert s.contains_point(ProjPoint(s.field, row))

    def test_point_off_a_line(self):
        line = qspace(2, [1, 0, 0], [0, 1, 0])
        assert not line.contains_point(qpoint(0, 0, 1))
        assert not line.contains_point(qpoint(1, 1, 7))

    def test_empty_contains_nothing(self):
        assert not ProjSubspace.empty(QQ, 2).contains_point(qpoint(1, 0, 0))

    def test_containment_matches_a_rank_oracle(self):
        # o lies in s exactly when adding o's rows to s's leaves the rank unchanged.
        # Besides random pairs, o is drawn inside s, and off s with its pivots often
        # among s's: combinations of s's rows, one of them changed at a free column of
        # s after its lead, which the pivot-subset test alone would let through
        rng = random.Random(20261020)
        cases = Counter()
        for field in (QQ, PrimeField(2), GF3, GF101):
            p = None if field == QQ else field.p
            for ambient in range(8):
                width = ambient + 1
                for _ in range(24):
                    s = random_subspace(rng, field, ambient, rng.randint(-1, ambient))
                    kind = rng.choice(("random", "inside", "changed"))
                    if kind == "random":
                        o = random_subspace(rng, field, ambient, rng.randint(-1, ambient))
                        vectors = o.rows
                    else:
                        count = rng.randint(1, 3) if s.rows else 0
                        vectors = [combination(rng, field, s.rows) for _ in range(count)]
                        free = [c for c in range(width) if c not in s.pivot_columns]
                        if kind == "changed" and free and vectors:
                            v = vectors[0]
                            after = [c for c in free if c > lead(v)]
                            if after:
                                v[rng.choice(after)] += field.one
                        o = ProjSubspace.from_vectors(field, ambient, vectors)
                    base = int_rank(s.rows, p)
                    contained = int_rank([*s.rows, *o.rows], p) == base
                    assert s.contains_subspace(o) == contained, (s, o)
                    pivots_inside = set(o.pivot_columns) <= set(s.pivot_columns)
                    cases["nested" if contained else "not nested"] += 1
                    cases["pivots inside, not nested"] += pivots_inside and not contained
                    cases["empty s"] += s.is_empty
                    cases["full s"] += s.dim == ambient
                    cases["empty o"] += o.is_empty
                    for v in vectors:
                        if any(field.reduce(x) for x in v):
                            point = ProjPoint(field, v)
                            on = int_rank([*s.rows, point.coords], p) == base
                            assert s.contains_point(point) == on, (s, point)
                            cases["point on" if on else "point off"] += 1
                            inside = point.coords.index(field.one) in s.pivot_columns
                            cases["point off, lead a pivot"] += inside and not on
        # each kind of case at least 100 times in 768 pairs
        assert min(cases.values()) >= 100, cases


def combination(rng, field, rows):
    """A random combination of the canonical rows, with weights in [-3, 3], as a list."""
    weights = [field.coerce(rng.randint(-3, 3)) for _ in rows]
    return [field.reduce(sum(w * x for w, x in zip(weights, column))) for column in zip(*rows)]


def lead(vector):
    return next((k for k, x in enumerate(vector) if x), len(vector))


class TestProjection:
    def test_line_through_center_collapses(self):
        center = span([qpoint(0, 0, 1)])
        # three points on a line through the center
        images = {
            image_of(center, p).rows[0]
            for p in (qpoint(1, 1, 0), qpoint(1, 1, 1), qpoint(1, 1, 4))
        }
        assert len(images) == 1

    def test_line_missing_center_projects_injectively(self):
        center = span([qpoint(0, 0, 1)])
        images = {
            image_of(center, p).rows[0]
            for p in (qpoint(1, 0, 0), qpoint(0, 1, 0), qpoint(1, 1, 0))
        }
        assert len(images) == 3
        assert span([ProjPoint(QQ, c) for c in images]).dim == 1

    def test_empty_center_is_identity(self):
        p = qpoint(3, 1, 4)
        image = image_of(ProjSubspace.empty(QQ, 2), p)
        assert image == span([p]) and ProjPoint(QQ, image.rows[0]) == p

    def test_point_in_center_rejected(self):
        center = span([qpoint(1, 0, 0), qpoint(0, 1, 0)])
        # the image is empty
        assert image_of(center, qpoint(1, 1, 0)).is_empty

    def test_quotient_dimension(self):
        center = qspace(5, [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0])
        image = image_of(center, qpoint(0, 0, 0, 1, 2, 3))
        assert image.ambient == 5 - (center.dim + 1) and image.dim == 0

    def test_disjoint_plane_keeps_dimension_in_p5(self):
        center = qspace(5, [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1])
        plane = qspace(5, [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0])
        assert meet(center, plane).is_empty
        assert project_subspace_from(center, plane).dim == 2


class TestProjectedSpanDim:
    def test_point_center_line(self):
        center = span([unit(3, 0)])
        line = qspace(3, [0, 1, 0, 0], [0, 0, 1, 0])
        assert project_subspace_from(center, line).dim == 1

    def test_concurrent_lines_collapse(self):
        center = qspace(3, [1, 0, 0, 0], [0, 1, 0, 0])
        line = qspace(3, [0, 1, 0, 0], [0, 0, 1, 0])  # meets the center at one point
        assert project_subspace_from(center, line).dim == 0

    def test_planes_meeting_in_a_point_in_p5(self):
        s = qspace(5, [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0])
        v = qspace(5, [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0])
        assert meet(s, v).dim == 0
        assert project_subspace_from(v, s).dim == s.dim - meet(s, v).dim - 1 == 1

    def test_subspace_inside_center_rejected(self):
        v = qspace(3, [1, 0, 0, 0], [0, 1, 0, 0])
        s = qspace(3, [1, 0, 0, 0])
        # the image is empty
        assert project_subspace_from(v, s).is_empty
        assert project_subspace_from(v, ProjSubspace.empty(QQ, 3)).is_empty


# ---------------------------------------------------------------------------
# Property tests


@st.composite
def subspace_pairs(draw):
    field = draw(st.sampled_from([QQ, GF5, GF101]))
    ambient = draw(st.integers(2, 5))
    rows = st.lists(st.integers(-5, 5), min_size=ambient + 1, max_size=ambient + 1)
    v1 = draw(st.lists(rows, min_size=1, max_size=ambient + 1))
    v2 = draw(st.lists(rows, min_size=1, max_size=ambient + 1))
    s1 = ProjSubspace.from_vectors(field, ambient, v1)
    s2 = ProjSubspace.from_vectors(field, ambient, v2)
    return s1, s2


@settings(max_examples=120)
@given(pair=subspace_pairs())
def test_grassmann_dimension_formula(pair):
    s1, s2 = pair
    met, joined = meet(s1, s2), join(s1, s2)
    # with dim(empty) = -1 this is an exact identity
    assert met.dim + joined.dim == s1.dim + s2.dim
    if met.is_empty:
        assert joined.dim == s1.dim + s2.dim + 1
    assert joined.dim <= s1.ambient


@settings(max_examples=120)
@given(pair=subspace_pairs())
def test_projection_law(pair):
    center, s = pair
    if s.is_empty or center.contains_subspace(s):
        return
    expected = s.dim - meet(center, s).dim - 1
    assert project_subspace_from(center, s).dim == expected


@settings(max_examples=120)
@given(pair=subspace_pairs())
def test_meet_and_join_are_canonical_and_contained(pair):
    s1, s2 = pair
    met, joined = meet(s1, s2), join(s1, s2)
    assert s1.contains_subspace(met) and s2.contains_subspace(met)
    assert joined.contains_subspace(s1) and joined.contains_subspace(s2)
    # outputs are valid canonical subspaces: reconstructing from their rows is a no-op
    assert ProjSubspace.from_vectors(met.field, met.ambient, met.rows) == met
    assert ProjSubspace.from_vectors(joined.field, joined.ambient, joined.rows) == joined
    # the validating public constructor accepts every result built without the check
    points = [ProjPoint(s1.field, row) for row in s1.rows]
    results = [s1, s2, met, joined, span(points, field=s1.field, ambient=s1.ambient)]
    if not s1.contains_subspace(s2):
        results.append(project_subspace_from(s1, s2))
    for s in results:
        assert ProjSubspace(s.field, s.ambient, s.rows) == s
    assert meet(s2, s1) == met


def test_rank_agrees_between_qq_and_big_prime_field():
    rng = random.Random(20260808)
    for _ in range(60):
        n_rows = rng.randint(1, 5)
        n_cols = rng.randint(2, 7)
        rows = [[rng.randint(-9, 9) for _ in range(n_cols)] for _ in range(n_rows)]
        over_q, _ = rref(rows, QQ)
        over_p, _ = rref(rows, BIG_PRIME)
        # entries are tiny compared to the modulus, so every minor survives reduction
        assert len(over_q) == len(over_p)


def test_deterministic_outputs():
    vectors = [[3, 1, 4, 1], [5, 9, 2, 6], [5, 3, 5, 8]]
    first = ProjSubspace.from_vectors(QQ, 3, vectors)
    second = ProjSubspace.from_vectors(QQ, 3, vectors)
    assert first == second and first.rows == second.rows


def test_subspace_rejects_non_canonical_rows():
    with pytest.raises(LowdegError):
        ProjSubspace(QQ, 2, ((Fraction(2), Fraction(0), Fraction(0)),))
    with pytest.raises(LowdegError):
        ProjSubspace(QQ, 2, ((Fraction(0), Fraction(1), Fraction(0)), (Fraction(1), Fraction(0), Fraction(0))))
    with pytest.raises(LowdegError):
        ProjSubspace(QQ, 2, ((Fraction(1), Fraction(0), Fraction(0)), (Fraction(0),) * 3))
    with pytest.raises(LowdegError):
        ProjSubspace(QQ, 2, ((Fraction(1), Fraction(0), Fraction(0)), (Fraction(0), Fraction(1))))


def test_negative_ambient_rejected_by_every_constructor():
    for build in (
        lambda: ProjSubspace(QQ, -1, ()),
        lambda: ProjSubspace.from_vectors(QQ, -1, []),
        lambda: ProjSubspace.empty(QQ, -1),
        lambda: ProjSubspace.full(QQ, -1),
    ):
        with pytest.raises(LowdegError):
            build()


def lead_one(field, coords):
    """The reference canonical form of a point: ``coords`` scaled by the
    inverse of their first nonzero entry, then reduced."""
    coerced = [field.coerce(x) for x in coords]
    lead = next((x for x in coerced if not field.is_zero(x)), None)
    if lead is None:
        raise LowdegError("homogeneous coordinates must not all vanish")
    scale = field.inv(lead)
    return tuple(field.reduce(scale * x) for x in coerced)


def rescanned_pivots(s):
    """The reference pivots: the first nonzero column of each basis row."""
    return tuple(next(c for c, x in enumerate(row) if not s.field.is_zero(x)) for row in s.rows)


def test_stored_pivots_and_points_match_the_rescan():
    # every constructor and operation keeps the pivots rref returned, and a
    # point is its one-row echelon form; both match the references above
    rng = random.Random(20261018)
    nonempty_meets = zero_vectors = 0
    for field in (QQ, PrimeField(2), GF5, GF101):
        for ambient in range(7):
            width = ambient + 1

            def vectors():
                return [
                    [rng.randint(-3, 3) * rng.randint(0, 1) for _ in range(width)]
                    for _ in range(rng.randint(1, width))
                ]

            for _ in range(8):
                s1, s2 = (ProjSubspace.from_vectors(field, ambient, vectors()) for _ in range(2))
                points = []
                for v in vectors():
                    try:
                        expected = lead_one(field, v)
                    except LowdegError as exc:
                        with pytest.raises(LowdegError, match=f"^{exc}$"):
                            ProjPoint(field, v)
                        zero_vectors += 1
                    else:
                        points.append(ProjPoint(field, v))
                        assert points[-1].coords == expected
                met = meet(s1, s2)
                nonempty_meets += not met.is_empty
                built = [
                    s1,
                    s2,
                    ProjSubspace(field, ambient, s1.rows),
                    ProjSubspace.empty(field, ambient),
                    ProjSubspace.full(field, ambient),
                    span(points, field=field, ambient=ambient),
                    join(s1, s2),
                    met,
                    meet(s2, s1),
                ]
                if s1.dim < ambient:
                    built.append(project_subspace_from(s1, s2))
                else:  # the quotient by all of P^n has no points
                    message = rf"^cannot project from all of P\^{ambient}$"
                    with pytest.raises(LowdegError, match=message):
                        project_subspace_from(s1, s2)
                for s in built:
                    assert s.pivot_columns == rescanned_pivots(s)
    assert nonempty_meets >= 100 and zero_vectors >= 20


def test_pivots_are_not_a_field():
    s = ProjSubspace.from_vectors(GF5, 3, [[0, 2, 1, 0], [1, 0, 0, 4]])
    assert s.pivot_columns == (0, 1)
    assert repr(s) == "ProjSubspace(field=GF(5), ambient=3, rows=((1, 0, 0, 4), (0, 1, 3, 0)))"
    assert "pivot_columns" not in repr(s)
    assert s == ProjSubspace(GF5, 3, s.rows) and hash(s) == hash(ProjSubspace(GF5, 3, s.rows))
    assert hash(s) == hash((s.field, s.ambient, s.rows))
    # wrong pivots change none of equality, hash and repr
    unpivoted = ProjSubspace._canonical(GF5, 3, s.rows, ())
    assert unpivoted == s and hash(unpivoted) == hash(s) and repr(unpivoted) == repr(s)


def test_value_classes_compare_hash_and_print_their_fields():
    p = ProjPoint(GF5, [0, 2, 1])
    q = ProjPoint(QQ, [0, Fraction(2, 3), 1])
    assert repr(GF5) == "GF(5)"
    assert repr(p) == "ProjPoint(field=GF(5), coords=(0, 1, 3))"
    assert repr(q) == (
        "ProjPoint(field=QQ, coords=(Fraction(0, 1), Fraction(1, 1), Fraction(3, 2)))"
    )
    assert hash(GF5) == hash((5,))
    assert hash(p) == hash((GF5, (0, 1, 3))) and hash(q) == hash((QQ, q.coords))
    assert p == ProjPoint(GF5, [0, 4, 2]) and p != ProjPoint(PrimeField(7), [0, 2, 1])
    # equal fields are not enough: the classes must match too

    class Subfield(PrimeField):
        pass

    assert GF5 == PrimeField(5) and GF5 != Subfield(5) and p != (GF5, (0, 1, 3))


SUBSPACE_ROWS = ((1, 0, 0, 4), (0, 1, 3, 0))
# Per value class: a builder taking the class (or a subclass of it), an equal
# instance built another way, the field tuple, and the exact repr.
VALUE_TABLE = [
    (
        lambda cls: cls(GF5, [0, 2, 1]),
        ProjPoint(GF5, [0, 4, 2]),
        (GF5, (0, 1, 3)),
        "ProjPoint(field=GF(5), coords=(0, 1, 3))",
    ),
    (
        lambda cls: cls.from_vectors(GF5, 3, [[0, 2, 1, 0], [1, 0, 0, 4]]),
        ProjSubspace._canonical(GF5, 3, SUBSPACE_ROWS, ()),  # pivots are not a field
        (GF5, 3, SUBSPACE_ROWS),
        "ProjSubspace(field=GF(5), ambient=3, rows=((1, 0, 0, 4), (0, 1, 3, 0)))",
    ),
    (
        lambda cls: cls(5, -1),
        df_class(DFParams(4, 1)),
        (5, -1),
        "SurfaceClass(a=5, b=-1)",
    ),
    (lambda cls: cls(4, 1), DFParams(4, 1), (4, 1), "DFParams(d=4, m=1)"),
    (lambda cls: cls(7), sym2_model(7), (7,), "Sym2GroupModel(modulus=7)"),
    (
        lambda cls: cls((ProjPoint(GF5, [0, 2, 1]), ProjPoint(GF5, [1, 0, 0]))),
        PointConfig((ProjPoint(GF5, [0, 4, 2]), ProjPoint(GF5, [3, 0, 0]))),
        ((ProjPoint(GF5, [0, 1, 3]), ProjPoint(GF5, [1, 0, 0])),),
        "PointConfig(points=(ProjPoint(field=GF(5), coords=(0, 1, 3)), "
        "ProjPoint(field=GF(5), coords=(1, 0, 0))))",
    ),
]


@pytest.mark.parametrize(
    "build, equal, fields, text", VALUE_TABLE, ids=[type(row[1]).__name__ for row in VALUE_TABLE]
)
def test_value_class_rule(build, equal, fields, text):
    """Every value class: equal to an equal instance, hashed as its field
    tuple, printed exactly, unequal to a subclass instance with the same fields
    and to the tuple itself, and slotted all the way down."""
    cls = type(equal)
    x = build(cls)
    assert x == equal and equal == x and hash(x) == hash(equal) == hash(fields)
    assert repr(x) == text
    sub = build(type("Sub", (cls,), {"__slots__": ()}))
    assert x != sub and sub != x and x != fields and fields != x
    assert not hasattr(x, "__dict__")


# ---------------------------------------------------------------------------
# Sparse elimination against the dense reference


def dense_rref(rows, field):
    """The reference elimination: every scaling and every row update spans
    the full width, and zero tests go through ``is_zero``."""
    mat = [[field.coerce(x) for x in row] for row in rows]
    if not mat:
        return (), ()
    width = len(mat[0])
    pivots = []
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


def dense_reduce_vector(s, vector):
    """The reference for :meth:`ProjSubspace.reduce_vector`, full width."""
    field = s.field
    v = [field.coerce(x) for x in vector]
    for row, c in zip(s.rows, s.pivot_columns):
        if not field.is_zero(v[c]):
            factor = v[c]
            v = [field.reduce(x - factor * y) for x, y in zip(v, row)]
    return v


class BranchCounting(RationalField):
    """QQ that counts in ``.branches`` which side of the size rule each ``submul``
    took: the operators, seen as a call of ``Fraction.__sub__`` inside it, or one
    ``Fraction`` over the common denominator, which makes no such call."""

    def __init__(self, monkeypatch):
        self.branches = Counter()
        self.subtractions = count_calls(monkeypatch, "__sub__", Fraction)

    def submul(self, x, f, y):
        before = self.subtractions["calls"]
        value = super().submul(x, f, y)
        self.branches["operators" if self.subtractions["calls"] > before else "fused"] += 1
        return value


def long_fraction(rng):
    """A rational with a 200- to 400-digit numerator and denominator."""
    numerator, denominator = (10 ** rng.randint(199, 399) + rng.randrange(10**199) for _ in "nd")
    return Fraction(rng.choice((-1, 1)) * numerator, denominator)


def test_sparse_elimination_matches_the_dense_reference(monkeypatch):
    rng = random.Random(20261019)
    kinds = Counter()
    qq = BranchCounting(monkeypatch)
    for field in (qq, GF3, GF101, BIG_PRIME):

        def entry(density):
            # raw values: QQ mixes ints, short fractions and, one entry in 25, long
            # ones, which take submul past its size rule; GF(p) takes any int
            if rng.random() >= density:
                return 0
            if field == QQ:
                if rng.random() < 1 / 25:
                    return long_fraction(rng)
                fraction = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                return rng.choice((rng.randint(-9, 9), fraction))
            return rng.randint(-2 * field.p, 2 * field.p)

        def matrix(n_rows, width, density):
            rows = [[entry(density) for _ in range(width)] for _ in range(n_rows)]
            kind = rng.choice(("plain", "duplicate", "zero", "combination"))
            if kind == "duplicate":
                rows.insert(rng.randrange(n_rows + 1), list(rng.choice(rows)))
            elif kind == "zero":
                rows.insert(rng.randrange(n_rows + 1), [0] * width)
            elif kind == "combination":
                a, b = rng.choice(rows), rng.choice(rows)
                rows.append([2 * x - 3 * y for x, y in zip(a, b)])
            kinds[kind] += 1
            return rows

        for _ in range(150):
            width = rng.randint(1, 9)
            density = rng.choice((0.15, 0.4, 1.0))
            rows = matrix(rng.randint(1, 6), width, density)
            reduced, pivots = rref(rows, field)
            assert (reduced, pivots) == dense_rref(rows, field)
            kinds["rank deficient"] += len(reduced) < len(rows)
            kinds["mostly zero"] += sum(x == 0 for row in rows for x in row) > width * len(rows) / 2
            s1 = ProjSubspace.from_vectors(field, width - 1, rows)
            other = matrix(rng.randint(1, width), width, density)
            s2 = ProjSubspace.from_vectors(field, width - 1, other)
            for v in [entry(density) for _ in range(width)], *s2.rows:
                assert s1.reduce_vector(v) == dense_reduce_vector(s1, v)
            # [b mod s1 | b], as meet builds it
            wide = [dense_reduce_vector(s1, b) + list(b) for b in s2.rows]
            assert rref(wide, field) == dense_rref(wide, field)
            kinds["wide"] += 1
    assert min(kinds.values()) >= 100, kinds
    # the cell updates over QQ run both sides of submul's size rule
    assert min(qq.branches[side] for side in ("fused", "operators")) >= 1000, qq.branches


def test_unit_pivots_match_the_dense_reference():
    # rows with pivots already 1, as the operations pass them: an echelon basis
    # and one more canonical row; a unit pivot skips inv, the reference never does
    rng = random.Random(20261020)
    unit_cases = 0
    for field in (QQ, GF3, GF101, BIG_PRIME):
        counting = counting_field(type(field), *([] if field == QQ else [field.p]))
        for _ in range(80):
            width = rng.randint(2, 8)
            vectors = [random_row(rng, field, width) for _ in range(rng.randint(1, width))]
            basis = rref(vectors, field)[0]
            extra = [field.coerce(x) for x in random_row(rng, field, width)]
            for mat in ([*basis, extra], [extra, *basis]):
                counting.calls.clear()
                expected = dense_rref(mat, counting)
                dense_invs = counting.calls["inv"]
                counting.calls.clear()
                assert projective._rref([list(row) for row in mat], counting) == expected
                assert counting.calls["coerce"] == 0
                unit_cases += counting.calls["inv"] < dense_invs
    assert unit_cases >= 200, unit_cases


def random_row(rng, field, width):
    if field == QQ:
        return [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(width)]
    return [rng.randrange(field.p) for _ in range(width)]


def test_operations_return_what_the_public_constructor_accepts():
    # every operation eliminates its canonical rows through _rref unchecked, so
    # the public constructor, which checks them, must take each result unchanged
    rng = random.Random(20261021)
    checked = Counter()

    def assert_canonical(s, name):
        again = ProjSubspace(s.field, s.ambient, s.rows)
        assert again == s and again.pivot_columns == s.pivot_columns, name
        checked[name] += 1

    for field in (QQ, GF3, GF101, BIG_PRIME):
        for _ in range(12):
            ambient = rng.randint(3, 6)
            s1 = random_subspace(rng, field, ambient, rng.randint(-1, ambient - 1))
            s2 = random_subspace(rng, field, ambient, rng.randint(0, ambient))
            assert_canonical(s1, "random_subspace")
            assert_canonical(meet(s1, s2), "meet")
            assert_canonical(join(s1, s2), "join")
            points = [random_point(rng, field, ambient) for _ in range(rng.randint(1, 4))]
            assert_canonical(span(points), "span")
            assert_canonical(project_subspace_from(s1, s2), "project_subspace_from")
            members, planted = planted_family(rng, field, ambient, rng.randint(3, 6))
            for member in members:
                assert_canonical(member, "planted_family member")
            assert_canonical(planted, "planted")
            assert_canonical(common_subspace(members), "common_subspace")
    assert min(checked.values()) >= 48, checked


def rref_cells(mat, field):
    """The cells of one ``_rref`` input."""
    return sum(map(len, mat))


class TestEliminationWork:
    def test_rref_reduces_only_support_cells(self):
        # pivot rows [1 . . 2 . .], [. . 4 . . .] and, once row 0 is subtracted
        # from it, [. . . -6 . 5]: the pivot cell is set to 1 and the cells it
        # clears to 0, never computed, so only the support after the pivot is
        # updated: reduced once to scale it, unless the pivot is already 1, and
        # one submul per row it is subtracted from.  That is one submul (row 1),
        # nothing (an empty support), then one reduce and one submul (row 0).
        # Over GF(7), -6 is 1, so its support is not scaled.  The dense form
        # reduces 30 cells.
        rows = [[1, 0, 0, 2, 0, 0], [3, 0, 0, 0, 0, 5], [0, 0, 4, 0, 0, 0]]
        for field, work in (
            (counting_field(PrimeField, 7), {"submul": 2, "inv": 1}),
            (counting_field(RationalField), {"reduce": 1, "submul": 2, "inv": 2}),
        ):
            reduced, pivots = rref(rows, field)
            assert pivots == (0, 2, 3)
            assert field.calls == {"coerce": 18, **work}

    def test_reduce_vector_reduces_only_cells_after_a_used_pivot(self):
        # a pivot row whose factor is nonzero sets the pivot cell to 0 and updates
        # the row's nonzero cells after it, one submul each; a zero factor costs
        # nothing.  [2 5 1 1] against [1 . 2 .] and [. 1 3 4] over GF(7): 1 cell,
        # then 2, where the dense form reduces 8
        gf7 = counting_field(PrimeField, 7)
        s = ProjSubspace.from_vectors(gf7, 3, [[1, 0, 2, 0], [0, 1, 3, 4]])
        gf7.calls.clear()
        assert s.reduce_vector([2, 5, 1, 1]) == [0, 0, 3, 2]
        assert gf7.calls == {"coerce": 4, "submul": 3}
        rng = random.Random(20261022)
        used = Counter()
        for field in (QQ, GF3, GF101, BIG_PRIME):
            counting = counting_field(type(field), *([] if field == QQ else [field.p]))
            for _ in range(60):
                width = rng.randint(2, 8)
                sparse = [
                    [x if rng.random() < 0.5 else 0 for x in random_row(rng, field, width)]
                    for _ in range(rng.randint(1, width))
                ]
                s = ProjSubspace.from_vectors(counting, width - 1, sparse)
                vector = [x if rng.random() < 0.5 else 0 for x in random_row(rng, field, width)]
                expected = dense_reduce_vector(s, vector)
                v = [counting.coerce(x) for x in vector]
                cells = 0
                for row, c in zip(s.rows, s.pivot_columns):
                    used[bool(v[c])] += 1
                    if v[c]:
                        cells += sum(1 for x in row[c + 1 :] if x)
                        v = [counting.reduce(x - v[c] * y) for x, y in zip(v, row)]
                counting.calls.clear()
                assert s.reduce_vector(vector) == expected
                assert counting.calls["submul"] == cells and counting.calls["reduce"] == 0
        # pivots with a nonzero and with a zero factor both occur
        assert min(used.values()) >= 100, used

    def test_lemma52_trial_work_is_pinned(self):
        # one lemma52 --random trial over QQ in P^5 with 6 members, as the bench
        # runs it: the draw, common_subspace, then each member's containment of Λ
        qq = counting_field(RationalField)
        members, planted = planted_family(random.Random(29), qq, 5, 6)
        assert qq.calls == {"reduce": 23, "submul": 55, "inv": 9}
        qq.calls.clear()
        assert common_subspace(members) == planted
        assert qq.calls == {"reduce": 5, "submul": 41, "inv": 1}
        qq.calls.clear()
        assert all(s.contains_subspace(planted) for s in members)
        assert qq.calls == {"submul": 33}

    def test_meet_pivots_on_the_last_rows(self):
        # the meet of members 0 and 1 of that trial.  Fed s2's rows last first, _rref
        # takes each left-half pivot from the last row with a nonzero image, which leaves
        # the right halves reduced; fed top down, the same meet took {reduce 13,
        # submul 47, inv 4}
        qq = counting_field(RationalField)
        members, planted = planted_family(random.Random(29), qq, 5, 6)
        qq.calls.clear()
        assert meet(members[0], members[1]) == planted
        assert qq.calls == {"reduce": 4, "submul": 20, "inv": 1}

    def test_planted_members_are_not_eliminated(self, monkeypatch):
        # the draw of that trial eliminates only what it draws: Λ's three spanning
        # vectors of P^5 (18 cells), then six quotient points with no redraw (3 cells
        # each).  A member takes Λ's echelon rows and its lift without another _rref
        rrefs = count_calls(monkeypatch, "_rref", projective, lemma52, size=rref_cells)
        planted_family(random.Random(29), QQ, 5, 6)
        assert rrefs == {"calls": 7, "size": 36}

    def test_planted_members_are_built_in_place(self, monkeypatch):
        # that draw wraps Λ and each of its six members once, and clears Λ's rows
        # against each lift in place, with no one-row subspace of the lift to reduce them
        canonicals = count_calls(monkeypatch, "_canonical", ProjSubspace)
        reduces = count_calls(monkeypatch, "_reduce", ProjSubspace)
        planted_family(random.Random(29), QQ, 5, 6)
        assert canonicals == {"calls": 7} and reduces == {}

    def test_coerce_once_per_rref_input_cell(self, monkeypatch):
        # the public rref coerces each input cell once; the operations pass
        # canonical rows to _rref and coerce nothing
        rrefs = count_calls(monkeypatch, "_rref", projective, lemma52, size=rref_cells)
        for field in (counting_field(PrimeField, 101), counting_field(RationalField)):
            rng = random.Random(52)
            members, planted = planted_family(rng, field, 5, 6)
            s1 = ProjSubspace.from_vectors(field, 5, [[1, 2, 0, 0, 3, 1], [0, 1, 1, 4, 0, 2]])
            wide = [s1.reduce_vector(b) + list(b) for b in members[0].rows]
            rrefs.clear()
            field.calls.clear()
            rref(wide, field)
            assert rrefs["size"] == 48 and field.calls["coerce"] == 48
            rrefs.clear()
            field.calls.clear()
            met = meet(s1, members[0])
            # the four rows of a codimension-2 member, each as [b mod s1 | b]: 4 x 12 cells
            assert rrefs["size"] == 48 and field.calls["coerce"] == 0
            assert members[0].contains_subspace(met) and s1.contains_subspace(met)
            assert field.calls["coerce"] == 0
            rrefs.clear()
            field.calls.clear()
            assert common_subspace(members) == planted
            # one meet (48) and no other elimination: each member's point is read
            # off its echelon rows, and spanning is a 3 x 3 determinant of points
            assert rrefs["size"] == 48 and field.calls["coerce"] == 0


def test_reduce_vector_checks_the_length():
    s = ProjSubspace.from_vectors(GF5, 3, [[1, 0, 0, 2], [0, 1, 0, 3]])
    assert s.reduce_vector([1, 2, 3, 4]) == [0, 0, 3, 1]
    for vector in ([1, 2, 3], [1, 2, 3, 4, 5]):
        message = rf"^vector of length {len(vector)} does not live in P\^3$"
        with pytest.raises(AmbientMismatchError, match=message):
            s.reduce_vector(vector)
