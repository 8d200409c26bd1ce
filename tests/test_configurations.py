import gc
import hashlib
import math
import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, islice, product

import pytest

from lowdeg import lemma52, projective, sym2_pairs
from lowdeg.configurations import (
    PointConfig,
    check_sylvester_gallai,
    collinear,
    hesse_configuration,
    maximal_lines,
)
from lowdeg.lemma52 import (
    common_subspace,
    planted_family,
    random_common_subspace_instance,
    random_point,
    random_subspace,
)
from lowdeg.sym2_pairs import (
    Sym2GroupModel,
    incidence_pairing_check,
    pairs_containing,
    pairs_with_sum,
    sym2_model,
    two_divisor_check,
)
from lowdeg.errors import ConfigurationError, LowdegError, MixedFieldError
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
from lowdeg.sym2_lattice import fiber_class, pair, section_class
from support import (
    affine_plane,
    count_calls,
    counting_field,
    int_rank,
    planted_lines,
    projective_plane,
    qpoint,
    qspace,
)

GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF5 = PrimeField(5)


def sizes_in_order(lines):
    """Each line size with its number of lines, in order of first occurrence."""
    return list(Counter(len(line) for line in lines).items())


def keys_are_none(field):
    """Whether each key of each ``ratios`` batch logged by a counting field is ``None``."""
    return [answer is None for _, _, answers in field.batches for answer in answers]


def keyed_lead_cases(config, lines):
    """How often the anchored pass keys a pair (i, j) of a line of three or more
    points at i, its first point, by each lead case: 0 when j leads where i
    does, 1 when j leads later, -1 when j leads earlier."""
    leads = [p.coords.index(1) for p in config.points]
    return Counter(
        (leads[j] > leads[line[0]]) - (leads[j] < leads[line[0]])
        for line in lines
        if len(line) >= 3
        for j in line[1:]
    )


def keyed_tag_cases(config, lines):
    """Like :func:`keyed_lead_cases` over QQ, with the same-lead case split by the
    integral lead entries, which the pass compares with the lead index: "same
    tag" when j leads where i does with the same entry, "other entry" when with
    another, "later" and "earlier" when j leads later or earlier than i."""
    leads = [p.coords.index(1) for p in config.points]
    entries = [QQ.integral(p.coords)[k] for p, k in zip(config.points, leads)]
    cases = Counter()
    for line in lines:
        if len(line) < 3:
            continue
        i = line[0]
        for j in line[1:]:
            if leads[j] == leads[i]:
                cases["same tag" if entries[j] == entries[i] else "other entry"] += 1
            else:
                cases["later" if leads[j] > leads[i] else "earlier"] += 1
    return cases


def triple_scan(config):
    """The cubic reference for :func:`maximal_lines` and the witness: every
    pair with the points collinear with it, and the first ordinary pair."""
    n = len(config)
    lines = set()
    witness = None
    for i in range(n):
        for j in range(i + 1, n):
            others = [k for k in range(n) if k not in (i, j) and collinear(config, i, j, k)]
            lines.add(tuple(sorted([i, j, *others])))
            if not others and witness is None:
                witness = (i, j)
    return tuple(sorted(lines)), witness


def pairwise_common_subspace(subs):
    """The O(count^2) reference for :func:`common_subspace`: join every pair
    of members, then the whole family, then meet the first two and confirm
    that every member contains the result."""
    ambient = subs[0].ambient
    if len(subs) < 2 or any(s.codim != 2 for s in subs):
        raise ConfigurationError("need at least two members of codimension 2")
    for i in range(len(subs)):
        for j in range(i + 1, len(subs)):
            joined = join(subs[i], subs[j])
            if joined.dim == ambient - 2:
                raise ConfigurationError(f"subspaces {i} and {j} coincide")
            if joined.dim != ambient - 1:
                raise ConfigurationError(f"subspaces {i} and {j} lie in no common hyperplane")
    total = subs[0]
    for s in subs[1:]:
        total = join(total, s)
    if total.dim != ambient:
        raise ConfigurationError(f"the family only spans dimension {total.dim}")
    lam = meet(subs[0], subs[1])
    if not all(s.contains_subspace(lam) for s in subs):
        raise LowdegError("a member misses the meet of the first two")
    return lam


def frozenset_incidence_check(model):
    """The O(N^3) reference for :func:`incidence_pairing_check`: intersect the
    frozensets of every pair of divisors.  Returns ``(checks_run, violations)``."""
    n = model.modulus
    point_divs = [sym2_pairs.pairs_containing(model, x) for x in range(n)]
    fiber_divs = [sym2_pairs.pairs_with_sum(model, s) for s in range(n)]
    violations = []
    checks = 0
    for x in range(n):
        for y in range(x + 1, n):
            checks += 1
            got = len(point_divs[x] & point_divs[y])
            if got != 1:
                violations.append(f"|point({x}) & point({y})| = {got}, expected 1")
    for x in range(n):
        for s in range(n):
            checks += 1
            got = len(point_divs[x] & fiber_divs[s])
            if got != 1:
                violations.append(f"|point({x}) & fiber({s})| = {got}, expected 1")
    for s in range(n):
        for t in range(s + 1, n):
            checks += 1
            got = len(fiber_divs[s] & fiber_divs[t])
            if got != 0:
                violations.append(f"|fiber({s}) & fiber({t})| = {got}, expected 0")
    return checks, tuple(violations)


def scanning_two_divisor_check(model, subset):
    """The reference for :func:`two_divisor_check`: scan all N point-divisors
    for each member, then intersect each with the subset.  Returns
    ``(violations, degrees)``."""
    n = model.modulus
    members = sorted({model.normalize(p) for p in subset})
    point_divs = [sym2_pairs.pairs_containing(model, x) for x in range(n)]
    violations = []
    for p in members:
        if p[0] == p[1]:
            continue
        holders = [x for x in range(n) if p in point_divs[x]]
        if len(holders) != 2 or set(holders) != {p[0], p[1]}:
            violations.append(f"pair {p} lies in point-divisors {holders}, expected {sorted(p)}")
    member_set = set(members)
    return tuple(violations), tuple((x, len(point_divs[x] & member_set)) for x in range(n))


def projecting_common_subspace(subspaces):
    """The reference for :func:`common_subspace` that projects each member from
    the meet Λ of the first two, one elimination a member, to find its point of
    the quotient plane; the checks and their order are the same."""
    members = lemma52._shaped(subspaces)
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
    first_with_image = {}
    for i, s in enumerate(chain(first_two, members)):
        image = project_subspace_from(lam, s).rows
        if len(image) != 1:
            raise ConfigurationError(
                f"subspace {i} does not contain the codimension-3 meet of subspaces 0 and 1"
            )
        j = first_with_image.setdefault(image[0], i)
        if j != i:
            raise ConfigurationError(f"subspaces {j} and {i} coincide")
    images, _ = rref(list(first_with_image), lam.field)
    if len(images) != 3:
        raise ConfigurationError(
            f"the family only spans a subspace of dimension {lam.dim + len(images)} "
            f"in P^{ambient}"
        )
    return lam


def perturbed_families(rng):
    """Seeded valid families and four kinds of perturbation, 220 a field:
    ``(field, ambient, kind, members)`` with the members shuffled."""
    kinds = ("valid", "valid", "duplicate", "replace", "cut", "collinear")
    for field in (GF2, GF3, GF5, PrimeField(101), QQ):
        plane = 7 if field == GF2 else 13
        for _ in range(220):
            ambient = rng.randint(3, 5)
            members, lam = planted_family(rng, field, ambient, rng.randint(3, min(plane, 6)))
            kind = rng.choice(kinds)
            if kind == "duplicate":
                members.insert(rng.randrange(len(members) + 1), rng.choice(members))
            elif kind == "replace":
                members[rng.randrange(len(members))] = random_subspace(
                    rng, field, ambient, ambient - 2
                )
            elif kind == "cut":
                members = members[:2]
            elif kind == "collinear":
                # more members through lam inside the hyperplane of the first two
                hyperplane = join(members[0], members[1])
                extra = [through(lam, random_point_in(rng, hyperplane)) for _ in range(3)]
                members = members[:2] + [m for m in extra if m.codim == 2]
            rng.shuffle(members)
            yield field, ambient, kind, members


def plane_over(q):
    """The q^2 + q + 1 points of P^2(GF(q)) as int triples led by a 1, in a
    seeded order that mixes their lead indices, and each line, one per dual
    vector, as the sorted indices of the points on it."""
    points = [v for v in product(range(q), repeat=3) if any(v) and next(x for x in v if x) == 1]
    random.Random(q).shuffle(points)
    lines = [
        [i for i, v in enumerate(points) if sum(a * b for a, b in zip(u, v)) % q == 0]
        for u in points
    ]
    return points, lines


def incidence_case(rng, trial):
    """``(kind, field, coords)``: the homogeneous coordinates of a seeded plane point set,
    in plain ints.  Over QQ, a subset of a 5 x 5 grid, a pencil of lines through a point
    with stray points, a near-pencil, or affine points mixed with points at infinity;
    over GF(p), a random subset of the plane."""
    kind = ("grid", "pencil", "near-pencil", "infinity", "field")[trial % 5]

    def small():
        return rng.randint(-4, 4)

    if kind == "grid":
        grid = [(x, y, 1) for x in range(5) for y in range(5)]
        chosen = rng.sample(grid, rng.randint(3, 12))
    elif kind == "pencil":
        center = (small(), small(), 1)
        chosen = [center] if rng.random() < 0.5 else []
        for _ in range(rng.randint(2, 4)):
            d = (small(), small(), rng.randint(0, 1))
            chosen += [[c + s * e for c, e in zip(center, d)] for s in rng.sample(range(1, 6), 3)]
        chosen += [(small(), small(), 1) for _ in range(rng.randint(0, 2))]
    elif kind == "near-pencil":
        # the points u + s v and v of the line uv, and one point w off it
        u = v = w = (0, 0, 0)
        while not any(_cross(u, v)):
            u, v = (small(), small(), 1), (1, small(), rng.randint(0, 1))
        while not sum(a * b for a, b in zip(w, _cross(u, v))):
            w = (small(), small(), 1)
        line = [v] + [[a + s * b for a, b in zip(u, v)] for s in rng.sample(range(-6, 7), 5)]
        chosen = [*line[: rng.randint(3, 6)], w]
    elif kind == "infinity":
        chosen = [(1, small(), 0) for _ in range(rng.randint(1, 4))]
        chosen += [(0, 1, 0)] * rng.randint(0, 1)
        chosen += [(small(), small(), 1) for _ in range(rng.randint(2, 8))]
    else:
        q = rng.choice((2, 3, 5, 7))
        plane = plane_over(q)[0]
        return kind, PrimeField(q), rng.sample(plane, rng.randint(3, min(12, len(plane))))
    points = {}
    for c in chosen:
        if any(c):
            points.setdefault(ProjPoint(QQ, c).coords, c)
    return kind, QQ, list(points.values())


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def span_points(vectors, q):
    """The points of the span of the int vectors over GF(q), each scaled to a
    leading 1, by running over every combination."""
    points = set()
    for coeffs in product(range(q), repeat=len(vectors)):
        v = [sum(c * x for c, x in zip(coeffs, column)) % q for column in zip(*vectors)]
        if any(v):
            scale = pow(next(x for x in v if x), -1, q)
            points.add(tuple(x * scale % q for x in v))
    return frozenset(points)


def codim2_subspaces(q, n):
    """Every codimension-2 subspace of P^n(GF(q)), as (n - 1 spanning points,
    point set) pairs, found as the spans of independent point tuples."""
    points = [v for v in product(range(q), repeat=n + 1) if any(v) and next(x for x in v if x) == 1]
    size = (q ** (n - 1) - 1) // (q - 1)
    found = {}
    for spanning in combinations(points, n - 1):
        pts = span_points(spanning, q)
        if len(pts) == size:
            found.setdefault(pts, spanning)
    return [(spanning, pts) for pts, spanning in found.items()]


def lemma52_hypotheses_hold(point_sets, q, n):
    """Lemma 5.2's hypotheses on the members' point sets: the members are
    distinct, any two meet in at least a codimension-3 subspace (a point count),
    and the union of their points spans P^n."""
    codim3_size = (q ** (n - 2) - 1) // (q - 1)
    return (
        len(set(point_sets)) == len(point_sets)
        and all(len(a & b) >= codim3_size for a, b in combinations(point_sets, 2))
        and int_rank(list(frozenset().union(*point_sets)), q) == n + 1
    )


class Lemma52Oracle:
    """Runs :func:`common_subspace` on families of the codimension-2 subspaces
    of P^n(GF(q)), given by index, against the lemma as stated, counting the
    families returned and the raised messages with their digits masked."""

    def __init__(self, q, n):
        self.q, self.n = q, n
        self.subspaces = codim2_subspaces(q, n)
        field = PrimeField(q)
        self.members = [ProjSubspace.from_vectors(field, n, v) for v, _ in self.subspaces]
        self.returned, self.raised = 0, Counter()

    def check(self, family):
        point_sets = [self.subspaces[i][1] for i in family]
        members = [self.members[i] for i in family]
        if lemma52_hypotheses_hold(point_sets, self.q, self.n):
            lam = common_subspace(members)
            assert span_points(lam.rows, self.q) == frozenset.intersection(*point_sets), family
            self.returned += 1
        else:
            with pytest.raises(ConfigurationError) as excinfo:
                common_subspace(members)
            self.raised[re.sub(r"\d+", "#", str(excinfo.value))] += 1


def random_invertible(rng, field, size):
    """A random matrix of GL(size) over the field, as rows of small integers."""
    while True:
        g = [
            [rng.randrange(field.p) if field != QQ else rng.randint(-3, 3) for _ in range(size)]
            for _ in range(size)
        ]
        if len(rref(g, field)[0]) == size:
            return g


def moved_by(g, subspace):
    """The image of the subspace under g: each spanning vector v goes to g v."""
    vectors = [[sum(x * y for x, y in zip(g_row, v)) for g_row in g] for v in subspace.rows]
    return ProjSubspace.from_vectors(subspace.field, subspace.ambient, vectors)


def through(lam, point):
    return join(lam, span([point]))


def random_point_in(rng, subspace):
    coeffs = random_point(rng, subspace.field, subspace.dim).coords
    coords = [0] * (subspace.ambient + 1)
    for c, row in zip(coeffs, subspace.rows):
        coords = [x + c * y for x, y in zip(coords, row)]
    return ProjPoint(subspace.field, tuple(coords))


class TestCommonSubspace:
    def test_planted_line_in_p4(self):
        planted = qspace(4, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0])
        members = [
            join(planted, span([qpoint(0, 0, 1, 0, 0)])),
            join(planted, span([qpoint(0, 0, 0, 1, 0)])),
            join(planted, span([qpoint(0, 0, 0, 0, 1)])),
        ]
        assert common_subspace(members) == planted

    def test_randomized_oracle(self):
        rng = random.Random(42)
        for field in (GF3, GF5, PrimeField(101)):
            for ambient in (4, 5):
                for _ in range(10):
                    members = random_common_subspace_instance(
                        rng, field, ambient, count=rng.randint(3, 5)
                    )
                    lam = common_subspace(members)
                    assert lam.dim == ambient - 3
                    assert all(s.contains_subspace(lam) for s in members)

    def test_200_trials_over_gf5_in_p4(self):
        rng = random.Random(200)
        for _ in range(200):
            members = random_common_subspace_instance(rng, GF5, 4, count=4)
            lam = common_subspace(members)
            assert lam.dim == 1
            for member in members:
                assert all(member.contains_point(ProjPoint(GF5, row)) for row in lam.rows)

    def test_two_members_never_satisfy_both_preconditions(self):
        # codim-2 pairs in a hyperplane cannot span everything
        planted = qspace(4, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0])
        members = [
            join(planted, span([qpoint(0, 0, 1, 0, 0)])),
            join(planted, span([qpoint(0, 0, 0, 1, 0)])),
        ]
        with pytest.raises(ConfigurationError, match="span"):
            common_subspace(members)

    def test_pair_spanning_everything_rejected(self):
        s1 = qspace(4, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0])
        s2 = qspace(4, [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1])
        third = qspace(4, [1, 0, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1])
        with pytest.raises(ConfigurationError, match="hyperplane"):
            common_subspace([s1, s2, third])

    def test_wrong_codimension_rejected(self):
        line = qspace(4, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0])
        plane = qspace(4, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0])
        with pytest.raises(ConfigurationError, match="codimension"):
            common_subspace([line, plane, plane])

    def test_duplicates_rejected(self):
        s = qspace(4, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0])
        with pytest.raises(ConfigurationError, match="coincide"):
            common_subspace([s, s])

    def test_needs_two_subspaces(self):
        s = qspace(4, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0])
        with pytest.raises(ConfigurationError, match="at least two"):
            common_subspace([s])

    def test_member_missing_the_meet_rejected(self):
        lam = qspace(4, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0])
        members = [
            through(lam, qpoint(0, 0, 1, 0, 0)),
            through(lam, qpoint(0, 0, 0, 1, 0)),
            through(lam, qpoint(0, 0, 0, 0, 1)),
            qspace(4, [1, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]),
        ]
        with pytest.raises(
            ConfigurationError, match="subspace 3 does not contain the codimension-3 meet"
        ):
            common_subspace(members)

    def test_collinear_images_rejected(self):
        # three members through the line, all inside the hyperplane x4 = 0
        lam = qspace(4, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0])
        members = [
            through(lam, qpoint(0, 0, 1, 0, 0)),
            through(lam, qpoint(0, 0, 0, 1, 0)),
            through(lam, qpoint(0, 0, 1, 1, 0)),
            through(lam, qpoint(0, 0, 1, 2, 0)),
        ]
        # two members span only their line of the quotient plane, as do four collinear ones
        for family in (members, members[:2]):
            with pytest.raises(
                ConfigurationError, match=r"only spans a subspace of dimension 3 in P\^4$"
            ):
                common_subspace(family)
        # images 0, 1 and 2 collinear, image 3 off their line: the family spans
        off_the_line = through(lam, qpoint(0, 0, 0, 0, 1))
        assert common_subspace([*members[:3], off_the_line]) == lam

    def test_later_duplicate_names_both_indices(self):
        lam = qspace(4, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0])
        members = [
            through(lam, qpoint(0, 0, 1, 0, 0)),
            through(lam, qpoint(0, 0, 0, 1, 0)),
            through(lam, qpoint(0, 0, 0, 0, 1)),
            through(lam, qpoint(0, 0, 1, 1, 1)),
            through(lam, qpoint(0, 0, 0, 3, 0)),
        ]
        with pytest.raises(ConfigurationError, match="^subspaces 1 and 4 coincide$"):
            common_subspace(members)

    def test_matches_the_pairwise_scan(self):
        # Seeded valid families and four kinds of perturbation; the scan and
        # common_subspace must accept the same families and return the same meet.
        outcomes = {True: 0, False: 0}
        for field, ambient, kind, members in perturbed_families(random.Random(5252)):
            try:
                expected = pairwise_common_subspace(members)
            except ConfigurationError:
                expected = None
            try:
                got = common_subspace(members)
            except ConfigurationError:
                got = None
            assert got == expected, (field, ambient, kind)
            outcomes[got is not None] += 1
        total = sum(outcomes.values())
        assert total >= 1000
        assert outcomes[True] >= total / 4 and outcomes[False] >= total / 4

    def test_first_fault_keeps_its_message(self):
        # On the families of the pairwise scan, reading each member's point off
        # its echelon rows returns the same meet, or raises the same message, as
        # projecting each member from it
        outcomes = Counter()
        for field, ambient, kind, members in perturbed_families(random.Random(5252)):
            try:
                expected = projecting_common_subspace(members)
            except ConfigurationError as error:
                with pytest.raises(ConfigurationError) as got:
                    common_subspace(members)
                assert str(got.value) == str(error), (field, ambient, kind)
                outcomes[re.sub(r"\d+", "#", str(error))] += 1
            else:
                assert common_subspace(members) == expected, (field, ambient, kind)
                outcomes["returned"] += 1
        # 1100 families: 381 returned, and each fault message at least 61 times
        assert outcomes.pop("returned") >= 300, outcomes
        for message in (
            "subspace # does not contain the codimension-# meet of subspaces # and #",
            "subspaces # and # coincide",
            "the family only spans a subspace of dimension # in P^#",
            "subspaces # and # span all of P^#; they do not lie in a common hyperplane",
        ):
            assert outcomes.pop(message, 0) >= 40, (message, outcomes)
        assert not outcomes, outcomes

    def test_pgl_equivariance(self):
        # g in GL(n + 1) moves a family's meet with the family and commutes
        # with meet and join: an oracle that shares no coordinates with the
        # pivot columns the point readout relies on
        rng = random.Random(2020)
        reached = Counter()
        for field in (GF3, GF5, PrimeField(101), QQ):
            for ambient in range(3, 7):
                for _ in range(8):
                    g = random_invertible(rng, field, ambient + 1)
                    members, planted = planted_family(rng, field, ambient, rng.randint(3, 6))
                    moved = [moved_by(g, s) for s in members]
                    assert common_subspace(moved) == moved_by(g, common_subspace(members))
                    a, b = (
                        random_subspace(rng, field, ambient, rng.randint(0, ambient))
                        for _ in range(2)
                    )
                    assert meet(moved_by(g, a), moved_by(g, b)) == moved_by(g, meet(a, b))
                    assert join(moved_by(g, a), moved_by(g, b)) == moved_by(g, join(a, b))
                    reached[field] += 1
        assert len(reached) == 4 and min(reached.values()) >= 32, reached

    def test_reduction_mod_p(self):
        # A QQ family through Λ, its rows scaled to integers, read mod p.  A prime
        # is skipped when the rank of Λ or of a member drops.  Otherwise each
        # member still contains Λ mod p, and Lemma 5.2's other ranks decide:
        # the reduced family is valid, with common subspace Λ mod p, exactly
        # when each pair of members still spans a hyperplane and the whole
        # family still spans P^n.
        rng = random.Random(1913)
        primes = (2, 3, 5, 7, 11, 101, 2**31 - 1)
        outcomes, skipped = Counter(), Counter()
        for _ in range(60):
            ambient = rng.randint(3, 6)
            members, planted = planted_family(rng, QQ, ambient, rng.randint(3, 6))
            rows = [[QQ.integral(row) for row in s.rows] for s in members]
            lam_rows = [QQ.integral(row) for row in planted.rows]
            shapes = [(lam_rows, ambient - 2), *((r, ambient - 1) for r in rows)]
            spans = [
                *((a + b, ambient) for a, b in combinations(rows, 2)),
                ([row for r in rows for row in r], ambient + 1),
            ]
            reached = 0
            for p in primes:
                if any(int_rank(stack, p) != rank for stack, rank in shapes):
                    skipped[p] += 1
                    continue
                field = PrimeField(p)
                reduced = [ProjSubspace.from_vectors(field, ambient, r) for r in rows]
                if all(int_rank(stack, p) == rank for stack, rank in spans):
                    expected = ProjSubspace.from_vectors(field, ambient, lam_rows)
                    assert common_subspace(reduced) == expected, p
                    outcomes["equal"] += 1
                else:
                    with pytest.raises(ConfigurationError):
                        common_subspace(reduced)
                    outcomes["rejected"] += 1
                reached += 1
            assert reached, "every prime was skipped"
        # 222 equal, 46 rejected and 152 of the 420 skipped at this seed
        assert outcomes["equal"] >= 200 and outcomes["rejected"] >= 40, outcomes
        assert sum(skipped.values()) <= 60 * len(primes) // 2, skipped

    def test_one_meet_and_no_joins(self, monkeypatch):
        members, planted = planted_family(random.Random(40), PrimeField(101), 5, 40)
        # every elimination, through rref or straight from an operation, runs _rref
        rrefs = count_calls(monkeypatch, "_rref", projective, lemma52)
        joins = count_calls(monkeypatch, "join", projective, lemma52)
        assert common_subspace(members) == planted
        assert joins["calls"] == 0
        # one meet; no member is eliminated, and spanning is a determinant of image points
        assert rrefs["calls"] == 1

    def test_members_are_checked_as_they_arrive(self):
        # the family is read once, and a fault stops the reading there
        members, planted = planted_family(random.Random(52), QQ, 4, 4)
        line = qspace(4, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0])
        elsewhere = qspace(3, [1, 0, 0, 0], [0, 1, 0, 0])

        def family(*first):
            yield from first
            raise AssertionError("a member after the fault was asked for")

        for first, message in (
            ([line], "subspace 0 has codimension 3, expected 2"),
            ([members[0], members[1], elsewhere], "subspace 2 lives in P^3, expected P^4"),
            ([members[0], members[0]], "subspaces 0 and 1 coincide"),
            ([*members[:3], members[1]], "subspaces 1 and 3 coincide"),
        ):
            with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
                common_subspace(family(*first))
        assert common_subspace(iter(members)) == planted

    def test_every_three_lines_of_p3_over_gf2(self):
        # Lemma 5.2 as stated, on point sets: 15 points x 28 non-coplanar
        # triples of lines through each give the 420 passing families
        oracle = Lemma52Oracle(2, 3)
        assert len(oracle.subspaces) == 35
        for family in combinations(range(35), 3):
            oracle.check(family)
        assert oracle.returned == 420 and sum(oracle.raised.values()) == 6545 - 420

    def test_sampled_families_over_the_smallest_fields(self):
        # Seeded 4-sets of lines of P^3(GF(2)), then families over P^3(GF(3))
        # and P^4(GF(2)): half drawn uniformly, half drawn with repeats from the
        # members through one codimension-3 subspace, so that passing families,
        # duplicates and collinear images all occur
        rng = random.Random(5252)
        oracle = Lemma52Oracle(2, 3)
        for _ in range(4000):
            oracle.check(rng.sample(range(35), 4))
        assert oracle.returned >= 30 and sum(oracle.raised.values()) >= 3800
        for q, n, count in ((3, 3, 130), (2, 4, 155)):
            oracle = Lemma52Oracle(q, n)
            assert len(oracle.subspaces) == count
            points = sorted(frozenset().union(*(pts for _, pts in oracle.subspaces)))
            for trial in range(1000):
                size = rng.randint(3, 5)
                if trial % 2:
                    oracle.check(rng.sample(range(count), size))
                    continue
                center = span_points(rng.sample(points, n - 2), q)
                through_center = [i for i, (_, pts) in enumerate(oracle.subspaces) if center <= pts]
                oracle.check(rng.choices(through_center, k=size))
            assert oracle.returned >= 120 and sum(oracle.raised.values()) >= 600, (q, n)
            assert len(oracle.raised) == 4, oracle.raised

    def test_mixed_fields_rejected(self):
        sq = qspace(4, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0])
        s5 = ProjSubspace.from_vectors(
            GF5, 4, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]]
        )
        with pytest.raises(MixedFieldError):
            common_subspace([sq, s5])


class TestRandomHelpers:
    def test_random_subspace_dimension(self):
        rng = random.Random(1)
        for dim in (-1, 0, 1, 2):
            assert random_subspace(rng, GF5, 4, dim).dim == dim

    def test_random_point_normalized(self):
        rng = random.Random(2)
        p = random_point(rng, GF5, 3)
        lead = next(x for x in p.coords if x != 0)
        assert lead == 1

    @staticmethod
    def assert_rejected_before_any_draw(field, ambient, count, match):
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(ConfigurationError, match=match):
            random_common_subspace_instance(rng, field, ambient, count=count)
        assert rng.getstate() == state

    def test_family_needs_three_members(self):
        # Two members in a common hyperplane never span P^n.
        members = random_common_subspace_instance(random.Random(3), GF5, 4, count=3)
        assert len(members) == 3 and common_subspace(members).dim == 1
        for field in (GF5, PrimeField(101), QQ):
            self.assert_rejected_before_any_draw(
                field, 16, 2, re.escape("count must be in [3, 1000000], got 2")
            )

    def test_family_fits_the_quotient_plane(self):
        # The members through one codimension-3 subspace are distinct points of
        # the quotient plane: 7 over GF(2), 13 over GF(3).
        members = random_common_subspace_instance(random.Random(0), GF2, 3, count=7)
        assert len(set(members)) == 7 and common_subspace(members).dim == 0
        self.assert_rejected_before_any_draw(GF2, 3, 8, "at most 7 members over GF")
        self.assert_rejected_before_any_draw(GF3, 16, 14, "at most 13 members over GF")

    def test_qq_family_fits_the_drawable_plane(self):
        # Over QQ the sampler draws coordinates in [-9, 9]: the quotient points it can reach
        # are the primitive integer vectors there, up to sign, counted here with plain ints.
        primitive = sum(math.gcd(x, y, z) == 1 for x, y, z in product(range(-9, 10), repeat=3))
        assert primitive // 2 == 2881
        members = random_common_subspace_instance(random.Random(0), QQ, 4, count=2881)
        assert len(set(members)) == 2881
        self.assert_rejected_before_any_draw(QQ, 4, 2882, "at most 2881 members over QQ")
        # the work rule prices QQ families on the same plane
        work = lemma52.charge_random(QQ, 4, 4, 1, 10**9)
        assert type(work) is int and work == 4 * 5**3

    def test_redraws_are_summed_past_half_the_plane(self):
        # Of the N // (N - i) - 1 redraws charged for the draw after i points, every term with
        # i < (N + 1) // 2 is 0, so the sum from there equals the sum over all draws.  Both
        # sums run as prefix sums, one per count <= N.
        for n in range(1, 400):
            whole = half = 0
            for i in range(n):
                whole += n // (n - i) - 1
                half += n // (n - i) - 1 if i >= (n + 1) // 2 else 0
                assert half == whole, (n, i + 1)
        # and charge_random, the one rule, charges the sum over all draws
        for p in (2, 3, 5, 7, 11, 13, 17, 19):
            n = p**2 + p + 1
            for count in range(3, n + 1):
                redraws = sum(n // (n - i) for i in range(count)) - count
                work = count * 4**3 + lemma52.DRAW_WORK * redraws
                assert lemma52.charge_random(PrimeField(p), 3, count, 1, work) == work
        n = 277**2 + 277 + 1
        assert sum(n // (n - i) for i in range(n)) - n == 801374

    def test_planted_family_draws_are_pinned(self):
        # SHA-256 of repr((members, planted)) over 8 seeds and three shapes a field:
        # a change to the elimination or to the draws must not move the families
        digests = {
            QQ: "974cbbea9da5238ed1dc146e19cbc37d5599cfda64a0d61f4e2e7ecc1027cbb3",
            GF3: "1d68ec1dfd3ad0c6aa7d4400325141ac87c527dbd004cc3cd81b5b2797cd0629",
            PrimeField(101): "de06aed417366bf4448895c4300aa9e34052758f62c86f22847f45b0ec71f853",
            PrimeField(2**31 - 1): (
                "1f00118c9ecb46aa41fe16a5d47610038e925ed7f453d6c973c605d1e0df7886"
            ),
        }
        for field, digest in digests.items():
            h = hashlib.sha256()
            for seed in range(8):
                for ambient, count in ((3, 3), (4, 5), (6, 7)):
                    family = planted_family(random.Random(seed), field, ambient, count)
                    h.update(repr(family).encode())
            assert h.hexdigest() == digest, field

    def test_planted_members_match_the_eliminated_lift(self):
        # Each member is Λ's rows cleared at `lead` by the lift of its quotient point,
        # with the lift inserted in pivot order.  Rebuilt the old way, as rref of Λ's
        # rows and the lift, it must give the same rows and pivots, for every position
        # of the point's leading 1 and with and without a Λ row to clear at `lead`.
        cases = Counter()
        for field in (GF2, GF3, QQ):
            for ambient in range(3, 7):
                for seed in range(12):
                    members, planted = planted_family(random.Random(seed), field, ambient, 7)
                    free = [c for c in range(ambient + 1) if c not in planted.pivot_columns]
                    for s in members:
                        # the point as common_subspace reads it: the row whose pivot is free
                        row, lead = next(
                            (row, c) for row, c in zip(s.rows, s.pivot_columns) if c in free
                        )
                        lift = [row[c] if c in free else 0 for c in range(ambient + 1)]
                        assert rref([*planted.rows, lift], field) == (s.rows, s.pivot_columns)
                        cases[free.index(lead), any(r[lead] for r in planted.rows)] += 1
        assert sorted(cases) == [(i, cleared) for i in range(3) for cleared in (False, True)]
        # 1008 members: the rarest case, a point (0, 0, 1) with no Λ row to clear, has 18
        assert min(cases.values()) >= 15, cases

    def test_planted_family_fills_the_quotient_plane(self):
        # Every quotient point is needed; rejection sampling of whole families
        # almost never drew them all.
        for field, count in ((GF2, 7), (GF3, 13)):
            for seed in range(5):
                for ambient in (3, 5):
                    members, planted = planted_family(random.Random(seed), field, ambient, count)
                    assert len(set(members)) == count
                    assert planted.codim == 3
                    assert common_subspace(members) == planted


class TestPointConfig:
    def test_duplicates_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            PointConfig((qpoint(1, 0, 0), qpoint(2, 0, 0)))
        points = (qpoint(1, 0, 0), qpoint(0, 1, 0), qpoint(Fraction(1, 3), 0, 0))
        with pytest.raises(
            ConfigurationError,
            match=r"^duplicate point: points 0 and 2 are the same point of P\^2$",
        ):
            PointConfig(points)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError, match="^a point configuration must be nonempty$"):
            PointConfig(())

    def test_mixed_ambient_rejected(self):
        with pytest.raises(ConfigurationError):
            PointConfig((qpoint(1, 0, 0), qpoint(1, 0)))

    def test_mixed_fields_rejected(self):
        with pytest.raises(MixedFieldError):
            PointConfig((qpoint(1, 0, 0), ProjPoint(GF5, (0, 1, 0))))


class TestSylvesterGallai:
    def test_hesse_configuration(self):
        config = hesse_configuration()
        assert len(config) == 9
        report = check_sylvester_gallai(config)
        assert report.is_sylvester_gallai
        assert report.max_collinear == 3
        assert report.witness is None
        lines = maximal_lines(config)
        assert len(lines) == 12
        assert all(len(line) == 3 for line in lines)

    def test_generic_four_points_fail(self):
        config = PointConfig(
            (qpoint(1, 0, 0), qpoint(0, 1, 0), qpoint(0, 0, 1), qpoint(1, 1, 1))
        )
        report = check_sylvester_gallai(config)
        assert not report.is_sylvester_gallai
        assert report.max_collinear == 2
        assert report.witness == (0, 1)

    def test_fully_collinear_sets(self):
        for size in (3, 5, 8):
            config = PointConfig(tuple(qpoint(1, k, 0) for k in range(size)))
            report = check_sylvester_gallai(config)
            assert report.is_sylvester_gallai
            assert report.max_collinear == size

    def test_adding_a_collinear_point_preserves_the_verdict(self):
        base = tuple(qpoint(1, k, 0) for k in range(4))
        augmented = PointConfig(base + (qpoint(1, 9, 0),))
        report = check_sylvester_gallai(augmented)
        assert report.is_sylvester_gallai and report.max_collinear == 5

    def test_full_plane_over_gf3(self):
        # all 13 points of the plane over GF(3): every line carries 4 of them
        points = []
        for x in range(3):
            for y in range(3):
                points.append(ProjPoint(GF3, (x, y, 1)))
        points += [ProjPoint(GF3, (1, 0, 0)), ProjPoint(GF3, (0, 1, 0))]
        points += [ProjPoint(GF3, (1, 1, 0)), ProjPoint(GF3, (1, 2, 0))]
        report = check_sylvester_gallai(PointConfig(tuple(points)))
        assert report.is_sylvester_gallai
        assert report.max_collinear == 4
        assert len(maximal_lines(PointConfig(tuple(points)))) == 13

    def test_hesse_is_a_gf3_phenomenon(self):
        # the same nine coordinate vectors over the rationals are a 3x3 grid,
        # where broken diagonals are no longer lines
        grid = PointConfig(tuple(qpoint(x, y, 1) for x in range(3) for y in range(3)))
        report = check_sylvester_gallai(grid)
        assert not report.is_sylvester_gallai
        assert report.max_collinear == 3

    def test_verdict_is_field_independent_for_small_integer_configs(self):
        rng = random.Random(11)
        big = PrimeField(2147483647)
        for _ in range(20):
            coords = set()
            while len(coords) < 6:
                coords.add((rng.randint(0, 9), rng.randint(0, 9)))
            over_q = PointConfig(tuple(qpoint(x, y, 1) for x, y in coords))
            over_p = PointConfig(tuple(ProjPoint(big, (x, y, 1)) for x, y in coords))
            rq = check_sylvester_gallai(over_q)
            rp = check_sylvester_gallai(over_p)
            assert rq.is_sylvester_gallai == rp.is_sylvester_gallai
            assert rq.max_collinear == rp.max_collinear

    def test_requires_the_plane(self):
        config = PointConfig((qpoint(1, 0, 0, 0), qpoint(0, 1, 0, 0), qpoint(0, 0, 1, 0)))
        with pytest.raises(ConfigurationError):
            check_sylvester_gallai(config)
        with pytest.raises(
            ConfigurationError, match="^collinearity checks require points in the plane$"
        ):
            collinear(config, 0, 1, 2)
        # the ambient error comes before the point count error
        with pytest.raises(ConfigurationError, match=r"expected points in P\^2, got P\^3"):
            check_sylvester_gallai(PointConfig((qpoint(1, 0, 0, 0), qpoint(0, 1, 0, 0))))

    def test_requires_three_points(self):
        with pytest.raises(ConfigurationError):
            check_sylvester_gallai(PointConfig((qpoint(1, 0, 0), qpoint(0, 1, 0))))

    def test_collinear_helper_is_exact(self):
        config = PointConfig(
            (qpoint(0, 0, 1), qpoint(1, 2, 1), qpoint(2, 4, 1), qpoint(1, 1, 1))
        )
        assert collinear(config, 0, 1, 2)
        assert not collinear(config, 0, 1, 3)

    def test_line_grouping_matches_the_triple_scan(self):
        # the cubic scan over `collinear` is the reference for the anchored
        # line grouping; small fields make many collinear triples, and the
        # line-rich planes, shuffled, make anchors meet pairs already seen
        rng = random.Random(2208)
        configs = []
        for field in (QQ, GF3, GF5, PrimeField(101), PrimeField(2147483647)):
            plane_size = math.inf if field == QQ else field.p**2 + field.p + 1
            for _ in range(30):
                target = min(rng.randint(3, 14), plane_size)
                coords = {}
                while len(coords) < target:
                    if field == QQ:
                        raw = tuple(rng.randint(-2, 2) for _ in range(3))
                    else:
                        raw = tuple(rng.randrange(min(field.p, 7)) for _ in range(3))
                    if any(raw):
                        point = ProjPoint(field, raw)
                        coords.setdefault(point.coords, point)
                configs.append(PointConfig(tuple(coords.values())))
        line_rich = [affine_plane(PrimeField(q)) for q in (3, 5, 7)]
        line_rich += [projective_plane(PrimeField(q)) for q in (2, 3)]
        line_rich += [planted_lines(rng, PrimeField(101), rng.randint(2, 5)) for _ in range(4)]
        for points in line_rich:
            shuffled = list(points)
            rng.shuffle(shuffled)
            configs += [PointConfig(tuple(points)), PointConfig(tuple(shuffled))]
        rich = 0
        for config in configs:
            n = len(config)
            expected, witness = triple_scan(config)
            rich += max(map(len, expected)) >= 5
            assert maximal_lines(config) == expected
            report = check_sylvester_gallai(config)
            assert report.num_points == n
            assert list(report.lines_by_size.items()) == sizes_in_order(expected)
            assert report.max_collinear == max(len(line) for line in expected)
            assert report.witness == witness
            assert report.is_sylvester_gallai == (witness is None)
            assert sum(math.comb(len(line), 2) for line in expected) == math.comb(n, 2)
        assert rich >= 10  # inputs with a line of five or more points

    def test_each_line_is_keyed_once_per_later_point(self):
        # a line of k points costs k - 1 keys, at its first point; each key is
        # one entry of a ratios batch, and nothing else in the pass divides
        gf7 = counting_field(PrimeField, 7)
        plane = affine_plane(gf7)
        random.Random(7).shuffle(plane)
        config = PointConfig(tuple(plane))
        gf7.reset()
        lines = maximal_lines(config)
        assert len(lines) == 56 and all(len(line) == 7 for line in lines)
        assert len(keys_are_none(gf7)) == 56 * 6
        assert set(keys_are_none(gf7)) == {True, False}
        qq = counting_field(RationalField)
        conic = PointConfig(tuple(ProjPoint(qq, (1, t, t * t)) for t in range(40)))
        qq.reset()
        assert len(maximal_lines(conic)) == math.comb(40, 2)
        assert len(keys_are_none(qq)) == math.comb(40, 2)
        # (1, t, t^2) - (1, s, s^2) = (0, t - s, t^2 - s^2): never the None key
        assert set(keys_are_none(qq)) == {False}

    def test_one_ratios_batch_per_anchor(self):
        # the pass divides in one ratios batch per anchor at most, an empty one
        # never, of ints alone over both fields, and asks the field for no
        # single inverse, reduction or zero test
        rng = random.Random(2323)
        gf7, gf5, big, qq = (
            counting_field(PrimeField, 7),
            counting_field(PrimeField, 5),
            counting_field(PrimeField, 2**31 - 1),
            counting_field(RationalField),
        )
        configs = [
            affine_plane(gf7),
            projective_plane(gf5),
            [ProjPoint(qq, (1, t, t * t)) for t in range(12)],
            planted_lines(rng, big, 4),
            planted_lines(rng, qq, 3),
        ]
        for points in configs:
            rng.shuffle(points)
            config = PointConfig(tuple(points))
            field = config.field
            n = len(config)
            for scan in (maximal_lines, check_sylvester_gallai):
                field.reset()
                scan(config)
                sizes = [len(answers) for _, _, answers in field.batches]
                assert 1 <= len(sizes) <= n - 1 and min(sizes) >= 1
                for nums, dens, answers in field.batches:
                    assert len(nums) == len(dens) == len(answers)
                    assert {type(x) for x in chain(nums, dens)} == {int}
                assert not field.calls

    def test_whole_projective_planes_match_the_triple_scan(self):
        # every anchor lead index 0, 1 and 2 occurs, and both kinds of key:
        # r[a] = 0 (the None key) and r[a] != 0
        rng = random.Random(5577)
        for q in (5, 7):
            field = counting_field(PrimeField, q)
            points = projective_plane(field)
            rng.shuffle(points)
            config = PointConfig(tuple(points))
            assert {p.coords.index(1) for p in points} == {0, 1, 2}
            field.reset()
            lines = maximal_lines(config)
            assert set(keys_are_none(field)) == {True, False}
            assert len(keys_are_none(field)) == (q * q + q + 1) * q
            assert len(lines) == q * q + q + 1
            assert all(len(line) == q + 1 for line in lines)
            assert (lines, None) == triple_scan(config)
            assert check_sylvester_gallai(config).lines_by_size == {q + 1: q * q + q + 1}

    def test_rational_points_at_infinity_match_the_triple_scan(self):
        # lines y = m x + c with multi-digit slopes and intercepts: affine
        # points on each, its point at infinity (1, m, 0), its point
        # (0, c, 1) on the line x = 0, beside (0, 1, 0) and (0, 0, 1)
        rng = random.Random(3141)
        qq = counting_field(RationalField)

        def point(*coords):
            return ProjPoint(qq, coords)

        def multi_digit():
            return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))

        coords = {}
        for p in (point(0, 0, 1), point(0, 1, 0)):
            coords[p.coords] = p
        for _ in range(5):
            m, c = multi_digit(), multi_digit()
            on_line = [point(1, m, 0), point(0, c, 1)]
            for _ in range(rng.randint(1, 3)):
                x = multi_digit()
                on_line.append(point(x, m * x + c, 1))
            for p in on_line:
                coords.setdefault(p.coords, p)
        points = list(coords.values())
        rng.shuffle(points)
        config = PointConfig(tuple(points))
        assert {p.coords.index(1) for p in points} == {0, 1, 2}
        expected, witness = triple_scan(config)
        assert max(map(len, expected)) == 7  # the line x = 0
        qq.reset()
        assert maximal_lines(config) == expected
        assert set(keys_are_none(qq)) == {True, False}
        report = check_sylvester_gallai(config)
        assert list(report.lines_by_size.items()) == sizes_in_order(expected)
        assert report.witness == witness

    def test_each_lead_case_matches_the_triple_scan(self):
        # the pass keys the pair (p, q) by q - p when q leads where p does, by
        # q when q leads later, and by q - q[k] p when q leads earlier.  Each
        # configuration has a point v of x = 0 first, on three lines, and one
        # last, on five, each line with two shuffled lead-0 points: so every
        # case keys pairs whose line has a third point, which a wrong key splits
        rng = random.Random(1802)
        big = PrimeField(2147483647)
        for field, scalar in (
            (QQ, lambda: Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))),
            (big, lambda: rng.randrange(big.p)),
        ):
            cases = Counter()
            for trial in range(5):
                first, last = (0, 1, scalar()), (0, 1, scalar())
                if trial % 2:
                    first = (0, 0, 1)
                else:
                    last = (0, 0, 1)
                middle = []
                for v, lines in ((first, 3), (last, 5)):
                    for _ in range(lines):
                        u = (1, scalar(), scalar())
                        for t in (0, scalar()):
                            middle.append(ProjPoint(field, [x + t * y for x, y in zip(u, v)]))
                rng.shuffle(middle)
                points = [ProjPoint(field, first), *middle, ProjPoint(field, last)]
                config = PointConfig(tuple(points))
                expected, witness = triple_scan(config)
                cases.update(keyed_lead_cases(config, expected))
                assert maximal_lines(config) == expected
                report = check_sylvester_gallai(config)
                assert list(report.lines_by_size.items()) == sizes_in_order(expected)
                assert report.witness == witness
            assert min(cases[0], cases[1], cases[-1]) >= 20, cases

    def test_each_tag_case_matches_the_triple_scan(self):
        # over QQ the pass keys (p, q) by q - p only when q has the lead index and
        # the integral lead entry of p, the lcm of its denominators; at the same
        # lead index with another entry it takes p[k] q - q[k] p.  Points of the
        # grid {-3, ..., 3}^3 lead with entries 1, 2 and 3, and small grids are
        # rich in lines of three or more points, which a wrong key splits
        rng = random.Random(3403)
        grid = [v for v in product(range(-3, 4), repeat=3) if any(v)]
        cases = Counter()
        for _ in range(12):
            coords = {}
            for v in rng.sample(grid, rng.randint(12, 20)):
                point = ProjPoint(QQ, v)
                coords.setdefault(point.coords, point)
            config = PointConfig(tuple(coords.values()))
            expected, witness = triple_scan(config)
            cases.update(keyed_tag_cases(config, expected))
            assert maximal_lines(config) == expected
            report = check_sylvester_gallai(config)
            assert list(report.lines_by_size.items()) == sizes_in_order(expected)
            assert report.witness == witness
        assert len(cases) == 4 and min(cases.values()) >= 20, cases

    def test_every_subset_of_the_smallest_planes(self):
        # Every nonempty point set of P^2(GF(2)) and P^2(GF(3)), against its
        # lines read off the incidences with the dual vectors, in plain ints:
        # (fewer than 3 points, SG, SG and collinear, not SG) subsets.
        expected = {2: (28, 8, 7, 91), 3: (91, 144, 65, 7956)}
        for q, counts in expected.items():
            coords, plane_lines = plane_over(q)
            field = PrimeField(q)
            points = [ProjPoint(field, v) for v in coords]
            small = sg = collinear_sg = not_sg = 0
            for mask in range(1, 2 ** len(coords)):
                chosen = [i for i in range(len(coords)) if mask >> i & 1]
                position = {i: k for k, i in enumerate(chosen)}
                on = (tuple(position[i] for i in line if i in position) for line in plane_lines)
                lines = sorted(line for line in on if len(line) >= 2)
                config = PointConfig(tuple(points[i] for i in chosen))
                assert maximal_lines(config) == tuple(lines), chosen
                if len(chosen) < 3:
                    with pytest.raises(ConfigurationError, match="need at least 3 points"):
                        check_sylvester_gallai(config)
                    small += 1
                    continue
                report = check_sylvester_gallai(config)
                ordinary = [line for line in lines if len(line) == 2]
                assert report.is_sylvester_gallai == (not ordinary), chosen
                assert report.max_collinear == max(map(len, lines)), chosen
                assert report.witness == (ordinary[0] if ordinary else None), chosen
                if ordinary:
                    not_sg += 1
                else:
                    sg += 1
                    collinear_sg += len(lines) == 1
            assert (small, sg, collinear_sg, not_sg) == counts, q

    def test_line_counts_obey_the_incidence_theorems(self):
        # With t_k lines of exactly k points among n points, not all collinear:
        # - every field: each pair lies on one line, sum C(k, 2) t_k = C(n, 2), and the
        #   lines number at least n (de Bruijn-Erdos 1948);
        # - QQ, inside the real plane: an ordinary line exists (Sylvester-Gallai), and
        #   t_2 >= 3 + sum_{k>=4} (k - 3) t_k (Melchior 1941), with equality for a
        #   near-pencil, n - 1 collinear points and one more (t_2 = n - 1).
        rng = random.Random(1941)
        seen = Counter()
        for trial in range(600):
            kind, field, coords = incidence_case(rng, trial)
            config = PointConfig(tuple(ProjPoint(field, v) for v in coords))
            n = len(config)
            report, lines = check_sylvester_gallai(config), maximal_lines(config)
            t = report.lines_by_size
            assert t == Counter(map(len, lines)), (kind, coords)
            assert sum(math.comb(k, 2) * tk for k, tk in t.items()) == math.comb(n, 2), coords
            if len(lines) == 1:
                seen["collinear"] += 1
                continue
            assert len(lines) >= n, (kind, coords)
            if field != QQ:
                seen["field"] += 1
                continue
            assert not report.is_sylvester_gallai and report.witness in lines, coords
            assert len(report.witness) == 2
            excess = 3 + sum((k - 3) * tk for k, tk in t.items() if k >= 4)
            assert t.get(2, 0) >= excess, coords
            if kind == "near-pencil":
                assert t.get(2, 0) == excess == n - 1 and t[n - 1] == 1, coords
            seen["rational"] += 1
            seen["tight"] += t.get(2, 0) == excess
            seen[kind] += 1
        # at this seed: 478 non-collinear QQ sets, 138 of them Melchior-tight and 120 of those
        # near-pencils, 116 non-collinear GF(p) sets and 6 collinear sets
        assert seen["rational"] >= 450 and seen["tight"] >= 130 and seen["near-pencil"] >= 110, seen
        assert seen["field"] >= 100 and seen["collinear"] >= 5, seen

    def test_report_is_invariant_under_pgl3_and_relabelling(self):
        # g in GL(3) moves every point between the lead-index branches of the
        # anchored pass, and a shuffle changes which point anchors each line;
        # read back through the shuffle, the lines and the report do not move
        rng = random.Random(3003)
        reached, lead_cases = Counter(), Counter()
        for field in (GF3, PrimeField(101), PrimeField(2**31 - 1), QQ):
            for _ in range(25):
                points = planted_lines(rng, field, rng.randint(2, 4))
                g = random_invertible(rng, field, 3)
                order = list(range(len(points)))
                rng.shuffle(order)
                images = [[sum(x * y for x, y in zip(row, p.coords)) for row in g] for p in points]
                moved = PointConfig(tuple(ProjPoint(field, images[k]) for k in order))
                config = PointConfig(tuple(points))
                lines = maximal_lines(config)
                moved_lines = maximal_lines(moved)
                relabelled = sorted(tuple(sorted(order[m] for m in line)) for line in moved_lines)
                assert tuple(relabelled) == lines
                report, moved_report = check_sylvester_gallai(config), check_sylvester_gallai(moved)
                assert moved_report.is_sylvester_gallai == report.is_sylvester_gallai
                assert moved_report.max_collinear == report.max_collinear
                assert moved_report.lines_by_size == report.lines_by_size
                if moved_report.witness is not None:
                    u, v = moved_report.witness
                    others = (k for k in range(len(moved)) if k not in (u, v))
                    assert not any(collinear(moved, u, v, k) for k in others)
                lead_cases.update(keyed_lead_cases(moved, moved_lines))
                reached[field] += 1
        assert len(reached) == 4 and min(reached.values()) == 25, reached
        # 1081 same-lead, 97 later-lead and 81 earlier-lead keys at this seed
        assert min(lead_cases[0], lead_cases[1], lead_cases[-1]) >= 50, lead_cases

    def test_bookkeeping_is_small(self):
        # 60 points in general position: 1770 two-point lines and no per-pair
        # dict or set beside them.  Returning the lines peaks at 126-130 KiB on
        # Python 3.10-3.13; a pass that also keeps a list of its lines, at 140-144.
        rng = random.Random(60)
        big = PrimeField(2147483647)
        coords = {}
        while len(coords) < 60:
            point = ProjPoint(big, (rng.randrange(big.p), rng.randrange(big.p), 1))
            coords.setdefault(point.coords, point)
        config = PointConfig(tuple(coords.values()))
        gc.collect()  # a full collection empties the free lists, so the peak repeats
        tracemalloc.start()
        try:
            lines = maximal_lines(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(lines) == math.comb(60, 2)
        assert peak < 135 * 2**10, peak

    def test_report_keeps_counts_not_lines(self):
        # 100 points in general position: 4950 two-point lines are counted as
        # they are found, never held.  The scan peaks at about 31 KB; holding
        # its lines in a tuple raises that to about 322 KB.
        rng = random.Random(100)
        big = PrimeField(2147483647)
        coords = {}
        while len(coords) < 100:
            point = random_point(rng, big, 2)
            coords.setdefault(point.coords, point)
        config = PointConfig(tuple(coords.values()))
        tracemalloc.start()
        try:
            report = check_sylvester_gallai(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.lines_by_size == {2: math.comb(100, 2)}
        assert report.witness == (0, 1) and report.max_collinear == 2
        assert peak < 128 * 2**10

    def test_one_hash_per_key(self, monkeypatch):
        # 12 QQ points in general position: every pair is keyed, and a key that is a
        # Fraction, r[b] / r[a] with r[a] != 0, is hashed once, when its point joins its group
        rng = random.Random(6)
        coords = {}
        while len(coords) < 12:
            point = random_point(rng, QQ, 2)
            coords.setdefault(point.coords, point)
        config = PointConfig(tuple(coords.values()))
        assert not any(collinear(config, *triple) for triple in combinations(range(12), 3))
        fraction_keys = 0
        for p, q in combinations(coords, 2):
            k = p.index(1)
            a = 1 if k == 0 else 0  # the first coordinate other than the lead of p
            fraction_keys += q[a] - q[k] * p[a] != 0
        assert 0 < fraction_keys < math.comb(12, 2)  # both kinds of key occur
        hashes = count_calls(monkeypatch, "__hash__", Fraction)
        lines = maximal_lines(config)
        report = check_sylvester_gallai(config)
        monkeypatch.undo()
        assert len(lines) == report.lines_by_size[2] == math.comb(12, 2)
        assert hashes["calls"] == 2 * fraction_keys


class TestSym2Model:
    def test_size(self):
        for n in (5, 7, 12):
            model = sym2_model(n)
            assert model.size == n * (n + 1) // 2
            assert len(model.elements()) == model.size

    def test_modulus_floor(self):
        with pytest.raises(ConfigurationError):
            sym2_model(4)
        for modulus in (7.0, True, "7"):
            with pytest.raises(ConfigurationError):
                Sym2GroupModel(modulus)

    def test_model_compares_hashes_and_prints_its_modulus(self):
        model = sym2_model(7)
        assert repr(model) == "Sym2GroupModel(modulus=7)" and hash(model) == hash((7,))
        assert model == Sym2GroupModel(7) and model != sym2_model(8) and model != (7,)

    def test_point_divisor_size(self):
        model = sym2_model(7)
        assert len(pairs_containing(model, 0)) == 7
        assert all(len(pairs_containing(model, x)) == 7 for x in range(7))

    def test_point_divisors_meet_once(self):
        model = sym2_model(7)
        for x in range(7):
            for y in range(x + 1, 7):
                overlap = pairs_containing(model, x) & pairs_containing(model, y)
                assert overlap == {(x, y)}

    def test_fiber_divisors_are_disjoint(self):
        model = sym2_model(7)
        for s in range(7):
            for t in range(s + 1, 7):
                assert not (pairs_with_sum(model, s) & pairs_with_sum(model, t))

    def test_fiber_divisor_sizes(self):
        for n in (5, 7, 31):  # odd: (n + 1)/2 for every sum
            model = sym2_model(n)
            for s in range(n):
                assert len(pairs_with_sum(model, s)) == (n + 1) // 2
        model = sym2_model(6)  # even: one more when the sum is even
        assert len(pairs_with_sum(model, 0)) == 4
        assert len(pairs_with_sum(model, 1)) == 3

    def test_fiber_divisors_partition_everything(self):
        for n in (6, 9):
            model = sym2_model(n)
            union = set()
            for s in range(n):
                union |= pairs_with_sum(model, s)
            assert union == set(model.elements())

    def test_tangent_fiber_meets_in_the_diagonal(self):
        model = sym2_model(9)
        overlap = pairs_containing(model, 4) & pairs_with_sum(model, 8)
        assert overlap == {(4, 4)}

    def test_incidence_report_matches_the_lattice(self):
        h, f = section_class(), fiber_class()
        for n in (5, 11):
            model = sym2_model(n)
            report = incidence_pairing_check(model)
            assert report.passed
            assert report.checks_run == n * (n - 1) // 2 + n * n + n * (n - 1) // 2
            # the three verified counts are the lattice products
            assert (pair(h, h), pair(h, f), pair(f, f)) == (1, 1, 0)

    def test_two_divisor_membership(self):
        model = sym2_model(7)
        consecutive = [(x, (x + 1) % 7) for x in range(7)]
        report = two_divisor_check(model, consecutive)
        assert report.passed
        assert all(degree == 2 for _, degree in report.degrees)

    def test_two_divisor_flags_diagonal(self):
        model = sym2_model(7)
        report = two_divisor_check(model, [(2, 2), (0, 1)])
        assert report.flagged_diagonal == ((2, 2),)
        assert not report.violations
        assert not report.passed

    def test_normalize_wraps_and_sorts(self):
        model = Sym2GroupModel(7)
        assert model.normalize((9, 1)) == (1, 2)
        assert model.normalize((3, -1)) == (3, 6)

    def test_check_lets_each_divisor_go_once_indexed(self):
        # N = 128: the index and the 256 x 256 count table, with no divisor
        # set kept beside them (3.6 MiB when all 256 sets stayed alive)
        model = sym2_model(128)
        tracemalloc.start()
        try:
            report = incidence_pairing_check(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed and report.checks_run == 128 * 255
        assert peak < 2.75 * 2**20

    def test_real_models_match_the_reference(self):
        rng = random.Random(0)
        for n in range(5, 41):
            model = sym2_model(n)
            report = incidence_pairing_check(model)
            assert (report.checks_run, report.violations) == frozenset_incidence_check(model)
            assert report.checks_run == n * (2 * n - 1) and report.passed
            subset = rng.sample(model.elements(), n)
            two = two_divisor_check(model, subset)
            assert (two.violations, two.degrees) == scanning_two_divisor_check(model, subset)
            assert not two.violations

    def test_builders_match_their_definitions(self):
        # the references above take their divisors from lowdeg's builders; here
        # they come from the docstring definitions, in plain ints: point(x) is
        # every pair {x, y}, fiber(s) every pair {x, s - x}, pairs sorted mod N
        checked = 0
        for n in range(5, 41):
            points = [{tuple(sorted((x, y))) for y in range(n)} for x in range(n)]
            fibers = [{tuple(sorted((x, (s - x) % n))) for x in range(n)} for s in range(n)]
            names = [f"point({x})" for x in range(n)] + [f"fiber({s})" for s in range(n)]
            divisors = points + fibers
            # point-point, point-fiber, then fiber-fiber violations, each in pair order
            violations = ([], [], [])
            for i, j in combinations(range(2 * n), 2):
                kind = (i >= n) + (j >= n)
                shared = len(divisors[i] & divisors[j])
                expected = 0 if kind == 2 else 1
                if shared != expected:
                    violations[kind].append(
                        f"|{names[i]} & {names[j]}| = {shared}, expected {expected}"
                    )
            model = sym2_model(n)
            assert [pairs_containing(model, x) for x in range(n)] == points
            assert [pairs_with_sum(model, s) for s in range(n)] == fibers
            # the builders reduce x and s mod N first: any int names the same divisor
            for k in range(-2 * n, 2 * n):
                assert pairs_containing(model, k) == {
                    tuple(sorted((k % n, y))) for y in range(n)
                }, (n, k)
                assert pairs_with_sum(model, k) == {
                    tuple(sorted((x, (k - x) % n))) for x in range(n)
                }, (n, k)
            report = incidence_pairing_check(model)
            assert report == (n, math.comb(2 * n, 2), tuple(chain(*violations)))
            checked += 1
        assert checked == 36

    def test_corrupted_models_match_the_reference(self, monkeypatch):
        """One or two divisors each gain or lose one pair; both checks must
        report exactly what the frozenset intersections report, in order."""
        kinds = Counter()
        two_divisor_violations = 0
        for seed in range(60):
            rng = random.Random(seed)
            model = sym2_model(rng.randrange(5, 25))
            names = ("pairs_containing", "pairs_with_sum")
            originals = {name: getattr(sym2_pairs, name) for name in names}
            corrupted, changed = {}, []
            for _ in range(rng.choice([1, 2])):
                key = (rng.choice(sorted(originals)), rng.randrange(model.modulus))
                before = corrupted.get(key) or originals[key[0]](model, key[1])
                if rng.random() < 0.5:
                    changed.append(rng.choice(sorted(before)))
                    corrupted[key] = before - {changed[-1]}
                else:
                    changed.append(rng.choice(sorted(set(model.elements()) - before)))
                    corrupted[key] = before | {changed[-1]}
            for name, original in originals.items():

                def divisor(model, k, name=name, original=original):
                    return corrupted.get((name, k)) or original(model, k)

                monkeypatch.setattr(sym2_pairs, name, divisor)
            report = incidence_pairing_check(model)
            assert (report.checks_run, report.violations) == frozenset_incidence_check(model)
            kinds.update(tuple(re.findall(r"(point|fiber)\(", v)) for v in report.violations)
            subset = rng.sample(model.elements(), model.modulus) + changed
            two = two_divisor_check(model, subset)
            assert (two.violations, two.degrees) == scanning_two_divisor_check(model, subset)
            two_divisor_violations += len(two.violations)
            monkeypatch.undo()
        assert set(kinds) == {("point", "point"), ("point", "fiber"), ("fiber", "fiber")}
        assert two_divisor_violations > 0
