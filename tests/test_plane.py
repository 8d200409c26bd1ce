"""The counts of :func:`lowdeg.plane.line_counts` against the lines of the same pass.

``line_counts`` builds no line of two points: it counts the ordinary lines as the
pairs that no line of three or more points covers.  Here its answer is compared
with folding the lines of :func:`~lowdeg.plane.maximal_lines` one by one, which is
how it was computed before.
"""

import math
import random
from collections import Counter

from lowdeg import plane
from lowdeg.fields import QQ, PrimeField
from lowdeg.plane import PointConfig, hesse_configuration, line_counts, maximal_lines
from lowdeg.projective import ProjPoint
from support import affine_plane, planted_lines, projective_plane

FIELDS = (QQ, PrimeField(3), PrimeField(101), PrimeField(2**31 - 1))


def folded(lines):
    """``(witness, lines_by_size)`` read off the lines in their order: the first
    line of two points, and each size's number of lines in order of first occurrence."""
    by_size, witness = {}, None
    for line in lines:
        by_size[len(line)] = by_size.get(len(line), 0) + 1
        if len(line) == 2 and witness is None:
            witness = line
    return witness, by_size


def small_points(rng, field, n):
    """n distinct points with small coordinates, so that many triples are collinear."""
    coords = {}
    while len(coords) < n:
        if field == QQ:
            raw = tuple(rng.randint(-2, 2) for _ in range(3))
        else:
            raw = tuple(rng.randrange(min(field.p, 7)) for _ in range(3))
        if any(raw):
            point = ProjPoint(field, raw)
            coords.setdefault(point.coords, point)
    return list(coords.values())


def oracle_configs():
    """Seeded plane point sets of three points or more: random and planted ones over
    each field, a conic (no three collinear), a line (all collinear) and two sets of
    three points; then AG(2, q), PG(2, q) and the Hesse configuration, each also shuffled."""
    rng = random.Random(4141)
    sets = []
    for field in FIELDS:
        plane_size = math.inf if field == QQ else field.p**2 + field.p + 1
        for _ in range(20):
            sets.append(small_points(rng, field, min(rng.randint(3, 16), plane_size)))
        for _ in range(10):
            sets.append(planted_lines(rng, field, rng.randint(1, 4)))
        # the conic y^2 = xz and the line z = 0, each with at most 12 points
        ts = range(11 if field == QQ else min(11, field.p))
        conic = [(1, t, t * t) for t in ts] + [(0, 0, 1)]
        line = [(1, t, 0) for t in ts] + [(0, 1, 0)]
        three_collinear = [(1, 0, 0), (0, 1, 0), (1, 1, 0)]
        triangle = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        for vectors in (conic, line, three_collinear, triangle):
            sets.append([ProjPoint(field, v) for v in vectors])
    rich = [affine_plane(PrimeField(q)) for q in (3, 5, 7)]
    rich += [projective_plane(PrimeField(q)) for q in (2, 3)]
    rich.append(list(hesse_configuration().points))
    for points in rich:
        shuffled = list(points)
        rng.shuffle(shuffled)
        sets += [points, shuffled]
    return [PointConfig(tuple(points)) for points in sets if len(points) >= 3]


def test_line_counts_match_the_fold_of_the_lines():
    # the witness and lines_by_size item by item, in order; the set reaches a size 2
    # listed before and after a larger size, and a witness at an anchor whose earlier
    # lines carry three points or more
    reached = Counter()
    for config in oracle_configs():
        lines = maximal_lines(config)
        witness, by_size = line_counts(config)
        expected_witness, expected_by_size = folded(lines)
        assert witness == expected_witness, config
        assert list(by_size.items()) == list(expected_by_size.items()), config
        sizes = list(by_size)
        reached["n=3"] += len(config) == 3
        reached["no ordinary line"] += witness is None and len(lines) > 1
        if 2 in sizes and len(sizes) > 1:
            reached["2 first" if sizes[0] == 2 else "2 later"] += 1
        if witness is not None:
            before = lines[: lines.index(witness)]
            reached["rich line at the witness anchor"] += any(
                line[0] == witness[0] for line in before
            )
    # at this seed: 14 sets of 3 points, 19 with no ordinary line, size 2 first in 33
    # sets and later in 61, and 61 witnesses at an anchor with a richer line before them
    assert reached["n=3"] >= 8 and reached["no ordinary line"] >= 12, reached
    assert min(reached["2 first"], reached["2 later"]) >= 20, reached
    assert reached["rich line at the witness anchor"] >= 20, reached


def test_a_conic_makes_no_group():
    # 40 points of a conic: no three collinear, so no key repeats, every anchor keys
    # all of its later points and no anchor opens a group
    conic = PointConfig(tuple(ProjPoint(QQ, (1, t, t * t)) for t in range(40)))
    anchors = list(plane._anchored_groups(conic))
    assert [i for i, _, _ in anchors] == list(range(39))
    assert [sorted(first.values()) for _, first, _ in anchors] == [
        list(range(i + 1, 40)) for i in range(39)
    ]
    assert not any(rich for _, _, rich in anchors)
    assert line_counts(conic) == ((0, 1), {2: math.comb(40, 2)})
