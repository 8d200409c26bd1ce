"""What the test modules share: two work counters, QQ constructors, a rank oracle and
plane point sets.

Test modules import these names from here and never from one another, so a fault that
breaks one module's import-time constants fails only that module's tests.  pytest does
not collect this module: its name has no ``test_`` prefix.
"""

import inspect
import math
from collections import Counter
from fractions import Fraction

from lowdeg.fields import QQ
from lowdeg.lemma52 import random_point
from lowdeg.projective import ProjPoint, ProjSubspace


def qpoint(*coords):
    return ProjPoint(QQ, tuple(coords))


def qspace(ambient, *vectors):
    return ProjSubspace.from_vectors(QQ, ambient, vectors)


def affine_plane(field):
    """Every point (x, y, 1) of AG(2, p), in coordinate order."""
    return [ProjPoint(field, (x, y, 1)) for x in range(field.p) for y in range(field.p)]


def projective_plane(field):
    """Every point of PG(2, p): the affine plane, then the line at infinity."""
    at_infinity = [ProjPoint(field, (1, x, 0)) for x in range(field.p)]
    return affine_plane(field) + at_infinity + [ProjPoint(field, (0, 1, 0))]


def planted_lines(rng, field, count):
    """Up to seven points on each of ``count`` random lines, then a few
    random points; coinciding points are kept once."""
    coords = {}
    for _ in range(count):
        a, b = (random_point(rng, field, 2).coords for _ in range(2))
        for _ in range(rng.randint(3, 7)):
            if field == QQ:
                t = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            else:
                t = rng.randrange(field.p)
            raw = tuple(field.reduce(x + t * y) for x, y in zip(a, b))
            if any(raw):
                point = ProjPoint(field, raw)
                coords.setdefault(point.coords, point)
    for _ in range(rng.randint(0, 4)):
        point = random_point(rng, field, 2)
        coords.setdefault(point.coords, point)
    return list(coords.values())


def int_rank(rows, p):
    """The rank of the rows over GF(p), or over QQ when p is None, by elimination in
    plain ints: each row is scaled to integers, and a row is cleared below a pivot a
    by b as a x - b y, divided over QQ by the gcd of its entries."""
    mat = []
    for row in rows:
        scale = math.lcm(*(x.denominator for x in row))
        ints = [x.numerator * (scale // x.denominator) for x in row]
        mat.append(ints if p is None else [x % p for x in ints])
    rank = 0
    for c in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        top = mat[rank]
        for i in range(rank + 1, len(mat)):
            b = mat[i][c]
            if b:
                row = [top[c] * x - b * y for x, y in zip(mat[i], top)]
                if p is None:
                    g = math.gcd(*row)
                    mat[i] = [x // g for x in row] if g else row
                else:
                    mat[i] = [x % p for x in row]
        rank += 1
    return rank


def counting_field(base, *args):
    """A ``base`` field that counts its ``coerce``, ``reduce``, ``submul``, ``inv`` and
    ``is_zero`` calls by name in ``.calls``, a ``Counter``, and logs each ``ratios``
    batch in ``.batches`` as ``(nums, dens, answers)``.  ``reset`` empties both."""

    class Counting(base):
        calls, batches = Counter(), []

        def reset(self):
            self.calls.clear()
            self.batches.clear()

        def ratios(self, nums, dens):
            answers = super().ratios(nums, dens)
            self.batches.append((nums, dens, answers))
            return answers

    def counted(name):
        def method(self, *values):
            self.calls[name] += 1
            return getattr(base, name)(self, *values)

        return method

    for name in ("coerce", "reduce", "submul", "inv", "is_zero"):
        setattr(Counting, name, counted(name))
    return Counting(*args)


def count_calls(monkeypatch, name, *owners, size=None):
    """Patch ``owner.name`` on each owner that binds it, a module or a class, to count
    its calls.  An owner that does not bind it yet is passed over, so that a pin of no
    calls also counts a binding added there later; one owner at least must bind it.
    Returns a ``Counter`` of ``"calls"`` and, given ``size``, of ``"size"``: the sum of
    ``size(*args)`` over the calls, where a classmethod's ``args`` follow the class."""
    counts = Counter()
    binding = [owner for owner in owners if hasattr(owner, name)]
    assert binding, f"no owner binds {name}"
    for owner in binding:
        original = getattr(owner, name)

        def counted(*args, original=original, **kwargs):
            counts["calls"] += 1
            if size is not None:
                counts["size"] += size(*args, **kwargs)
            return original(*args, **kwargs)

        bound = isinstance(inspect.getattr_static(owner, name), (classmethod, staticmethod))
        monkeypatch.setattr(owner, name, staticmethod(counted) if bound else counted)
    return counts
