"""A finite stand-in for the symmetric square of an elliptic curve.

Unordered pairs over Z/N carry two divisor families, "pairs containing x"
and "pairs summing to s".  Each divisor is read once, into one membership
index (each pair to the divisors containing it); the incidence counts come
off that index alone and reproduce the lattice table of
:mod:`lowdeg.sym2_lattice`.  The model only claims the divisor
combinatorics, not an actual curve.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Iterable, NamedTuple

from .errors import MAX_INPUT, ConfigurationError, Value, check_int

Pair = tuple[int, int]


class Sym2GroupModel(Value):
    """Unordered pairs {x, y} over Z/N, diagonal included; N(N+1)/2 elements."""

    __slots__ = _fields = ("modulus",)

    def __init__(self, modulus: int) -> None:
        self.modulus = check_int("modulus", modulus, 5, MAX_INPUT, ConfigurationError)

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
    check_int("x", x)
    n = model.modulus
    x %= n
    return frozenset([(y, x) for y in range(x)] + [(x, y) for y in range(x, n)])


def pairs_with_sum(model: Sym2GroupModel, s: int) -> frozenset[Pair]:
    """The fiber-divisor at s: every pair {x, s - x}.

    For odd N this has (N+1)/2 elements for every s; for even N it has
    N/2 + 1 elements when s is even (two diagonal members) and N/2 when s
    is odd (none).  With s reduced mod N, a pair x <= y sums to s or to s + N:
    to s for x up to s / 2, to s + N for x past s up to (s + N) / 2.
    """
    check_int("s", s)
    n = model.modulus
    s %= n
    low = [(x, s - x) for x in range(s // 2 + 1)]
    return frozenset(low + [(x, s + n - x) for x in range(s + 1, (s + n) // 2 + 1)])


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
    membership index adds one to the count shared by every two divisors holding it.
    A row of counts is compared with its expected row in one slice, and its cells
    are walked only when the two differ."""
    n = model.modulus
    divisors = (f(model, k) for f in (pairs_containing, pairs_with_sum) for k in range(n))
    shared = [[0] * (2 * n) for _ in range(2 * n)]  # [i][j], i < j: |divisor i & divisor j|
    for held_by in _holders(divisors).values():
        for i, j in combinations(held_by, 2):
            shared[i][j] += 1
    names = [f"point({x})" for x in range(n)] + [f"fiber({s})" for s in range(n)]
    # a point row shares one pair with every later divisor, a fiber row none
    ones, zeros = [1] * (2 * n), [0] * (2 * n)
    # point-point, point-fiber and fiber-fiber violations, each in row order
    violations: tuple[list[str], ...] = ([], [], [])
    for i, row in enumerate(shared):
        if row[i + 1:] == (ones if i < n else zeros)[i + 1:]:
            continue
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
