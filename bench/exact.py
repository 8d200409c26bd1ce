"""Exact arithmetic written independently of lowdeg: plain ints mod p or
Fractions.  The answer checks and the calibration job use it.  Standard
library only."""

from __future__ import annotations

from fractions import Fraction


def normalize(vec, p):
    lead = next(x for x in vec if x != 0)
    if p is None:
        return tuple(Fraction(x) / lead for x in vec)
    inv = pow(lead, -1, p)
    return tuple(x * inv % p for x in vec)


def cross(a, b, p):
    line = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
    return line if p is None else tuple(x % p for x in line)


def line_through(a, b, p):
    """Line coordinates of the plane line through the points a and b."""
    return normalize(cross(a, b, p), p)


def on_line(line, point, p):
    dot = sum(x * y for x, y in zip(line, point))
    return (dot % p if p is not None else dot) == 0


def lines_oracle(points, p):
    """All lines of a plane point set as sorted index tuples, by grouping pairs."""
    groups: dict = {}
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            members = groups.setdefault(line_through(points[i], points[j], p), set())
            members.update((i, j))
    return sorted(tuple(sorted(m)) for m in groups.values())


def rank(rows, p) -> int:
    """Rank of a matrix of ints or Fractions, over QQ or mod p."""
    mat = [[Fraction(x) if p is None else x % p for x in row] for row in rows]
    r = 0
    width = len(mat[0]) if mat else 0
    for c in range(width):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        lead = mat[r][c]
        for i in range(r + 1, len(mat)):
            f = mat[i][c]
            if f != 0:
                if p is None:
                    mat[i] = [x - f / lead * y for x, y in zip(mat[i], mat[r])]
                else:
                    s = f * pow(lead, -1, p)
                    mat[i] = [(x - s * y) % p for x, y in zip(mat[i], mat[r])]
        r += 1
    return r
