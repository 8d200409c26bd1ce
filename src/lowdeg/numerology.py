"""Closed-form genus bounds, gonality bounds, and the dimension-ledger recursion.

Everything here is exact integer arithmetic on plain ints.  The recursion in
:func:`rs_profile` tracks *lower* bounds for the dimensions of the linear
systems attached to a moving degree-d point on a curve:

``r(n)``
    dimension of the n-th system,
``s(n)``
    dimension of the span of one family divisor inside it,
``r'(n)``, ``s'(n)``
    the same after projecting away the subspace common to almost all spans.

The recursion identity ``r(n) - s(n) = r'(n) - s'(n) = r(n-1) + 1`` holds at
every step, a family divisor of degree d never spans more than a
(d-1)-plane, and the common subspace of the n=2 system has codimension at
least 3.
"""

from __future__ import annotations

from typing import Literal, NamedTuple, Union

from .errors import MAX_INPUT, LowdegError

UNBOUNDED: Literal["unbounded"] = "unbounded"


def _check_int(name: str, value: object, low: int, high: int = MAX_INPUT) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise LowdegError(f"{name} must be an integer, got {value!r}")
    if value < low or value > high:
        raise LowdegError(f"{name} must be in [{low}, {high}], got {value}")
    return value


def castelnuovo_pi(delta: int, n: int) -> int:
    """Maximal genus of a nondegenerate degree-``delta`` curve in P^n.

    Writing ``delta - 1 = m*(n - 1) + eps`` with ``0 <= eps < n - 1``, the
    bound is ``m*(m - 1)/2 * (n - 1) + m*eps``.
    """
    _check_int("delta", delta, 1)
    _check_int("n", n, 2)
    m, eps = divmod(delta - 1, n - 1)
    return m * (m - 1) * (n - 1) // 2 + m * eps


class GenusBoundReport(NamedTuple):
    """Genus ceilings for a d-minimal curve, kept per-branch.

    ``bound_dagger`` applies when through a general point of the curve there
    is a pair of family divisors meeting exactly there (the two-divisor
    condition); ``bound_no_dagger`` applies otherwise;
    ``bound_non_df_dagger`` is the sharper ceiling for curves that are not
    Debarre-Fahlaoui, under the same two-divisor condition.  ``overall`` is
    the max of the two unconditional branches and ``governing`` records
    which branch attains it, so the case split is never silently collapsed.
    """

    d: int
    m: int
    epsilon: int
    bound_dagger: int
    bound_no_dagger: int
    bound_non_df_dagger: int
    overall: int
    governing: str


def genus_bound_main(d: int) -> GenusBoundReport:
    """Two-branch genus ceiling: d(d-1)/2 + 1 versus 3m(m-1) + m*eps."""
    _check_int("d", d, 2)
    m = (d + 1) // 2 - 1
    epsilon = 3 * d - 1 - 6 * m
    bound_dagger = d * (d - 1) // 2 + 1
    bound_no_dagger = 3 * m * (m - 1) + m * epsilon
    if bound_dagger > bound_no_dagger:
        governing = "dagger"
    elif bound_no_dagger > bound_dagger:
        governing = "no_dagger"
    else:
        governing = "tie"
    return GenusBoundReport(
        d=d,
        m=m,
        epsilon=epsilon,
        bound_dagger=bound_dagger,
        bound_no_dagger=bound_no_dagger,
        bound_non_df_dagger=(d - 1) * (d - 2) // 2 + 2,
        overall=max(bound_dagger, bound_no_dagger),
        governing=governing,
    )


def genus_bound_special(e: int, r: int, d: int) -> int:
    """Genus ceiling for a degree-e curve in P^r carrying infinitely many
    nondegenerate degree-d points: the Castelnuovo value at (e + 2d, 2r + 1)."""
    _check_int("e", e, 1)
    _check_int("r", r, 2)
    _check_int("d", d, 1)
    return castelnuovo_pi(e + 2 * d, 2 * r + 1)


class GonalityBounds(NamedTuple):
    airr_based: int
    genus_based_geometric: int
    genus_based_arithmetic: int
    combined: int


def gonality_bounds(
    d: int,
    g: int,
    *,
    elliptic_cover: bool = False,
    debarre_fahlaoui: bool = False,
) -> GonalityBounds:
    """Upper bounds on gonality for a curve with infinitely many degree-d points.

    The degree-based ceiling is 2d, attained only by degree-d covers of an
    elliptic curve; it drops to 2d - 1 for Debarre-Fahlaoui curves and to
    2d - 2 otherwise.  The genus-based ceilings floor((g+3)/2) (geometric)
    and 2g - 2 (over the ground field) always apply.
    """
    _check_int("d", d, 2)
    _check_int("g", g, 2)
    if elliptic_cover:
        airr_based = 2 * d
    elif debarre_fahlaoui:
        airr_based = 2 * d - 1
    else:
        airr_based = 2 * d - 2
    genus_based_geometric = (g + 3) // 2
    genus_based_arithmetic = 2 * g - 2
    return GonalityBounds(
        airr_based=airr_based,
        genus_based_geometric=genus_based_geometric,
        genus_based_arithmetic=genus_based_arithmetic,
        combined=min(airr_based, genus_based_geometric, genus_based_arithmetic),
    )


def riemann_hurwitz_min_degree(g_base: int, total_ram_points: int) -> Union[int, str]:
    """Largest degree a nonconstant map from a genus-``g_base`` curve to the
    projective line can have when it is totally ramified over
    ``total_ram_points`` points.

    Solves ``2*g_base - 2 >= -2*deg + t*(deg - 1)``.  With two or fewer
    totally ramified points the inequality imposes nothing and the result is
    ``"unbounded"``.  A genus-1 source with four such points forces degree 2.
    """
    _check_int("g_base", g_base, 0)
    _check_int("total_ram_points", total_ram_points, 0)
    t = total_ram_points
    if t <= 2:
        return UNBOUNDED
    return max(1, (t + 2 * g_base - 2) // (t - 2))


def riemann_hurwitz_check(g_x: int, g_y: int, degree: int, ram_excess: int) -> bool:
    """Consistency of 2g_X - 2 = degree*(2g_Y - 2) + ramification excess.

    The excess must be a nonnegative even integer for the data to describe a
    cover of smooth curves.
    """
    _check_int("g_x", g_x, 0)
    _check_int("g_y", g_y, 0)
    _check_int("degree", degree, 1)
    if not isinstance(ram_excess, int) or isinstance(ram_excess, bool):
        raise LowdegError(f"ram_excess must be an integer, got {ram_excess!r}")
    if ram_excess < 0 or ram_excess % 2 != 0:
        return False
    return 2 * g_x - 2 == degree * (2 * g_y - 2) + ram_excess


class ConfigProfile(NamedTuple):
    """Per-n lower bounds for the dimension ledger, n running from 2 to n_max.

    Index i of each array corresponds to n = i + 2.  ``codim_v_lb`` is the
    guaranteed codimension of the common subspace of the n=2 system.
    """

    d: int
    dagger: bool
    r2: int
    n_max: int
    r_lb: tuple[int, ...]
    s_lb: tuple[int, ...]
    rprime_lb: tuple[int, ...]
    sprime_lb: tuple[int, ...]
    codim_v_lb: int

    def _index(self, n: int) -> int:
        if not 2 <= n <= self.n_max:
            raise LowdegError(f"n must be in [2, {self.n_max}], got {n}")
        return n - 2

    def r(self, n: int) -> int:
        return self.r_lb[self._index(n)]

    def s(self, n: int) -> int:
        return self.s_lb[self._index(n)]

    def rprime(self, n: int) -> int:
        return self.rprime_lb[self._index(n)]

    def sprime(self, n: int) -> int:
        return self.sprime_lb[self._index(n)]


def rs_profile(d: int, n_max: int, dagger: bool, r2: int) -> ConfigProfile:
    """Run the dimension-ledger recursion and return all lower bounds.

    ``r2`` is the dimension of the n=2 system; it is case data rather than a
    derived quantity (r2 = 2 is the Debarre-Fahlaoui regime, r2 >= 3 feeds
    the sharper no-dagger estimates).  Spans of family divisors in the n=2
    system are hyperplanes, so ``s(2) = r2 - 1``; this forces ``r2 <= d``.

    With the two-divisor condition (``dagger``), the primed span dimension
    grows by at least one per step until it saturates at d - 1, which for
    r2 = 2 yields r(n) >= n(n+1)/2 - 1.  Without it the span dimension still
    never drops, and for r2 >= 3 the two hard floors r'(3) >= 7 (d >= 4) and
    r'(4) >= 12 (odd d >= 5) are applied.
    """
    _check_int("d", d, 2)
    _check_int("n_max", n_max, 2)
    _check_int("r2", r2, 2)
    if r2 > d:
        raise LowdegError(
            f"r2 = {r2} is impossible for degree d = {d}: a degree-d divisor "
            f"spans at most a (d-1)-plane and its spans are hyperplanes"
        )

    cap = d - 1
    r_lb = [r2]
    s_lb = [r2 - 1]
    rprime_lb = [2]
    sprime_lb = [1]

    for n in range(3, n_max + 1):
        prev_r = r_lb[-1]
        prev_s = s_lb[-1]
        if dagger:
            sp = min(prev_s + 1, cap)
        else:
            sp = prev_s
        rp = prev_r + 1 + sp
        if not dagger and r2 >= 3:
            if n == 3 and d >= 4:
                rp = max(rp, 7)
            if n == 4 and d >= 5 and d % 2 == 1:
                rp = max(rp, 12)
            sp = rp - prev_r - 1
        s_n = max(prev_s, sp)
        if s_n > cap:
            raise LowdegError(
                f"inconsistent profile: s({n}) lower bound {s_n} exceeds d - 1 = {cap}"
            )
        r_n = prev_r + s_n + 1
        r_lb.append(r_n)
        s_lb.append(s_n)
        rprime_lb.append(rp)
        sprime_lb.append(sp)

    return ConfigProfile(
        d=d,
        dagger=dagger,
        r2=r2,
        n_max=n_max,
        r_lb=tuple(r_lb),
        s_lb=tuple(s_lb),
        rprime_lb=tuple(rprime_lb),
        sprime_lb=tuple(sprime_lb),
        codim_v_lb=3,
    )
