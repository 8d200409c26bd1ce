"""The integer-argument rule ``errors.check_int``, caller by caller, and
``errors.brief``, which must quote every value in one short line."""

import random
from fractions import Fraction

import pytest

from lowdeg.classify import classify
from lowdeg.errors import (
    MAX_INPUT,
    ConfigurationError,
    InputError,
    LowdegError,
    MixedFieldError,
    brief,
)
from lowdeg.fields import QQ, PrimeField, scalar_from_json
from lowdeg.lemma52 import charge_random, planted_family, random_subspace
from lowdeg.numerology import (
    castelnuovo_pi,
    genus_bound_main,
    genus_bound_special,
    gonality_bounds,
    riemann_hurwitz_check,
    riemann_hurwitz_min_degree,
    rs_profile,
)
from lowdeg.sym2_lattice import DFParams, SurfaceClass
from lowdeg.sym2_pairs import Sym2GroupModel

HUGE = 10**5000  # past Python's 4300-digit limit, so repr(HUGE) raises
HUGE_TEXT = "<int of 16610 bits>"

# Per check_int caller: the call with the checked argument v (the others valid),
# the argument's name, its bounds (None: not checked) and the exception class.
M = MAX_INPUT
CHECK_INT_TABLE = [
    ("castelnuovo_pi-delta", lambda v: castelnuovo_pi(v, 3), "delta", 1, M, LowdegError),
    ("castelnuovo_pi-n", lambda v: castelnuovo_pi(5, v), "n", 2, M, LowdegError),
    ("genus_bound_main-d", genus_bound_main, "d", 2, M, LowdegError),
    ("genus_bound_special-e", lambda v: genus_bound_special(v, 2, 2), "e", 1, M, LowdegError),
    ("genus_bound_special-r", lambda v: genus_bound_special(3, v, 2), "r", 2, M, LowdegError),
    ("genus_bound_special-d", lambda v: genus_bound_special(3, 2, v), "d", 1, M, LowdegError),
    ("gonality_bounds-d", lambda v: gonality_bounds(v, 7), "d", 2, M, LowdegError),
    ("gonality_bounds-g", lambda v: gonality_bounds(5, v), "g", 2, M, LowdegError),
    ("rh_min_degree-g_base", lambda v: riemann_hurwitz_min_degree(v, 4), "g_base", 0, M, LowdegError),
    (
        "rh_min_degree-total_ram_points",
        lambda v: riemann_hurwitz_min_degree(1, v),
        "total_ram_points",
        0,
        M,
        LowdegError,
    ),
    ("rh_check-g_x", lambda v: riemann_hurwitz_check(v, 1, 2, 0), "g_x", 0, M, LowdegError),
    ("rh_check-g_y", lambda v: riemann_hurwitz_check(2, v, 2, 0), "g_y", 0, M, LowdegError),
    ("rh_check-degree", lambda v: riemann_hurwitz_check(2, 1, v, 0), "degree", 1, M, LowdegError),
    (
        "rh_check-ram_excess",
        lambda v: riemann_hurwitz_check(2, 1, 2, v),
        "ram_excess",
        None,
        None,
        LowdegError,
    ),
    ("rs_profile-d", lambda v: rs_profile(v, 4, True, 2), "d", 2, M, LowdegError),
    # r2 = 3 > d = 2 is refused after the argument checks, so the n_max edge runs no recursion
    ("rs_profile-n_max", lambda v: rs_profile(2, v, True, 3), "n_max", 2, M, LowdegError),
    ("rs_profile-r2", lambda v: rs_profile(5, 4, True, v), "r2", 2, M, LowdegError),
    ("SurfaceClass-a", lambda v: SurfaceClass(v, 1), "a", None, None, LowdegError),
    ("SurfaceClass-b", lambda v: SurfaceClass(1, v), "b", None, None, LowdegError),
    ("DFParams-d", lambda v: DFParams(v, 1), "d", 2, None, LowdegError),
    ("DFParams-m", lambda v: DFParams(3, v), "m", None, None, LowdegError),
    ("Sym2GroupModel-modulus", Sym2GroupModel, "modulus", 5, None, ConfigurationError),
]


def _refusal(call, value, error):
    with pytest.raises(LowdegError) as info:
        call(value)
    assert type(info.value) is error
    return str(info.value)


def _accepts(call, name, value):
    """True unless the call refuses ``value`` by the named argument's rule; a later
    check of the same call (a derived Castelnuovo degree, r2 > d) may still fail."""
    try:
        call(value)
    except LowdegError as exc:
        return not str(exc).startswith(f"{name} must")
    return True


@pytest.mark.parametrize(
    "call, name, low, high, error",
    [row[1:] for row in CHECK_INT_TABLE],
    ids=[row[0] for row in CHECK_INT_TABLE],
)
def test_check_int_rule(call, name, low, high, error):
    """Every caller refuses a bool and a float, accepts both edges of its range,
    and refuses one past each edge (and an int too long to print) with the exact text."""
    for value in (True, 2.0):
        assert _refusal(call, value, error) == f"{name} must be an integer, got {value!r}"
    if low is None:
        assert _accepts(call, name, 2)
        return
    rule = f"be at least {low}" if high is None else f"be in [{low}, {high}]"
    assert _accepts(call, name, low)
    assert _refusal(call, low - 1, error) == f"{name} must {rule}, got {low - 1}"
    assert _refusal(call, -HUGE, error) == f"{name} must {rule}, got {HUGE_TEXT}"
    if high is not None:
        assert _accepts(call, name, high)
        assert _refusal(call, high + 1, error) == f"{name} must {rule}, got {high + 1}"
        assert _refusal(call, HUGE, error) == f"{name} must {rule}, got {HUGE_TEXT}"


def test_check_int_fault_order():
    """DFParams checks both types before d's range, then m's range."""
    assert _refusal(lambda v: DFParams(1, v), "x", LowdegError) == "m must be an integer, got 'x'"
    assert _refusal(lambda v: DFParams(v, "y"), "x", LowdegError) == "d must be an integer, got 'x'"
    assert _refusal(lambda v: DFParams(v, 5), 1, LowdegError) == "d must be at least 2, got 1"
    assert _refusal(lambda v: DFParams(3, v), 4, LowdegError) == "m must satisfy 1 <= m <= d = 3, got 4"


def test_brief_quotes_every_value():
    assert brief(HUGE) == brief(-HUGE) == HUGE_TEXT
    assert brief(Fraction(HUGE, 3)) == "<Fraction too long to print>"
    assert brief([HUGE]) == "<list too long to print>"
    assert brief(10**59) == repr(10**59)
    assert brief(10**60) == f"{repr(10**60)[:40]}... (61 characters)"


GF101 = PrimeField(101)
DEFECT_CALLS = [
    ("castelnuovo_pi-huge", lambda: castelnuovo_pi(HUGE, 3), LowdegError),
    ("profile.r-huge", lambda: rs_profile(3, 4, True, 2).r(HUGE), LowdegError),
    ("classify-huge", lambda: classify(HUGE), LowdegError),
    ("DFParams-huge", lambda: DFParams(3, HUGE), LowdegError),
    ("Sym2GroupModel-huge", lambda: Sym2GroupModel(-HUGE), ConfigurationError),
    ("PrimeField-huge", lambda: PrimeField(HUGE), MixedFieldError),
    ("scalar_from_json-huge", lambda: scalar_from_json({"val": 1, "mod": HUGE}), MixedFieldError),
    ("random_subspace-huge", lambda: random_subspace(random.Random(0), QQ, 3, HUGE), LowdegError),
    ("planted_family-huge", lambda: planted_family(random.Random(0), GF101, 3, HUGE), ConfigurationError),
    ("charge_random-huge", lambda: charge_random(GF101, 3, 3, HUGE, 5_000_000), InputError),
    ("castelnuovo_pi-long-str", lambda: castelnuovo_pi("x" * 100000, 3), LowdegError),
    ("SurfaceClass-long-str", lambda: SurfaceClass("y" * 10000, 1), LowdegError),
    ("riemann_hurwitz_check-long-str", lambda: riemann_hurwitz_check(1, 1, 1, "z" * 5000), LowdegError),
    # brief's fallback for a value that holds such an int
    ("coerce-huge-fraction", lambda: GF101.coerce(Fraction(HUGE, 3)), MixedFieldError),
]


@pytest.mark.parametrize(
    "call, error", [row[1:] for row in DEFECT_CALLS], ids=[row[0] for row in DEFECT_CALLS]
)
def test_long_arguments_are_quoted_short(call, error):
    """An int past the digit limit or a long string, quoted in one line under 200 characters."""
    with pytest.raises(Exception) as info:
        call()
    text = str(info.value)
    assert type(info.value) is error and "\n" not in text and len(text) < 200
