"""The integer-argument rule ``errors.check_int``, caller by caller and over
hostile values at every public entry point, and ``errors.brief``, which must
quote every value in one short line."""

import contextlib
import dataclasses
import importlib
import inspect
import math
import pkgutil
import random
import signal
from fractions import Fraction
from typing import Callable, NamedTuple

import pytest

import lowdeg
from lowdeg.classify import audit, audit_json, classification_json, classify, sporadic_genus_cap
from lowdeg.errors import (
    MAX_INPUT,
    ConfigurationError,
    InputError,
    LowdegError,
    MixedFieldError,
    brief,
)
from lowdeg.fields import QQ, PrimeField, is_prime, scalar_from_json
from lowdeg.jsonio import points_from_json, subspaces_from_json
from lowdeg.lemma52 import (
    charge_input,
    charge_random,
    planted_family,
    random_common_subspace_instance,
    random_point,
    random_subspace,
)
from lowdeg.numerology import (
    castelnuovo_pi,
    genus_bound_main,
    genus_bound_special,
    gonality_bounds,
    riemann_hurwitz_check,
    riemann_hurwitz_min_degree,
    rs_profile,
)
from lowdeg.plane import charge_sylvester_gallai, collinear, hesse_configuration
from lowdeg.projective import ProjPoint, ProjSubspace, span
from lowdeg.sym2_lattice import DFParams, SurfaceClass
from lowdeg.sym2_pairs import Sym2GroupModel, pairs_containing, pairs_with_sum, sym2_model

HUGE = 10**5000  # past Python's 4300-digit limit, so repr(HUGE) raises
HUGE_TEXT = "<int of 16610 bits>"
GF101 = PrimeField(101)
HESSE = hesse_configuration()  # nine points of the plane over GF(3)
NO_LIMIT = 10**40


def _rng():
    return random.Random(0)

# Per check_int caller: the call with the checked argument v (the others valid),
# the argument's name, its bounds (None: not checked) and the exception class.
M = MAX_INPUT
CHECK_INT_TABLE = [
    ("castelnuovo_pi-delta", lambda v: castelnuovo_pi(v, 3), "delta", 1, M, LowdegError),
    ("castelnuovo_pi-n", lambda v: castelnuovo_pi(5, v), "n", 2, M, LowdegError),
    ("genus_bound_main-d", genus_bound_main, "d", 2, M, LowdegError),
    # e + 2d and 2r + 1 stay within MAX_INPUT, so d's bound follows e
    ("genus_bound_special-e", lambda v: genus_bound_special(v, 2, 1), "e", 1, M - 2, LowdegError),
    ("genus_bound_special-r", lambda v: genus_bound_special(3, v, 2), "r", 2, (M - 1) // 2, LowdegError),
    ("genus_bound_special-d", lambda v: genus_bound_special(3, 2, v), "d", 1, (M - 3) // 2, LowdegError),
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
    ("Sym2GroupModel-modulus", Sym2GroupModel, "modulus", 5, M, ConfigurationError),
    ("pairs_containing-x", lambda v: pairs_containing(sym2_model(7), v), "x", None, None, LowdegError),
    ("pairs_with_sum-s", lambda v: pairs_with_sum(sym2_model(7), v), "s", None, None, LowdegError),
    ("classify-d", classify, "d", None, None, LowdegError),
    ("ConfigProfile-n", lambda v: rs_profile(3, 4, True, 2).r(v), "n", 2, 4, LowdegError),
    ("PrimeField-modulus", PrimeField, "modulus", None, None, MixedFieldError),
    ("is_prime-n", is_prime, "n", None, None, LowdegError),
    ("ProjSubspace-ambient", lambda v: ProjSubspace(QQ, v, ()), "ambient", 0, M, LowdegError),
    ("from_vectors-ambient", lambda v: ProjSubspace.from_vectors(QQ, v, []), "ambient", 0, M, LowdegError),
    ("empty-ambient", lambda v: ProjSubspace.empty(QQ, v), "ambient", 0, M, LowdegError),
    ("span-ambient", lambda v: span([ProjPoint(QQ, (1, 0))], ambient=v), "ambient", 0, M, LowdegError),
    # dim -1 draws nothing, so the ambient edge costs no P^1000000 vector
    ("random_subspace-ambient", lambda v: random_subspace(_rng(), QQ, v, -1), "ambient", 0, M, LowdegError),
    ("random_subspace-dim", lambda v: random_subspace(_rng(), QQ, 3, v), "dim", -1, 3, LowdegError),
    # charge_random runs the family-shape check of planted_family without drawing a family
    ("family-ambient", lambda v: charge_random(GF101, v, 3, 1, NO_LIMIT), "ambient", 3, M, ConfigurationError),
    ("family-count", lambda v: charge_random(GF101, 3, v, 1, NO_LIMIT), "count", 3, M, ConfigurationError),
    ("charge_random-trials", lambda v: charge_random(GF101, 3, 3, v, NO_LIMIT), "trials", 0, M, InputError),
    ("charge_random-limit", lambda v: charge_random(GF101, 3, 3, 1, v), "limit", 0, None, InputError),
    ("charge_input-limit", lambda v: charge_input(GF101, [], v), "limit", 0, None, InputError),
    ("charge_sg-limit", lambda v: charge_sylvester_gallai(HESSE, v), "limit", 0, None, InputError),
    ("collinear-i", lambda v: collinear(HESSE, v, 1, 2), "i", 0, 8, LowdegError),
    ("collinear-j", lambda v: collinear(HESSE, 0, v, 2), "j", 0, 8, LowdegError),
    ("collinear-k", lambda v: collinear(HESSE, 0, 1, v), "k", 0, 8, LowdegError),
    (
        "subspaces_from_json-ambient",
        lambda v: subspaces_from_json({"subspaces": [{"ambient": v, "rows": [["1"]]}]}),
        "ambient",
        0,
        M,
        LowdegError,
    ),
    (
        "points_from_json-ambient",
        lambda v: points_from_json({"ambient": v, "points": [["1"]]}),
        "ambient",
        0,
        M,
        LowdegError,
    ),
]


def _refusal(call, value, error):
    with pytest.raises((LowdegError, InputError)) as info:
        call(value)
    assert type(info.value) is error
    return str(info.value)


def _accepts(call, name, value):
    """True unless the call refuses ``value`` by the named argument's rule; a later
    check of the same call (r2 > d, a row length, a work rule) may still fail."""
    try:
        call(value)
    except (LowdegError, InputError) as exc:
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


# The hostile-argument table: every integer parameter of every public entry point
# meets each of these values in turn, the non-ints first.
HOSTILE = (True, 2.0, None, "x", Fraction(1, 2), [1], math.nan, -1, 0, HUGE, -HUGE)


class Row(NamedTuple):
    """One valid call, ``call(**valid)``, whose keyword arguments are the integer
    parameters swept.  ``unbounded`` names those that may take any int, so may accept
    ±10^5000; every other one refuses it.  ``optional`` names those whose None means
    "not given", and ``spoken`` maps a parameter to the name its messages give it."""

    qualname: str
    call: Callable
    valid: dict
    unbounded: tuple = ()
    optional: tuple = ()
    spoken: dict = {}


SUBSPACE_MEMBERS = [(4, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]])]


def _profile():
    # built per call, so that a mutant of check_int fails the rows, not the collection
    return rs_profile(5, 4, True, 2)


HOSTILE_TABLE = [
    Row("classify.classify", classify, dict(d=3)),
    Row("classify.classification_json", classification_json, dict(d=3)),
    Row("classify.sporadic_genus_cap", sporadic_genus_cap, dict(d=4)),
    Row("classify.audit", audit, dict(d=3)),
    Row("classify.audit_json", audit_json, dict(d=3)),
    Row("fields.PrimeField", PrimeField, dict(p=101), spoken=dict(p="modulus")),
    Row("fields.is_prime", is_prime, dict(n=7), ("n",)),
    # a document field, not a parameter: the reader checks it like one
    Row(
        "jsonio.subspaces_from_json",
        lambda ambient: subspaces_from_json(
            {"subspaces": [{"ambient": ambient, "rows": [["1", "0", "0", "0", "0"]]}]}
        ),
        dict(ambient=4),
    ),
    Row("lemma52.random_point", lambda ambient: random_point(_rng(), QQ, ambient), dict(ambient=3)),
    Row("lemma52.random_subspace", lambda **kw: random_subspace(_rng(), QQ, **kw), dict(ambient=4, dim=1)),
    Row(
        "lemma52.charge_random",
        lambda **kw: charge_random(GF101, **kw),
        dict(ambient=4, count=4, trials=10, limit=5_000_000),
        ("limit",),
    ),
    Row(
        "lemma52.charge_input",
        lambda limit: charge_input(GF101, SUBSPACE_MEMBERS, limit),
        dict(limit=5_000_000),
        ("limit",),
    ),
    Row("lemma52.planted_family", lambda **kw: planted_family(_rng(), QQ, **kw), dict(ambient=4, count=4)),
    Row(
        "lemma52.random_common_subspace_instance",
        lambda **kw: random_common_subspace_instance(_rng(), QQ, **kw),
        dict(ambient=4, count=4),
    ),
    Row("numerology.castelnuovo_pi", castelnuovo_pi, dict(delta=20, n=12)),
    Row("numerology.genus_bound_main", genus_bound_main, dict(d=5)),
    Row("numerology.genus_bound_special", genus_bound_special, dict(e=3, r=2, d=2)),
    Row("numerology.gonality_bounds", gonality_bounds, dict(d=5, g=7)),
    Row("numerology.riemann_hurwitz_min_degree", riemann_hurwitz_min_degree, dict(g_base=1, total_ram_points=4)),
    Row(
        "numerology.riemann_hurwitz_check",
        riemann_hurwitz_check,
        dict(g_x=2, g_y=1, degree=2, ram_excess=0),
        ("ram_excess",),
    ),
    Row("numerology.ConfigProfile.r", lambda n: _profile().r(n), dict(n=3)),
    Row("numerology.ConfigProfile.s", lambda n: _profile().s(n), dict(n=3)),
    Row("numerology.ConfigProfile.rprime", lambda n: _profile().rprime(n), dict(n=3)),
    Row("numerology.ConfigProfile.sprime", lambda n: _profile().sprime(n), dict(n=3)),
    Row("numerology.rs_profile", lambda **kw: rs_profile(dagger=True, **kw), dict(d=5, n_max=4, r2=2)),
    Row("plane.collinear", lambda **kw: collinear(HESSE, **kw), dict(i=0, j=1, k=2)),
    Row(
        "plane.charge_sylvester_gallai",
        lambda limit: charge_sylvester_gallai(HESSE, limit),
        dict(limit=10**9),
        ("limit",),
    ),
    Row("projective.ProjSubspace", lambda ambient: ProjSubspace(QQ, ambient, ()), dict(ambient=3)),
    Row(
        "projective.ProjSubspace.from_vectors",
        lambda ambient: ProjSubspace.from_vectors(QQ, ambient, [[1, 0, 0, 0]]),
        dict(ambient=3),
    ),
    Row("projective.ProjSubspace.empty", lambda ambient: ProjSubspace.empty(QQ, ambient), dict(ambient=3)),
    Row("projective.ProjSubspace.full", lambda ambient: ProjSubspace.full(QQ, ambient), dict(ambient=3)),
    Row(
        "projective.span",
        lambda ambient: span([ProjPoint(QQ, (1, 0, 0))], ambient=ambient),
        dict(ambient=2),
        optional=("ambient",),
    ),
    Row("sym2_lattice.SurfaceClass", SurfaceClass, dict(a=1, b=2), ("a", "b")),
    # d has a floor and no ceiling, and m is bounded by d
    Row("sym2_lattice.DFParams", DFParams, dict(d=3, m=1), ("d", "m")),
    Row("sym2_pairs.Sym2GroupModel", Sym2GroupModel, dict(modulus=7)),
    Row("sym2_pairs.sym2_model", sym2_model, dict(modulus=7)),
    Row("sym2_pairs.pairs_containing", lambda x: pairs_containing(Sym2GroupModel(7), x), dict(x=1), ("x",)),
    Row("sym2_pairs.pairs_with_sum", lambda s: pairs_with_sum(Sym2GroupModel(7), s), dict(s=1), ("s",)),
]

# Left out of the sweep, each for its reason.
EXEMPT_CALLABLES = {
    name: "a scalar operand of field arithmetic, not an argument: the hot paths call these "
    "once per matrix entry, so a check would tax every entry"
    for name in (
        "fields.PrimeField.reduce",
        "fields.PrimeField.submul",
        "fields.PrimeField.inv",
        "fields.PrimeField.is_zero",
    )
}
LONG_LINE_EXEMPT = {
    ("lemma52.charge_input", "limit", 0): "the work rule's line, 273 characters of fixed text "
    "that names every term of the rule",
}


@contextlib.contextmanager
def _time_bound(seconds=2.0):
    """Turn a call still running after ``seconds`` into a failure, not a hung suite."""
    if not hasattr(signal, "setitimer"):  # no SIGALRM on this platform
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _refusal_of(call, kwargs):
    """The lowdeg error the call raises within the time bound, or None when it returns."""
    with _time_bound():
        try:
            call(**kwargs)
        except (LowdegError, InputError) as exc:
            return exc
    return None


@pytest.mark.parametrize("row", HOSTILE_TABLE, ids=[row.qualname for row in HOSTILE_TABLE])
def test_hostile_arguments(row):
    """A non-int is refused by name; an int is accepted or refused in one short line, and
    a bounded argument refuses ±10^5000 at once.  Anything else (another exception
    class, a silent acceptance of a non-int, a call still running) fails."""
    assert _refusal_of(row.call, row.valid) is None, "the valid call is refused"
    for name in row.valid:
        for value in HOSTILE:
            where = (row.qualname, name, brief(value))
            error = _refusal_of(row.call, {**row.valid, name: value})
            if value is None and name in row.optional:
                assert error is None, where
                continue
            if not isinstance(value, int) or isinstance(value, bool):
                spoken = row.spoken.get(name, name)
                assert error is not None, where
                assert str(error) == f"{spoken} must be an integer, got {brief(value)}", where
                continue
            if abs(value) == HUGE and name not in row.unbounded:
                assert error is not None, where
            if error is not None:
                text = str(error)
                assert "\n" not in text, where
                assert len(text) < 200 or (row.qualname, name, value) in LONG_LINE_EXEMPT, where


def _integer_parameters():
    """``(qualname, parameter)`` for each parameter annotated ``int`` of every public
    function, class and public method that a lowdeg module defines.  The constructors of
    records (NamedTuples and dataclasses) are left out: they hold results, not arguments."""
    found = set()
    for info in pkgutil.iter_modules(lowdeg.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"lowdeg.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            callables = []
            if inspect.isclass(obj):
                if issubclass(obj, BaseException):
                    continue
                if not (issubclass(obj, tuple) or dataclasses.is_dataclass(obj)):
                    callables.append((name, obj))
                for attr, member in vars(obj).items():
                    if isinstance(member, classmethod):
                        member = member.__func__
                    if not attr.startswith("_") and inspect.isfunction(member):
                        callables.append((f"{name}.{attr}", member))
            elif inspect.isfunction(inspect.unwrap(obj)):
                callables.append((name, obj))
            for qualname, target in callables:
                for param in inspect.signature(target).parameters.values():
                    if param.annotation in ("int", "Optional[int]"):
                        found.add((f"{info.name}.{qualname}", param.name))
    return found


def test_every_integer_parameter_has_a_row():
    params = _integer_parameters()
    covered = {(row.qualname, name) for row in HOSTILE_TABLE for name in row.valid}
    missing = {(q, p) for q, p in params if q not in EXEMPT_CALLABLES} - covered
    assert not missing
    # each exemption names a callable that exists and takes an int
    assert {q for q, _ in params if q in EXEMPT_CALLABLES} == set(EXEMPT_CALLABLES)
    callables = {row.qualname for row in HOSTILE_TABLE} | set(EXEMPT_CALLABLES)
    outcomes = sum(len(row.valid) for row in HOSTILE_TABLE) * len(HOSTILE)
    assert len(callables) >= 40 and outcomes >= 600


# The calls that once ran without end: P^-1 has no point to draw, and over QQ the sampler's
# coordinates in [-9, 9] reach only 2881 quotient points, so 10^5000 or 2882 members never exist.
# The identity basis of P^(10^6) has 10^12 entries: building it ran out of memory.
FORMER_HANGS = [
    (
        "random_point-ambient-minus-1",
        lambda: random_point(_rng(), QQ, -1),
        "ambient must be in [0, 1000000], got -1",
    ),
    (
        "planted_family-count-huge",
        lambda: planted_family(_rng(), QQ, 4, HUGE),
        f"count must be in [3, 1000000], got {HUGE_TEXT}",
    ),
    (
        "planted_family-qq-past-the-plane",
        lambda: planted_family(_rng(), QQ, 4, 2882),
        "at most 2881 members over QQ, the quotient points that can be drawn, got 2882",
    ),
    (
        "full-ambient-max-input",
        lambda: ProjSubspace.full(QQ, 10**6),
        "ambient must be in [0, 999], got 1000000",
    ),
]


@pytest.mark.parametrize(
    "call, text", [row[1:] for row in FORMER_HANGS], ids=[row[0] for row in FORMER_HANGS]
)
def test_former_hangs_are_refused_at_once(call, text):
    error = _refusal_of(call, {})
    assert error is not None and str(error) == text
