"""The integer-argument contract, stated once: ``INT_PARAMETERS`` holds one row per
integer parameter of every public entry point, with a call that varies only that
parameter, a valid value, its ``errors.check_int`` range and exception class, and the
flags of the hostile sweep.  ``test_check_int_rule`` checks each row's range at its
edges, ``test_hostile_arguments`` meets each row with hostile values, and
``test_every_integer_parameter_has_a_row`` fails when a public int parameter has no
row.  ``SLOW_TOP_EDGES`` lists the rows whose accepted top edge is not probed yet.
Also ``errors.brief``, which must quote every value in one short line."""

import contextlib
import dataclasses
import importlib
import inspect
import math
import pkgutil
import random
import signal
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

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
M = MAX_INPUT
SUBSPACE_MEMBERS = [(4, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]])]


def _rng():
    return random.Random(0)


def _profile():
    # built per call, so that a mutant of check_int fails the rows, not the collection
    return rs_profile(5, 4, True, 2)


class Row(NamedTuple):
    """One integer parameter ``name`` of the entry point ``qualname``.  ``call(v)`` passes
    v as that parameter and valid values for the others, cheaply at both edges of its
    range; ``call(valid)`` passes the parameter's rule.  ``low`` and ``high`` are the
    bounds that ``check_int`` gives it (None: not checked) and ``error`` its class.
    ``unbounded``: it may take any int, so may accept ±10^5000; every other parameter
    refuses it.  ``optional``: None means "not given".  ``spoken``: the name that its
    messages give it, when not ``name``.  The test id is ``qualname`` past its module,
    a dash and the spoken name, or ``id`` when given."""

    qualname: str
    name: str
    call: Callable
    valid: int
    low: Optional[int] = None
    high: Optional[int] = None
    error: type = LowdegError
    unbounded: bool = False
    optional: bool = False
    spoken: Optional[str] = None
    id: Optional[str] = None


INT_PARAMETERS = [
    # classify's own range, 2 <= d <= 5, has its own message
    Row("classify.classify", "d", classify, 3),
    Row("classify.classification_json", "d", classification_json, 3),
    Row("classify.sporadic_genus_cap", "d", sporadic_genus_cap, 4, 2, M),
    Row("classify.audit", "d", audit, 3),
    Row("classify.audit_json", "d", audit_json, 3),
    Row("fields.PrimeField", "p", PrimeField, 101, error=MixedFieldError, spoken="modulus"),
    Row("fields.is_prime", "n", is_prime, 7, unbounded=True),
    # document fields, not parameters: the readers check them like parameters
    Row("jsonio.points_from_json", "ambient", lambda v: points_from_json({"ambient": v, "points": [["1"]]}),
        0, 0, M, optional=True),
    Row("jsonio.subspaces_from_json", "ambient",
        lambda v: subspaces_from_json({"subspaces": [{"ambient": v, "rows": [["1"]]}]}), 0, 0, M),
    Row("lemma52.random_point", "ambient", lambda v: random_point(_rng(), QQ, v), 3, 0, M),
    # dim -1 draws nothing, so the ambient edge costs no P^1000000 vector
    Row("lemma52.random_subspace", "ambient", lambda v: random_subspace(_rng(), QQ, v, -1), 4, 0, M),
    Row("lemma52.random_subspace", "dim", lambda v: random_subspace(_rng(), QQ, 3, v), 1, -1, 3),
    # charge_random runs the family-shape check of planted_family without drawing a family
    Row("lemma52.charge_random", "ambient", lambda v: charge_random(GF101, v, 3, 1, NO_LIMIT),
        4, 3, M, ConfigurationError, id="family-ambient"),
    Row("lemma52.charge_random", "count", lambda v: charge_random(GF101, 3, v, 1, NO_LIMIT),
        4, 3, M, ConfigurationError, id="family-count"),
    Row("lemma52.charge_random", "trials", lambda v: charge_random(GF101, 3, 3, v, NO_LIMIT),
        10, 0, M, InputError),
    Row("lemma52.charge_random", "limit", lambda v: charge_random(GF101, 3, 3, 1, v),
        5_000_000, 0, None, InputError, unbounded=True),
    Row("lemma52.charge_input", "limit", lambda v: charge_input(GF101, SUBSPACE_MEMBERS, v),
        5_000_000, 0, None, InputError, unbounded=True),
    Row("lemma52.planted_family", "ambient", lambda v: planted_family(_rng(), QQ, v, 4),
        4, 3, M, ConfigurationError),
    Row("lemma52.planted_family", "count", lambda v: planted_family(_rng(), QQ, 4, v),
        4, 3, M, ConfigurationError),
    Row("lemma52.random_common_subspace_instance", "ambient",
        lambda v: random_common_subspace_instance(_rng(), QQ, v, 4), 4, 3, M, ConfigurationError),
    Row("lemma52.random_common_subspace_instance", "count",
        lambda v: random_common_subspace_instance(_rng(), QQ, 4, v), 4, 3, M, ConfigurationError),
    Row("numerology.castelnuovo_pi", "delta", lambda v: castelnuovo_pi(v, 3), 20, 1, M),
    Row("numerology.castelnuovo_pi", "n", lambda v: castelnuovo_pi(5, v), 12, 2, M),
    Row("numerology.genus_bound_main", "d", genus_bound_main, 5, 2, M),
    # e + 2d and 2r + 1 stay within MAX_INPUT, so d's bound follows e
    Row("numerology.genus_bound_special", "e", lambda v: genus_bound_special(v, 2, 1), 3, 1, M - 2),
    Row("numerology.genus_bound_special", "r", lambda v: genus_bound_special(3, v, 2), 2, 2, (M - 1) // 2),
    Row("numerology.genus_bound_special", "d", lambda v: genus_bound_special(3, 2, v), 2, 1, (M - 3) // 2),
    Row("numerology.gonality_bounds", "d", lambda v: gonality_bounds(v, 7), 5, 2, M),
    Row("numerology.gonality_bounds", "g", lambda v: gonality_bounds(5, v), 7, 2, M),
    Row("numerology.riemann_hurwitz_min_degree", "g_base", lambda v: riemann_hurwitz_min_degree(v, 4),
        1, 0, M, id="rh_min_degree-g_base"),
    Row("numerology.riemann_hurwitz_min_degree", "total_ram_points",
        lambda v: riemann_hurwitz_min_degree(1, v), 4, 0, M, id="rh_min_degree-total_ram_points"),
    Row("numerology.riemann_hurwitz_check", "g_x", lambda v: riemann_hurwitz_check(v, 1, 2, 0),
        2, 0, M, id="rh_check-g_x"),
    Row("numerology.riemann_hurwitz_check", "g_y", lambda v: riemann_hurwitz_check(2, v, 2, 0),
        1, 0, M, id="rh_check-g_y"),
    Row("numerology.riemann_hurwitz_check", "degree", lambda v: riemann_hurwitz_check(2, 1, v, 0),
        2, 1, M, id="rh_check-degree"),
    Row("numerology.riemann_hurwitz_check", "ram_excess", lambda v: riemann_hurwitz_check(2, 1, 2, v),
        0, unbounded=True, id="rh_check-ram_excess"),
    Row("numerology.ConfigProfile.r", "n", lambda v: _profile().r(v), 3, 2, 4, id="ConfigProfile-n"),
    Row("numerology.ConfigProfile.s", "n", lambda v: _profile().s(v), 3, 2, 4),
    Row("numerology.ConfigProfile.rprime", "n", lambda v: _profile().rprime(v), 3, 2, 4),
    Row("numerology.ConfigProfile.sprime", "n", lambda v: _profile().sprime(v), 3, 2, 4),
    Row("numerology.rs_profile", "d", lambda v: rs_profile(v, 4, True, 2), 5, 2, M),
    # r2 = 3 > d = 2 is refused after the argument checks, so the n_max edge runs no recursion
    Row("numerology.rs_profile", "n_max", lambda v: rs_profile(2, v, True, 3), 4, 2, M),
    Row("numerology.rs_profile", "r2", lambda v: rs_profile(5, 4, True, v), 2, 2, M),
    Row("plane.collinear", "i", lambda v: collinear(HESSE, v, 1, 2), 0, 0, 8),
    Row("plane.collinear", "j", lambda v: collinear(HESSE, 0, v, 2), 1, 0, 8),
    Row("plane.collinear", "k", lambda v: collinear(HESSE, 0, 1, v), 2, 0, 8),
    Row("plane.charge_sylvester_gallai", "limit", lambda v: charge_sylvester_gallai(HESSE, v),
        10**9, 0, None, InputError, unbounded=True, id="charge_sg-limit"),
    Row("projective.ProjSubspace", "ambient", lambda v: ProjSubspace(QQ, v, ()), 3, 0, M),
    Row("projective.ProjSubspace.from_vectors", "ambient", lambda v: ProjSubspace.from_vectors(QQ, v, []),
        3, 0, M, id="from_vectors-ambient"),
    Row("projective.ProjSubspace.empty", "ambient", lambda v: ProjSubspace.empty(QQ, v),
        3, 0, M, id="empty-ambient"),
    # the identity basis holds at most MAX_INPUT entries
    Row("projective.ProjSubspace.full", "ambient", lambda v: ProjSubspace.full(QQ, v), 3, 0, 999),
    Row("projective.span", "ambient", lambda v: span([ProjPoint(QQ, (1, 0))], ambient=v),
        1, 0, M, optional=True),
    Row("sym2_lattice.SurfaceClass", "a", lambda v: SurfaceClass(v, 1), 1, unbounded=True),
    Row("sym2_lattice.SurfaceClass", "b", lambda v: SurfaceClass(1, v), 2, unbounded=True),
    # d has a floor and no ceiling, and m's range, 1 <= m <= d, has its own message
    Row("sym2_lattice.DFParams", "d", lambda v: DFParams(v, 1), 3, 2, unbounded=True),
    Row("sym2_lattice.DFParams", "m", lambda v: DFParams(3, v), 1, unbounded=True),
    Row("sym2_pairs.Sym2GroupModel", "modulus", Sym2GroupModel, 7, 5, M, ConfigurationError),
    Row("sym2_pairs.sym2_model", "modulus", sym2_model, 7, 5, M, ConfigurationError),
    Row("sym2_pairs.pairs_containing", "x", lambda v: pairs_containing(sym2_model(7), v), 1, unbounded=True),
    Row("sym2_pairs.pairs_with_sum", "s", lambda v: pairs_with_sum(sym2_model(7), v), 1, unbounded=True),
]


def _spoken(row):
    return row.spoken or row.name


def _test_id(row):
    return row.id or f"{row.qualname.split('.', 1)[1]}-{_spoken(row)}"


# The rows whose call at the top edge does not end, or takes seconds: the samplers draw
# a vector of ambient + 1 coordinates.  Their accept-at-top-edge probe is skipped.
SLOW_TOP_EDGES = {
    key: "bounded in time by ROADMAP.md item 4 (every accepted library call ends in bounded "
    "time), which then removes the key"
    for key in (
        ("lemma52.random_point", "ambient"),
        ("lemma52.planted_family", "ambient"),
        ("lemma52.random_common_subspace_instance", "ambient"),
    )
}

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


def _refusal_of(call, *args):
    """The lowdeg error the call raises within the time bound, or None when it returns."""
    with _time_bound():
        try:
            call(*args)
        except (LowdegError, InputError) as exc:
            return exc
    return None


def _refusal(call, value, error):
    """The text of the refusal of ``call(value)``, which must be of class ``error``."""
    exc = _refusal_of(call, value)
    assert type(exc) is error
    return str(exc)


def _accepts(call, name, value):
    """True unless the call refuses ``value`` by the named argument's rule; a later
    check of the same call (r2 > d, a row length, a work rule) may still fail."""
    exc = _refusal_of(call, value)
    return exc is None or not str(exc).startswith(f"{name} must")


@pytest.mark.parametrize("row", INT_PARAMETERS, ids=[_test_id(row) for row in INT_PARAMETERS])
def test_check_int_rule(row):
    """Every parameter refuses a bool and a float, accepts both edges of its range (its
    valid value when it has none), and refuses one past each edge (and an int too long to
    print) with the exact text."""
    call, name, low, high, error = row.call, _spoken(row), row.low, row.high, row.error
    for value in (True, 2.0):
        assert _refusal(call, value, error) == f"{name} must be an integer, got {value!r}"
    if low is None:
        assert _accepts(call, name, row.valid)
        return
    rule = f"be at least {low}" if high is None else f"be in [{low}, {high}]"
    assert _accepts(call, name, low)
    assert _refusal(call, low - 1, error) == f"{name} must {rule}, got {low - 1}"
    assert _refusal(call, -HUGE, error) == f"{name} must {rule}, got {HUGE_TEXT}"
    if high is not None:
        if (row.qualname, row.name) not in SLOW_TOP_EDGES:
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


# The ranges that check_int does not state, and long strings; test_check_int_rule
# quotes ±10^5000 against every check_int range.
DEFECT_CALLS = [
    ("classify-huge", lambda: classify(HUGE), LowdegError),
    ("DFParams-huge", lambda: DFParams(3, HUGE), LowdegError),
    ("PrimeField-huge", lambda: PrimeField(HUGE), MixedFieldError),
    ("scalar_from_json-huge", lambda: scalar_from_json({"val": 1, "mod": HUGE}), MixedFieldError),
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


# Each row meets these values in turn, the non-ints first.
HOSTILE = (True, 2.0, None, "x", Fraction(1, 2), [1], math.nan, -1, 0, HUGE, -HUGE)


@pytest.mark.parametrize("qualname", list(dict.fromkeys(row.qualname for row in INT_PARAMETERS)))
def test_hostile_arguments(qualname):
    """Each integer parameter of the entry point, in turn: a non-int is refused by name;
    an int is accepted or refused in one short line, and a bounded argument refuses
    ±10^5000 at once.  Anything else (another exception class, a silent acceptance of a
    non-int, a call still running) fails."""
    for row in INT_PARAMETERS:
        if row.qualname != qualname:
            continue
        spoken = _spoken(row)
        assert _accepts(row.call, spoken, row.valid), (qualname, row.name, "the valid value")
        for value in HOSTILE:
            where = (qualname, row.name, brief(value))
            error = _refusal_of(row.call, value)
            if value is None and row.optional:
                assert error is None, where
                continue
            if not isinstance(value, int) or isinstance(value, bool):
                assert error is not None, where
                assert str(error) == f"{spoken} must be an integer, got {brief(value)}", where
                continue
            if abs(value) == HUGE and not row.unbounded:
                assert error is not None, where
            if error is not None:
                text = str(error)
                assert "\n" not in text, where
                assert len(text) < 200 or (qualname, row.name, value) in LONG_LINE_EXEMPT, where


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
    covered = {(row.qualname, row.name) for row in INT_PARAMETERS}
    assert len(covered) == len(INT_PARAMETERS), "a parameter has two rows"
    missing = {(q, p) for q, p in params if q not in EXEMPT_CALLABLES} - covered
    assert not missing
    # each exemption names a callable that exists and takes an int, or a row with a top edge
    assert {q for q, _ in params if q in EXEMPT_CALLABLES} == set(EXEMPT_CALLABLES)
    assert set(SLOW_TOP_EDGES) <= {(r.qualname, r.name) for r in INT_PARAMETERS if r.high is not None}
    callables = {row.qualname for row in INT_PARAMETERS} | set(EXEMPT_CALLABLES)
    assert len(callables) >= 40 and len(INT_PARAMETERS) * len(HOSTILE) >= 600


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
    error = _refusal_of(call)
    assert error is not None and str(error) == text
