import hashlib
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lowdeg.errors import MixedFieldError, brief
from lowdeg.fields import (
    QQ,
    PrimeField,
    RationalField,
    _miller_rabin,
    is_prime,
    require_same_field,
    scalar_from_json,
    scalar_to_json,
)
from lowdeg.jsonio import (
    canonical_dumps,
    point_config_to_json,
    points_from_json,
    subspaces_from_json,
    subspaces_to_json,
)
from lowdeg.plane import PointConfig
from lowdeg.projective import ProjPoint, ProjSubspace, rref


class TestRationalField:
    def test_coerce_canonical(self):
        assert QQ.coerce(Fraction(2, 4)) == Fraction(1, 2)
        assert QQ.coerce(5) == Fraction(5)
        # reduced with positive denominator: equal values are identical representations
        assert Fraction(-2, -4) == Fraction(1, 2)
        assert Fraction(2, -4).denominator > 0

    def test_arithmetic(self):
        a, b = Fraction(1, 2), Fraction(1, 3)
        assert QQ.reduce(a + b) == Fraction(5, 6)
        assert QQ.reduce(a - b) == Fraction(1, 6)
        assert QQ.reduce(a * b) == Fraction(1, 6)
        assert QQ.reduce(-a) == Fraction(-1, 2)
        assert QQ.inv(a) == 2
        with pytest.raises(ZeroDivisionError):
            QQ.inv(QQ.zero)

    def test_inverse_matches_division(self):
        # negative, multi-digit and integral values: swapping the terms keeps
        # the denominator positive, so the inverse is the canonical 1 / a
        rng = random.Random(1000)
        values = []
        for i in range(1000):
            num = rng.choice((1, -1)) * rng.randint(1, 10 ** rng.randint(1, 30))
            den = 1 if i % 4 == 0 else rng.randint(1, 10 ** rng.randint(1, 30))
            values.append(Fraction(num, den))
        assert sum(x < 0 for x in values) > 400
        assert sum(x.denominator == 1 for x in values) >= 250
        assert sum(abs(x.numerator) >= 10 and x.denominator >= 10 for x in values) > 400
        for x in values:
            inverse = QQ.inv(x)
            assert type(inverse) is Fraction and inverse.denominator > 0
            assert inverse == 1 / x
        with pytest.raises(ZeroDivisionError, match="^inverse of zero$"):
            QQ.inv(QQ.zero)

    def test_rejects_foreign_values(self):
        with pytest.raises(MixedFieldError):
            QQ.coerce(0.5)
        with pytest.raises(MixedFieldError):
            QQ.coerce({"val": 1, "mod": 5})
        with pytest.raises(MixedFieldError):
            QQ.coerce(True)

    def test_singleton_equality(self):
        assert QQ == RationalField()
        assert QQ != PrimeField(5)


def test_same_field_is_equality_not_identity():
    # one field object returns at once; distinct but equal objects still pass,
    # and unequal fields are refused with the same text
    gf5 = PrimeField(5)
    for a, b in ((gf5, gf5), (gf5, PrimeField(5)), (QQ, QQ), (QQ, RationalField())):
        assert require_same_field(a, b) is a
    for a, b, text in (
        (gf5, PrimeField(7), "cannot mix values from GF(5) and GF(7)"),
        (QQ, gf5, "cannot mix values from QQ and GF(5)"),
    ):
        with pytest.raises(MixedFieldError) as info:
            require_same_field(a, b)
        assert str(info.value) == text


class TestPrimeField:
    def test_validation(self):
        PrimeField(2)
        PrimeField(3)
        PrimeField(2147483647)  # largest prime below 2**31
        with pytest.raises(MixedFieldError):
            PrimeField(4)
        with pytest.raises(MixedFieldError):
            PrimeField(1)
        with pytest.raises(MixedFieldError):
            PrimeField(2**31 + 11)

    def test_arithmetic_mod_7(self):
        gf = PrimeField(7)
        assert (gf.zero, gf.one) == (0, 1)
        assert gf.reduce(5 + 4) == 2
        assert gf.reduce(2 - 6) == 3
        assert gf.reduce(3 * 5) == 1
        assert gf.inv(3) == 5
        assert gf.reduce(-2) == 5
        with pytest.raises(ZeroDivisionError):
            gf.inv(0)

    def test_coerce(self):
        gf = PrimeField(5)
        assert gf.coerce(-1) == 4
        assert gf.coerce(Fraction(7)) == 2
        with pytest.raises(MixedFieldError):
            gf.coerce(Fraction(1, 2))

    @given(a=st.integers(), b=st.integers(), c=st.integers())
    def test_field_axioms_gf101(self, a, b, c):
        gf = PrimeField(101)
        a, b, c = gf.coerce(a), gf.coerce(b), gf.coerce(c)
        assert all(0 <= gf.reduce(x) < 101 for x in (a + b, a - b, a * b, -a))
        assert gf.reduce(gf.reduce(a + b) + c) == gf.reduce(a + gf.reduce(b + c))
        assert gf.reduce(gf.reduce(a * b) * c) == gf.reduce(a * gf.reduce(b * c))
        assert gf.reduce(a * gf.reduce(b + c)) == gf.reduce(gf.reduce(a * b) + gf.reduce(a * c))
        assert gf.reduce(a + gf.reduce(-a)) == gf.zero
        if not gf.is_zero(a):
            assert gf.reduce(a * gf.inv(a)) == gf.one



def _ratio_entry(rng, field):
    """One numerator or denominator of a ``ratios`` batch: unreduced, often zero
    in the field, negative or past the modulus.  Over QQ it is a Fraction, which
    ``ratios`` takes beside the ints that the Sylvester-Gallai pass gives it."""
    if field == QQ:
        kind = rng.randrange(4)
        if kind == 0:
            return Fraction(0)
        num = rng.choice((1, -1)) * rng.randint(1, 10 ** rng.randint(1, 20))
        return Fraction(num, 1 if kind == 1 else rng.randint(1, 10 ** rng.randint(1, 20)))
    p = field.p
    kind = rng.randrange(5)
    if kind == 0:
        return rng.randint(-3, 3) * p  # zero in the field, the nonzero multiples too
    if kind == 1:
        return rng.randrange(p)
    if kind == 2:
        return -rng.randrange(1, p + 1)
    if kind == 3:
        return rng.randrange(p, p * p + p)  # a product of two representatives
    return rng.randrange(-(p**2), p**2)


def test_ratios_match_per_pair_division():
    # each batch against reduce(n * inv(d)) pair by pair, None where d is zero in
    # the field: the empty batch, batches of one, all-zero batches and mixed ones
    rng = random.Random(2323)
    for field in (QQ, PrimeField(2), PrimeField(3), PrimeField(101), PrimeField(2**31 - 1)):
        answers = Counter()
        batches = [([], []), ([field.one], [field.zero]), ([field.zero], [field.one])]
        for length in (1, 1, 1, 5, *(rng.randint(2, 60) for _ in range(40))):
            nums = [_ratio_entry(rng, field) for _ in range(length)]
            dens = [_ratio_entry(rng, field) for _ in range(length)]
            batches.append((nums, dens))
            batches.append((nums, [d * 0 for d in dens]))  # all zero
        if field != QQ:
            p = field.p
            batches.append(([1, -p, 2 * p + 1], [p, -5 * p, 0]))  # zero as any multiple of p
        for nums, dens in batches:
            got = field.ratios(nums, dens)
            expected = [
                None if field.is_zero(d) else field.reduce(n * field.inv(d))
                for n, d in zip(nums, dens)
            ]
            assert got == expected, (field, nums, dens)
            for answer in got:
                if answer is not None:
                    assert type(answer) is type(field.one) and field.coerce(answer) == answer
                answers[answer is None] += 1
        assert answers[True] >= 1000 and answers[False] >= 400, (field, answers)


def test_integral_rows():
    # over QQ: the row scaled by the lcm of its denominators is ints, the same
    # point (equal rref), primitive when it leads with 1 as a point does, and
    # divides pair by pair into the same ratios as the Fractions it came from;
    # over GF(p): the row object itself
    rng = random.Random(3434)
    leads_seen = Counter()
    for trial in range(300):
        width = rng.randint(1, 6)
        raw = []
        for _ in range(width):
            digits = rng.randint(1, 12)
            if rng.randrange(4) == 0:
                raw.append(Fraction(0))
            else:
                num = rng.choice((1, -1)) * rng.randint(1, 10**digits)
                raw.append(Fraction(num, 1 if trial % 5 == 0 else rng.randint(1, 10**digits)))
        if not any(raw):
            continue
        point = ProjPoint(QQ, raw).coords
        for row in (raw, point):
            integral = QQ.integral(row)
            assert all(type(x) is int for x in integral)
            assert rref([integral], QQ) == rref([row], QQ)
            assert QQ.ratios(integral[1:], integral[:-1]) == QQ.ratios(row[1:], row[:-1])
        integral = QQ.integral(point)
        lead = next(x for x in integral if x)
        assert lead == math.lcm(*(x.denominator for x in point))
        assert math.gcd(*integral) == 1
        leads_seen[lead == 1] += 1
    assert min(leads_seen.values()) >= 40, leads_seen
    for p in (2, 101, 2**31 - 1):
        field = PrimeField(p)
        for row in ((0, 1, p - 1), [1, 0, 0], (rng.randrange(p),)):
            assert field.integral(row) is row


def test_is_prime_small_values():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def _sieve(low, high):
    """Flags for n in [low, high): 1 exactly when n is prime, by striking out
    the multiples of every prime up to the square root (trial division, in bulk)."""
    root = math.isqrt(high - 1)
    small = bytearray([1]) * (root + 1)
    flags = bytearray([1]) * (high - low)
    for n in range(max(0, 2 - low)):
        flags[n] = 0
    for f in range(2, root + 1):
        if small[f]:
            small[f * f :: f] = bytes(len(range(f * f, root + 1, f)))
            start = max(f * f, -(-low // f) * f)
            flags[start - low :: f] = bytes(len(range(start, high, f)))
    return flags


def test_is_prime_matches_trial_division():
    flags = _sieve(0, 2 * 10**5)
    assert all(is_prime(n) == flags[n] for n in range(2 * 10**5))
    low = 2**31 - 10**6
    flags = _sieve(low, 2**31)
    sample = random.Random(31).sample(range(low, 2**31), 2000)
    verdicts = [is_prime(n) for n in sample]
    assert verdicts == [bool(flags[n - low]) for n in sample]
    assert 50 <= sum(verdicts) <= 150  # about one in 21 is prime
    # strong pseudoprimes to bases 2; 2 and 3; and 2, 3 and 5
    assert not any(is_prime(n) for n in (2047, 1373653, 25326001))


def test_is_prime_refuses_past_its_exact_range():
    # 3 215 031 751 = 151 x 751 x 28351 passes bases 2, 3, 5 and 7, so it and
    # every larger n are refused; the prime just below it is still answered
    assert is_prime(2**31 - 1) and is_prime(3_215_031_749)
    with pytest.raises(ValueError):
        is_prime(3_215_031_751)


def test_primality_is_tested_once_per_modulus():
    _miller_rabin.cache_clear()
    for val in range(200):
        field, value = scalar_from_json({"val": val, "mod": 2147483647})
        assert field.p == 2147483647 and value == val
    info = _miller_rabin.cache_info()
    assert info.misses == 1 and info.hits == 199


class TestScalarJson:
    def test_rational_strings(self):
        assert scalar_to_json(QQ, Fraction(5)) == "5"
        assert scalar_to_json(QQ, Fraction(-3, 2)) == "-3/2"
        field, value = scalar_from_json("-3/2")
        assert field == QQ and value == Fraction(-3, 2)
        field, value = scalar_from_json(7)
        assert field == QQ and value == Fraction(7)

    def test_prime_field_objects(self):
        gf = PrimeField(5)
        assert scalar_to_json(gf, 3) == {"val": 3, "mod": 5}
        field, value = scalar_from_json({"val": 8, "mod": 5})
        assert field == gf and value == 3

    def test_malformed(self):
        for raw in ("not-a-number", "1.5", "1_0", "1e400000", "+1", " 1", "1/0"):
            with pytest.raises(MixedFieldError):
                scalar_from_json(raw)
        with pytest.raises(MixedFieldError):
            scalar_from_json({"val": 1})
        with pytest.raises(MixedFieldError):
            scalar_from_json(1.5)

    def test_rational_strings_parse_as_fraction_does(self):
        # the reader builds the value from its own match: values, messages and the
        # cause of each failure must be those of Fraction(raw)
        rng = random.Random(20261019)
        limit = sys.get_int_max_str_digits()

        def digits(n):
            return "".join(rng.choices("0123456789", k=n))

        def term():
            return "0" * rng.randint(0, 3) + digits(rng.choice((1, 3, 20, limit - 3)))

        kinds = Counter()
        for _ in range(600):
            kind = rng.choice(("valid", "zero denominator", "over-long"))
            sign = rng.choice(("", "-"))
            if kind == "valid":
                raw = sign + term() + rng.choice(("", "/" + "0" * rng.randint(0, 2) + "1" + digits(2)))
            elif kind == "zero denominator":
                raw = f"{sign}{term()}/{'0' * rng.randint(1, 3)}"
            else:
                long = digits(limit) + "1"
                raw = rng.choice((f"{sign}{long}", f"{sign}{term()}/{long}", f"{sign}{long}/7"))
            try:
                expected = Fraction(raw)
            except (ValueError, ZeroDivisionError) as exc:
                with pytest.raises(MixedFieldError) as info:
                    scalar_from_json(raw)
                assert str(info.value) == f"malformed rational {brief(raw)}"
                assert type(info.value.__cause__) is type(exc)
                kinds[kind, type(exc).__name__] += 1
            else:
                field, value = scalar_from_json(raw)
                assert field == QQ and type(value) is Fraction
                assert (value.numerator, value.denominator) == (
                    expected.numerator, expected.denominator
                )
                kinds[kind, "value"] += 1
        assert scalar_from_json("-0") == (QQ, Fraction(0))
        assert scalar_from_json("-007/010") == (QQ, Fraction(-7, 10))
        assert set(kinds) == {
            ("valid", "value"),
            ("zero denominator", "ZeroDivisionError"),
            ("over-long", "ValueError"),
        }
        assert min(kinds.values()) >= 150, kinds

    @given(num=st.integers(-10**6, 10**6), den=st.integers(1, 10**6))
    def test_round_trip(self, num, den):
        value = Fraction(num, den)
        field, parsed = scalar_from_json(scalar_to_json(QQ, value))
        assert field == QQ and parsed == value


def test_document_writers_round_trip_and_are_pinned():
    """The writers of point configurations and families, which the benchmark uses for its
    input files: each document reads back to the rows it was written from, and its
    canonical bytes are pinned by SHA-256."""
    gf = PrimeField(101)
    # a fraction, and a point at infinity of the affine plane z != 0
    qq_config = PointConfig(tuple(ProjPoint(QQ, c) for c in [(0, 0, 1), (3, 1, 2), (1, -1, 0)]))
    gf_config = PointConfig(tuple(ProjPoint(gf, c) for c in [(1, 5, 100), (0, 1, 7), (1, 0, 0)]))
    family = [
        ProjSubspace.from_vectors(QQ, 3, [[1, 2, 0, 0], [0, 1, 1, 3]]),
        ProjSubspace.from_vectors(QQ, 3, [[2, 0, 1, 1]]),
    ]
    for config in (qq_config, gf_config):
        assert points_from_json(point_config_to_json(config)) == (
            config.field, [list(p.coords) for p in config.points]
        )
    assert subspaces_from_json(subspaces_to_json(family)) == (
        QQ, [(s.ambient, [list(row) for row in s.rows]) for s in family]
    )
    docs = (point_config_to_json(qq_config), point_config_to_json(gf_config), subspaces_to_json(family))
    digests = [hashlib.sha256(canonical_dumps(doc).encode()).hexdigest() for doc in docs]
    assert digests == [
        "1b9fcd08a3510de155b4f9ecfb2ad3fdcf272d88e0fdfbd2a8a6dfc846c475bb",
        "1703f2e07e4f802f28e02c26718f897a2ccf0b81987f494f3e34c4bfeb33d1c2",
        "cd7de6e53974425efc0058e75bfb4cd5aef1734241422813845f6c502f5b94fa",
    ]
