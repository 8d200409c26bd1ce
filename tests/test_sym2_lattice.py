import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowdeg.errors import LowdegError
from lowdeg.numerology import genus_bound_main
from lowdeg.sym2_lattice import (
    DFParams,
    SurfaceClass,
    adjunction_genus,
    canonical_class,
    df_class,
    df_genus,
    df_gonality_guard,
    fiber_class,
    is_effective,
    is_nef,
    pair,
    section_class,
)

H = section_class()
F = fiber_class()
K = canonical_class()

small = st.integers(-50, 50)


class TestPairing:
    def test_generator_table(self):
        assert pair(H, H) == 1
        assert pair(H, F) == 1
        assert pair(F, F) == 0

    def test_canonical_class(self):
        assert K == SurfaceClass(-2, 1)
        assert pair(K, F) == -2
        assert pair(K, K) == 0
        assert pair(K, H) == -1

    @given(a1=small, b1=small, a2=small, b2=small)
    def test_symmetry(self, a1, b1, a2, b2):
        c1, c2 = SurfaceClass(a1, b1), SurfaceClass(a2, b2)
        assert pair(c1, c2) == pair(c2, c1)

    @settings(max_examples=150)
    @given(a1=small, b1=small, a2=small, b2=small, a3=small, b3=small)
    def test_bilinearity(self, a1, b1, a2, b2, a3, b3):
        c1, c2, c3 = SurfaceClass(a1, b1), SurfaceClass(a2, b2), SurfaceClass(a3, b3)
        assert pair(c1 + c2, c3) == pair(c1, c3) + pair(c2, c3)
        assert pair(3 * c1, c2) == 3 * pair(c1, c2)

    def test_pairing_expands_on_generators(self):
        # a1*a2*H.H + (a1*b2 + a2*b1)*H.F + b1*b2*F.F, with the table above
        for a1, b1, a2, b2 in [(2, -1, 3, 5), (0, 4, 7, -2)]:
            expected = a1 * a2 * 1 + (a1 * b2 + a2 * b1) * 1 + b1 * b2 * 0
            assert pair(SurfaceClass(a1, b1), SurfaceClass(a2, b2)) == expected


class TestCones:
    def test_generators_and_boundary(self):
        assert is_effective(H)
        assert is_effective(F)
        assert is_effective(SurfaceClass(0, 0))
        assert is_effective(SurfaceClass(2, -1))  # boundary: a + 2b = 0

    def test_outside(self):
        assert not is_effective(SurfaceClass(1, -1))
        assert not is_effective(SurfaceClass(-1, 5))

    @given(a=small, b=small)
    def test_nef_equals_effective(self, a, b):
        c = SurfaceClass(a, b)
        assert is_nef(c) == is_effective(c) == (a >= 0 and a + 2 * b >= 0)


class TestAdjunction:
    def test_fiber_is_rational(self):
        assert adjunction_genus(F) == 0

    def test_section_is_elliptic(self):
        assert adjunction_genus(H) == 1

    def test_df41(self):
        assert adjunction_genus(SurfaceClass(5, -1)) == 7

    def test_integrality_exhaustive(self):
        for a in range(-50, 51):
            for b in range(-50, 51):
                c = SurfaceClass(a, b)
                total = pair(c, c) + pair(c, K)
                assert total % 2 == 0
                assert total == (a - 1) * (a + 2 * b)  # the even closed form


class TestDebarreFahlaoui:
    def test_class_41(self):
        assert df_class(DFParams(4, 1)) == SurfaceClass(5, -1)

    def test_m_range_validation(self):
        with pytest.raises(LowdegError):
            DFParams(4, 0)
        with pytest.raises(LowdegError):
            DFParams(4, 5)
        with pytest.raises(LowdegError):
            DFParams(1, 1)

    def test_degree_against_sections(self):
        for d in range(2, 31):
            for m in range(1, d + 1):
                assert pair(df_class(DFParams(d, m)), H) == d

    def test_degree_against_fibers(self):
        for d in range(2, 31):
            for m in range(1, d + 1):
                assert pair(df_class(DFParams(d, m)), F) == d + m

    def test_always_effective(self):
        for d in range(2, 31):
            for m in range(1, d + 1):
                assert is_effective(df_class(DFParams(d, m)))

    def test_genus_closed_form(self):
        for d in range(2, 51):
            for m in range(1, d + 1):
                assert df_genus(DFParams(d, m)) == 1 + d * (d - 1) // 2 - m * (m - 1) // 2

    def test_genus_anchors(self):
        assert df_genus(DFParams(4, 1)) == 7
        assert df_genus(DFParams(4, 4)) == 1
        for d in range(2, 31):
            assert df_genus(DFParams(d, 1)) == 1 + d * (d - 1) // 2

    def test_gonality_guard(self):
        assert df_gonality_guard(DFParams(5, 2))
        assert not df_gonality_guard(DFParams(4, 2))  # boundary m = d/2
        assert df_gonality_guard(DFParams(4, 1))

    def test_guarded_classes_are_effective(self):
        for d in range(2, 31):
            for m in range(1, d + 1):
                if 2 * m < d:
                    params = DFParams(d, m)
                    assert df_gonality_guard(params)
                    assert is_effective(df_class(params))


def test_cross_module_dagger_ceiling_is_max_df_genus():
    for d in range(2, 101):
        assert df_genus(DFParams(d, 1)) == genus_bound_main(d).bound_dagger


def test_surface_class_requires_ints():
    with pytest.raises(LowdegError):
        SurfaceClass(1.5, 0)
    with pytest.raises(LowdegError):
        SurfaceClass(1, True)


def test_values_compare_hash_and_print_their_fields():
    c, params = SurfaceClass(5, -1), DFParams(4, 1)
    assert repr(c) == "SurfaceClass(a=5, b=-1)" and repr(params) == "DFParams(d=4, m=1)"
    assert hash(c) == hash((5, -1)) and hash(params) == hash((4, 1))
    assert c == df_class(params) and c != (5, -1) and params != SurfaceClass(4, 1)
