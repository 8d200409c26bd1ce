import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowdeg.errors import LowdegError
from lowdeg.numerology import (
    UNBOUNDED,
    castelnuovo_pi,
    genus_bound_main,
    genus_bound_special,
    gonality_bounds,
    riemann_hurwitz_check,
    riemann_hurwitz_min_degree,
    rs_profile,
)


class TestCastelnuovo:
    def test_anchor_values(self):
        assert castelnuovo_pi(20, 12) == 8
        assert castelnuovo_pi(10, 5) == 6  # m = 2, eps = 1
        assert castelnuovo_pi(20, 11) == 9  # m = 1, eps = 9

    def test_rational_normal_curves(self):
        # degree n in P^n: genus 0 (m = 1, eps = 0)
        for n in range(2, 13):
            assert castelnuovo_pi(n, n) == 0

    def test_elliptic_normal_curves(self):
        for n in range(2, 13):
            assert castelnuovo_pi(n + 1, n) == 1

    def test_plane_curves(self):
        # in the plane the bound is the full (delta-1)(delta-2)/2
        for delta in range(1, 12):
            assert castelnuovo_pi(delta, 2) == (delta - 1) * (delta - 2) // 2

    def test_domain_errors(self):
        with pytest.raises(LowdegError):
            castelnuovo_pi(0, 5)
        with pytest.raises(LowdegError):
            castelnuovo_pi(10, 1)

    def test_monotonicity_sampled(self):
        for n in range(2, 13):
            values = [castelnuovo_pi(delta, n) for delta in range(1, 61)]
            assert all(a <= b for a, b in zip(values, values[1:]))
        for delta in range(1, 61):
            values = [castelnuovo_pi(delta, n) for n in range(2, 13)]
            assert all(a >= b for a, b in zip(values, values[1:]))


class TestGenusBoundMain:
    def test_d5(self):
        report = genus_bound_main(5)
        assert (report.m, report.epsilon) == (2, 2)
        assert report.bound_dagger == 11
        assert report.bound_no_dagger == 10
        assert report.overall == 11
        assert report.governing == "dagger"

    def test_d3_overall_is_4(self):
        report = genus_bound_main(3)
        assert report.bound_dagger == 4
        assert report.overall == 4

    def test_d2(self):
        report = genus_bound_main(2)
        assert (report.m, report.epsilon) == (0, 5)
        assert report.bound_dagger == 2
        assert report.bound_no_dagger == 0

    def test_epsilon_window(self):
        for d in range(2, 101):
            report = genus_bound_main(d)
            assert 0 <= report.epsilon < 6

    def test_dagger_bound_closed_form(self):
        for d in range(2, 51):
            assert genus_bound_main(d).bound_dagger == d * (d - 1) // 2 + 1

    def test_governing_crossover(self):
        # the branchless max would hide this: the branches tie at d = 6 and the
        # no-dagger value strictly dominates from d = 7 on
        crossovers = [d for d in range(2, 101) if genus_bound_main(d).governing == "no_dagger"]
        assert crossovers and min(crossovers) == 7
        assert genus_bound_main(6).governing == "tie"
        assert all(genus_bound_main(d).governing == "dagger" for d in range(2, 6))

    def test_overall_is_pointwise_max(self):
        for d in range(2, 101):
            r = genus_bound_main(d)
            assert r.overall == max(r.bound_dagger, r.bound_no_dagger)


class TestOtherGenusBounds:
    def test_non_df_values(self):
        assert genus_bound_main(5).bound_non_df_dagger == 8
        assert genus_bound_main(4).bound_non_df_dagger == 5
        assert genus_bound_main(3).bound_non_df_dagger == 3

    def test_special_values(self):
        assert genus_bound_special(12, 5, 4) == 9
        assert genus_bound_special(1, 2, 2) == 0
        assert genus_bound_special(14, 5, 3) == 9
        with pytest.raises(LowdegError):
            genus_bound_special(0, 5, 4)
        with pytest.raises(LowdegError):
            genus_bound_special(12, 1, 4)


class TestGonalityBounds:
    def test_elliptic_cover(self):
        assert gonality_bounds(4, 7, elliptic_cover=True).airr_based == 8

    def test_df_case(self):
        b = gonality_bounds(4, 7, debarre_fahlaoui=True)
        assert b.airr_based == 7
        assert b.genus_based_geometric == 5
        assert b.genus_based_arithmetic == 12
        assert b.combined == 5

    def test_generic_case(self):
        b = gonality_bounds(3, 4)
        assert b.airr_based == 4
        assert b.genus_based_geometric == 3
        assert b.combined == 3

    def test_elliptic_flag_wins(self):
        assert gonality_bounds(5, 9, elliptic_cover=True, debarre_fahlaoui=True).airr_based == 10

    def test_domain(self):
        with pytest.raises(LowdegError):
            gonality_bounds(1, 5)
        with pytest.raises(LowdegError):
            gonality_bounds(4, 1)


class TestRiemannHurwitz:
    def test_forced_double_cover(self):
        assert riemann_hurwitz_min_degree(1, 4) == 2

    def test_unconstrained(self):
        assert riemann_hurwitz_min_degree(1, 0) == UNBOUNDED
        assert riemann_hurwitz_min_degree(1, 2) == UNBOUNDED
        assert riemann_hurwitz_min_degree(3, 1) == UNBOUNDED

    def test_five_points_force_isomorphism(self):
        assert riemann_hurwitz_min_degree(1, 5) == 1

    def test_three_points(self):
        assert riemann_hurwitz_min_degree(1, 3) == 3

    def test_genus_zero_source(self):
        assert riemann_hurwitz_min_degree(0, 3) == 1
        assert riemann_hurwitz_min_degree(0, 4) == 1

    def test_negative_inputs(self):
        with pytest.raises(LowdegError):
            riemann_hurwitz_min_degree(-1, 4)
        with pytest.raises(LowdegError):
            riemann_hurwitz_min_degree(1, -4)

    def test_check_accepts_consistent_covers(self):
        assert riemann_hurwitz_check(7, 0, 4, 20)
        for g in range(0, 6):
            assert riemann_hurwitz_check(g, g, 1, 0)

    def test_check_rejects_inconsistent_covers(self):
        assert not riemann_hurwitz_check(2, 2, 2, 0)
        assert not riemann_hurwitz_check(7, 0, 4, 19)  # odd excess
        assert not riemann_hurwitz_check(0, 1, 2, -2)  # negative excess

    @given(g_y=st.integers(0, 20), deg=st.integers(1, 20), ram=st.integers(0, 40))
    def test_check_matches_the_formula(self, g_y, deg, ram):
        two_gx = deg * (2 * g_y - 2) + 2 * ram + 2
        if two_gx >= 0 and two_gx % 2 == 0:
            assert riemann_hurwitz_check(two_gx // 2, g_y, deg, 2 * ram)


class TestRsProfile:
    def test_dagger_triangular_numbers(self):
        profile = rs_profile(5, 5, True, 2)
        assert profile.r_lb == (2, 5, 9, 14)
        assert [profile.r(n) for n in range(2, 6)] == [n * (n + 1) // 2 - 1 for n in range(2, 6)]

    def test_no_dagger_floor_at_n3(self):
        assert rs_profile(4, 3, False, 3).rprime(3) == 7

    def test_no_dagger_floor_at_n4(self):
        assert rs_profile(5, 4, False, 3).rprime(4) == 12

    def test_floors_hold_across_the_range(self):
        for d in range(4, 21):
            for r2 in range(3, d + 1):
                profile = rs_profile(d, 4, False, r2)
                assert profile.rprime(3) >= 7
                if d >= 5 and d % 2 == 1:
                    assert profile.rprime(4) >= 12

    def test_recursion_identity(self):
        for d, dagger, r2 in [(5, True, 2), (5, False, 3), (8, True, 4), (9, False, 5)]:
            profile = rs_profile(d, 12, dagger, r2)
            for n in range(3, 13):
                assert profile.r(n) - profile.s(n) == profile.r(n - 1) + 1
                assert profile.rprime(n) - profile.sprime(n) == profile.r(n - 1) + 1

    def test_span_cap(self):
        # rs_profile checks none of this at run time, so every small case is checked here
        for d in range(2, 41):
            for r2 in range(2, d + 1):
                for dagger in (False, True):
                    profile = rs_profile(d, 40, dagger, r2)
                    s_lb, case = profile.s_lb, (d, r2, dagger)
                    assert all(s <= d - 1 for s in s_lb), case
                    assert all(s <= d - 1 for s in profile.sprime_lb), case
                    assert all(a <= b for a, b in zip(s_lb, s_lb[1:])), case
                    assert profile.rprime_lb[1:] == profile.r_lb[1:], case
                    assert profile.sprime_lb[1:] == s_lb[1:], case

    def test_codim_floor(self):
        assert rs_profile(5, 3, True, 2).codim_v_lb == 3

    def test_base_values(self):
        profile = rs_profile(6, 2, False, 4)
        assert profile.r(2) == 4 and profile.s(2) == 3
        assert profile.rprime(2) == 2 and profile.sprime(2) == 1

    def test_domain_errors(self):
        with pytest.raises(LowdegError):
            rs_profile(5, 5, True, 1)
        with pytest.raises(LowdegError):
            rs_profile(5, 5, True, 6)  # r2 cannot exceed d
        with pytest.raises(LowdegError):
            rs_profile(1, 5, True, 2)
        with pytest.raises(LowdegError):
            rs_profile(5, 1, True, 2)

    def test_accessor_range(self):
        profile = rs_profile(5, 4, True, 2)
        with pytest.raises(LowdegError):
            profile.r(5)
        with pytest.raises(LowdegError):
            profile.s(1)

    @settings(max_examples=80)
    @given(
        d=st.integers(2, 30),
        dagger=st.booleans(),
        extra=st.integers(0, 10),
        n_max=st.integers(2, 12),
    )
    def test_profile_invariants_hold_generically(self, d, dagger, extra, n_max):
        r2 = min(2 + extra, d)
        profile = rs_profile(d, n_max, dagger, r2)
        assert profile.codim_v_lb >= 3
        assert all(s <= d - 1 for s in profile.s_lb)
        for n in range(3, n_max + 1):
            assert profile.r(n) - profile.s(n) == profile.r(n - 1) + 1
            assert profile.s(n) >= profile.s(n - 1)
            assert profile.r(n) >= profile.rprime(n)
