import json
from pathlib import Path

import pytest

import lowdeg.classify as classify_module
from lowdeg.classify import (
    KIND_COVER_ELLIPTIC,
    KIND_COVER_P1,
    KIND_DF,
    KIND_PLANE_QUARTIC,
    KIND_SPORADIC,
    audit,
    audit_json,
    classification_json,
    classify,
    sporadic_genus_cap,
)
from lowdeg.errors import LowdegError
from lowdeg.jsonio import canonical_dumps
from lowdeg.numerology import castelnuovo_pi, genus_bound_main

FIXTURE = Path(__file__).parent / "data" / "classification_table.json"


def kinds(d, arithmetic):
    return [c.kind for c in classify(d, arithmetic)]


def sporadic_genera(d, arithmetic=True):
    return [c.params["genus"] for c in classify(d, arithmetic) if c.kind == KIND_SPORADIC]


class TestClassify:
    def test_d2_is_covers_only(self):
        for arithmetic in (True, False):
            assert kinds(2, arithmetic) == [KIND_COVER_P1, KIND_COVER_ELLIPTIC]

    def test_positive_rank_only_in_arithmetic_mode(self):
        arith = classify(2, True)[1]
        geo = classify(2, False)[1]
        assert arith.params["requires_positive_rank"] is True
        assert geo.params["requires_positive_rank"] is False

    def test_d3_geometric(self):
        assert kinds(3, False) == [KIND_COVER_P1, KIND_COVER_ELLIPTIC]

    def test_d3_arithmetic(self):
        assert kinds(3, True) == [
            KIND_COVER_P1,
            KIND_COVER_ELLIPTIC,
            KIND_DF,
            KIND_PLANE_QUARTIC,
        ]
        quartic = classify(3, True)[-1]
        assert quartic.params == {"genus": 3}
        df = classify(3, True)[2]
        assert df.params["genus_max"] == 4

    def test_d4_cells(self):
        assert kinds(4, False) == [KIND_COVER_P1, KIND_COVER_ELLIPTIC, KIND_DF]
        assert sporadic_genera(4) == [4, 5]

    def test_d5_cells(self):
        assert kinds(5, False) == [KIND_COVER_P1, KIND_COVER_ELLIPTIC, KIND_DF]
        assert sporadic_genera(5) == [5, 6, 7, 8]

    def test_geometric_kinds_are_a_subset(self):
        for d in (2, 3, 4, 5):
            assert set(kinds(d, False)) <= set(kinds(d, True))

    def test_every_case_has_provenance(self):
        for d in (2, 3, 4, 5):
            for arithmetic in (True, False):
                assert all(c.provenance for c in classify(d, arithmetic))

    def test_out_of_range(self):
        for d in (1, 6, 0, -3):
            with pytest.raises(LowdegError):
                classify(d)

    def test_deterministic(self):
        assert classification_json(5) == classification_json(5)


class TestFixture:
    def test_table_matches_the_checked_in_fixture_byte_exactly(self):
        cells = []
        for d in (2, 3, 4, 5):
            for arithmetic in (True, False):
                cells.append(classification_json(d, arithmetic=arithmetic))
        produced = canonical_dumps({"cells": cells}) + "\n"
        assert produced == FIXTURE.read_text()

    def test_fixture_content_summary(self):
        # independent decode of the fixture: cell contents, not formatting
        cells = json.loads(FIXTURE.read_text())["cells"]
        summary = {
            (cell["d"], cell["mode"]): [case["kind"] for case in cell["cases"]]
            for cell in cells
        }
        assert summary[(2, "arithmetic")] == [KIND_COVER_P1, KIND_COVER_ELLIPTIC]
        assert summary[(2, "geometric")] == [KIND_COVER_P1, KIND_COVER_ELLIPTIC]
        assert summary[(3, "geometric")] == [KIND_COVER_P1, KIND_COVER_ELLIPTIC]
        assert summary[(3, "arithmetic")] == [
            KIND_COVER_P1,
            KIND_COVER_ELLIPTIC,
            KIND_DF,
            KIND_PLANE_QUARTIC,
        ]
        for d, expected in ((4, [4, 5]), (5, [5, 6, 7, 8])):
            assert summary[(d, "geometric")] == [KIND_COVER_P1, KIND_COVER_ELLIPTIC, KIND_DF]
            assert summary[(d, "arithmetic")] == [
                KIND_COVER_P1,
                KIND_COVER_ELLIPTIC,
                KIND_DF,
            ] + [KIND_SPORADIC] * len(expected)
            cell = next(c for c in cells if (c["d"], c["mode"]) == (d, "arithmetic"))
            genera = [
                case["params"]["genus"]
                for case in cell["cases"]
                if case["kind"] == KIND_SPORADIC
            ]
            assert genera == expected


class TestAudit:
    def test_all_degrees_pass(self):
        for d in (2, 3, 4, 5):
            report = audit(d)
            assert report.passed, [c for c in report.checks if not c.passed]

    def test_d5_castelnuovo_cap(self):
        assert sporadic_genus_cap(5) == castelnuovo_pi(20, 12) == 8
        report = audit_json(5)
        cap_checks = [c for c in report["checks"] if c["name"] == "castelnuovo_cap_value"]
        assert len(cap_checks) == 1 and cap_checks[0]["passed"]

    def test_d2_has_no_sporadic_cases(self):
        report = audit_json(2)
        names = {c["name"] for c in report["checks"]}
        assert "no_sporadic_for_d2" in names and "no_df_for_d2" in names
        assert report["passed"]

    def test_caps_dominate_tabled_genera(self):
        assert sporadic_genera(4)
        assert max(sporadic_genera(4)) <= genus_bound_main(4).bound_non_df_dagger
        assert max(sporadic_genera(5)) <= sporadic_genus_cap(5)
        assert all(g <= genus_bound_main(5).overall for g in sporadic_genera(5))
        quartic = next(c for c in classify(3, True) if c.kind == KIND_PLANE_QUARTIC)
        assert quartic.params["genus"] <= genus_bound_main(3).bound_non_df_dagger
        assert quartic.params["genus"] <= genus_bound_main(3).overall == 4

    def test_plane_quartic_location_check_present(self):
        for d in (2, 3, 4, 5):
            names = [c["name"] for c in audit_json(d)["checks"]]
            assert "plane_quartic_only_d3_arithmetic" in names


def _set_param(kind, key, value, modes=(True, False)):
    """A corruption of the table: ``params[key] = value(d)`` on each ``kind`` case of
    the cells whose ``arithmetic`` flag is in ``modes``."""

    def corrupt(monkeypatch):
        real = classify_module.classify

        def corrupted(d, arithmetic=True):
            return [
                c._replace(params={**c.params, key: value(d)})
                if c.kind == kind and arithmetic in modes
                else c
                for c in real(d, arithmetic)
            ]

        monkeypatch.setattr(classify_module, "classify", corrupted)

    return corrupt


# each corruption, and the exact checks that fail at each d (a d left out passes)
CORRUPTIONS = {
    "none": (lambda monkeypatch: None, {}),
    "df-m-max-one-short": (
        _set_param(KIND_DF, "m_max", lambda d: d - 1),
        {d: {"df_m_range"} for d in (3, 4, 5)},
    ),
    "df-m-max-one-past": (
        _set_param(KIND_DF, "m_max", lambda d: d + 1),
        {d: {"df_m_range", "df_classes_effective"} for d in (3, 4, 5)},
    ),
    "rank-flag-flipped-arithmetic": (
        _set_param(KIND_COVER_ELLIPTIC, "requires_positive_rank", lambda d: False, (True,)),
        {d: {"positive_rank_arithmetic"} for d in (2, 3, 4, 5)},
    ),
    "rank-flag-flipped-geometric": (
        _set_param(KIND_COVER_ELLIPTIC, "requires_positive_rank", lambda d: True, (False,)),
        {d: {"positive_rank_geometric"} for d in (2, 3, 4, 5)},
    ),
    "quartic-genus-2": (
        _set_param(KIND_PLANE_QUARTIC, "genus", lambda d: 2),
        {3: {"plane_quartic_genus"}},
    ),
    # above the d = 4 cap 5, below the overall ceiling 7
    "extra-d4-genus-6": (
        lambda monkeypatch: monkeypatch.setitem(classify_module.SPORADIC_GENERA, 4, (4, 5, 6)),
        {4: {"sporadic_genus_6_cap"}},
    ),
    # the d = 5 cap becomes 9 and equals pi, but is no longer 8
    "castelnuovo-pi-9": (
        lambda monkeypatch: monkeypatch.setattr(classify_module, "castelnuovo_pi", lambda *a: 9),
        {3: {"plane_quartic_genus"}, 5: {"castelnuovo_cap_value"}},
    ),
}


@pytest.mark.parametrize("corrupt, failing", CORRUPTIONS.values(), ids=CORRUPTIONS.keys())
def test_corrupted_table_fails_the_audit(monkeypatch, corrupt, failing):
    corrupt(monkeypatch)
    for d in (2, 3, 4, 5):
        report = audit(d)  # a failing check is a row, never an exception
        failed = {c.name for c in report.checks if not c.passed}
        assert (report.passed, failed) == (d not in failing, failing.get(d, set())), d


def test_a_check_that_raises_is_a_failed_row(monkeypatch):
    CORRUPTIONS["df-m-max-one-past"][0](monkeypatch)
    row = next(c for c in audit(3).checks if c.name == "df_classes_effective")
    assert row == ("df_classes_effective", False, "m must satisfy 1 <= m <= d = 3, got 4")
