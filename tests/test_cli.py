import argparse
import collections
import contextlib
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lowdeg
from lowdeg.cli import FORMATS, build_parser, main
from lowdeg.jsonio import canonical_dumps


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--format", "json", *argv)
    assert code == 0, err
    return json.loads(out)


def usage_error(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    out, err = capsys.readouterr()
    assert excinfo.value.code == 2 and out == ""
    return err


def assert_round_trips(out):
    parsed = json.loads(out)
    assert canonical_dumps(parsed) + "\n" == out


class TestPi:
    def test_table_output_is_the_bare_value(self, capsys):
        code, out, _ = run(capsys, "pi", "--delta", "20", "--ambient", "12")
        assert code == 0 and out == "8\n"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "pi", "--delta", "20", "--ambient", "12")
        assert code == 0
        assert json.loads(out) == {"ambient": 12, "delta": 20, "pi": 8}
        assert_round_trips(out)

    def test_domain_error_exit_1(self, capsys):
        code, out, err = run(capsys, "pi", "--delta", "0", "--ambient", "12")
        assert code == 1 and not out and "delta" in err


class TestBounds:
    def test_genus_bounds(self, capsys):
        data = run_json(capsys, "bounds", "--d", "5")
        assert data["bound_dagger"] == 11
        assert data["bound_no_dagger"] == 10
        assert data["overall"] == 11
        assert data["governing"] == "dagger"

    def test_gonality_section(self, capsys):
        data = run_json(capsys, "bounds", "--d", "4", "--genus", "7", "--df")
        assert data["gonality"]["airr_based"] == 7
        assert data["gonality"]["combined"] == 5


class TestProfile:
    def test_defaults_to_nmax_d(self, capsys):
        data = run_json(capsys, "profile", "--d", "5", "--dagger")
        assert data["n_max"] == 5
        assert [row["r_lb"] for row in data["rows"]] == [2, 5, 9, 14]

    def test_no_dagger_floors(self, capsys):
        data = run_json(capsys, "profile", "--d", "5", "--r2", "3", "--nmax", "4")
        assert data["rows"][-1]["rprime_lb"] == 12

    def test_r2_beyond_d_is_a_domain_error(self, capsys):
        code, _, err = run(capsys, "profile", "--d", "3", "--r2", "5")
        assert code == 1 and "r2" in err

    def test_nmax_cap(self, capsys):
        data = run_json(capsys, "profile", "--d", "5", "--nmax", "10000")
        assert data["n_max"] == 10000 and len(data["rows"]) == 9999
        for flags, got in ((("--d", "5", "--nmax", "10001"), 10001), (("--d", "20000"), 20000)):
            code, out, err = run(capsys, "profile", *flags)
            assert code == 2 and out == ""
            assert err == f"--nmax (default --d) must be at most 10000, got {got}\n"


class TestDfAndCone:
    def test_df_41(self, capsys):
        data = run_json(capsys, "df", "--d", "4", "--m", "1")
        assert data["class"] == {"a": 5, "b": -1}
        assert data["genus"] == 7
        assert data["effective"] is True
        assert data["gonality_guard"] is True
        assert data["degree_on_sections"] == 4

    def test_df_out_of_range(self, capsys):
        code, _, err = run(capsys, "df", "--d", "4", "--m", "5")
        assert code == 1 and "m" in err

    def test_cone_rejects_1_minus_1(self, capsys):
        data = run_json(capsys, "cone", "--a", "1", "--b", "-1")
        assert data["effective"] is False and data["nef"] is False

    def test_cone_fiber(self, capsys):
        data = run_json(capsys, "cone", "--a", "0", "--b", "1")
        assert data["effective"] is True and data["adjunction_genus"] == 0

    def test_magnitude_caps(self, capsys):
        data = run_json(capsys, "cone", "--a", "1000000", "--b", "-1000000")
        assert data["self_pairing"] == -(10**12)
        assert run_json(capsys, "df", "--d", "1000000", "--m", "1000000")["genus"] == 1
        # every integer flag but --mod and --seed, beside small valid values of the
        # command's other flags, with its exit codes at 10^6 and -10^6
        nines = "9" * 4000
        for argv, flag, codes in (
            (["pi", "--ambient", "3"], "--delta", (0, 1)),
            (["pi", "--delta", "20"], "--ambient", (0, 1)),
            (["bounds"], "--d", (0, 1)),
            (["bounds", "--d", "4"], "--genus", (0, 1)),
            (["profile"], "--d", (2, 1)),
            (["profile", "--d", "5"], "--r2", (1, 1)),
            (["profile", "--d", "5"], "--nmax", (2, 1)),
            (["cone", "--b", "1"], "--a", (0, 0)),
            (["cone", "--a", "1"], "--b", (0, 0)),
            (["df", "--m", "1"], "--d", (0, 1)),
            (["df", "--d", "4"], "--m", (1, 1)),
            (["classify"], "--d", (1, 1)),
            (["audit"], "--d", (1, 1)),
            (["sym2"], "--modulus", (0, 1)),
            (["lemma52", "--random"], "--trials", (2, 2)),
            (["lemma52", "--random", "--trials", "1"], "--ambient", (2, 1)),
            (["lemma52", "--random", "--trials", "1"], "--count", (1, 1)),
            (["rh", "--gy", "0", "--deg", "4", "--ram", "20"], "--gx", (0, 1)),
            (["rh", "--gx", "7", "--deg", "4", "--ram", "20"], "--gy", (0, 1)),
            (["rh", "--gx", "7", "--gy", "0", "--ram", "20"], "--deg", (0, 1)),
            (["rh", "--gx", "7", "--gy", "0", "--deg", "4"], "--ram", (0, 0)),
            (["rh", "--ram-points", "4"], "--source-genus", (0, 1)),
            (["rh", "--source-genus", "1"], "--ram-points", (0, 1)),
        ):
            for value, expected in zip(("1000000", "-1000000"), codes):
                assert run(capsys, *argv, flag, value)[0] == expected, (flag, value)
            for value in ("1000001", "-1000001", nines, "-" + nines):
                code, out, err = run(capsys, "--format", "json", *argv, flag, value)
                assert code == 2 and out == "", (flag, value[:8])
                assert err == f"{flag} must be at most 1000000 in absolute value\n"
        # --seed takes any int; --mod keeps the field's own bound, and its message cuts the value
        argv = ["lemma52", "--random", "--trials", "1"]
        assert run_json(capsys, *argv, "--seed", nines)["passed"] is True
        for value, reason in ((nines, "exceeds the 2**31 limit"), ("-" + nines, "is not prime")):
            code, out, err = run(capsys, *argv, "--mod", value)
            assert (code, out) == (1, "") and err.startswith(f"modulus {value[:5]}"), err[:100]
            assert err.endswith(f" characters) {reason}\n") and len(err) < 200, err[-100:]


class TestClassifyAndAudit:
    def test_classify_modes(self, capsys):
        arith = run_json(capsys, "classify", "--d", "5")
        geo = run_json(capsys, "classify", "--d", "5", "--geometric")
        assert arith["mode"] == "arithmetic" and geo["mode"] == "geometric"
        assert len(arith["cases"]) == 7 and len(geo["cases"]) == 3

    def test_classify_out_of_range(self, capsys):
        code, _, err = run(capsys, "classify", "--d", "7")
        assert code == 1 and "classification" in err

    def test_audit_passes(self, capsys):
        data = run_json(capsys, "audit", "--d", "5")
        assert data["passed"] is True
        assert any(c["name"] == "castelnuovo_cap_value" for c in data["checks"])

    def test_failed_audit_is_printed_and_exits_0(self, capsys, monkeypatch):
        from lowdeg import classify as table

        real = table.classify

        def short_df_range(d, arithmetic=True):
            return [
                c._replace(params={**c.params, "m_max": d - 1}) if c.kind == table.KIND_DF else c
                for c in real(d, arithmetic)
            ]

        monkeypatch.setattr(table, "classify", short_df_range)
        code, out, err = run(capsys, "audit", "--d", "3")
        lines = out.splitlines()
        assert (code, lines[0], err) == (0, "audit d = 3: FAIL", "")
        assert [line for line in lines if line.startswith("  [FAIL]")] == [
            "  [FAIL] df_m_range: m from 1 to 2 is the domain of DFParams: "
            "1 and 2 accepted, 0 and 3 refused"
        ]


class TestSg:
    def test_generic_points_from_file(self, capsys, tmp_path):
        payload = {
            "ambient": 2,
            "points": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"], ["1", "1", "1"]],
        }
        path = tmp_path / "points.json"
        path.write_text(json.dumps(payload))
        data = run_json(capsys, "sg", "--input", str(path))
        assert data["is_sylvester_gallai"] is False
        assert data["witness"] == [0, 1]
        assert data["violations"]

    def test_hesse_from_file(self, capsys, tmp_path):
        # the affine planes AG(2,3) (Hesse) and AG(2,5): q^2 + q lines of q points
        for q in (3, 5):
            points = [
                [{"val": x, "mod": q}, {"val": y, "mod": q}, {"val": 1, "mod": q}]
                for x in range(q)
                for y in range(q)
            ]
            path = tmp_path / f"ag2_{q}.json"
            path.write_text(json.dumps({"ambient": 2, "points": points}))
            data = run_json(capsys, "sg", "--input", str(path))
            assert data["is_sylvester_gallai"] is True
            assert data["max_collinear"] == q
            assert data["lines_by_size"] == {str(q): q * q + q}
            assert data["violations"] == []
            # the table renders the absent witness as none
            assert run(capsys, "sg", "--input", str(path)) == (
                0,
                f"num_points: {q * q}\nis_sylvester_gallai: true\nmax_collinear: {q}\n"
                f"witness: none\nlines_by_size:\n  {q}: {q * q + q}\nviolations:\n",
                "",
            )

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        payload = json.dumps(
            {"ambient": 2, "points": [["1", "0", "0"], ["0", "1", "0"], ["1", "1", "0"]]}
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        data = run_json(capsys, "sg", "--input", "-")
        assert data["is_sylvester_gallai"] is True  # fully collinear

    def test_point_cap(self, capsys, tmp_path):
        # 501 distinct points of the plane over GF(23), which has 553
        affine = [(x, y, 1) for x in range(23) for y in range(23)]
        gf23 = [[{"val": v, "mod": 23} for v in p] for p in affine + [(1, 0, 0), (0, 1, 0)]]
        path = tmp_path / "points.json"
        path.write_text(json.dumps({"ambient": 2, "points": gf23[:500]}))
        assert run_json(capsys, "sg", "--input", str(path))["num_points"] == 500
        path.write_text(json.dumps({"ambient": 2, "points": gf23[:501]}))
        code, out, err = run(capsys, "sg", "--input", str(path))
        assert code == 2 and out == ""
        assert err == "sg takes at most 500 points, got 501\n"

    def test_work_bound(self, capsys, tmp_path, monkeypatch):
        # C(n, 2) x B^2, with B the longest numerator or denominator in bits.
        # The rejected edge at the shipped bound: 500 points with 491-bit
        # coordinates (490 bits would pass).
        assert math.comb(500, 2) * 490**2 <= lowdeg.cli.MAX_SG_WORK
        points = [["1", str(k), str(2**490 + k)] for k in range(500)]
        path = tmp_path / "points.json"
        path.write_text(json.dumps({"ambient": 2, "points": points}))
        code, out, err = run(capsys, "sg", "--input", str(path))
        assert code == 2 and out == ""
        assert err == (
            "sg takes at most 30000000000 units of work, C(n, 2) x B^2 for n points "
            f"whose longest numerator or denominator has B bits, got {124750 * 491**2}\n"
        )
        # the accepted edge: four points, B = 3 from the denominator 5
        points = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"], ["1", "1/5", "1"]]
        path.write_text(json.dumps({"ambient": 2, "points": points}))
        monkeypatch.setattr("lowdeg.cli.MAX_SG_WORK", 6 * 3**2)
        assert run_json(capsys, "sg", "--input", str(path))["num_points"] == 4
        monkeypatch.setattr("lowdeg.cli.MAX_SG_WORK", 6 * 3**2 - 1)
        code, out, err = run(capsys, "sg", "--input", str(path))
        assert code == 2 and out == "" and err.endswith(", got 54\n")

    def test_malformed_json_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "sg", "--input", str(path))
        assert code == 2 and "malformed" in err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "sg", "--input", str(tmp_path / "absent.json"))
        assert code == 2 and "cannot read" in err

    def test_mixed_fields_exit_1(self, capsys, tmp_path):
        payload = {
            "ambient": 2,
            "points": [["1", "0", "0"], [{"val": 1, "mod": 5}, {"val": 0, "mod": 5}, {"val": 0, "mod": 5}], ["0", "0", "1"]],
        }
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "sg", "--input", str(path))
        assert code == 1 and "mix" in err

    def test_duplicate_point_exit_1(self, capsys, tmp_path):
        payload = {"ambient": 2, "points": [["1", "0", "0"], ["2", "0", "0"]]}
        path = tmp_path / "duplicate.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "sg", "--input", str(path))
        assert code == 1 and out == ""
        assert err == "duplicate point: points 0 and 1 are the same point of P^2\n"

    def test_string_ambient_exit_1(self, capsys, tmp_path):
        payload = {"ambient": "2", "points": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
        path = tmp_path / "ambient.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "sg", "--input", str(path))
        assert code == 1 and out == ""
        assert err == "ambient must be an integer, got '2'\n"

    def test_long_values_are_quoted_short(self, capsys, tmp_path):
        # a message quoting an input value shows its start and its length
        long = "1" * 5000
        path = tmp_path / "long.json"
        for ambient, scalar, start in (
            (2, long + "/7", "malformed rational '1111"),
            (2, "x" * 5000, "malformed rational 'xxxx"),
            (2, [long], "cannot parse scalar ['1111"),
            (2, {"val": long, "mod": 5}, "cannot interpret '1111"),
            (2, {"val": 1, "mod": long}, "modulus must be an integer, got '1111"),
            (2, {"val": 1, "mod": int(long[:4000])}, "modulus 1111"),
            (2, {"val": 1, "mod": -int("9" * 4000)}, "modulus -9999"),
            (2, {"val": 1, "mod": 5, "k" * 5000: 0}, "prime-field value must have keys"),
            ("2" * 5000, "1", "ambient must be an integer, got '2222"),
            (int("9" * 4000), "1", "ambient must be in [0, 1000000], got 9999"),
        ):
            points = [["0", "1", "0"], ["0", "0", "1"], [scalar, "0", "1"]]
            path.write_text(json.dumps({"ambient": ambient, "points": points}))
            code, out, err = run(capsys, "sg", "--input", str(path))
            assert code == 1 and out == "", err[:100]
            assert err.startswith(start) and err.count("\n") == 1 and len(err) < 200, err[:100]
            assert " characters)" in err

    def test_deeply_nested_json_exit_2(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, "sg", "--input", str(path))
        assert code == 2 and out == ""
        assert err == f"JSON in {path} is nested too deeply\n"

    def test_integer_literal_past_the_digit_limit_exit_2(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"ambient": 2, "points": [[' + "7" * 5000 + ", 0, 1]]}")
        code, out, err = run(capsys, "sg", "--input", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"malformed JSON in {path}: ") and err.count("\n") == 1

    def test_non_utf8_input_exit_2(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"ambient": 2, "points": [["\xe9"]]}')
        code, out, err = run(capsys, "sg", "--input", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"cannot read {path}: ") and err.count("\n") == 1
        stdin = io.TextIOWrapper(io.BytesIO(path.read_bytes()), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run(capsys, "sg", "--input", "-")
        assert code == 2 and out == ""
        assert err.startswith("cannot read -: ") and err.count("\n") == 1


def test_misshapen_files_exit_1(capsys, tmp_path):
    path = tmp_path / "misshapen.json"
    for command, doc, message in (
        ("sg", {"ambient": 2, "points": [["1", "0", "0"], "0 1 0"]}, "expected a list of rows"),
        ("lemma52", {"subspaces": [{"ambient": 1, "rows": "1 0"}]}, "expected a list of rows"),
        ("lemma52", {"subspaces": {"ambient": 1, "rows": []}}, "'subspaces' must be a list"),
        ("lemma52", {"subspaces": [{"ambient": 1}]}, "a subspace needs 'ambient' and 'rows' keys"),
        ("lemma52", {"subspaces": [[["1", "0"]]]}, "a subspace needs 'ambient' and 'rows' keys"),
    ):
        path.write_text(json.dumps(doc))
        assert run(capsys, command, "--input", str(path)) == (1, "", message + "\n")


class TestLemma52:
    @staticmethod
    def planted_file(tmp_path, modulus=None):
        """Three members of P^4 through the line x2 = x3 = x4 = 0, over QQ or GF(modulus)."""
        rows = {
            "subspaces": [
                {
                    "ambient": 4,
                    "rows": [
                        ["1", "0", "0", "0", "0"],
                        ["0", "1", "0", "0", "0"],
                        ["0", "0", "1", "0", "0"],
                    ],
                },
                {
                    "ambient": 4,
                    "rows": [
                        ["1", "0", "0", "0", "0"],
                        ["0", "1", "0", "0", "0"],
                        ["0", "0", "0", "1", "0"],
                    ],
                },
                {
                    "ambient": 4,
                    "rows": [
                        ["1", "0", "0", "0", "0"],
                        ["0", "1", "0", "0", "0"],
                        ["0", "0", "0", "0", "1"],
                    ],
                },
            ]
        }
        name = "subspaces.json"
        if modulus is not None:
            for member in rows["subspaces"]:
                member["rows"] = [
                    [{"val": int(x), "mod": modulus} for x in row] for row in member["rows"]
                ]
            name = f"subspaces-gf{modulus}.json"
        path = tmp_path / name
        path.write_text(json.dumps(rows))
        return path

    def test_input_mode_finds_the_planted_line(self, capsys, tmp_path):
        data = run_json(capsys, "lemma52", "--input", str(self.planted_file(tmp_path)))
        assert data["dim"] == 1
        assert data["common_subspace"]["rows"] == [
            ["1", "0", "0", "0", "0"],
            ["0", "1", "0", "0", "0"],
        ]
        assert data["violations"] == []

    def test_precondition_failure_exit_1(self, capsys, tmp_path):
        payload = json.loads(self.planted_file(tmp_path).read_text())
        payload["subspaces"] = payload["subspaces"][:2]
        path = tmp_path / "two.json"
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "lemma52", "--input", str(path))
        assert code == 1 and "span" in err

    def test_random_mode_is_reproducible(self, capsys):
        first = run(capsys, "--format", "json", "lemma52", "--random", "--trials", "8", "--seed", "3", "--mod", "5")
        second = run(capsys, "--format", "json", "lemma52", "--random", "--trials", "8", "--seed", "3", "--mod", "5")
        assert first == second
        data = json.loads(first[1])
        assert data["passed"] is True and data["failures"] == []

    def test_random_mode_compares_with_the_planted_subspace(self, capsys, monkeypatch):
        from lowdeg import lemma52
        from lowdeg.projective import ProjSubspace

        real = lemma52.common_subspace

        def wrong(members):
            lam = real(members)
            n = lam.ambient
            for shift in (0, 1):
                units = [[int(c == r + shift) for c in range(n + 1)] for r in range(n - 2)]
                other = ProjSubspace.from_vectors(lam.field, n, units)
                if other != lam:
                    return other

        monkeypatch.setattr(lemma52, "common_subspace", wrong)
        data = run_json(capsys, "lemma52", "--random", "--trials", "6", "--seed", "1")
        assert data["passed"] is False
        assert data["failures"] == data["violations"] == list(range(6))

    def test_random_family_filling_the_quotient_plane(self, capsys):
        # All 13 points of the quotient plane over GF(3) make one family.
        data = run_json(
            capsys, "lemma52", "--random", "--ambient", "16", "--count", "13", "--mod", "3",
            "--trials", "1",
        )
        assert data["passed"] is True

    def test_member_missing_the_meet_exit_1(self, capsys, tmp_path):
        payload = json.loads(self.planted_file(tmp_path).read_text())
        payload["subspaces"].append(
            {
                "ambient": 4,
                "rows": [
                    ["1", "0", "0", "0", "0"],
                    ["0", "0", "1", "0", "0"],
                    ["0", "0", "0", "1", "0"],
                ],
            }
        )
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "lemma52", "--input", str(path))
        assert code == 1 and out == ""
        assert err == "subspace 3 does not contain the codimension-3 meet of subspaces 0 and 1\n"

    def test_long_ambient_is_quoted_short(self, capsys, tmp_path):
        path = tmp_path / "ambient.json"
        for ambient in (4, int("9" * 4000)):
            path.write_text(json.dumps({"subspaces": [{"ambient": ambient, "rows": [["1", "0"]]}]}))
            code, out, err = run(capsys, "lemma52", "--input", str(path))
            assert code == 1 and out == ""
            if ambient == 4:
                assert err == "vector of length 2 cannot span inside P^4\n"
            else:
                start = "ambient must be in [0, 1000000], got 9999"
                assert err.startswith(start) and err.endswith(" (4000 characters)\n"), err[:100]
                assert err.count("\n") == 1 and len(err) < 200

    def test_one_field_per_file(self, capsys, tmp_path):
        # 60 members of P^0, each over its own prime near 2^31: the reader stops
        # at the second field, so it tests only two moduli for primality
        from lowdeg.fields import _miller_rabin, is_prime

        candidates = range(2**31 - 1, 2**30, -2)
        primes = list(itertools.islice(filter(is_prime, candidates), 60))
        members = [{"ambient": 0, "rows": [[{"val": 1, "mod": p}]]} for p in primes]
        path = tmp_path / "primes.json"
        path.write_text(json.dumps({"subspaces": members}))
        _miller_rabin.cache_clear()
        code, out, err = run(capsys, "lemma52", "--input", str(path))
        assert code == 1 and out == ""
        assert err == "cannot mix values from GF(2147483647) and GF(2147483629)\n"
        assert _miller_rabin.cache_info().misses <= 2

    def test_family_is_checked_as_it_arrives(self, capsys, tmp_path, monkeypatch):
        # member 0 already has the wrong codimension, so no later member is built
        from lowdeg.projective import ProjSubspace
        from support import count_calls

        size = lambda field, ambient, vectors: ambient  # the ambient of the member built
        built = count_calls(monkeypatch, "from_vectors", ProjSubspace, size=size)
        path = tmp_path / "points.json"
        path.write_text(json.dumps({"subspaces": [{"ambient": 0, "rows": [["1"]]}] * 2000}))
        code, out, err = run(capsys, "lemma52", "--input", str(path))
        assert code == 1 and out == ""
        assert err == "subspace 0 has codimension 0, expected 2\n"
        assert built == {"calls": 1, "size": 0}

    def test_input_work_bound(self, capsys, tmp_path, monkeypatch):
        # 2 x R x (n + 1)^2 x (1 + G/1024)^2, each member counted as at least
        # n + 2 rows, with G = (n + 1) x B over QQ.  Three members of P^80 with
        # 79 rows of random 2-digit integers (B = 7) take 10 s to eliminate.
        members = [{"ambient": 80, "rows": [["99"] * 81] * 79}] * 3
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"subspaces": members}))
        code, out, err = run(capsys, "lemma52", "--input", str(path))
        assert code == 2 and out == ""
        assert err == (
            "lemma52 --input takes at most 5000000 units of work, "
            "2 x R x (n + 1)^2 x (1 + G/1024)^2 for R rows in P^n, at least n + 2 a member, "
            "whose entries reach G bits: (n + 1) x B over QQ, B the bits of the longest entry "
            f"of a row scaled to integers, and the bits of p over GF(p), "
            f"got {3 * 82 * 81**2 * (1024 + 81 * 7) ** 2 // 2**19}\n"
        )
        # Rows are cleared of denominators before B is read: 1/5, 1/7 and 1/9
        # become 63, 45 and 35, so B = 6 where no numerator or denominator
        # has more than 4 bits.  The accepted edge runs, one unit less does not.
        payload = json.loads(self.planted_file(tmp_path).read_text())
        payload["subspaces"][0]["rows"][0] = ["1/5", "1/7", "1/9", "0", "0"]
        path.write_text(json.dumps(payload))
        work = 3 * 6 * 5**2 * (1024 + 5 * 6) ** 2 // 2**19
        monkeypatch.setattr("lowdeg.cli.MAX_LEMMA52_WORK", work)
        assert run_json(capsys, "lemma52", "--input", str(path))["dim"] == 1
        monkeypatch.setattr("lowdeg.cli.MAX_LEMMA52_WORK", work - 1)
        code, out, err = run(capsys, "lemma52", "--input", str(path))
        assert code == 2 and out == "" and err.endswith(f", got {work}\n")
        # over GF(p) entries stay below p, so G is the bit length of p
        payload = json.loads(self.planted_file(tmp_path).read_text())
        for member in payload["subspaces"]:
            rows = member["rows"]
            member["rows"] = [[{"val": int(x), "mod": 2**31 - 1} for x in r] for r in rows]
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "lemma52", "--input", str(path))
        assert code == 2 and err.endswith(f", got {3 * 6 * 5**2 * (1024 + 31) ** 2 // 2**19}\n")

    def test_longest_accepted_entries_print(self, capsys, tmp_path):
        # Three members of P^4 with 4000-digit integer entries are the largest such
        # family the work rule accepts.  Λ's entries have about 8000 digits, past
        # Python's int-to-string limit, which is lifted only while Λ becomes text.
        from lowdeg.fields import QQ
        from lowdeg.jsonio import subspace_to_json
        from lowdeg.projective import ProjSubspace

        rng = random.Random(4000)

        def row():
            return [rng.randrange(10**3999, 10**4000) * rng.choice((1, -1)) for _ in range(5)]

        planted = [row(), row()]
        members = [
            {"ambient": 4, "rows": [[str(x) for x in r] for r in (*planted, row())]}
            for _ in range(4)
        ]
        path = tmp_path / "long.json"
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = subspace_to_json(ProjSubspace.from_vectors(QQ, 4, planted))
        finally:
            sys.set_int_max_str_digits(limit)
        path.write_text(json.dumps({"subspaces": members[:3]}))
        # the answer does not depend on --format, so Λ is computed once and printed in both
        args = build_parser().parse_args(["lemma52", "--input", str(path)])
        data, table = args.handler(args)
        assert sys.get_int_max_str_digits() == limit
        lowdeg.cli._emit(data, "json", table)
        out, err = capsys.readouterr()
        assert json.loads(out)["common_subspace"] == expected and err == ""
        assert max(len(x.split("/")[0]) for r in expected["rows"] for x in r) > 4300
        lowdeg.cli._emit(data, "table", table)
        out, err = capsys.readouterr()
        assert err == ""
        assert all(f"- {x}\n" in out for r in expected["rows"] for x in r)
        assert sys.get_int_max_str_digits() == limit
        path.write_text(json.dumps({"subspaces": members}))
        code, out, err = run(capsys, "lemma52", "--input", str(path))
        assert code == 2 and "lemma52 --input takes at most" in err

    def test_random_mode_needs_a_trial(self, capsys):
        for trials in ("0", "-3"):
            code, out, err = run(capsys, "lemma52", "--random", "--trials", trials)
            assert code == 2 and out == ""
            assert err == f"--trials must be at least 1, got {trials}\n"

    def test_infeasible_random_family_exit_1(self, capsys):
        # Over GF(3) only 13 planes of P^4 contain a given line, so 14 distinct
        # members never exist, and two members never span P^16; the sampler
        # says so before drawing.
        for flags, reason in (
            (("--mod", "3", "--count", "14"), "at most 13 members over GF(3)"),
            (
                ("--mod", "101", "--count", "2", "--ambient", "16"),
                "count must be in [3, 1000000], got 2",
            ),
        ):
            code, out, err = run(capsys, "lemma52", "--random", *flags, "--trials", "1")
            assert code == 1 and out == ""
            assert err.count("\n") == 1 and reason in err

    def test_random_size_caps(self, capsys, monkeypatch):
        # One work rule, --trials x --count x (--ambient + 1)^3, replaces the
        # separate caps: a large ambient runs when the other factors are small.
        data = run_json(
            capsys, "lemma52", "--random", "--mod", "101", "--trials", "1",
            "--ambient", "17", "--count", "3",
        )
        assert data["passed"] is True and data["ambient"] == 17
        # the accepted edge: work equal to the bound runs, one more trial does not
        monkeypatch.setattr("lowdeg.cli.MAX_LEMMA52_WORK", 3 * 4 * 5**3)
        data = run_json(capsys, "lemma52", "--random", "--trials", "3")
        assert data["passed"] is True and data["trials"] == 3
        code, out, err = run(capsys, "lemma52", "--random", "--trials", "4")
        assert code == 2 and out == "" and err.endswith(", got 2000\n")
        # a family that cannot exist is reported as such, before the work rule
        code, out, err = run(
            capsys, "lemma52", "--random", "--ambient", "16", "--count", "2", "--trials", "4"
        )
        assert code == 1 and out == ""
        assert err == "count must be in [3, 1000000], got 2\n"

    def test_trials_cap(self, capsys):
        # the rejected edge at the shipped bound: the default family, 4 members
        # in P^4, runs at most 10000 trials
        assert 10_000 * 4 * 5**3 == lowdeg.cli.MAX_LEMMA52_WORK
        code, out, err = run(capsys, "lemma52", "--random", "--trials", "10001")
        assert code == 2 and out == ""
        assert err == (
            "lemma52 --random takes at most 5000000 units of work, --trials x (--count x "
            "(--ambient + 1)^3 + 9 x 0 redraws of quotient points), got 5000500\n"
        )

    def test_redraws_count_as_work(self, capsys, monkeypatch):
        # the whole plane over GF(277) passes the base rule (4928448 units)
        # but pays about N ln N redraws of its N = 77007 quotient points
        code, out, err = run(
            capsys, "lemma52", "--random", "--ambient", "3", "--count", "77007", "--mod", "277",
            "--trials", "1",
        )
        assert code == 2 and out == ""
        assert err == (
            "lemma52 --random takes at most 5000000 units of work, --trials x (--count x "
            "(--ambient + 1)^3 + 9 x 801374 redraws of quotient points), got 12140814\n"
        )
        # the whole plane over GF(2): 7 x 4^3 units and 7 + 3 + 2 + 1 + 1 + 1 + 1 - 7
        # redraws per trial, at DRAW_WORK units each
        assert lowdeg.lemma52.DRAW_WORK == 9
        argv = (
            "lemma52", "--random", "--mod", "2", "--ambient", "3", "--count", "7", "--trials", "2"
        )
        monkeypatch.setattr("lowdeg.cli.MAX_LEMMA52_WORK", 2 * (7 * 64 + 9 * 9))
        assert run_json(capsys, *argv)["passed"] is True
        monkeypatch.setattr("lowdeg.cli.MAX_LEMMA52_WORK", 2 * (7 * 64 + 9 * 9) - 1)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.endswith(" + 9 x 9 redraws of quotient points), got 1058\n")
        # no redraws are charged up to half the plane: 16 of GF(5)'s 31 points
        # pay none, as 31 // (31 - 15) = 1, and 17 pay one
        argv = ("lemma52", "--random", "--ambient", "3", "--trials", "1", "--count")
        monkeypatch.setattr("lowdeg.cli.MAX_LEMMA52_WORK", 16 * 64)
        assert run_json(capsys, *argv, "16")["passed"] is True
        monkeypatch.setattr("lowdeg.cli.MAX_LEMMA52_WORK", 17 * 64 + 8)
        code, out, err = run(capsys, *argv, "17")
        assert code == 2 and err.endswith(" + 9 x 1 redraws of quotient points), got 1097\n")

    def test_random_flags_need_random(self, capsys, tmp_path):
        # with --input, the first random-mode flag given, in the order --trials, --seed,
        # --mod, --ambient, --count, is a usage error, even at its random-mode default
        path = str(self.planted_file(tmp_path))
        assert run(capsys, "lemma52", "--input", path)[0] == 0
        for flags, first in (
            (["--trials", "0", "--mod", "4", "--count", "1"], "--trials"),
            (["--count", "1", "--ambient", "4", "--mod", "5", "--seed", "1", "--trials", "0"],
             "--trials"),
            (["--count", "4", "--ambient", "4", "--mod", "5", "--seed", "0"], "--seed"),
            (["--count", "4", "--ambient", "3", "--mod", "5"], "--mod"),
            (["--count", "1", "--ambient", "4"], "--ambient"),
            (["--count", "4"], "--count"),
        ):
            code, out, err = run(capsys, "lemma52", "--input", path, *flags)
            assert code == 2 and out == "" and err == f"{first} needs --random\n", flags

    def test_needs_input_or_random(self, capsys):
        err = usage_error(capsys, ["lemma52"])
        assert err.startswith("lowdeg lemma52: error: ") and err.count("\n") == 1
        assert "--input" in err

    def test_input_and_random_exclude_each_other(self, capsys):
        # the file is never read: a missing one gives the same usage error
        argv = ["lemma52", "--input", "/nonexistent.json", "--random", "--trials", "2"]
        assert usage_error(capsys, argv) == (
            "lowdeg lemma52: error: argument --random: not allowed with argument --input\n"
        )


def test_work_rules_price_the_readme_examples():
    # The README's examples, priced by the three rules alone at the shipped limits.
    from fractions import Fraction

    from lowdeg.configurations import PointConfig, charge_sylvester_gallai
    from lowdeg.errors import ConfigurationError, InputError
    from lowdeg.fields import QQ, PrimeField
    from lowdeg.lemma52 import charge_input, charge_random
    from lowdeg.projective import ProjPoint

    cli = lowdeg.cli
    f = PrimeField(2**31 - 1)
    # 500 points over GF(2^31 - 1), whose longest coordinate has 31 bits
    config = PointConfig(tuple(ProjPoint(f, (1, k, 2**31 - 2 - k)) for k in range(500)))
    assert charge_sylvester_gallai(config, cli.MAX_SG_WORK) == 124750 * 31**2
    # three members of P^90 over GF(2^31 - 1) pass, three of P^80 with 2-digit integers do not
    # (each member charged as n + 2 = 92 rows, and G = 31 bits for p)
    wide = [(90, [[k % 7 for k in range(i, i + 91)] for i in range(89)])] * 3
    assert charge_input(f, wide, cli.MAX_LEMMA52_WORK) == 3 * 92 * 91**2 * 1055**2 // 2**19
    members = [(80, [[Fraction(99)] * 81] * 79)] * 3
    work = 3 * 82 * 81**2 * (1024 + 81 * 7) ** 2 // 2**19
    with pytest.raises(InputError, match=f", got {work}$"):
        charge_input(QQ, members, cli.MAX_LEMMA52_WORK)
    # the default random family runs at most 10000 trials
    gf5 = PrimeField(5)
    assert charge_random(gf5, 4, 4, 10_000, cli.MAX_LEMMA52_WORK) == cli.MAX_LEMMA52_WORK
    with pytest.raises(InputError, match=r", got 5000500$"):
        charge_random(gf5, 4, 4, 10_001, cli.MAX_LEMMA52_WORK)
    # the whole GF(277) plane pays its redraws
    with pytest.raises(InputError, match=r"9 x 801374 redraws of quotient points\), got 12140814$"):
        charge_random(PrimeField(277), 3, 77007, 1, cli.MAX_LEMMA52_WORK)
    # a family that cannot exist is reported before any work is counted
    with pytest.raises(ConfigurationError, match=re.escape("count must be in [3, 1000000], got 2")):
        charge_random(PrimeField(101), 16, 2, 10**9, cli.MAX_LEMMA52_WORK)


class TestSym2:
    def test_model_summary(self, capsys):
        data = run_json(capsys, "sym2", "--modulus", "7")
        assert data == {"modulus": 7, "num_elements": 28}

    def test_check_mode(self, capsys):
        data = run_json(capsys, "sym2", "--modulus", "7", "--check")
        assert data["passed"] is True and data["violations"] == []

    def test_check_modulus_cap(self, capsys):
        data = run_json(capsys, "sym2", "--modulus", "256", "--check")
        assert data["passed"] is True and data["checks_run"] == 256 * 255 + 256 * 256
        code, out, err = run(capsys, "sym2", "--modulus", "257", "--check")
        assert code == 2 and out == ""
        assert err == "--check needs --modulus at most 256, got 257\n"
        assert run_json(capsys, "sym2", "--modulus", "257")["num_elements"] == 257 * 258 // 2

    def test_modulus_floor_exit_1(self, capsys):
        code, _, err = run(capsys, "sym2", "--modulus", "4")
        assert code == 1 and "modulus" in err


class TestRh:
    def test_check_mode(self, capsys):
        data = run_json(capsys, "rh", "--gx", "7", "--gy", "0", "--deg", "4", "--ram", "20")
        assert data["consistent"] is True
        data = run_json(capsys, "rh", "--gx", "2", "--gy", "2", "--deg", "2", "--ram", "0")
        assert data["consistent"] is False

    def test_min_degree_mode(self, capsys):
        code, out, _ = run(capsys, "rh", "--source-genus", "1", "--ram-points", "4")
        assert code == 0 and out == "2\n"
        data = run_json(capsys, "rh", "--source-genus", "1", "--ram-points", "2")
        assert data["max_degree"] == "unbounded"

    def test_mixed_modes_rejected(self, capsys):
        code, _, err = run(capsys, "rh", "--gx", "1", "--source-genus", "1")
        assert code == 2 and "either" in err

    def test_incomplete_check_rejected(self, capsys):
        code, _, err = run(capsys, "rh", "--gx", "1", "--gy", "0")
        assert code == 2
        assert run(capsys, "rh", "--source-genus", "1") == (
            2,
            "",
            "rh maximal-degree mode needs both --source-genus and --ram-points\n",
        )


def subcommands():
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def fresh_env():
    """The environment of a new interpreter that imports this lowdeg."""
    return {**os.environ, "PYTHONPATH": str(Path(lowdeg.__file__).parents[1])}


def run_fresh(args):
    """Run ``python ARGS`` in a new interpreter that imports this lowdeg."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=fresh_env())


def assert_one_write_error_line(err):
    assert err.startswith("cannot write output: ") and err.count("\n") == 1, err
    assert "Traceback" not in err and "Exception ignored" not in err


def imported_modules(importtime_log):
    """Module names from ``python -X importtime`` stderr."""
    return {line.rsplit("|", 1)[-1].strip() for line in importtime_log.splitlines()}


StartupRun = collections.namedtuple("StartupRun", "name fmt args stdout modules proc")
"""One fresh run of the start-up table: subcommand (or ``import``), format,
interpreter args, the stdout of ``main`` in this process, the expected lowdeg
modules, and the finished process."""


def lowdeg_modules(startup_run):
    """The lowdeg modules that a start-up run's ``-X importtime`` log shows loaded."""
    loaded = imported_modules(startup_run.proc.stderr)
    return {name for name in loaded if name.partition(".")[0] == "lowdeg"}


class TestHarness:
    def test_unknown_subcommand_exit_2(self, capsys):
        # usage errors are one stderr line, with no usage block before it
        for argv in (
            ["definitely-not-a-command"],
            [],
            ["pi", "--delta", "x", "--ambient", "3"],
            ["pi", "--delta", "20"],
            ["--format", "yaml", "pi", "--delta", "20", "--ambient", "12"],
            ["pi", "--delta", "20", "--ambient", "12", "two\nlines"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            out, err = capsys.readouterr()
            assert excinfo.value.code == 2, argv
            assert out == "" and err.count("\n") == 1 and "usage:" not in err, argv
            assert err.startswith(("lowdeg: error: ", "lowdeg pi: error: ")), argv
        for argv in (["-h"], ["pi", "-h"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            out, err = capsys.readouterr()
            assert excinfo.value.code == 0
            assert out.startswith("usage: lowdeg") and "options:" in out and err == ""

    def test_long_invalid_value_is_cut(self, capsys):
        # argparse quotes the whole value; the line keeps its start, flag included, and its length
        message = "argument --delta: invalid int value: '" + "1" * 5000 + "'"
        err = usage_error(capsys, ["pi", "--delta", "1" * 5000, "--ambient", "3"])
        assert err == f"lowdeg pi: error: {message[:120]}... (5039 characters)\n"
        assert "--delta" in err and len(err) < 200
        # a short message is passed on whole
        err = usage_error(capsys, ["pi", "--delta", "x", "--ambient", "3"])
        assert err == "lowdeg pi: error: argument --delta: invalid int value: 'x'\n"

    def test_long_unrecognized_arguments_are_cut(self, capsys):
        argv = ["pi", "--delta", "20", "--ambient", "12", "y" * 300]
        err = usage_error(capsys, argv)
        message = "unrecognized arguments: " + "y" * 300
        assert err == f"lowdeg: error: {message[:120]}... (324 characters)\n"
        err = usage_error(capsys, argv[:-1] + ["y" * 20])
        assert err == f"lowdeg: error: unrecognized arguments: {'y' * 20}\n"

    @pytest.fixture(scope="class")
    def startup(self, tmp_path_factory):
        """The start-up table, and one ``python -X importtime`` run of each of its rows.

        Each row: a subcommand's argv and the lowdeg modules that a fresh
        process running it loads beside lowdeg, lowdeg.cli and lowdeg.errors;
        --format json adds lowdeg.jsonio.  A fresh process cannot borrow an
        import from this test session, which has loaded every module.  The
        lemma52 file is QQ for table output and GF(2^31 - 1) for JSON.  The
        interpreters run once for the class; each test below reads them.
        """
        tmp_path = tmp_path_factory.mktemp("startup")
        sg_input = tmp_path / "points.json"
        points = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
        sg_input.write_text(json.dumps({"ambient": 2, "points": points}))
        lemma52_input = {
            "table": str(TestLemma52.planted_file(tmp_path)),
            "json": str(TestLemma52.planted_file(tmp_path, 2**31 - 1)),
        }
        lemma52 = {"fields", "jsonio", "lemma52", "projective"}
        table = {
            "pi": (["pi", "--delta", "20", "--ambient", "12"], {"numerology"}),
            "bounds": (["bounds", "--d", "4", "--genus", "7", "--df"], {"numerology"}),
            "profile": (["profile", "--d", "5", "--dagger"], {"numerology"}),
            "rh": (["rh", "--gx", "7", "--gy", "0", "--deg", "4", "--ram", "20"], {"numerology"}),
            "df": (["df", "--d", "4", "--m", "1"], {"sym2_lattice"}),
            "cone": (["cone", "--a", "5", "--b", "-1"], {"sym2_lattice"}),
            "sym2": (["sym2", "--modulus", "11", "--check"], {"sym2_pairs"}),
            "classify": (["classify", "--d", "5"], {"classify", "numerology", "sym2_lattice"}),
            "audit": (["audit", "--d", "5"], {"classify", "numerology", "sym2_lattice"}),
            "sg": (["sg", "--input", str(sg_input)], {"fields", "jsonio", "plane", "projective"}),
            "lemma52": (["lemma52", "--input", lemma52_input], lemma52),
        }
        runs = [("import", "", ["-c", "import lowdeg"], "", {"lowdeg"})]
        cli_runs = [(fmt, argv, modules) for argv, modules in table.values() for fmt in FORMATS]
        cli_runs.append(("json", ["lemma52", "--random", "--trials", "5"], lemma52))
        for fmt, argv, modules in cli_runs:
            argv = ["--format", fmt, *(a[fmt] if isinstance(a, dict) else a for a in argv)]
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                assert main(argv) == 0, argv
            modules = {"cli", "errors", *modules, *(["jsonio"] if fmt == "json" else [])}
            expected = {"lowdeg", *(f"lowdeg.{m}" for m in modules)}
            runs.append((argv[2], fmt, ["-m", "lowdeg", *argv], out.getvalue(), expected))
        fresh = [
            StartupRun(name, fmt, args, out, modules, run_fresh(["-X", "importtime", *args]))
            for name, fmt, args, out, modules in runs
        ]
        return table, fresh

    def test_each_subcommand_loads_exactly_its_modules(self, startup):
        table, runs = startup
        assert set(table) == set(subcommands())
        assert len(runs) == 2 * len(table) + 2
        for r in runs:
            assert lowdeg_modules(r) == r.modules, r.args

    def test_module_entry_point(self, startup):
        _, runs = startup
        (pi,) = (r for r in runs if (r.name, r.fmt) == ("pi", "table"))
        assert (pi.proc.returncode, pi.proc.stdout) == (0, "8\n")

    def test_fresh_process_runs_every_subcommand(self, startup):
        # a fresh run prints what main prints in this process, and only
        # -X importtime's own lines go to stderr
        table, runs = startup
        assert set(table) == set(subcommands())
        for r in runs:
            proc = r.proc
            assert (proc.returncode, proc.stdout) == (0, r.stdout), (r.args, proc.stderr[-300:])
            assert all(line.startswith("import time:") for line in proc.stderr.splitlines()), r.args

    def test_numerology_commands_import_no_geometry(self, startup):
        _, runs = startup
        numerology = [r for r in runs if r.name in ("import", "pi", "bounds", "profile", "rh")]
        assert len(numerology) == 9
        allowed = {"lowdeg", "lowdeg.cli", "lowdeg.errors", "lowdeg.numerology", "lowdeg.jsonio"}
        for r in numerology:
            assert lowdeg_modules(r) == r.modules, r.args
            assert r.modules <= allowed, r.args

    def test_commands_outside_configurations_import_no_dataclasses(self, startup):
        # standard modules that may load only with the lowdeg module that needs them
        _, runs = startup
        brought_in_by = {
            "lowdeg.configurations": {"dataclasses", "inspect"},
            "lowdeg.fields": {"fractions", "decimal"},
        }
        for r in runs:
            loaded = imported_modules(r.proc.stderr)
            for owner, stdlib in brought_in_by.items():
                assert owner in loaded or not loaded & stdlib, (r.args, loaded & stdlib)

    def test_sg_imports_no_dataclasses_and_no_other_gadget(self, startup):
        # sg runs lowdeg.plane, not the configurations facade and its report dataclass
        _, runs = startup
        sg = [r for r in runs if r.name == "sg"]
        assert len(sg) == 2
        for r in sg:
            loaded = imported_modules(r.proc.stderr)
            assert "lowdeg.plane" in loaded, r.args
            unwanted = {"dataclasses", "inspect", "lowdeg.lemma52", "lowdeg.sym2_pairs"}
            assert not loaded & unwanted, (r.args, loaded & unwanted)

    def test_lemma52_and_sym2_import_only_their_own_gadget(self, startup):
        # QQ input (table), GF(2^31 - 1) input (JSON), random lemma52, and sym2 in both formats
        _, runs = startup
        gadgets = [r for r in runs if r.name in ("lemma52", "sym2")]
        assert len(gadgets) == 5
        for r in gadgets:
            assert lowdeg_modules(r) == r.modules, r.args
            assert not r.modules & {"lowdeg.configurations", "lowdeg.classify"}, r.args

    def test_readers_import_no_geometry(self):
        # the readers decode and stop; building points and subspaces is the caller's
        code = (
            "import sys\n"
            "from lowdeg.jsonio import points_from_json, subspaces_from_json\n"
            "print(points_from_json({'ambient': 2, 'points': [['1', '0', '1/2']]}))\n"
            "gf5 = [[{'val': 1, 'mod': 5}, {'val': 7, 'mod': 5}]]\n"
            "print(subspaces_from_json({'subspaces': [{'ambient': 1, 'rows': gf5}]}))\n"
            "print(sorted(m for m in sys.modules if m.startswith('lowdeg')))\n"
        )
        proc = run_fresh(["-c", code])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "(QQ, [[Fraction(1, 1), Fraction(0, 1), Fraction(1, 2)]])\n"
            "(GF(5), [(1, [[1, 2]])])\n"
            "['lowdeg', 'lowdeg.errors', 'lowdeg.fields', 'lowdeg.jsonio']\n"
        )

    def test_reader_closing_early_is_one_line_exit_1(self):
        # 10 000 rows overfill the pipe, so the writer is still blocked when the reader leaves
        argv = ["-m", "lowdeg", "profile", "--d", "5000", "--nmax", "10000"]
        pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
        with subprocess.Popen([sys.executable, *argv], **pipes, env=fresh_env()) as proc:
            assert proc.stdout.readline().startswith(b"d = 5000")
            proc.stdout.close()
            err = proc.stderr.read().decode()
        assert proc.returncode == 1
        assert_one_write_error_line(err)
        assert "Broken pipe" in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_is_one_line_exit_1(self):
        for fmt, argv in itertools.product(
            ("table", "json"),
            (
                ["pi", "--delta", "20", "--ambient", "12"],
                ["profile", "--d", "50", "--nmax", "5000"],
            ),
        ):
            with open("/dev/full", "w") as full:
                proc = subprocess.run(
                    [sys.executable, "-m", "lowdeg", "--format", fmt, *argv],
                    stdout=full, stderr=subprocess.PIPE, text=True, env=fresh_env(),
                )
            assert proc.returncode == 1, argv
            assert_one_write_error_line(proc.stderr)

    def test_closed_stdout_is_one_line_exit_1(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lowdeg", "pi", "--delta", "20", "--ambient", "12"],
            stderr=subprocess.PIPE, text=True, env=fresh_env(), preexec_fn=lambda: os.close(1),
        )
        assert proc.returncode == 1
        assert_one_write_error_line(proc.stderr)

    def test_closed_stdin_is_one_line_exit_2(self):
        for command in ("sg", "lemma52"):
            proc = subprocess.run(
                [sys.executable, "-m", "lowdeg", command, "--input", "-"],
                capture_output=True, text=True, env=fresh_env(), preexec_fn=lambda: os.close(0),
            )
            assert (proc.returncode, proc.stdout) == (2, ""), command
            assert proc.stderr == "cannot read -: stdin is closed\n", command

    def test_env_var_sets_default_format(self, capsys, monkeypatch):
        monkeypatch.setenv("LOWDEG_FORMAT", "json")
        code, out, _ = run(capsys, "pi", "--delta", "20", "--ambient", "12")
        assert code == 0 and json.loads(out)["pi"] == 8

    def test_explicit_format_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("LOWDEG_FORMAT", "json")
        code, out, _ = run(capsys, "--format", "table", "pi", "--delta", "20", "--ambient", "12")
        assert code == 0 and out == "8\n"

    def test_invalid_env_format_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("LOWDEG_FORMAT", "yaml")
        code, _, err = run(capsys, "pi", "--delta", "20", "--ambient", "12")
        assert code == 2 and "LOWDEG_FORMAT" in err
        # a long value is quoted by its start and its length, in one short line
        monkeypatch.setenv("LOWDEG_FORMAT", "y" * 10_000)
        code, out, err = run(capsys, "pi", "--delta", "20", "--ambient", "12")
        assert (code, out) == (2, "")
        assert err == (
            "LOWDEG_FORMAT must be one of ('table', 'json'), "
            f"got '{'y' * 39}... (10002 characters)\n"
        )
        assert err.count("\n") == 1 and len(err) < 200

    @pytest.mark.parametrize(
        "argv",
        [
            ("bounds", "--d", "5"),
            ("profile", "--d", "5", "--dagger"),
            ("df", "--d", "4", "--m", "1"),
            ("classify", "--d", "3"),
            ("audit", "--d", "4"),
            ("sym2", "--modulus", "9", "--check"),
            ("rh", "--gx", "7", "--gy", "0", "--deg", "4", "--ram", "20"),
        ],
    )
    def test_json_round_trips_byte_identically(self, capsys, argv):
        code, out, _ = run(capsys, "--format", "json", *argv)
        assert code == 0
        assert_round_trips(out)


# ---------------------------------------------------------------------------
# Fuzzing: whatever the input, one exit code in {0, 1, 2}, at most one line
# on stderr, and never a traceback.

SCALARS = st.one_of(
    st.sampled_from(["0", "1", "-2/3", "1/0", "1.5", "1e9", "", "x"]),
    st.integers(-3, 3),
    st.fixed_dictionaries(
        {
            "val": st.one_of(st.integers(-3, 3), st.just(1.5)),
            "mod": st.sampled_from([0, 1, 2, 3, 4, 5, -7, 2**31 - 1, 2**31, True]),
        }
    ),
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(100, 4000).map(lambda digits: f"-{'7' * digits}/{digits}"),
    st.fixed_dictionaries({"val": st.integers(0, 2**31 - 2), "mod": st.just(2**31 - 1)}),
)
SMALL = st.sampled_from(["0", "1", "-1", "2"])
ROWS = st.one_of(
    st.lists(st.lists(SCALARS, max_size=5), max_size=5),
    st.lists(st.lists(SMALL, min_size=3, max_size=3), min_size=3, max_size=6),
    st.lists(st.lists(SMALL, min_size=5, max_size=5), min_size=3, max_size=3),
)
AMBIENTS = st.one_of(st.integers(-1, 4), st.sampled_from(["2", 2.0, True, None]))
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4)),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12,
)
SUBSPACES = st.fixed_dictionaries({"ambient": AMBIENTS, "rows": ROWS})


def long_points(n, digits):
    """n plane points with a coordinate of ``digits`` digits: past sg's work bound."""
    return {"ambient": 2, "points": [["1", str(k), "9" * digits] for k in range(n)]}


def many_points(n):
    """n distinct points over GF(2^31 - 1): past sg's point cap when n > 500."""
    rows = [[{"val": v, "mod": 2**31 - 1} for v in (1, k, k * k)] for k in range(n)]
    return {"ambient": 2, "points": rows}


def wide_members(ambient, scalar):
    """Three one-row members in P^ambient, each charged ambient + 2 rows of work."""
    row = [scalar(k) for k in range(ambient + 1)]
    return {"subspaces": [{"ambient": ambient, "rows": [row]}] * 3}


# Documents that the work bounds reject before any elimination or scan: long
# coordinates and the point cap for sg; for lemma52 --input, long rationals
# with distinct denominators, 2-digit rationals in P^80 and up, and
# GF(2^31 - 1) in P^100 and up.
OVERSIZED = st.one_of(
    st.builds(long_points, st.integers(30, 40), st.integers(3000, 4000)),
    st.builds(many_points, st.integers(501, 520)),
    st.builds(
        lambda ambient, digits: wide_members(ambient, lambda k: f"{k}/{'3' * digits}{k}"),
        st.integers(16, 20),
        st.integers(300, 4000),
    ),
    st.builds(lambda ambient: wide_members(ambient, lambda k: f"{k % 97}/7"), st.integers(80, 90)),
    st.builds(
        lambda ambient: wide_members(ambient, lambda k: {"val": k, "mod": 2**31 - 1}),
        st.integers(100, 110),
    ),
)
DOCUMENTS = st.one_of(
    st.fixed_dictionaries({"ambient": AMBIENTS, "points": ROWS}),
    st.fixed_dictionaries({"subspaces": st.lists(SUBSPACES, max_size=4)}),
    JSON_VALUES,
    OVERSIZED,
).map(lambda doc: json.dumps(doc).encode())
INPUT_BYTES = st.one_of(
    st.binary(max_size=64),
    DOCUMENTS,
    DOCUMENTS.flatmap(lambda raw: st.integers(0, len(raw)).map(lambda cut: raw[:cut])),
)


FOUR_THOUSAND_NINES = int("9" * 4000)


@st.composite
def flag_argvs(draw):
    """At most one flag out of range, so that most runs get to do work.  --seed takes
    any int, so its one wild value is in range."""
    huge = [10**6 + 1, -(10**6) - 1, FOUR_THOUSAND_NINES, -FOUR_THOUSAND_NINES]
    ranges = {
        "--modulus": (st.integers(5, 12), [-2, 4, 257, 10**9, *huge]),
        "--seed": (st.integers(0, 3), [FOUR_THOUSAND_NINES]),
        "--trials": (st.integers(1, 2), [0, -5, 10**9, *huge]),
        "--ambient": (st.integers(3, 6), [-2, 2, 17, 3000, *huge]),
        "--count": (st.integers(3, 6), [-2, 1, 2, 17, 10**9, *huge]),
        "--mod": (st.sampled_from([2, 3, 5, 101]), [-5, 0, 1, 4, 2**31, 10**40, *huge]),
        "--nmax": (st.integers(2, 12), [-3, 0, 1, 10_001, 10**7, *huge]),
        "--r2": (st.integers(2, 3), [-3, 0, 1, 6, *huge]),
        "--a": (st.integers(-20, 20), huge),
        "--b": (st.integers(-20, 20), huge),
        "--d": (st.integers(2, 12), [-3, 0, 1, *huge]),
        "--m": (st.integers(1, 2), [-3, 0, 13, *huge]),
        "--delta": (st.integers(1, 40), [-3, 0, *huge]),
        "--genus": (st.integers(2, 20), [-3, 0, 1, *huge]),
        "--gx": (st.integers(0, 10), [-1, *huge]),
        "--gy": (st.integers(0, 2), [-1, *huge]),
        "--deg": (st.integers(1, 6), [-1, 0, *huge]),
        "--ram": (st.integers(0, 30), [-1, 3, *huge]),
        "--source-genus": (st.integers(0, 5), [-1, *huge]),
        "--ram-points": (st.integers(0, 8), [-1, *huge]),
    }
    command, flags = draw(
        st.sampled_from(
            [
                ("sym2", ["--modulus"]),
                ("lemma52", ["--seed", "--trials", "--ambient", "--count", "--mod"]),
                ("profile", ["--d", "--r2", "--nmax"]),
                ("cone", ["--a", "--b"]),
                ("df", ["--d", "--m"]),
                ("pi", ["--delta", "--ambient"]),
                ("bounds", ["--d", "--genus"]),
                ("classify", ["--d"]),
                ("audit", ["--d"]),
                ("rh", ["--gx", "--gy", "--deg", "--ram"]),
                ("rh", ["--source-genus", "--ram-points"]),
            ]
        )
    )
    wild = draw(st.sampled_from([None, *flags]))
    argv = [command, *(["--random"] if command == "lemma52" else [])]
    for flag in flags:
        in_range, out_of_range = ranges[flag]
        value = draw(st.sampled_from(out_of_range) if flag == wild else in_range)
        argv += [flag, str(value)]
    if command == "sym2" and draw(st.booleans()):
        argv.append("--check")
    return argv


def run_in_process(argv, stdin=b""):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def run_guarded(argv, stdin=b""):
    code, _, errors = run_in_process(argv, stdin)
    assert code in (0, 1, 2)
    assert errors.count("\n") <= 1 and "Traceback" not in errors
    # errors.brief quotes a value of up to 60 characters whole, and cuts a longer one to 40
    assert not re.search(r"\d{61}", errors), errors[:100]
    assert (code == 0) == (errors == "")
    return code, errors


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    command=st.sampled_from(["sg", "lemma52"]),
    fmt=st.sampled_from(["json", "table"]),
    stdin=INPUT_BYTES,
)
def test_fuzzed_input_files(command, fmt, stdin):
    run_guarded(["--format", fmt, command, "--input", "-"], stdin)


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(doc=OVERSIZED)
def test_oversized_files_meet_a_bound(doc):
    command = "sg" if "points" in doc else "lemma52"
    argv = ["--format", "json", command, "--input", "-"]
    code, errors = run_guarded(argv, json.dumps(doc).encode())
    assert code == 2
    assert errors.startswith(("sg takes at most ", "lemma52 --input takes at most ")), errors


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(argv=flag_argvs())
def test_fuzzed_size_flags(argv):
    run_guarded(["--format", "json", *argv])


def planted_qq_family(ambient, count, share, seed):
    """A valid ``lemma52`` file over QQ and the rows of its planted Λ.  Λ's
    echelon rows carry integers of random sign and d digits off their pivots,
    and its last column is free, so each row has one; d is the longest, up to
    4000, whose file the work rule charges at most ``share`` percent of the
    limit.  Each member holds Λ's rows and a quotient point lifted onto Λ's
    free columns, as in ``planted_family``, mixed by a unitriangular matrix of
    small integers and shuffled."""
    from lowdeg.fields import QQ
    from lowdeg.lemma52 import charge_input
    from lowdeg.projective import ProjPoint, _det3

    def build(digits):
        rng = random.Random(seed)
        pivots = sorted(rng.sample(range(ambient), ambient - 2))
        free = [c for c in range(ambient + 1) if c not in pivots]
        planted = []
        for pivot in pivots:
            row = [int(c == pivot) for c in range(ambient + 1)]
            for c in free:
                if c > pivot:
                    row[c] = rng.randrange(10 ** (digits - 1), 10**digits) * rng.choice((1, -1))
            planted.append(row)
        points = {}  # distinct quotient points, the first three not collinear
        while len(points) < count:
            point = [rng.randint(-9, 9) for _ in range(3)]
            if any(point) and (len(points) != 2 or _det3(QQ, *points.values(), point)):
                points.setdefault(ProjPoint(QQ, point), point)
        members = []
        for point in points.values():
            rows = [[0] * (ambient + 1), *planted]
            for c, x in zip(free, point):
                rows[0][c] = x
            for r in range(len(rows)):  # add small multiples of the rows below
                for below in rows[r + 1 :]:
                    k = rng.randint(-2, 2)
                    rows[r] = [x + k * y for x, y in zip(rows[r], below)]
            rng.shuffle(rows)
            members.append((ambient, rows))
        return members, planted

    target = lowdeg.cli.MAX_LEMMA52_WORK * share // 100
    low, high = 1, 4000
    while low < high:
        mid = (low + high + 1) // 2
        if charge_input(QQ, build(mid)[0], sys.maxsize) <= target:
            low = mid
        else:
            high = mid - 1
    members, planted = build(low)
    rows_as_text = [[[str(x) for x in row] for row in rows] for _, rows in members]
    return {"subspaces": [{"ambient": ambient, "rows": rows} for rows in rows_as_text]}, planted


PLANTED_QQ_FAMILIES = st.builds(
    planted_qq_family,
    ambient=st.integers(3, 7),
    count=st.integers(3, 6),
    share=st.integers(1, 100),
    seed=st.integers(0, 2**16),
)


def table_rows(out):
    """The rows of the common subspace in a ``lemma52`` table."""
    lines = out.splitlines()
    rows = []
    for line in lines[lines.index("  rows:") + 1 :]:
        if line == "    -":
            rows.append([])
        elif line.startswith("      - "):
            rows[-1].append(line[len("      - ") :])
        else:
            return rows


# Valid files reach the output path: long entries, up to the work rule's edge.
@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(family=PLANTED_QQ_FAMILIES)
@example(family=planted_qq_family(ambient=6, count=3, share=100, seed=0))
def test_fuzzed_valid_families_print_the_planted_subspace(family):
    from lowdeg.fields import QQ
    from lowdeg.jsonio import subspace_to_json
    from lowdeg.projective import ProjSubspace

    doc, planted = family
    ambient = len(planted[0]) - 1
    expected = subspace_to_json(ProjSubspace.from_vectors(QQ, ambient, planted))["rows"]
    stdin = json.dumps(doc).encode()
    code, out, err = run_in_process(["--format", "json", "lemma52", "--input", "-"], stdin)
    assert (code, err) == (0, "")
    assert json.loads(out)["common_subspace"]["rows"] == expected
    code, out, err = run_in_process(["--format", "table", "lemma52", "--input", "-"], stdin)
    assert (code, err) == (0, "")
    assert table_rows(out) == expected
