"""Mutation gate: every catalogued mutant of lowdeg must make its named tests fail.

Each entry names a module under ``src/lowdeg``, an exact old text, the new text
that replaces it, and the pytest node IDs that must fail.  For each entry the
script copies ``src/``, ``tests/`` and ``pyproject.toml`` into a fresh temporary
directory, applies the mutant there and runs pytest on the named tests, ``WORKERS``
mutants at a time.  Before the mutants it runs every named test once on an
unmutated copy, since a test that already fails would kill any mutant.

The gate fails (exit 1) when a mutant survives, when its old text does not
occur exactly once in its module (so a refactor that moves the code must update
the catalogue), or when pytest ends other than by failing tests.  Stdlib only:

    python tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600
# pytest processes run at once: a mutant's run is mostly pytest's start-up and collection
WORKERS = 2


class Mutant(NamedTuple):
    name: str
    module: str
    old: str
    new: str
    tests: tuple[str, ...]


VALUE_RULE = "tests/test_projective.py::test_value_class_rule"
LEMMA52_ORACLES = (
    "tests/test_configurations.py::TestCommonSubspace::test_every_three_lines_of_p3_over_gf2",
    "tests/test_configurations.py::TestCommonSubspace::test_sampled_families_over_the_smallest_fields",
)
# the one oracle with long rational entries, so the one that reaches both sides of submul's size rule
DENSE_REFERENCE = "tests/test_projective.py::test_sparse_elimination_matches_the_dense_reference"
ELIMINATION_ORACLES = (
    DENSE_REFERENCE,
    "tests/test_projective.py::test_unit_pivots_match_the_dense_reference",
    *LEMMA52_ORACLES,
)
CONTAINMENT_ORACLE = (
    "tests/test_projective.py::TestContains::test_containment_matches_a_rank_oracle"
)
CHECK_INT_RULE = "tests/test_errors.py::test_check_int_rule"
HOSTILE_TABLE = "tests/test_errors.py::test_hostile_arguments"
RATIOS_ORACLE = "tests/test_fields.py::test_ratios_match_per_pair_division"
RANDOM_HELPERS = "tests/test_configurations.py::TestRandomHelpers"
PLANTED_DRAWS = f"{RANDOM_HELPERS}::test_planted_family_draws_are_pinned"
PLANTED_LIFT = f"{RANDOM_HELPERS}::test_planted_members_match_the_eliminated_lift"
INCIDENCE_THEOREMS = (
    "tests/test_configurations.py::TestSylvesterGallai::test_line_counts_obey_the_incidence_theorems"
)
TAG_CASES = (
    "tests/test_configurations.py::TestSylvesterGallai::test_each_tag_case_matches_the_triple_scan"
)
LEAD_CASES = (
    "tests/test_configurations.py::TestSylvesterGallai::test_each_lead_case_matches_the_triple_scan"
)
CORRUPTED_TABLE = "tests/test_classify.py::test_corrupted_table_fails_the_audit"
CRITERION_1 = "tests/test_acceptance.py::test_criterion_1_castelnuovo_anchor_and_monotonicity"
CRITERION_4 = "tests/test_acceptance.py::test_criterion_4_lattice_combinatorics_agreement"

CATALOGUE = (
    # the value-class base
    Mutant(
        "value-eq-by-isinstance",
        "errors.py",
        "if other.__class__ is self.__class__:",
        "if isinstance(other, self.__class__):",
        (VALUE_RULE,),
    ),
    Mutant(
        "pivots-as-a-field",
        "projective.py",
        '_fields = ("field", "ambient", "rows")\n    __slots__ = (*_fields, "pivot_columns")',
        '_fields = ("field", "ambient", "rows", "pivot_columns")\n    __slots__ = _fields',
        (VALUE_RULE, "tests/test_projective.py::test_pivots_are_not_a_field"),
    ),
    Mutant("value-without-slots", "errors.py", "    __slots__ = ()\n", "", (VALUE_RULE,)),
    # Lemma 5.2, against the plain-int oracles of the lemma as stated
    Mutant(
        "rank-check-weakened",
        "lemma52.py",
        "for image in later)",
        "for image in later[:1])",
        LEMMA52_ORACLES,
    ),
    Mutant(
        "member-2-not-tested-for-containment",
        "lemma52.py",
        "if i > 1 and not s.contains_subspace(lam):",
        "if i > 2 and not s.contains_subspace(lam):",
        LEMMA52_ORACLES,
    ),
    Mutant("distinct-image-check-removed", "lemma52.py", "if j != i:", "if False:", LEMMA52_ORACLES),
    Mutant(
        "codimension-3-bound-loosened",
        "lemma52.py",
        "if lam.dim < ambient - 3:",
        "if lam.dim < ambient - 4:",
        LEMMA52_ORACLES,
    ),
    Mutant(
        "coincidence-check-removed",
        "lemma52.py",
        "if lam.dim == ambient - 2:",
        "if False:",
        LEMMA52_ORACLES,
    ),
    Mutant(
        "image-read-off-the-last-row",
        "lemma52.py",
        "row = next(row for row, c in zip(s.rows, s.pivot_columns) if c not in lam_pivots)",
        "row = s.rows[-1]",
        LEMMA52_ORACLES,
    ),
    # planted members built on Λ's echelon rows, against the eliminated lift and the pinned draws
    Mutant(
        "planted-rows-left-uncleared",
        "lemma52.py",
        "rows = [tuple(lift_span._reduce(r)) for r in planted.rows]",
        "rows = list(planted.rows)",
        (PLANTED_LIFT, PLANTED_DRAWS),
    ),
    Mutant(
        "planted-lift-inserted-last",
        "lemma52.py",
        "at = sum(c < lead for c in pivots)",
        "at = len(pivots)",
        (PLANTED_LIFT, PLANTED_DRAWS),
    ),
    Mutant(
        "collinearity-guard-dropped",
        "lemma52.py",
        "on_first_line = len(points) == 2 and not _det3(field, *points, point)",
        "on_first_line = False",
        (PLANTED_DRAWS,),
    ),
    # the integer-argument rule and how it quotes a value
    Mutant(
        "check-int-accepts-bools",
        "errors.py",
        "if not isinstance(value, int) or isinstance(value, bool):",
        "if not isinstance(value, int):",
        (CHECK_INT_RULE,),
    ),
    Mutant("check-int-exclusive-low", "errors.py", "value < low", "value <= low", (CHECK_INT_RULE,)),
    Mutant(
        "brief-without-fallback",
        "errors.py",
        "except ValueError:  # such an int, or a value that holds one",
        "except TypeError:",
        (CHECK_INT_RULE,),
    ),
    # an entry point that drops its check_int, against the hostile-argument table
    Mutant(
        "random-point-unchecked",
        "lemma52.py",
        '    check_int("ambient", ambient, 0, MAX_INPUT)\n    return ProjPoint(',
        "    return ProjPoint(",
        (HOSTILE_TABLE,),
    ),
    Mutant(
        "random-subspace-ambient-unchecked",
        "lemma52.py",
        '    check_int("ambient", ambient, 0, MAX_INPUT)\n    check_int("dim", dim, -1, ambient)\n',
        '    check_int("dim", dim, -1, ambient)\n',
        (HOSTILE_TABLE,),
    ),
    Mutant(
        "profile-index-unchecked",
        "numerology.py",
        'return check_int("n", n, 2, self.n_max) - 2',
        "return n - 2",
        (HOSTILE_TABLE,),
    ),
    Mutant(
        "from-vectors-unchecked",
        "projective.py",
        '        check_int("ambient", ambient, 0, MAX_INPUT)\n        vecs = ',
        "        vecs = ",
        (HOSTILE_TABLE,),
    ),
    Mutant(
        "json-ambient-unchecked",
        "jsonio.py",
        'ambient = check_int("ambient", item["ambient"], 0, MAX_INPUT)',
        'ambient = item["ambient"]',
        (HOSTILE_TABLE,),
    ),
    Mutant(
        "charge-random-trials-unchecked",
        "lemma52.py",
        '    check_int("trials", trials, 0, MAX_INPUT, InputError)\n',
        "",
        (HOSTILE_TABLE,),
    ),
    # the quotient plane of a planted family, and the one work rule that prices it
    Mutant(
        "redraws-not-charged",
        "lemma52.py",
        "work = trials * (count * (ambient + 1) ** 3 + DRAW_WORK * redraws)",
        "work = trials * count * (ambient + 1) ** 3",
        (f"{RANDOM_HELPERS}::test_redraws_are_summed_past_half_the_plane",),
    ),
    Mutant(
        "plane-size-without-the-1",
        "lemma52.py",
        "field.p**2 + field.p + 1 if",
        "field.p**2 + field.p if",
        (f"{RANDOM_HELPERS}::test_family_fits_the_quotient_plane",),
    ),
    # the Sylvester-Gallai pass, against theorems on line counts
    Mutant(
        "three-point-lines-left-unmarked",
        "plane.py",
        "if len(group) > 1:",
        "if len(group) > 2:",
        (INCIDENCE_THEOREMS,),
    ),
    # the tag that keys a same-lead pair by q - p, against a QQ oracle whose
    # same-lead points lead with equal and with unequal integral entries
    Mutant(
        "tag-ignores-lead-entry",
        "plane.py",
        "tags = [3 * q[k] + k for k, q in zip(leads, coords)]",
        "tags = leads",
        (TAG_CASES,),
    ),
    # the three ways the pass keys a pair by its lead case, against a triple scan
    # that meets same-lead, later-lead and earlier-lead pairs on lines of three or more
    Mutant(
        "earlier-lead-drops-factor-t",
        "plane.py",
        "ra, rb = pk * q[a] - t * pa, pk * q[b] - t * pb",
        "ra, rb = pk * q[a] - pa, pk * q[b] - pb",
        (LEAD_CASES,),
    ),
    Mutant(
        "earlier-lead-keyed-as-same-lead",
        "plane.py",
        "if tags[j] == tag:",
        "if tags[j] == tag or leads[j] < k:",
        (LEAD_CASES,),
    ),
    Mutant(
        "earlier-lead-keyed-as-later-lead",
        "plane.py",
        "elif leads[j] > k:",
        "elif leads[j] != k:",
        (LEAD_CASES,),
    ),
    Mutant(
        "later-lead-keyed-as-same-lead",
        "plane.py",
        "if tags[j] == tag:",
        "if tags[j] == tag or leads[j] > k:",
        (LEAD_CASES,),
    ),
    # one dict probe per key, against the count of Fraction hashes
    Mutant(
        "keys-probed-twice",
        "plane.py",
        "            through_i.setdefault(key, []).append(j)\n",
        "            group = through_i.get(key)\n"
        "            if group is None:\n"
        "                through_i[key] = [j]\n"
        "            else:\n"
        "                group.append(j)\n",
        ("tests/test_configurations.py::TestSylvesterGallai::test_one_hash_per_key",),
    ),
    # the batch division of the pass, against per-pair division
    Mutant(
        "ratios-prefix-zero-test-unreduced",
        "fields.py",
        "for d in reduced:\n            before.append(product)",
        "for d in dens:\n            before.append(product)",
        (RATIOS_ORACLE,),
    ),
    Mutant(
        "ratios-prefix-off-by-one",
        "fields.py",
        "before.append(product)\n            if d:\n                product = product * d % p\n",
        "if d:\n                product = product * d % p\n            before.append(product)\n",
        (RATIOS_ORACLE,),
    ),
    # an anchor with no later point makes no batch, against the count of batches
    Mutant(
        "empty-ratios-batch",
        "plane.py",
        "        if not later:\n            continue\n",
        "",
        ("tests/test_configurations.py::TestSylvesterGallai::test_one_ratios_batch_per_anchor",),
    ),
    # the pivot cells that elimination sets instead of computing, against the dense reference
    Mutant(
        "cleared-cell-left-unset",
        "projective.py",
        "                other[c] = zero\n",
        "",
        ELIMINATION_ORACLES,
    ),
    Mutant(
        "scaled-pivot-left-unset",
        "projective.py",
        "            row[c] = one\n",
        "",
        ELIMINATION_ORACLES,
    ),
    Mutant(
        "reduced-pivot-left-unset",
        "projective.py",
        "                v[c] = zero\n",
        "",
        ELIMINATION_ORACLES,
    ),
    Mutant(
        "rref-support-skips-a-column",
        "projective.py",
        "range(c + 1, width) if row[k]",
        "range(c + 2, width) if row[k]",
        ELIMINATION_ORACLES,
    ),
    Mutant(
        "reduce-skips-a-column",
        "projective.py",
        "range(c + 1, len(row))",
        "range(c + 2, len(row))",
        ELIMINATION_ORACLES,
    ),
    # both sides of QQ's cell-update size rule, against the dense reference's operators
    Mutant(
        "submul-numerator-drops-a-denominator",
        "fields.py",
        "x.numerator * fd * yd - f.numerator",
        "x.numerator * fd - f.numerator",
        ELIMINATION_ORACLES,
    ),
    Mutant(
        "submul-long-entries-add",
        "fields.py",
        "            return x - f * y\n",
        "            return x + f * y\n",
        (DENSE_REFERENCE,),
    ),
    # the pivot search, which must skip the rows that already hold a pivot
    Mutant(
        "pivot-search-from-row-0",
        "projective.py",
        "for p in range(r, height):",
        "for p in range(height):",
        ELIMINATION_ORACLES,
    ),
    # a unit pivot skips inv, against the reference that never does
    Mutant(
        "unit-pivot-test-inverted",
        "projective.py",
        "if row[c] != one:",
        "if row[c] == one:",
        ("tests/test_projective.py::test_unit_pivots_match_the_dense_reference",),
    ),
    # a column with no pivot is skipped, not the end of elimination
    Mutant(
        "rref-zero-column-stops",
        "projective.py",
        "        else:\n            continue\n",
        "        else:\n            break\n",
        (LEMMA52_ORACLES[0],),
    ),
    # the witness bases of Miller-Rabin, against a sieve and 25326001, a strong
    # pseudoprime to bases 2, 3 and 5
    Mutant(
        "miller-rabin-without-base-7",
        "fields.py",
        "for base in (2, 3, 5, 7):\n        x = pow(base, d, n)",
        "for base in (2, 3, 5):\n        x = pow(base, d, n)",
        ("tests/test_fields.py::test_is_prime_matches_trial_division",),
    ),
    # the rational reader's denominator
    Mutant(
        "rational-without-denominator",
        "fields.py",
        '_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")',
        '_RATIONAL = re.compile(r"(-?[0-9]+)")',
        ("tests/test_fields.py::TestScalarJson::test_rational_strings",),
    ),
    # the magnitude cap on negative flags
    Mutant(
        "magnitude-cap-without-abs",
        "cli.py",
        "abs(value) > MAX_INPUT",
        "value > MAX_INPUT",
        ("tests/test_cli.py::TestDfAndCone::test_magnitude_caps",),
    ),
    # a subspaces file over two fields
    Mutant(
        "subspaces-file-fields-unchecked",
        "jsonio.py",
        "field = member_field if field is None else require_same_field(field, member_field)",
        "field = member_field",
        ("tests/test_cli.py::TestLemma52::test_one_field_per_file",),
    ),
    # meet's split of the reduced rows into the two halves and the order of the halves,
    # against the Lemma 5.2 oracles, and the order of its rows, against its work pin
    Mutant(
        "meet-split-inclusive",
        "projective.py",
        "k = sum(c < width for c in pivots)",
        "k = sum(c <= width for c in pivots)",
        LEMMA52_ORACLES,
    ),
    Mutant(
        "meet-halves-swapped",
        "projective.py",
        "[s1._reduce(b) + list(b) for b in",
        "[list(b) + s1._reduce(b) for b in",
        LEMMA52_ORACLES,
    ),
    Mutant(
        "meet-rows-top-down",
        "projective.py",
        "for b in reversed(s2.rows)",
        "for b in s2.rows",
        ("tests/test_projective.py::TestEliminationWork::test_meet_pivots_on_the_last_rows",),
    ),
    # containment read off the pivots, against a rank oracle in plain ints
    Mutant(
        "containment-pivot-subset-dropped",
        "projective.py",
        "if len(extra) != len(by_pivot) - len(pivots):",
        "if False:",
        (CONTAINMENT_ORACLE,),
    ),
    Mutant(
        "containment-skips-extra-pivots",
        "projective.py",
        "                for c, row in extra:\n",
        "                for c, row in ():\n",
        (CONTAINMENT_ORACLE,),
    ),
    # the classification audit, against corruptions of the table it must catch
    Mutant(
        "audit-runner-always-passes",
        "classify.py",
        "checks.append(AuditCheck(name=name, passed=passed, detail=detail))",
        "checks.append(AuditCheck(name=name, passed=True, detail=detail))",
        (CORRUPTED_TABLE,),
    ),
    Mutant(
        "audit-runner-lets-errors-through",
        "classify.py",
        "except LowdegError as exc:\n            passed, detail",
        "except TypeError as exc:\n            passed, detail",
        (CORRUPTED_TABLE,),
    ),
    Mutant(
        "d5-cap-at-least-8",
        "classify.py",
        "castelnuovo_pi(20, 12) == 8,",
        "castelnuovo_pi(20, 12) >= 8,",
        (CORRUPTED_TABLE,),
    ),
    Mutant(
        "sporadic-cap-not-compared",
        "classify.py",
        "lambda: genus <= cap and genus <= bound.overall,",
        "lambda: genus <= bound.overall,",
        (CORRUPTED_TABLE,),
    ),
    Mutant(
        "df-effective-range-one-short",
        "classify.py",
        "for m in range(low, high + 1)),",
        "for m in range(low, high)),",
        (CORRUPTED_TABLE,),
    ),
    Mutant(
        "df-m-range-top-not-probed-past",
        "classify.py",
        "(low - 1, low, high, high + 1)]\n                == [False, True, True, False],",
        "(low - 1, low, high)]\n                == [False, True, True],",
        (CORRUPTED_TABLE,),
    ),
    Mutant(
        "quartic-genus-only-capped",
        "classify.py",
        "lambda: genus == pi)",
        "lambda: genus <= pi)",
        (CORRUPTED_TABLE,),
    ),
    Mutant(
        "rank-flag-not-compared-with-mode",
        "classify.py",
        'lambda: ranks == [mode == "arithmetic"],',
        "lambda: len(ranks) == 1,",
        (CORRUPTED_TABLE,),
    ),
    # the paper's numbers: Castelnuovo, the genus and gonality ceilings, the ledger floors
    Mutant(
        "castelnuovo-without-m-eps",
        "numerology.py",
        "return m * (m - 1) * (n - 1) // 2 + m * eps",
        "return m * (m - 1) * (n - 1) // 2 + eps",
        (CRITERION_1,),
    ),
    Mutant(
        "castelnuovo-divmod-of-delta",
        "numerology.py",
        "divmod(delta - 1, n - 1)",
        "divmod(delta, n - 1)",
        (CRITERION_1,),
    ),
    Mutant(
        "special-bound-ambient-2r",
        "numerology.py",
        "castelnuovo_pi(e + 2 * d, 2 * r + 1)",
        "castelnuovo_pi(e + 2 * d, 2 * r)",
        ("tests/test_numerology.py::TestOtherGenusBounds::test_special_values",),
    ),
    Mutant(
        "main-bound-epsilon-shifted",
        "numerology.py",
        "epsilon = 3 * d - 1 - 6 * m",
        "epsilon = 3 * d - 6 * m",
        ("tests/test_cli.py::TestBounds::test_genus_bounds",),
    ),
    Mutant(
        "non-df-bound-plus-1",
        "numerology.py",
        "bound_non_df_dagger=(d - 1) * (d - 2) // 2 + 2,",
        "bound_non_df_dagger=(d - 1) * (d - 2) // 2 + 1,",
        ("tests/test_acceptance.py::test_criterion_7_classification_table",),
    ),
    Mutant(
        "governing-without-tie",
        "numerology.py",
        "elif bound_no_dagger > bound_dagger:",
        "elif bound_no_dagger >= bound_dagger:",
        ("tests/test_numerology.py::TestGenusBoundMain::test_governing_crossover",),
    ),
    Mutant(
        "gonality-floor-g-plus-2",
        "numerology.py",
        "genus_based_geometric = (g + 3) // 2",
        "genus_based_geometric = (g + 2) // 2",
        ("tests/test_cli.py::TestBounds::test_gonality_section",),
    ),
    Mutant(
        "odd-d-floor-dropped",
        "numerology.py",
        "if n == 4 and d >= 5 and d % 2 == 1:",
        "if False:",
        ("tests/test_numerology.py::TestRsProfile::test_floors_hold_across_the_range",),
    ),
    Mutant(
        "primed-base-dropped",
        "numerology.py",
        "rprime_lb=(2, *r_lb[1:])",
        "rprime_lb=tuple(r_lb)",
        ("tests/test_numerology.py::TestRsProfile::test_base_values",),
    ),
    Mutant(
        "rh-degree-floor-2",
        "numerology.py",
        "return max(1, (t + 2 * g_base - 2) // (t - 2))",
        "return max(2, (t + 2 * g_base - 2) // (t - 2))",
        ("tests/test_numerology.py::TestRiemannHurwitz::test_five_points_force_isomorphism",),
    ),
    # the Sym^2 lattice: the effective cone, the Debarre-Fahlaoui range, pairing, gonality guard
    Mutant(
        "effective-boundary-excluded",
        "sym2_lattice.py",
        "return c.a >= 0 and c.a + 2 * c.b >= 0",
        "return c.a >= 0 and c.a + 2 * c.b > 0",
        (CRITERION_4,),
    ),
    Mutant(
        "df-top-m-refused",
        "sym2_lattice.py",
        "if not 1 <= m <= d:",
        "if not 1 <= m < d:",
        (CRITERION_4,),
    ),
    Mutant(
        "gonality-guard-not-strict",
        "sym2_lattice.py",
        "return 2 * params.m < params.d",
        "return 2 * params.m <= params.d",
        ("tests/test_sym2_lattice.py::TestDebarreFahlaoui::test_gonality_guard",),
    ),
    Mutant(
        "pairing-not-symmetric",
        "sym2_lattice.py",
        "c1.a * c2.b + c2.a * c1.b",
        "2 * c1.a * c2.b",
        ("tests/test_acceptance.py::test_criterion_2_genus_bound_coherence",),
    ),
    # the finite Sym^2 model's divisor families
    Mutant(
        "fiber-divisor-missing-a-pair",
        "sym2_pairs.py",
        "low = [(x, s - x) for x in range(s // 2 + 1)]",
        "low = [(x, s - x) for x in range(s // 2)]",
        (CRITERION_4,),
    ),
    # a row equal to its expected slice is passed whole, against corrupted divisors
    Mutant(
        "every-row-passed-whole",
        "sym2_pairs.py",
        "if row[i + 1:] == (ones if i < n else zeros)[i + 1:]:",
        "if True:",
        ("tests/test_configurations.py::TestSym2Model::test_corrupted_models_match_the_reference",),
    ),
    Mutant(
        "diagonal-not-flagged",
        "sym2_pairs.py",
        "flagged = tuple(p for p in members if p[0] == p[1])",
        "flagged = ()",
        ("tests/test_configurations.py::TestSym2Model::test_two_divisor_flags_diagonal",),
    ),
)


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(cwd: Path, tests: tuple[str, ...]) -> tuple[int, str]:
    """pytest's exit code on ``tests`` in ``cwd`` (-1 on timeout) and its output's last lines.

    Plugin autoload is off, as loading every installed plugin costs more than most
    named tests; hypothesis's plugin is loaded by name, since the tests use it."""
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    command += ["-p", "_hypothesis_pytestplugin", *tests]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"}
    try:
        done = subprocess.run(
            command, cwd=cwd, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return -1, f"timed out after {TIMEOUT_S} s"
    return done.returncode, "\n".join((done.stdout + done.stderr).splitlines()[-15:])


def run_mutant(mutant: Mutant) -> str | None:
    """None when the mutant is killed, else why the gate fails on it."""
    with tempfile.TemporaryDirectory(prefix="lowdeg-mutant-") as tmp:
        _copy_tree(Path(tmp))
        path = Path(tmp) / "src" / "lowdeg" / mutant.module
        source = path.read_text()
        count = source.count(mutant.old)
        if count != 1:
            return f"its old text occurs {count} times in {mutant.module}, not once"
        path.write_text(source.replace(mutant.old, mutant.new))
        code, tail = _pytest(Path(tmp), mutant.tests)
    if code == 1:  # tests ran and some failed
        return None
    if code == 0:
        return "survived: every named test passed"
    return f"pytest exited {code}:\n{tail}"


def _timed(mutant: Mutant) -> tuple[str | None, float]:
    start = time.perf_counter()
    problem = run_mutant(mutant)
    return problem, time.perf_counter() - start


def main() -> int:
    tests = tuple(dict.fromkeys(t for m in CATALOGUE for t in m.tests))
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="lowdeg-mutant-") as tmp:
        _copy_tree(Path(tmp))
        code, tail = _pytest(Path(tmp), tests)
    if code != 0:
        print(f"the named tests do not pass unmutated (pytest exited {code}):\n{tail}")
        return 1
    print(f"baseline: {len(tests)} named tests pass unmutated ({time.perf_counter() - start:.1f} s)")
    failures = 0
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        for mutant, (problem, seconds) in zip(CATALOGUE, pool.map(_timed, CATALOGUE)):
            failures += problem is not None
            print(f"{'killed' if problem is None else 'FAILED'}  {mutant.name} ({seconds:.1f} s)")
            if problem is not None:
                print(f"    {mutant.module}: {problem}")
    print(f"{len(CATALOGUE) - failures} of {len(CATALOGUE)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
