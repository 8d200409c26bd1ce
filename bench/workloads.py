"""Seeded inputs, the timed op and an independent answer check per workload.

Every input is a function of ``(workload, seed)`` alone: random generators are
seeded from strings, which Python hashes with SHA-512, so they do not depend
on ``PYTHONHASHSEED``.  lowdeg receives only the generated inputs.

A workload object offers:

* ``pass_ops(k)`` -- the op specs of pass ``k``.  A pass has a fixed input mix
  that does not depend on the seed; the seed only changes coordinates, so the
  cost of a pass is steady from seed to seed;
* ``rss_passes`` -- peak RSS is read after this many passes, a fixed amount of
  work, so that a faster host or a faster lowdeg does not change it;
* ``op(spec)`` -- the timed call into lowdeg, returning its answer;
* ``check(spec, answer)`` -- untimed; True when the answer is right.  The
  checks use the plain int/Fraction arithmetic of ``exact.py``, not lowdeg;
* ``corrupt(answer)`` -- a wrong answer, for the self-test of ``check``;
* ``calibrate()`` -- ns taken by a fixed job that does not run lowdeg but
  resembles the op, and ``reference_calibration_ns``, the time it takes on a
  reference host.  Timed ops are scaled by their ratio;
* ``describe()`` -- canonical bytes of the generated inputs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import calibration
from exact import cross, line_through, lines_oracle, on_line, rank
from lowdeg import configurations as conf, jsonio
from lowdeg.fields import QQ, PrimeField
from lowdeg.projective import ProjPoint, ProjSubspace

MERSENNE31 = 2**31 - 1
CLASSIFICATION_FIXTURE = Path("tests") / "data" / "classification_table.json"


def rng_for(workload: str, seed: int, *tag: object) -> random.Random:
    return random.Random("/".join(["lowdeg-bench", workload, str(seed), *map(str, tag)]))


def field_of(modulus):
    return QQ if modulus is None else PrimeField(modulus)


def _modulus(field):
    return field.p if isinstance(field, PrimeField) else None


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


# ---------------------------------------------------------------------------
# Plane configurations


def _random_vector(rng, p, bound=6):
    while True:
        if p is None:
            vec = tuple(Fraction(rng.randint(-bound, bound)) for _ in range(3))
        else:
            vec = tuple(rng.randrange(p) for _ in range(3))
        if any(vec):
            return vec


@dataclasses.dataclass
class PlaneCase:
    """A plane configuration with what is known about it by construction."""

    label: str
    config: conf.PointConfig
    planted: list  # index sets known to be collinear
    affine_order: int  # q for a copy of AG(2, q), else 0


def planted_config(rng, modulus, n, line_sizes, label) -> PlaneCase:
    """n distinct points: one line per entry of ``line_sizes`` carrying that
    many points, the rest drawn at random."""
    field = field_of(modulus)
    index: dict = {}
    coords: list = []

    def add(vec):
        key = ProjPoint(field, vec).coords
        if key not in index:
            index[key] = len(coords)
            coords.append(key)
        return index[key]

    planted = []
    for size in line_sizes:
        while True:
            a, b = _random_vector(rng, modulus, 3), _random_vector(rng, modulus, 3)
            if any(cross(a, b, modulus)):
                break
        ts = rng.sample(range(-5, 6) if modulus is None else range(modulus), size)
        planted.append({add(tuple(x + t * y for x, y in zip(a, b))) for t in ts})
    while len(coords) < n:
        add(_random_vector(rng, modulus))
    order = list(range(len(coords)))
    rng.shuffle(order)
    where = {old: new for new, old in enumerate(order)}
    points = tuple(ProjPoint(field, coords[old]) for old in order)
    return PlaneCase(
        label,
        conf.PointConfig(points),
        [sorted(where[i] for i in members) for members in planted],
        0,
    )


def affine_plane_config(rng, q, label) -> PlaneCase:
    """AG(2, q) under a random projective transformation, points shuffled: a
    Sylvester-Gallai configuration with q^2 + q lines of q points each."""
    field = PrimeField(q)
    while True:
        m = [[rng.randrange(q) for _ in range(3)] for _ in range(3)]
        if rank(m, q) == 3:
            break
    points = [
        ProjPoint(field, tuple(sum(m[r][c] * v[c] for c in range(3)) for r in range(3)))
        for v in ((x, y, 1) for x in range(q) for y in range(q))
    ]
    rng.shuffle(points)
    return PlaneCase(label, conf.PointConfig(tuple(points)), [], q)


def check_lines(case: PlaneCase, lines) -> bool:
    """True when ``lines`` are exactly the lines of the configuration: each is
    collinear, no two lie on one line, and every pair is on exactly one."""
    points = [pt.coords for pt in case.config.points]
    n, p = len(points), _modulus(case.config.field)
    pairs = set()
    seen_lines = set()
    for line in lines:
        if len(line) < 2 or list(line) != sorted(set(line)) or not 0 <= line[0] <= line[-1] < n:
            return False
        coords = line_through(points[line[0]], points[line[1]], p)
        if coords in seen_lines or not all(on_line(coords, points[i], p) for i in line):
            return False
        seen_lines.add(coords)
        for a in range(len(line)):
            for b in range(a + 1, len(line)):
                if (line[a], line[b]) in pairs:
                    return False
                pairs.add((line[a], line[b]))
    if len(pairs) != n * (n - 1) // 2:
        return False
    if not all(any(set(members) <= set(line) for line in lines) for members in case.planted):
        return False
    q = case.affine_order
    return not q or (len(lines) == q * q + q and all(len(line) == q for line in lines))


def check_sg_answer(case: PlaneCase, lines, num_points, is_sg, max_collinear, witness) -> bool:
    """The Sylvester-Gallai report against the lines it must agree with."""
    sizes = [len(line) for line in lines]
    return (
        num_points == len(case.config)
        and max_collinear == max(sizes)
        and is_sg == (2 not in sizes)
        and (witness is None) == is_sg
        and (witness is None or tuple(witness) in {line for line in lines if len(line) == 2})
    )


class SgScan:
    """One op: ``check_sylvester_gallai`` then ``maximal_lines``, which is what
    ``lowdeg sg`` computes."""

    name = "sg-scan"
    rss_passes = 2
    calibrate = staticmethod(calibration.arith)
    reference_calibration_ns = calibration.ARITH_REFERENCE_NS
    # (modulus or None for QQ, n, planted line sizes; () means random points only)
    MIX = (
        (None, 10, (4, 3)),
        (101, 20, ()),
        (MERSENNE31, 30, ()),
        (None, 12, ()),
        (101, 40, (8, 6, 5)),
        (MERSENNE31, 20, (5, 4)),
        (None, 14, (5, 4)),
        (101, 30, (6, 5)),
        (MERSENNE31, 40, (7, 5)),
        (None, 16, (6,)),
        (101, 50, (10, 7)),
        (MERSENNE31, 50, (9, 6, 4)),
    )
    AFFINE_ORDERS = (5, 7)

    def __init__(self, seed: int, workdir: Path):
        cases = []
        for i, (modulus, n, sizes) in enumerate(self.MIX):
            label = f"{'QQ' if modulus is None else f'GF({modulus})'} n={n} lines={list(sizes)}"
            cases.append(planted_config(rng_for(self.name, seed, i), modulus, n, sizes, label))
        hesse = conf.hesse_configuration()
        cases.append(PlaneCase("hesse", hesse, [], 3))
        for q in self.AFFINE_ORDERS:
            cases.append(affine_plane_config(rng_for(self.name, seed, f"AG{q}"), q, f"AG(2,{q})"))
        self.cases = cases
        self.warmup = planted_config(rng_for(self.name, seed, "warmup"), 101, 10, (3,), "warmup")

    def pass_ops(self, k: int):
        return self.cases

    def op(self, case: PlaneCase):
        report = conf.check_sylvester_gallai(case.config)
        return report, conf.maximal_lines(case.config)

    def check(self, case: PlaneCase, answer) -> bool:
        report, lines = answer
        return check_lines(case, lines) and check_sg_answer(
            case,
            lines,
            report.num_points,
            report.is_sylvester_gallai,
            report.max_collinear,
            report.witness,
        )

    def corrupt(self, answer):
        report, lines = answer
        return dataclasses.replace(report, max_collinear=report.max_collinear + 1), lines

    def describe(self) -> bytes:
        return _canonical(
            [
                [case.label, jsonio.point_config_to_json(case.config), case.planted]
                for case in self.cases + [self.warmup]
            ]
        )


# ---------------------------------------------------------------------------
# Random lemma-5.2 trials


@dataclasses.dataclass
class Trial:
    field: object
    ambient: int
    count: int
    tag: str
    rng: random.Random


class Lemma52Random:
    """One op is one trial as ``lowdeg lemma52 --random`` runs it: draw an
    instance, extract the common subspace, check dimension and containment."""

    name = "lemma52-random"
    # Peak RSS grows with the trials run, as the annihilator cache fills.
    rss_passes = 40
    calibrate = staticmethod(calibration.arith)
    reference_calibration_ns = calibration.ARITH_REFERENCE_NS
    # (modulus or None for QQ, ambient, family size)
    MIX = (
        (3, 4, 4),
        (5, 4, 4),
        (101, 5, 4),
        (None, 4, 4),
        (3, 4, 5),
        (5, 4, 5),
        (101, 5, 5),
        (None, 5, 5),
        (3, 4, 6),
        (5, 4, 6),
        (101, 5, 6),
        (None, 5, 6),
    )

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.fields = {m: field_of(m) for m, _, _ in self.MIX}
        self.warmup = self._trial(5, 4, 4, "warmup")

    def _trial(self, modulus, ambient, count, tag) -> Trial:
        rng = rng_for(self.name, self.seed, tag)
        return Trial(self.fields[modulus], ambient, count, tag, rng)

    def pass_ops(self, k: int):
        return [self._trial(m, a, c, f"{k}/{i}") for i, (m, a, c) in enumerate(self.MIX)]

    def op(self, trial: Trial):
        members = conf.random_common_subspace_instance(
            trial.rng, trial.field, trial.ambient, count=trial.count
        )
        lam = conf.common_subspace(members)
        ok = lam.dim == trial.ambient - 3 and all(s.contains_subspace(lam) for s in members)
        return ok, members, lam

    def check(self, trial: Trial, answer) -> bool:
        ok, members, lam = answer
        p = _modulus(trial.field)
        if not ok or len(members) != trial.count or rank(lam.rows, p) != trial.ambient - 2:
            return False
        return all(rank(list(s.rows) + list(lam.rows), p) == rank(s.rows, p) for s in members)

    def corrupt(self, answer):
        ok, members, lam = answer
        return ok, members, members[0]

    def describe(self) -> bytes:
        draws = [
            [repr(t.field), t.ambient, t.count, t.tag, t.rng.getrandbits(64)]
            for k in range(2)
            for t in self.pass_ops(k)
        ]
        return _canonical(draws)


# ---------------------------------------------------------------------------
# Whole lowdeg command lines


@dataclasses.dataclass
class Command:
    argv: list
    kind: str
    expected: object = None
    case: object = None


def lemma52_family(rng, modulus, ambient, count):
    """A family through a planted codimension-3 subspace, valid by construction
    and confirmed by ranks; returns (planted, members)."""
    field = field_of(modulus)

    def scalar():
        if modulus is None:
            return Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        return rng.randrange(modulus)

    while True:
        vectors = [[scalar() for _ in range(ambient + 1)] for _ in range(ambient - 2)]
        planted = ProjSubspace.from_vectors(field, ambient, vectors)
        extras = [[scalar() for _ in range(ambient + 1)] for _ in range(count)]
        members = [
            ProjSubspace.from_vectors(field, ambient, list(planted.rows) + [e]) for e in extras
        ]

        def dim_with(*idx):
            rows = list(planted.rows) + [extras[i] for i in idx]
            return ProjSubspace.from_vectors(field, ambient, rows).dim

        if (
            planted.dim == ambient - 3
            and all(m.dim == ambient - 2 for m in members)
            and all(dim_with(i, j) == ambient - 1 for i in range(count) for j in range(i + 1, count))
            and dim_with(*range(count)) == ambient
        ):
            return planted, members


class CliRuns:
    """One op is one ``python -m lowdeg --format {json|table} ...`` process,
    started with the worker's environment, which has ``src`` on ``PYTHONPATH``."""

    name = "cli"
    rss_passes = 1
    VARIANTS = 2
    # (modulus or None for QQ, ambient, family size) of the lemma52 input files
    FAMILIES = (
        (MERSENNE31, 5, 4), (MERSENNE31, 5, 4), (MERSENNE31, 5, 4), (101, 5, 5), (None, 4, 5)
    )

    def __init__(self, seed: int, workdir: Path, in_process: bool = False):
        if in_process:
            from lowdeg import cli

            self.main = cli.main
        self.in_process = in_process
        if in_process:
            self.calibrate = calibration.arith
            self.reference_calibration_ns = calibration.ARITH_REFERENCE_NS
        else:
            self.calibrate = calibration.interpreter
            self.reference_calibration_ns = calibration.INTERPRETER_REFERENCE_NS
        fixture = json.loads(CLASSIFICATION_FIXTURE.read_text(encoding="utf-8"))
        self.classify_cell = next(
            c for c in fixture["cells"] if c["d"] == 5 and c["mode"] == "arithmetic"
        )
        self.files: list = []
        workdir.mkdir(parents=True, exist_ok=True)
        self.variants = [self._file_ops(seed, workdir, v) for v in range(self.VARIANTS)]
        self.short = [
            Command(["--format", "table", "pi", "--delta", "20", "--ambient", "12"], "pi"),
            Command(["--format", "json", "pi", "--delta", "20", "--ambient", "12"], "pi"),
            Command(["--format", "json", "bounds", "--d", "5", "--genus", "7", "--df"], "bounds"),
            Command(["--format", "table", "profile", "--d", "5", "--dagger"], "profile"),
            Command(["--format", "json", "classify", "--d", "5"], "classify"),
            Command(["--format", "table", "audit", "--d", "5"], "audit"),
            Command(["--format", "json", "sym2", "--modulus", "101", "--check"], "sym2"),
            Command(["--format", "table", "rh", "--source-genus", "1", "--ram-points", "4"], "rh"),
        ]
        self.warmup = self.short[0]

    def _write(self, path: Path, data) -> str:
        path.write_text(jsonio.canonical_dumps(data) + "\n", encoding="utf-8")
        self.files.append(path)
        return str(path)

    def _file_ops(self, seed, workdir, v):
        ops = []
        for i, (modulus, ambient, count) in enumerate(self.FAMILIES):
            rng = rng_for(self.name, seed, v, i)
            planted, members = lemma52_family(rng, modulus, ambient, count)
            path = self._write(workdir / f"lemma52-{v}-{i}.json", jsonio.subspaces_to_json(members))
            expected = {
                "mode": "input",
                "num_subspaces": count,
                "common_subspace": json.loads(json.dumps(jsonio.subspace_to_json(planted))),
                "dim": ambient - 3,
            }
            ops.append(Command(["--format", "json", "lemma52", "--input", path], "lemma52", expected))
        planted = planted_config(rng_for(self.name, seed, v, "sg"), 101, 10, (4,), "sg")
        affine = affine_plane_config(rng_for(self.name, seed, v, "AG3"), 3, "AG(2,3)")
        for tag, case in (("planted", planted), ("affine", affine)):
            path = self._write(workdir / f"sg-{v}-{tag}.json", jsonio.point_config_to_json(case.config))
            points = [pt.coords for pt in case.config.points]
            lines = lines_oracle(points, _modulus(case.config.field))
            ops.append(Command(["--format", "json", "sg", "--input", path], "sg", lines, case))
        return ops

    def pass_ops(self, k: int):
        files = self.variants[k % self.VARIANTS]
        s = self.short
        return [
            s[0], files[0], s[1], files[5], s[2], files[3], s[3], files[1],
            s[4], files[4], s[5], files[6], s[6], files[2], s[7],
        ]

    def op(self, command: Command):
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.main(command.argv)
            return code, out.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "lowdeg", *command.argv], capture_output=True, text=True, timeout=60
        )
        return proc.returncode, proc.stdout

    def check(self, command: Command, answer) -> bool:
        code, out = answer
        if code != 0:
            return False
        try:
            return getattr(self, f"_check_{command.kind}")(command, out)
        except (ValueError, KeyError, TypeError, IndexError, StopIteration):
            return False

    def corrupt(self, answer):
        code, out = answer
        return code, "corrupted\n" + out

    def describe(self) -> bytes:
        digest = hashlib.sha256()
        for path in self.files:
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        argvs = [[c.argv for c in self.pass_ops(k)] for k in range(self.VARIANTS)]
        return _canonical([digest.hexdigest(), argvs]).replace(
            str(self.files[0].parent).encode(), b"<workdir>"
        )

    @staticmethod
    def _check_pi(command, out):
        if "json" in command.argv:
            return json.loads(out)["pi"] == 8
        return out.strip() == "8"

    @staticmethod
    def _check_rh(command, out):
        return out.strip() == "2"

    @staticmethod
    def _check_bounds(command, out):
        data = json.loads(out)
        return (
            data["d"] == 5
            and data["bound_dagger"] == 11
            and data["bound_no_dagger"] == 10
            and data["overall"] == 11
            and data["governing"] == "dagger"
            and data["gonality"]["genus"] == 7
        )

    @staticmethod
    def _check_profile(command, out):
        head, header, *rows = out.splitlines()
        return (
            head.startswith("d = 5  dagger = true")
            and header.split()[:2] == ["n", "r"]
            and [[int(x) for x in row.split()[:2]] for row in rows]
            == [[2, 2], [3, 5], [4, 9], [5, 14]]
        )

    def _check_classify(self, command, out):
        return json.loads(out) == self.classify_cell

    @staticmethod
    def _check_audit(command, out):
        lines = out.splitlines()
        return lines[0] == "audit d = 5: PASS" and len(lines) > 1 and not any(
            "[FAIL]" in line for line in lines
        )

    @staticmethod
    def _check_sym2(command, out):
        data = json.loads(out)
        n = 101
        return (
            data["passed"] is True
            and data["violations"] == []
            and data["num_elements"] == n * (n + 1) // 2
            and data["checks_run"] == n * (n - 1) + n * n
        )

    @staticmethod
    def _check_lemma52(command, out):
        data = json.loads(out)
        return all(data[key] == value for key, value in command.expected.items())

    @staticmethod
    def _check_sg(command, out):
        data = json.loads(out)
        lines, case = command.expected, command.case
        sizes = [len(line) for line in lines]
        by_size = {str(k): sizes.count(k) for k in sorted(set(sizes))}
        return data["lines_by_size"] == by_size and check_sg_answer(
            case,
            lines,
            data["num_points"],
            data["is_sylvester_gallai"],
            data["max_collinear"],
            data["witness"],
        )


WORKLOADS = {w.name: w for w in (SgScan, Lemma52Random, CliRuns)}
