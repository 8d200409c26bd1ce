"""Command-line front end.

Every subcommand prints either canonical JSON (``--format json``) or a plain
human-readable rendering (``--format table``, the default).  The environment
variable ``LOWDEG_FORMAT`` overrides the default; an explicit ``--format``
beats both.  Exit codes: 0 on success; 2 on usage errors, unreadable files,
malformed JSON and inputs past a cap or work bound; 1 on a domain error, bad
content in a well-formed file included.  Randomized subcommands take
``--seed`` and ``--trials`` and are bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import NoReturn, Optional, Sequence

from .errors import MAX_INPUT, InputError, LowdegError, brief

FORMATS = ("table", "json")

# Caps on inputs whose cost grows far faster than their size, each checked before the work
# starts.  The sym2 check is quadratic in the modulus.  The lemma52 and sg work rules are the
# charge_* functions of lemma52 and plane; sg holds n^2 bytes of bookkeeping, so it
# also has a point cap, checked before building the points.  profile prints a row per n.
MAX_CHECK_MODULUS = 256
MAX_LEMMA52_WORK = 5_000_000
MAX_SG_POINTS = 500
MAX_SG_WORK = 30_000_000_000
MAX_PROFILE_N = 10_000


def _check_magnitudes(args: argparse.Namespace) -> None:
    """Cap every integer flag but ``--mod`` and ``--seed`` at ``MAX_INPUT`` in absolute value,
    as the library caps its arguments: past it the answers outgrow the digits ``str`` and
    ``json.dumps`` print.  ``--mod`` keeps ``PrimeField``'s 2**31 bound; any int is a seed."""
    for dest, value in vars(args).items():
        if type(value) is int and dest not in ("mod", "seed") and abs(value) > MAX_INPUT:
            flag = "--" + dest.replace("_", "-")
            raise InputError(f"{flag} must be at most {MAX_INPUT} in absolute value")


def _read_input(path: str) -> object:
    try:
        if path == "-":
            if sys.stdin is None:  # the process started with fd 0 closed
                raise InputError("cannot read -: stdin is closed")
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except ValueError as exc:
        # JSONDecodeError, or an integer literal past Python's int-string digit limit
        raise InputError(f"malformed JSON in {path}: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"JSON in {path} is nested too deeply") from exc


def _render_table(data: dict | list, indent: int = 0) -> list[str]:
    pad = "  " * indent
    if isinstance(data, dict):
        pairs = [(f"{key}:", value) for key, value in data.items()]
    else:
        pairs = [("-", value) for value in data]
    lines: list[str] = []
    for label, value in pairs:
        if isinstance(value, (dict, list)):
            lines.append(f"{pad}{label}")
            lines.extend(_render_table(value, indent + 1))
        else:
            lines.append(f"{pad}{label} {_render_scalar(value)}")
    return lines


def _render_scalar(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    return str(value)


def _emit(data: dict, fmt: str, table: Optional[str] = None) -> None:
    if fmt == "json":
        from .jsonio import canonical_dumps

        print(canonical_dumps(data))
    elif table is not None:
        print(table)
    else:
        print("\n".join(_render_table(data)))


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (data, optional table text), and each
# imports the lowdeg modules it runs, so a process loads only those.


def _cmd_pi(args: argparse.Namespace) -> tuple[dict, Optional[str]]:
    from . import numerology as num

    value = num.castelnuovo_pi(args.delta, args.ambient)
    return {"delta": args.delta, "ambient": args.ambient, "pi": value}, str(value)


def _cmd_bounds(args: argparse.Namespace) -> tuple[dict, Optional[str]]:
    from . import numerology as num

    data = num.genus_bound_main(args.d)._asdict()
    if args.genus is not None:
        gon = num.gonality_bounds(
            args.d,
            args.genus,
            elliptic_cover=args.elliptic_cover,
            debarre_fahlaoui=args.df,
        )
        data["gonality"] = {"genus": args.genus, **gon._asdict()}
    return data, None


def _cmd_profile(args: argparse.Namespace) -> tuple[dict, Optional[str]]:
    from . import numerology as num

    n_max = args.nmax if args.nmax is not None else max(2, args.d)
    if n_max > MAX_PROFILE_N:
        raise InputError(f"--nmax (default --d) must be at most {MAX_PROFILE_N}, got {n_max}")
    profile = num.rs_profile(args.d, n_max, args.dagger, args.r2)
    # read off the fields, not the accessors: rs_profile has checked n_max, and each
    # field holds one entry per n
    rows = [
        {"n": n, "r_lb": r, "s_lb": s, "rprime_lb": rp, "sprime_lb": sp}
        for n, r, s, rp, sp in zip(
            range(2, profile.n_max + 1),
            profile.r_lb,
            profile.s_lb,
            profile.rprime_lb,
            profile.sprime_lb,
        )
    ]
    data = {
        "d": profile.d,
        "dagger": profile.dagger,
        "r2": profile.r2,
        "n_max": profile.n_max,
        "codim_v_lb": profile.codim_v_lb,
        "rows": rows,
    }
    header = f"{'n':>3} {'r':>5} {'s':>5} {'r-prime':>8} {'s-prime':>8}"
    body = [
        f"{row['n']:>3} {row['r_lb']:>5} {row['s_lb']:>5} "
        f"{row['rprime_lb']:>8} {row['sprime_lb']:>8}"
        for row in rows
    ]
    table = "\n".join(
        [
            f"d = {profile.d}  dagger = {_render_scalar(profile.dagger)}  "
            f"r2 = {profile.r2}  codim_v_lb = {profile.codim_v_lb}",
            header,
            *body,
        ]
    )
    return data, table


def _cmd_df(args: argparse.Namespace) -> tuple[dict, Optional[str]]:
    from .sym2_lattice import (
        DFParams,
        SurfaceClass,
        df_class,
        df_gonality_guard,
        df_genus,
        is_effective,
        is_nef,
        pair,
    )

    params = DFParams(args.d, args.m)
    cls = df_class(params)
    return {
        "d": params.d,
        "m": params.m,
        "class": {"a": cls.a, "b": cls.b},
        "genus": df_genus(params),
        "effective": is_effective(cls),
        "nef": is_nef(cls),
        "gonality_guard": df_gonality_guard(params),
        "degree_on_sections": pair(cls, SurfaceClass(1, 0)),
    }, None


def _cmd_cone(args: argparse.Namespace) -> tuple[dict, Optional[str]]:
    from .sym2_lattice import SurfaceClass, adjunction_genus, is_effective, is_nef, pair

    cls = SurfaceClass(args.a, args.b)
    return {
        "a": cls.a,
        "b": cls.b,
        "effective": is_effective(cls),
        "nef": is_nef(cls),
        "self_pairing": pair(cls, cls),
        "adjunction_genus": adjunction_genus(cls),
    }, None


def _cmd_classify(args: argparse.Namespace) -> tuple[dict, Optional[str]]:
    from .classify import classification_json

    data = classification_json(args.d, arithmetic=not args.geometric)
    lines = [f"d = {data['d']}  mode = {data['mode']}"]
    for case in data["cases"]:
        params = ", ".join(f"{k}={_render_scalar(v)}" for k, v in sorted(case["params"].items()))
        lines.append(f"  {case['kind']}: {params}")
        lines.append(f"    {case['provenance']}")
    return data, "\n".join(lines)


def _cmd_audit(args: argparse.Namespace) -> tuple[dict, Optional[str]]:
    from .classify import audit_json

    data = audit_json(args.d)
    lines = [f"audit d = {data['d']}: {'PASS' if data['passed'] else 'FAIL'}"]
    for check in data["checks"]:
        lines.append(
            f"  [{'ok' if check['passed'] else 'FAIL'}] {check['name']}: {check['detail']}"
        )
    return data, "\n".join(lines)


def _cmd_sg(args: argparse.Namespace) -> tuple[dict, Optional[str]]:
    from . import plane
    from .jsonio import points_from_json
    from .projective import ProjPoint

    field, rows = points_from_json(_read_input(args.input))
    if len(rows) > MAX_SG_POINTS:
        raise InputError(f"sg takes at most {MAX_SG_POINTS} points, got {len(rows)}")
    config = plane.PointConfig(tuple(ProjPoint(field, row) for row in rows))
    plane.charge_sylvester_gallai(config, MAX_SG_WORK)
    witness, lines_by_size = plane.line_counts(config)
    pair = None if witness is None else list(witness)
    violations = [] if pair is None else [{"pair": pair, "reason": "no third collinear point"}]
    return {
        "num_points": len(config),
        "is_sylvester_gallai": witness is None,
        "max_collinear": max(lines_by_size),
        "witness": pair,
        "lines_by_size": {str(size): count for size, count in lines_by_size.items()},
        "violations": violations,
    }, None


def _cmd_lemma52(args: argparse.Namespace) -> tuple[dict, Optional[str]]:
    import random

    from . import lemma52
    from .fields import PrimeField
    from .jsonio import subspace_to_json, subspaces_from_json
    from .projective import ProjSubspace

    # the random-mode flags default to None, so that one given with --input is caught
    for dest, default in (("trials", 200), ("seed", 0), ("mod", 5), ("ambient", 4), ("count", 4)):
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif not args.random:
            raise InputError(f"--{dest} needs --random")
    if args.random:
        if args.trials < 1:
            raise InputError(f"--trials must be at least 1, got {args.trials}")
        field = PrimeField(args.mod)
        lemma52.charge_random(field, args.ambient, args.count, args.trials, MAX_LEMMA52_WORK)
        rng = random.Random(args.seed)
        failures = []
        for trial in range(args.trials):
            members, planted = lemma52.planted_family(rng, field, args.ambient, args.count)
            if lemma52.common_subspace(members) != planted:
                failures.append(trial)
        return {
            "mode": "random",
            "trials": args.trials,
            "seed": args.seed,
            "mod": args.mod,
            "ambient": args.ambient,
            "failures": failures,
            "violations": failures,
            "passed": not failures,
        }, None
    field, members = subspaces_from_json(_read_input(args.input))
    lemma52.charge_input(field, members, MAX_LEMMA52_WORK)
    # a generator, so that member i + 1 is built only once member i has passed
    lam = lemma52.common_subspace(
        ProjSubspace.from_vectors(field, ambient, vectors) for ambient, vectors in members
    )
    # Python's limit on the digits of an int string guards reading; the rule above
    # bounds how far Λ's entries grow, so the limit is lifted while they become text.
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        common = subspace_to_json(lam)
    finally:
        sys.set_int_max_str_digits(digit_limit)
    return {
        "mode": "input",
        "num_subspaces": len(members),
        "common_subspace": common,
        "dim": lam.dim,
        "violations": [],
    }, None


def _cmd_sym2(args: argparse.Namespace) -> tuple[dict, Optional[str]]:
    from . import sym2_pairs

    if args.check and args.modulus > MAX_CHECK_MODULUS:
        raise InputError(
            f"--check needs --modulus at most {MAX_CHECK_MODULUS}, got {args.modulus}"
        )
    model = sym2_pairs.sym2_model(args.modulus)
    data: dict = {"modulus": model.modulus, "num_elements": model.size}
    if args.check:
        report = sym2_pairs.incidence_pairing_check(model)
        data["checks_run"] = report.checks_run
        data["violations"] = list(report.violations)
        data["passed"] = report.passed
    return data, None


def _cmd_rh(args: argparse.Namespace) -> tuple[dict, Optional[str]]:
    from . import numerology as num

    max_mode = args.source_genus is not None or args.ram_points is not None
    check_mode = any(v is not None for v in (args.gx, args.gy, args.deg, args.ram))
    if max_mode and check_mode:
        raise InputError("rh takes either --gx/--gy/--deg/--ram or --source-genus/--ram-points")
    if max_mode:
        if args.source_genus is None or args.ram_points is None:
            raise InputError("rh maximal-degree mode needs both --source-genus and --ram-points")
        result = num.riemann_hurwitz_min_degree(args.source_genus, args.ram_points)
        return {
            "source_genus": args.source_genus,
            "ram_points": args.ram_points,
            "max_degree": result,
        }, str(result)
    if not all(v is not None for v in (args.gx, args.gy, args.deg, args.ram)):
        raise InputError("rh needs --gx, --gy, --deg and --ram")
    consistent = num.riemann_hurwitz_check(args.gx, args.gy, args.deg, args.ram)
    return {
        "gx": args.gx,
        "gy": args.gy,
        "deg": args.deg,
        "ram": args.ram,
        "consistent": consistent,
    }, None


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse with one-line usage errors: ``<prog>: error: <message>``, exit 2.
    Subparsers are built from the same class.  argparse quotes most offending
    values, but not unrecognized arguments, so newlines in those become spaces.
    It quotes them whole, so a line past 200 characters keeps its first 120 and its length."""

    def error(self, message: str) -> NoReturn:
        line = message.replace("\n", " ")
        if len(line) > 200:
            line = f"{line[:120]}... ({len(line)} characters)"
        self.exit(2, f"{self.prog}: error: {line}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lowdeg",
        description="Exact calculators for incidence configurations, genus bounds, "
        "and the low-degree-points classification table.",
    )
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default=None,
        help="output format (default: table, or the LOWDEG_FORMAT environment variable)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pi", help="Castelnuovo genus bound pi(delta, n)")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--ambient", type=int, required=True)
    p.set_defaults(handler=_cmd_pi)

    p = sub.add_parser("bounds", help="genus ceilings for degree d, optionally with gonality")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--genus", type=int, default=None, help="also report gonality bounds")
    p.add_argument("--elliptic-cover", action="store_true", dest="elliptic_cover")
    p.add_argument("--df", action="store_true")
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("profile", help="dimension-ledger lower bounds")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--dagger", action="store_true")
    p.add_argument("--r2", type=int, default=2)
    p.add_argument("--nmax", type=int, default=None, help="largest n (default: d)")
    p.set_defaults(handler=_cmd_profile)

    p = sub.add_parser("df", help="Debarre-Fahlaoui class, genus, and guards")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(handler=_cmd_df)

    p = sub.add_parser("cone", help="cone membership and adjunction genus of a*section + b*fiber")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.set_defaults(handler=_cmd_cone)

    p = sub.add_parser("classify", help="the classification table cell for degree d")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--geometric", action="store_true", help="classify after base change")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("audit", help="cross-check the table cell against the bounds")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(handler=_cmd_audit)

    p = sub.add_parser("sg", help="Sylvester-Gallai check of a plane point configuration")
    p.add_argument("--input", required=True, help="points JSON file, or - for stdin")
    p.set_defaults(handler=_cmd_sg)

    p = sub.add_parser("lemma52", help="common codimension-3 subspace of a family")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--input", help="subspaces JSON file, or - for stdin")
    mode.add_argument("--random", action="store_true", help="run randomized self-checks instead")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--mod", type=int, help="prime modulus for random mode")
    p.add_argument("--ambient", type=int, help="ambient dimension for random mode")
    p.add_argument("--count", type=int, help="family size for random mode")
    p.set_defaults(handler=_cmd_lemma52)

    p = sub.add_parser("sym2", help="unordered-pairs model over Z/N")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--check", action="store_true", help="verify the incidence pairing table")
    p.set_defaults(handler=_cmd_sym2)

    p = sub.add_parser("rh", help="Riemann-Hurwitz consistency or forced maximal degree")
    p.add_argument("--gx", type=int, default=None)
    p.add_argument("--gy", type=int, default=None)
    p.add_argument("--deg", type=int, default=None)
    p.add_argument("--ram", type=int, default=None)
    p.add_argument("--source-genus", type=int, default=None, dest="source_genus")
    p.add_argument("--ram-points", type=int, default=None, dest="ram_points")
    p.set_defaults(handler=_cmd_rh)

    return parser


def _resolve_format(args: argparse.Namespace) -> str:
    if args.format is not None:
        return args.format
    env = os.environ.get("LOWDEG_FORMAT")
    if env is None:
        return "table"
    if env not in FORMATS:
        raise InputError(f"LOWDEG_FORMAT must be one of {FORMATS}, got {brief(env)}")
    return env


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        fmt = _resolve_format(args)
        _check_magnitudes(args)
        data, table = args.handler(args)
    except InputError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except LowdegError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    try:
        if sys.stdout is None:  # the process started with fd 1 closed
            raise OSError("stdout is closed")
        _emit(data, fmt, table)
        sys.stdout.flush()
    except OSError as exc:
        if sys.stdout is not None:
            # Point stdout at the null device, so the flush at exit finds
            # nothing to retry and prints no second error.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
