"""Spans and counters around lowdeg's public functions, installed from outside.

``install`` replaces functions and methods of the lowdeg modules with
wrappers.  A function is replaced in every ``lowdeg`` module namespace that
holds it (``configurations`` imports ``join`` from ``projective``, ``cli``
imports ``canonical_dumps`` from ``jsonio``, and so on), so calls made inside
lowdeg are seen too.  Nothing under ``src/`` changes.

Span wrappers record ``[id, parent_id, name, start_ns, end_ns]`` in memory
and add the time of each outermost call of their group to a total.  Hot leaf
functions (``coerce``, ``collinear``, ``contains_subspace``) only count calls,
so that tracing a cubic scan stays cheap.  Counts are exact and repeat for a
fixed seed; times do not.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

COUNT = "count"
MS = "ms"
RATIO = "ratio"

# Per-layer metric names and units, in report order.
LAYER_METRICS = (
    ("fields.scalar_from_json.calls", COUNT),
    ("fields.scalar_from_json.ms", MS),
    ("fields.prime_field_init.calls", COUNT),
    ("fields.is_prime.ms", MS),
    ("fields.coerce.calls", COUNT),
    ("jsonio.parse_matrix.ms", MS),
    ("jsonio.subspaces_from_json.ms", MS),
    ("jsonio.point_config_from_json.ms", MS),
    ("jsonio.canonical_dumps.ms", MS),
    ("projective.rref.calls", COUNT),
    ("projective.rref.cells", COUNT),
    ("projective.rref.ms", MS),
    ("projective.subspace_init.calls", COUNT),
    ("projective.subspace_init.ms", MS),
    ("projective.join.calls", COUNT),
    ("projective.join.ms", MS),
    ("projective.meet.calls", COUNT),
    ("projective.meet.ms", MS),
    ("projective.contains_subspace.calls", COUNT),
    ("projective.annihilator_cache.hits", COUNT),
    ("projective.annihilator_cache.misses", COUNT),
    ("projective.annihilator_cache.size_end", COUNT),
    ("configurations.collinear.calls", COUNT),
    ("configurations.check_sylvester_gallai.ms", MS),
    ("configurations.maximal_lines.ms", MS),
    ("configurations.common_subspace.calls", COUNT),
    ("configurations.common_subspace.ms", MS),
    ("configurations.sampler.ms", MS),
    ("configurations.sampler.draws", COUNT),
    ("configurations.sampler.yield", RATIO),
    ("configurations.incidence_pairing_check.ms", MS),
    ("numerology.ms", MS),
    ("sym2_lattice.ms", MS),
    ("classify.ms", MS),
    ("cli.import_ms", MS),
    ("cli.build_parser_ms", MS),
    ("cli.read_input_ms", MS),
    ("cli.handler_ms", MS),
    ("cli.emit_ms", MS),
    ("trace.overhead_ratio", RATIO),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.depth: dict[str, int] = {}
        self.rref_cells = 0
        self.sampler_draws = 0

    def counting(self, name: str, fn):
        calls = self.calls
        calls.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def spanning(self, name: str, fn, group: str | None = None):
        """Wrap ``fn`` in a span; outermost calls of ``group`` add to its total."""
        group = group or name
        spans, stack, calls, depth, total = (
            self.spans, self.stack, self.calls, self.depth, self.total_ns
        )
        calls.setdefault(name, 0)
        depth.setdefault(group, 0)
        total.setdefault(group, 0)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            record = [len(spans), stack[-1] if stack else -1, name, 0, 0]
            spans.append(record)
            stack.append(record[0])
            depth[group] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record[3], record[4] = start, end
                depth[group] -= 1
                if not depth[group]:
                    total[group] += end - start

        return wrapper

    def self_ms(self) -> dict[str, float]:
        """Per span name: total duration minus the part covered by child spans."""
        child_ns = [0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, float] = {}
        for sid, _, name, start, end in self.spans:
            out[name] = out.get(name, 0.0) + (end - start - child_ns[sid]) / 1e6
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"self_ms": self.self_ms(), "spans": self.spans}, handle)


def _replace_everywhere(original, wrapper) -> None:
    """Rebind ``original`` to ``wrapper`` in every lowdeg module namespace."""
    for name, module in list(sys.modules.items()):
        if name != "lowdeg" and not name.startswith("lowdeg."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _public_functions(module) -> list[str]:
    return [
        name
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    ]


def install(tracer: Tracer) -> None:
    # lowdeg re-exports a function named ``classify``, so fetch modules by full name.
    cli, classify, configurations, fields, jsonio, numerology, projective, sym2_lattice = (
        importlib.import_module(f"lowdeg.{name}")
        for name in (
            "cli", "classify", "configurations", "fields", "jsonio", "numerology", "projective",
            "sym2_lattice",
        )
    )

    def wrap_function(module, attr, name, spanned=True, group=None):
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapper = tracer.spanning(name, original, group) if spanned else tracer.counting(name, original)
        _replace_everywhere(original, wrapper)

    def wrap_method(cls, attr, name, spanned=True):
        original = cls.__dict__.get(attr)
        if original is None:
            return
        wrapper = tracer.spanning(name, original) if spanned else tracer.counting(name, original)
        setattr(cls, attr, wrapper)

    # fields
    wrap_function(fields, "scalar_from_json", "fields.scalar_from_json")
    wrap_function(fields, "is_prime", "fields.is_prime")
    wrap_method(fields.PrimeField, "__post_init__", "fields.prime_field_init")
    for cls in (fields.PrimeField, fields.RationalField):
        wrap_method(cls, "coerce", "fields.coerce", spanned=False)

    # jsonio
    for attr in ("parse_matrix", "subspaces_from_json", "point_config_from_json", "canonical_dumps"):
        wrap_function(jsonio, attr, f"jsonio.{attr}")

    # projective
    rref = projective.rref

    def rref_counting_cells(rows, *args, **kwargs):
        rows = rows if isinstance(rows, (list, tuple)) else list(rows)
        if rows:
            tracer.rref_cells += len(rows) * len(rows[0])
        return rref(rows, *args, **kwargs)

    _replace_everywhere(rref, tracer.spanning("projective.rref", functools.wraps(rref)(rref_counting_cells)))
    wrap_method(projective.ProjSubspace, "__post_init__", "projective.subspace_init")
    wrap_method(projective.ProjSubspace, "contains_subspace", "projective.contains_subspace", spanned=False)
    wrap_function(projective, "join", "projective.join")
    wrap_function(projective, "meet", "projective.meet")

    # configurations
    wrap_function(configurations, "collinear", "configurations.collinear", spanned=False)
    for attr in ("check_sylvester_gallai", "maximal_lines", "common_subspace", "incidence_pairing_check"):
        wrap_function(configurations, attr, f"configurations.{attr}")
    wrap_function(configurations, "random_common_subspace_instance", "configurations.sampler")
    random_subspace = getattr(configurations, "random_subspace", None)
    if random_subspace is not None:

        def counting_draws(*args, **kwargs):
            if tracer.depth.get("configurations.sampler"):
                tracer.sampler_draws += 1
            return random_subspace(*args, **kwargs)

        _replace_everywhere(random_subspace, functools.wraps(random_subspace)(counting_draws))

    # numerology, sym2_lattice, classify: every public function, one total per module
    for module in (numerology, sym2_lattice, classify):
        layer = module.__name__.rsplit(".", 1)[1]
        for attr in _public_functions(module):
            wrap_function(module, attr, f"{layer}.{attr}", group=layer)

    # cli phases: reading input, the subcommand handler, rendering
    wrap_function(cli, "_read_input", "cli.read_input")
    wrap_function(cli, "_emit", "cli.emit")
    for attr in [a for a in vars(cli) if a.startswith("_cmd_")]:
        wrap_function(cli, attr, f"cli.{attr[len('_cmd_'):]}", group="cli.handler")


def annihilator_cache_info():
    """``(hits, misses, size)`` of the annihilator cache, or zeros without one."""
    projective = importlib.import_module("lowdeg.projective")
    info = getattr(getattr(projective, "_annihilator_rows", None), "cache_info", None)
    if info is None:
        return 0, 0, 0
    got = info()
    return got.hits, got.misses, got.currsize


def counters(tracer: Tracer, cache_before) -> dict[str, float]:
    """The per-layer metrics a traced pass yields (all but the cli start-up
    probe and the overhead ratio)."""
    calls, total = tracer.calls, tracer.total_ns

    def ms(group):
        return total.get(group, 0) / 1e6

    hits, misses, size = annihilator_cache_info()
    sampler_calls = calls.get("configurations.sampler", 0)
    draws = tracer.sampler_draws
    out = {
        "fields.scalar_from_json.calls": calls.get("fields.scalar_from_json", 0),
        "fields.prime_field_init.calls": calls.get("fields.prime_field_init", 0),
        "fields.coerce.calls": calls.get("fields.coerce", 0),
        "projective.rref.calls": calls.get("projective.rref", 0),
        "projective.rref.cells": tracer.rref_cells,
        "projective.subspace_init.calls": calls.get("projective.subspace_init", 0),
        "projective.join.calls": calls.get("projective.join", 0),
        "projective.meet.calls": calls.get("projective.meet", 0),
        "projective.contains_subspace.calls": calls.get("projective.contains_subspace", 0),
        "projective.annihilator_cache.hits": hits - cache_before[0],
        "projective.annihilator_cache.misses": misses - cache_before[1],
        "projective.annihilator_cache.size_end": size,
        "configurations.collinear.calls": calls.get("configurations.collinear", 0),
        "configurations.common_subspace.calls": calls.get("configurations.common_subspace", 0),
        "configurations.sampler.draws": draws,
        "configurations.sampler.yield": sampler_calls / draws if draws else 0.0,
    }
    for name in (
        "fields.scalar_from_json", "fields.is_prime",
        "jsonio.parse_matrix", "jsonio.subspaces_from_json",
        "jsonio.point_config_from_json", "jsonio.canonical_dumps",
        "projective.rref", "projective.subspace_init", "projective.join", "projective.meet",
        "configurations.check_sylvester_gallai", "configurations.maximal_lines",
        "configurations.common_subspace", "configurations.sampler",
        "configurations.incidence_pairing_check",
    ):
        out[f"{name}.ms"] = ms(name)
    for layer in ("numerology", "sym2_lattice", "classify"):
        out[f"{layer}.ms"] = ms(layer)
    out["cli.read_input_ms"] = ms("cli.read_input")
    out["cli.handler_ms"] = ms("cli.handler")
    out["cli.emit_ms"] = ms("cli.emit")
    return out
