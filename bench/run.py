"""lowdeg benchmark: seeded closed-loop workloads, checked answers, JSON metrics.

Run from the repository root:

    python3 bench/run.py --workload sg-scan --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload cli --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --self-test

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the environment.  Standard library
only; one caller, no threads, at most one lowdeg process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import tracing  # imports lowdeg only when its wrappers are installed, in a worker

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKDIR = BENCH / ".work"
WORKLOAD_NAMES = ("sg-scan", "lemma52-random", "cli")
REQUIRED = (Path("src") / "lowdeg" / "__init__.py", Path("tests") / "data" / "classification_table.json")

# Untraced runs start this many workers one after another.  Each is timed for
# its share of --seconds.  Set-up time is the median over them and over extra
# workers that only set up.
WORKERS = 3
SETUP_ONLY_WORKERS = 4
MIN_OPS = 100
# Traced runs do a fixed amount of work, so that their counts repeat: this
# many whole passes per second of --seconds, run once untraced and once traced.
TRACE_PASSES_PER_S = {"sg-scan": 0.2, "lemma52-random": 1.5, "cli": 0.2}
STARTUP_PROBES = 5
DEADLINE_S = 170

END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("success_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

STARTUP_PROBE = (
    "import time\n"
    "t0 = time.perf_counter_ns()\n"
    "import lowdeg.cli\n"
    "t1 = time.perf_counter_ns()\n"
    "lowdeg.cli.build_parser()\n"
    "t2 = time.perf_counter_ns()\n"
    "print(t1 - t0, t2 - t1)\n"
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


class Runner:
    """Starts processes one at a time and waits for each, within one deadline."""

    def __init__(self) -> None:
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        )

    def run(self, argv: list[str]) -> tuple[str, float]:
        """Run one process to completion; returns its stdout and start time."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time")
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"timed out: {' '.join(argv)}") from None
        if proc.returncode != 0:
            raise BenchError(f"{' '.join(argv)} exited {proc.returncode}: {err.strip()[-2000:]}")
        return out, started

    def worker(self, workload: str, seed: int, *options: str) -> dict:
        out, started = self.run(self.worker_argv(workload, seed, *options))
        result = json.loads(out.strip().splitlines()[-1])
        result["setup_s"] = result["ready_s"] - started
        return result

    def describe(self, workload: str, seed: int) -> str:
        return self.run(self.worker_argv(workload, seed, "--describe"))[0]

    def worker_argv(self, workload: str, seed: int, *options: str) -> list[str]:
        return [
            sys.executable, str(BENCH / "worker.py"),
            "--workload", workload, "--seed", str(seed), "--workdir", str(WORKDIR), *options,
        ]

    def startup_probe(self) -> tuple[float, float]:
        """Median ms to import lowdeg.cli and to build its parser, in fresh interpreters."""
        imports, parsers = [], []
        for _ in range(STARTUP_PROBES):
            out, _ = self.run([sys.executable, "-c", STARTUP_PROBE])
            import_ns, parser_ns = map(int, out.split())
            imports.append(import_ns / 1e6)
            parsers.append(parser_ns / 1e6)
        return statistics.median(imports), statistics.median(parsers)


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def pass_statistics(passes) -> dict:
    """Medians over passes of each pass's p50, p90 and throughput.  A pass has
    the workload's whole input mix, so a burst of host slowness or speed moves
    a few of these samples and not their median."""
    return {
        "latency_p50_ms": statistics.median(percentile(lat, 50) for _, lat in passes) / 1e6,
        "latency_p90_ms": statistics.median(percentile(lat, 90) for _, lat in passes) / 1e6,
        "ops_per_s": statistics.median(len(lat) / (busy / 1e9) for busy, lat in passes),
    }


def untraced(runner: Runner, workload: str, seed: int, seconds: float):
    """The time metrics come from times scaled for host speed (see
    ``calibration.py``); the record keeps the raw ones too."""
    share = str(seconds / WORKERS)
    min_ops = str(-(-MIN_OPS // WORKERS))
    setups, scaled_setups, results = [], [], []
    for i in range(SETUP_ONLY_WORKERS + WORKERS):
        # Set-up is mostly interpreter start, so the interpreter job scales it.
        factor = calibration.INTERPRETER_REFERENCE_NS / calibration.interpreter(runner.env)
        if i < SETUP_ONLY_WORKERS:
            result = runner.worker(workload, seed, "--setup-only")
        else:
            result = runner.worker(workload, seed, "--seconds", share, "--min-ops", min_ops)
            results.append(result)
        setups.append(result["setup_s"])
        scaled_setups.append(result["setup_s"] * factor)
    passes = [p for r in results for p in r["passes"] if len(p[1]) >= 2]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    first_error = next((r["first_error"] for r in results if r["first_error"]), None)
    if not passes:
        raise BenchError(
            f"{failed} of {attempted} ops failed, too many for latencies: {first_error or 'wrong answers'}"
        )
    values = pass_statistics([(scaled_busy, scaled) for _, _, scaled_busy, scaled in passes])
    values.update(
        success_ratio=(attempted - failed) / attempted,
        setup_s=statistics.median(scaled_setups),
        peak_rss_mb=statistics.median(r["peak_rss_kib"] for r in results) / 1024,
    )
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    calibrations = [ns / 1e6 for r in results for ns in r["calibration_ns"]]
    samples = {
        "latency": sum(len(p[1]) for p in passes),
        "passes": len(passes),
        "calibrations": len(calibrations),
        "setup_s": len(setups),
        "peak_rss_mb": WORKERS,
        "success_ratio": attempted,
    }
    record = {
        "ops": attempted,
        "passes": [len(r["passes"]) for r in results],
        "fail_ratio": failed / attempted,
        "first_error": first_error,
        "samples": samples,
        "unscaled": dict(
            pass_statistics([(busy, lat) for busy, lat, _, _ in passes]),
            setup_s=statistics.median(setups),
        ),
        "calibration_ms": {
            "median": statistics.median(calibrations),
            "reference": results[0]["reference_calibration_ns"] / 1e6,
        },
    }
    return attempted, failed, metrics, record


def traced(runner: Runner, workload: str, seed: int, seconds: float):
    passes = str(max(1, round(seconds * TRACE_PASSES_PER_S[workload])))
    in_process = ["--in-process"] if workload == "cli" else []
    plain = runner.worker(workload, seed, "--passes", passes, *in_process)
    dump = WORKDIR / "traces" / f"{workload}-seed{seed}.json"
    spanned = runner.worker(
        workload, seed, "--passes", passes, "--trace", "1", "--dump", str(dump), *in_process
    )
    import_ms, parser_ms = runner.startup_probe()
    values = dict(spanned["layers"])
    values["cli.import_ms"] = import_ms
    values["cli.build_parser_ms"] = parser_ms
    values["trace.overhead_ratio"] = spanned["busy_ns"] / plain["busy_ns"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracing.LAYER_METRICS}
    attempted = plain["attempted"] + spanned["attempted"]
    failed = plain["failed"] + spanned["failed"]
    record = {
        "ops": attempted,
        "passes": int(passes),
        "fail_ratio": failed / attempted,
        "spans": str(dump.relative_to(ROOT)),
    }
    return attempted, failed, metrics, record


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def self_test(runner: Runner) -> int:
    """Inputs repeat per seed, traced counts repeat, wrong answers are counted."""
    counted = [name for name, unit in tracing.LAYER_METRICS if unit != tracing.MS]
    counted.remove("trace.overhead_ratio")
    outcomes = []
    for workload in WORKLOAD_NAMES:
        first, again, other = (runner.describe(workload, s) for s in (7, 7, 8))
        outcomes.append((f"{workload}: seed 7 gives byte-identical inputs", first == again))
        outcomes.append((f"{workload}: seed 8 gives other inputs", first != other))
        in_process = ["--in-process"] if workload == "cli" else []
        runs = [
            runner.worker(workload, 7, "--passes", "1", "--trace", "1", *in_process)
            for _ in range(2)
        ]
        counts = [{name: r["layers"][name] for name in counted} for r in runs]
        outcomes.append((f"{workload}: two traced runs give identical counts", counts[0] == counts[1]))
        outcomes.append((f"{workload}: clean run has no failed op", runs[0]["failed"] == 0))
        bad = runner.worker(workload, 7, "--passes", "1", "--corrupt", "3")
        outcomes.append(
            (
                f"{workload}: corrupted answers count as failed "
                f"({bad['failed']} of {bad['attempted']})",
                bad["failed"] == bad["attempted"] // 3 > 0,
            )
        )
    for name, ok in outcomes:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(ok for _, ok in outcomes) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="check the benchmark itself")
    args = parser.parse_args(argv)
    missing = [str(p) for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"not a lowdeg checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    runner = Runner()
    try:
        if args.self_test:
            return self_test(runner)
        if args.workload is None:
            parser.error("--workload is required")
        load_start = loadavg()
        run = traced if args.trace else untraced
        attempted, failed, metrics, record = run(runner, args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        python=platform.python_version(),
        nproc=os.cpu_count(),
        loadavg_start=load_start,
        loadavg_end=loadavg(),
        lowdeg_commit=commit(),
    )
    print(json.dumps({"record": record}, sort_keys=True))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
