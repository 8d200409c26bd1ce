"""One benchmark worker: set up a workload, warm up, run ops, report JSON.

Started by ``run.py`` in a fresh interpreter with the repository root as its
working directory and ``src`` on ``PYTHONPATH``; not meant to be run by hand.
The last line of its standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import calibration
import lowdeg
import tracing
from workloads import WORKLOADS


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0, help="run whole passes for this long")
    parser.add_argument("--min-ops", type=int, default=1)
    parser.add_argument("--passes", type=int, default=0, help="run exactly this many passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--in-process", action="store_true", help="cli: call lowdeg.cli.main")
    parser.add_argument("--corrupt", type=int, default=0, help="corrupt every k-th answer")
    parser.add_argument("--describe", action="store_true", help="print the inputs' digest")
    parser.add_argument("--setup-only", action="store_true", help="stop once the inputs are built")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--dump", default=None, help="write the spans here")
    return parser.parse_args(argv)


def build(args, workdir: Path):
    cls = WORKLOADS[args.workload]
    if args.workload == "cli":
        return cls(args.seed, workdir, in_process=args.in_process)
    return cls(args.seed, workdir)


def run_ops(wl, args, rss_who):
    """Whole passes over the workload's mix: ``--passes`` of them, or until
    ``--min-ops`` ops and ``wl.rss_passes`` passes are done and the next pass
    would end more than halfway past ``--seconds``.

    Each pass reports ``[busy_ns, latencies_ns, scaled busy, scaled
    latencies]``: busy time is the time inside ``wl.op``, failed ops included,
    and the latencies are those of ops with right answers.  Peak RSS is read
    when pass ``wl.rss_passes`` ends, so that it reflects a fixed amount of
    work rather than how fast the host ran."""
    clock = time.perf_counter_ns
    passes, failed, attempted, first_error = [], 0, 0, None
    peak_rss_kib = None
    scaler = calibration.Scaler(wl.calibrate, wl.reference_calibration_ns)
    start = clock()
    k = 0
    while True:
        pass_start = clock()
        record = [0, [], 0.0, []]
        for spec in wl.pass_ops(k):
            attempted += 1
            t0 = clock()
            try:
                answer = wl.op(spec)
            except Exception as exc:  # a raising op is a failed op, not a broken benchmark
                t1 = clock()
                failed += 1
                first_error = first_error or repr(exc)
                right = False
            else:
                t1 = clock()
                if args.corrupt and attempted % args.corrupt == 0:
                    answer = wl.corrupt(answer)
                right = wl.check(spec, answer)
                failed += not right
            record[0] += t1 - t0
            if right:
                record[1].append(t1 - t0)
            scaler.add(record, t1 - t0, right)
        passes.append(record)
        k += 1
        if k == wl.rss_passes:
            peak_rss_kib = resource.getrusage(rss_who).ru_maxrss
        now = clock()
        if args.passes:
            if k >= args.passes:
                break
        elif (
            attempted >= args.min_ops
            and k >= wl.rss_passes
            and now - start + (now - pass_start) / 2 >= args.seconds * 1e9
        ):
            break
    scaler.flush()
    return {
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "first_error": first_error,
        "busy_ns": sum(record[0] for record in passes),
        "calibration_ns": scaler.calibrations,
        "reference_calibration_ns": wl.reference_calibration_ns,
        "peak_rss_kib": peak_rss_kib or resource.getrusage(rss_who).ru_maxrss,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path("src").resolve()
    if Path(lowdeg.__file__).resolve().parent.parent != src:
        print(f"lowdeg was imported from {lowdeg.__file__}, not from {src}", file=sys.stderr)
        return 2
    workdir = Path(args.workdir) / f"{args.workload}-{os.getpid()}"
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" and not args.in_process else resource.RUSAGE_SELF
    try:
        wl = build(args, workdir)
        ready = time.perf_counter()
        if args.describe:
            print(wl.describe().decode())
            return 0
        if args.setup_only:
            print(json.dumps({"ready_s": ready}))
            return 0
        try:  # untimed and uncounted; the timed ops are checked one by one
            wl.op(wl.warmup)
        except Exception:
            pass
        wl.calibrate()
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            cache_before = tracing.annihilator_cache_info()
            tracing.install(tracer)
        result = run_ops(wl, args, who)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["ready_s"] = ready
    if tracer is not None:
        result["layers"] = tracing.counters(tracer, cache_before)
        if args.dump:
            tracer.dump(Path(args.dump))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
