"""Host-speed calibration: fixed jobs timed next to the ops.

A shared host runs the same code up to 1.8 times slower or faster for seconds
to minutes at a time, and a single run cannot average that out.  So a fixed
job that resembles the op is timed between ops, and each op's time is scaled
by ``reference / calibration``, which expresses it in the time it would take
at the reference speed.  The jobs use no lowdeg code, so a change to lowdeg
moves the scaled times as much as the raw ones; a change of host speed moves
job and op together and cancels.  Standard library only.
"""

from __future__ import annotations

import gc
import random
import statistics
import subprocess
import sys
import time

from exact import lines_oracle, rank

# Both references are the jobs' typical times on a 2-CPU shared x86-64 VM
# with Python 3.11.7.  They set the scale of the reported times only.
ARITH_REFERENCE_NS = 4_000_000
INTERPRETER_REFERENCE_NS = 90_000_000
# The standard-library modules that lowdeg's CLI imports
INTERPRETER_JOB = "import argparse, dataclasses, fractions, functools, json, os, random, typing"


def _arith_inputs():
    rng = random.Random("lowdeg-bench/calibration")
    rational = [[[rng.randint(-9, 9) for _ in range(6)] for _ in range(5)] for _ in range(6)]
    modular = [[[rng.randrange(101) for _ in range(6)] for _ in range(5)] for _ in range(20)]
    points = [tuple(rng.randrange(101) for _ in range(3)) for _ in range(25)]
    return rational, modular, points


ARITH_INPUTS = _arith_inputs()


def arith() -> int:
    """ns for ranks over QQ and GF(101) and the lines of a plane point set,
    the kind of exact arithmetic lowdeg's in-process ops do.  The cyclic GC is
    off meanwhile, so that the size of lowdeg's heap does not matter."""
    rational, modular, points = ARITH_INPUTS
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        for rows in rational:
            rank(rows, None)
        for rows in modular:
            rank(rows, 101)
        lines_oracle(points, 101)
        return time.perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()


def interpreter(env=None) -> int:
    """ns to start an interpreter that imports the standard modules lowdeg's
    CLI uses, and exit: the part of a ``lowdeg`` process that is not lowdeg."""
    t0 = time.perf_counter_ns()
    subprocess.run(
        [sys.executable, "-c", INTERPRETER_JOB], env=env, capture_output=True, timeout=60, check=True
    )
    return time.perf_counter_ns() - t0


class Scaler:
    """Times ``calibrate()`` between ops and scales the ops timed since the
    previous calibration by reference / (mean of the two calibrations around
    them).  A calibration is due once both ``CALIBRATE_EVERY_NS`` and ten
    times its own duration have passed, so it costs a tenth of the run or
    less."""

    CALIBRATE_EVERY_NS = 500_000_000

    def __init__(self, calibrate, reference_ns: int) -> None:
        self.calibrate = calibrate
        self.reference_ns = reference_ns
        self.calibrations = [calibrate()]
        self.at = time.perf_counter_ns()
        self.pending: list = []

    def add(self, record: list, ns: int, right: bool) -> None:
        """Add an op's time to a pass ``record`` once it is calibrated:
        ``record[2]`` sums the scaled times, ``record[3]`` lists those of ops
        with right answers."""
        self.pending.append((record, ns, right))
        due = max(self.CALIBRATE_EVERY_NS, 10 * self.calibrations[-1])
        if time.perf_counter_ns() - self.at >= due:
            self.flush()

    def flush(self) -> None:
        self.calibrations.append(self.calibrate())
        self.at = time.perf_counter_ns()
        factor = self.reference_ns / statistics.mean(self.calibrations[-2:])
        for record, ns, right in self.pending:
            record[2] += ns * factor
            if right:
                record[3].append(ns * factor)
        self.pending.clear()
