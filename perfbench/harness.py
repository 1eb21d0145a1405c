"""The closed-loop measurement shared by every workload.

A workload module provides

    prepare(seed)                     program set-up: scenarios, connections,
                                      modules; timed as setup_s
    operations(inputs)                one round: a list of Op, run in order
    verify(inputs, firsts)            checks against independent oracles, run
                                      once after the timed loop on each
                                      operation's first output; returns a
                                      list of problems
    details(inputs, medians, firsts)  the workload's own figures
    layer_counts(inputs, firsts, medians)
                                      per-round counters the workload knows
                                      from its inputs and outputs (the census
                                      sizes); {} when none

One caller runs the round's operations one after another and waits for each
result before it sends the next, until the run's time is up; a run always
finishes the round it is in, so every run attempts whole rounds.

The machine this runs on is shared, and its speed drifts by 20 % and more
from one second to the next (CPU time follows wall time, so it is not time
stolen by the scheduler). Between operations the loop therefore times a fixed
calibration, and each operation's time is also reported scaled to the
reference speed at which the calibration takes CALIBRATION_REF_S, using the
calibrations on either side of it.
"""

import statistics
import time

import numpy as np

CALIBRATION_REF_S = 0.010
_ROTATION = np.array([[0.8, 0.6], [-0.6, 0.8]], dtype=complex)


def _calibration_work():
    # interpreter traffic (dicts, ints, calls) and tiny complex matrix
    # products, the two kinds of work the program itself does
    table = {}
    total = 0
    for i in range(8000):
        table[i & 127] = table.get((i * 7) & 127, 0) + i
        total += len(table)
    m = np.eye(2, dtype=complex)
    for _ in range(400):
        m = m @ _ROTATION
    return total, m


def calibrate():
    """Seconds the fixed calibration takes right now.

    Three thirds are timed and the median kept, so one preempted third
    does not distort the estimate.
    """
    thirds = []
    for _ in range(3):
        t0 = time.perf_counter()
        _calibration_work()
        thirds.append(time.perf_counter() - t0)
    return 3 * statistics.median(thirds)


def to_reference(seconds, before, after):
    """A time measured between two calibrations, at the reference speed."""
    return seconds * CALIBRATION_REF_S / ((before + after) / 2)


class Mismatch(Exception):
    """An operation's output disagrees with what the method must produce."""


# Outcome of one checked operation.
OK = "ok"
FAILED = "failed"


class Op:
    """One end-to-end operation of a round.

    `call` runs the operation through the program's public API and returns
    its output, or raises. `check(output, first)` classifies the output: it
    returns OK, or FAILED for a known fault of the program, and raises
    Mismatch for a wrong output. `first` is the operation's output from the
    run's first round (None in that round), so later rounds are compared with
    it for determinism.
    """

    def __init__(self, label, call, check):
        self.label = label
        self.call = call
        self.check = check


def run_call(op):
    """Run one operation; an exception it raises is its output."""
    try:
        return op.call()
    except Exception as exc:  # an operation that dies is classified by its check
        return exc


class Measurement:
    """Per-operation times and outcomes of one timed loop.

    `times` holds reference-speed times, `wall` the raw wall times.
    """

    def __init__(self, labels):
        self.times = {label: [] for label in labels}
        self.wall = {label: [] for label in labels}
        self.firsts = {}
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.problems = []

    def medians(self, wall=False):
        table = self.wall if wall else self.times
        return {label: statistics.median(ts) for label, ts in table.items()}

    def round_s(self, wall=False):
        """One round's time: the sum of each operation's median over rounds."""
        return sum(self.medians(wall).values())

    def total_wall_s(self):
        return sum(sum(ts) for ts in self.wall.values())


def measure(ops, seconds, tracer=None):
    """Run whole rounds of `ops` until `seconds` have passed.

    Only the operation's call is timed; its check runs outside the timing,
    after the calibration that follows the call.
    With a tracer, tracing is switched on for exactly the timed calls.
    """
    m = Measurement([op.label for op in ops])
    start = time.perf_counter()
    before = calibrate()
    while True:
        for op in ops:
            if tracer is not None:
                tracer.active = True
            t0 = time.perf_counter()
            out = run_call(op)
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            after = calibrate()
            m.wall[op.label].append(elapsed)
            m.times[op.label].append(to_reference(elapsed, before, after))
            before = after
            m.attempted += 1
            try:
                outcome = op.check(out, m.firsts.get(op.label))
            except Mismatch as exc:
                m.problems.append(f"{op.label}: {exc}")
                outcome = OK
            if outcome == FAILED:
                m.failed += 1
            m.firsts.setdefault(op.label, out)
        m.rounds += 1
        if time.perf_counter() - start >= seconds:
            return m


def require(condition, message):
    if not condition:
        raise Mismatch(message)
