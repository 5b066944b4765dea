"""Round runner, timing and statistics shared by the three workloads.

A workload describes one *round*: a fixed list of segments generated from
the seed.  Each segment sets up a machine (timed as set-up) and then yields
operations one at a time.  An operation is a pair (unit, check): `unit`
takes no arguments and is the only thing timed; `check` takes the unit's
result, runs untimed, and returns None or a message saying what was wrong.
A unit that raises has failed too.

A run repeats whole rounds, all with the same inputs, until its time is up.
Since the program is deterministic, the i-th operation of every round does
exactly the same work, and the only thing that varies is host time.  The
timing metrics therefore take, for each operation, the least of its times
over the rounds, and then aggregate those per-operation times.  On a shared
host whose speed swings by up to 2x over seconds, the rounds of one run
fall into different speed phases, and the per-operation minimum keeps the
fastest of them instead of whichever phase the median lands in.

Workload interface (duck-typed):
    name                      workload name
    segments()      -> list   segment specs of one round
    setup(spec)     -> state  program set-up for a segment (timed)
    operations(spec, state)   yields (unit, check)
    counts(state)   -> dict   simulated counts at the end of a segment
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from array import array

SETUP_REPEATS = 5


class RoundResult:
    def __init__(self):
        self.samples = array("q")       # ns per operation, in order
        self.segment_lengths: list[int] = []
        self.setup_ns: list[int] = []
        self.failed = 0
        self.messages: list[str] = []
        self.counts: dict = {}
        self.traced = False

    @property
    def ops(self) -> int:
        return len(self.samples)


def run_round(workload, tracer=None) -> RoundResult:
    """Run every segment of one round; returns its samples and counts.

    With a tracer, each timed unit is bracketed by `begin_op`/`end_op` so
    that only spans inside operations are recorded.
    """
    res = RoundResult()
    for spec in workload.segments():
        counts = _run_segment(workload, spec, res, tracer)
        for key, value in counts.items():
            res.counts[key] = res.counts.get(key, 0) + value
        # the segment's machine is garbage now (engine and platform refer
        # to each other); free it before the next set-up, untimed
        gc.collect()
    return res


def _run_segment(workload, spec, res: RoundResult, tracer) -> dict:
    clock = time.perf_counter_ns
    t0 = clock()
    state = workload.setup(spec)
    res.setup_ns.append(clock() - t0)
    first = len(res.samples)
    for unit, check in workload.operations(spec, state):
        if tracer is not None:
            tracer.begin_op()
        t0 = clock()
        try:
            result = unit()
        except Exception as exc:
            # an operation that raises where no rejection is intended
            # has failed; record it and go on with the round
            result, problem = None, f"{type(exc).__name__}: {exc}"
        else:
            problem = None
        res.samples.append(clock() - t0)
        if tracer is not None:
            tracer.end_op()
        if problem is None:
            problem = check(result)
        if problem is not None:
            res.failed += 1
            if len(res.messages) < 5:
                res.messages.append(problem)
    res.segment_lengths.append(len(res.samples) - first)
    return dict(workload.counts(state), attempted=len(res.samples) - first)


def measure(workload, seconds: float, min_rounds: int = 3, tracer=None):
    """Run whole rounds for about `seconds`; returns (rounds, set-up times).

    One untimed warm-up set-up runs first so lazy imports and first-call
    costs land outside the figures; SETUP_REPEATS extra set-ups give
    set-up time enough samples for a steady median.  At least `min_rounds`
    rounds run; after that another round starts only if a round of average
    length still fits in the time left.

    As `timeit` does, the cyclic garbage collector is off while a run
    measures and collects only between segments, untimed.  Left on, its
    full passes land on whichever operation crosses an allocation
    threshold, which differs from seed to seed, and one such pause moves a
    quarter's rate by 30%.

    With a tracer, rounds alternate between untraced and traced (the
    tracer's wrappers installed only for the traced ones), so both kinds
    see the same phases of the host; `RoundResult.traced` tells them apart.
    """
    gc.collect()
    gc.disable()
    try:
        return _measure(workload, seconds, min_rounds, tracer)
    finally:
        gc.enable()


def _measure(workload, seconds, min_rounds, tracer):
    spec = workload.segments()[0]
    workload.setup(spec)
    setup_ns = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter_ns()
        workload.setup(spec)
        setup_ns.append(time.perf_counter_ns() - t0)
    gc.collect()
    rounds: list[RoundResult] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
            try:
                res = run_round(workload, tracer)
            finally:
                tracer.uninstall()
        else:
            res = run_round(workload)
            setup_ns.extend(res.setup_ns)
        res.traced = traced
        rounds.append(res)
        elapsed = time.perf_counter() - start
        if len(rounds) >= min_rounds and \
                elapsed + elapsed / len(rounds) > seconds:
            break
    return rounds, setup_ns


def engine_counts(engine) -> dict:
    """Simulated counts of an engine at the end of a segment."""
    records = engine.trace.records
    rejected = sum(1 for r in records if not r.ok)
    return {"accepted": len(records) - rejected, "rejected": rejected,
            "trace_records": len(records),
            "domain_records": len(engine.domains),
            "live_domains": sum(1 for d in engine.domains.values() if d.live),
            "access_log": len(engine.platform.access_log)}


def per_op_times(rounds: list[RoundResult]) -> list[int]:
    """For each operation index, the least of its times over the rounds."""
    n = min(r.ops for r in rounds)
    return [min(col) for col in zip(*(r.samples[:n] for r in rounds))]


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def late_indices(segment_lengths: list[int]) -> list[int]:
    """Indices of the last quarter of the operations of each segment."""
    out, start = [], 0
    for length in segment_lengths:
        quarter = length // 4
        out.extend(range(start + length - quarter, start + length))
        start += length
    return out


def end_to_end(rounds: list[RoundResult], setup_ns: list[int]) -> dict:
    """The six end-to-end metrics, as {name: (value, unit)}."""
    times = per_op_times(rounds)
    late = late_indices(rounds[0].segment_lengths)
    ordered = sorted(times)
    return {
        "setup_s": (statistics.median(setup_ns) / 1e9, "s"),
        "ops_per_s": (len(times) / (sum(times) / 1e9), "1/s"),
        "late_ops_per_s": (len(late) / (sum(times[i] for i in late) / 1e9),
                           "1/s"),
        "op_p50_us": (percentile(ordered, 0.50) / 1e3, "us"),
        "op_p99_us": (percentile(ordered, 0.99) / 1e3, "us"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
