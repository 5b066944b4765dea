"""capmon benchmark command.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository; the program is imported
from `src/capmon` of that checkout.  Workloads: fuzz_checked, guest_mem,
tenant_sessions (see bench/README.md).  The last line of standard output is
one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
of a traced run with `--trace 1`.  The exit code is 0 when every check
passed, 1 when one failed, and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = {
    "fuzz_checked": ("fuzz_checked", "FuzzChecked"),
    "guest_mem": ("guest_mem", "GuestMem"),
    "tenant_sessions": ("tenant_sessions", "TenantSessions"),
}


def load_program():
    """Import capmon from this checkout's sources, never from elsewhere."""
    package = os.path.join(SRC, "capmon")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        print(f"bench: no program sources at {package}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import capmon
    if os.path.dirname(os.path.abspath(capmon.__file__)) != package:
        print(f"bench: capmon was imported from {capmon.__file__}",
              file=sys.stderr)
        sys.exit(2)


def source_digest() -> str:
    """Digest of the program and benchmark sources that decide the counts."""
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "capmon"), HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def check_determinism(workload: str, seed: int, rounds) -> list[str]:
    """Every round of this run, and every earlier run of the same seed on
    the same sources, must report identical simulated counts."""
    problems = []
    first = rounds[0].counts
    for k, res in enumerate(rounds[1:], 1):
        if res.counts != first:
            problems.append(f"round {k} counts {res.counts} != round 0 "
                            f"counts {first}")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"counts-{workload}-seed{seed}-"
                             f"{source_digest()}.json")
    if os.path.exists(path):
        with open(path) as fh:
            earlier = json.load(fh)
        if earlier != first:
            problems.append(f"counts {first} differ from an earlier run's "
                            f"{earlier}")
    else:
        tmp = f"{path}.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(first, fh, sort_keys=True)
        os.replace(tmp, path)
    return problems


def layer_gauges(rounds, ops: int) -> dict:
    """Per-layer figures read from the simulated counts of a round."""
    counts = rounds[0].counts
    segments = len(rounds[0].segment_lengths)
    return {
        "engine.domain_records_end":
            (counts["domain_records"] / segments, "count"),
        "engine.live_domains_end": (counts["live_domains"] / segments, "count"),
        "machine.access_log_end": (counts["access_log"] / segments, "count"),
        "trace.records_end": (counts["trace_records"] / segments, "count"),
        "engine.rejected_per_op": (counts["rejected"] / ops, "1/op"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        parser.error("--seed must be a non-negative 64-bit integer")

    load_program()
    import importlib

    import harness
    module, cls = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    workload = getattr(importlib.import_module(module), cls)(args.seed)
    print(f"inputs generated in {time.perf_counter() - t0:.2f} s")

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    all_rounds, setup_ns = harness.measure(workload, args.seconds,
                                           min_rounds=2 if tracer else 3,
                                           tracer=tracer)
    plain = [r for r in all_rounds if not r.traced]
    metrics = harness.end_to_end(plain, setup_ns)
    if tracer is not None:
        # untraced and traced rounds alternate; the drop in ops/s between
        # them is the tracing overhead
        traced = [r for r in all_rounds if r.traced]
        base = metrics["ops_per_s"][0]
        slowed = harness.end_to_end(traced, setup_ns)["ops_per_s"][0]
        metrics = tracer.metrics()
        metrics.update(layer_gauges(traced, traced[0].ops))
        metrics["trace.overhead_pct"] = ((base - slowed) / base * 100, "%")

    attempted = sum(r.ops for r in all_rounds)
    failed = sum(r.failed for r in all_rounds)
    problems = [m for r in all_rounds for m in r.messages][:5]
    problems += check_determinism(args.workload, args.seed, all_rounds)
    correct = failed == 0 and not problems

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(all_rounds)} ops_per_round={all_rounds[0].ops} "
          f"samples={attempted} setups={len(setup_ns)}")
    print("simulated counts per round: "
          + json.dumps(all_rounds[0].counts, sort_keys=True))
    for message in problems:
        print(f"CHECK FAILED: {message}")
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(dict(result, counts=all_rounds[0].counts, problems=problems),
                  fh, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.write_spans(stem + ".spans.csv")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
