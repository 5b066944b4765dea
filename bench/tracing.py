"""Layer tracing from outside the program, for the traced run only.

`Tracer.install` wraps the public functions of each layer (module of
`src/capmon`) in place and `uninstall` puts the originals back; untraced
runs never load a wrapper.  Each wrapped call inside a timed operation
becomes a span (id, parent id, layer name, start, end, operation index),
kept in memory and written out at the end.  A span's self time is its
duration minus the part covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

from capmon import attest, oracle, regions, scenario, state
from capmon.engine import Engine
from capmon.machine import Platform

# monitor calls through the Python API, reported together as `engine.call`
ENGINE_CALLS = (
    "create", "set_register", "get_register", "set_policy", "get_policy",
    "set_interrupt_policy", "send", "seal", "switch", "route_interrupt",
    "route_device_interrupt", "getchan", "enumerate", "attest",
    "revoke_region", "revoke_domain", "tree_alias", "tree_carve",
)


def _targets():
    """(layer name, owner, attribute) for every wrapped function."""
    out = [
        ("state.dump_state", state, "dump_state"),
        ("oracle.apply", oracle.Oracle, "apply"),
        ("oracle.diff", oracle.Oracle, "diff"),
        ("engine.page_access_map", Engine, "page_access_map"),
        ("engine.view_cache_for", Engine, "view_cache_for"),
        ("regions.effective_view", regions.RegionTree, "effective_view"),
        ("machine.read_mem", Platform, "read_mem"),
        ("machine.write_mem", Platform, "write_mem"),
        ("machine.dma_access", Platform, "dma_access"),
        ("machine.barrier_update", Platform, "barrier_update"),
        ("engine.monitor_call", Engine, "monitor_call"),
        ("attest.build_report", attest, "build_report"),
        ("attest.sign_bytes", attest, "sign_bytes"),
        ("attest.to_bytes", attest.AttestationReport, "to_bytes"),
        ("attest.from_bytes", attest.AttestationReport, "from_bytes"),
        ("attest.verify_report", attest, "verify_report"),
        ("attest.predicates", attest, "is_confidential"),
        ("attest.predicates", attest, "is_encapsulated"),
        ("scenario.parse_script", scenario, "parse_script"),
        ("scenario.run", scenario.ScenarioRunner, "run"),
    ]
    out += [("engine.call", Engine, name) for name in ENGINE_CALLS]
    return out


LAYERS = sorted({name for name, _, _ in _targets()})
MAX_SPANS = 200_000     # spans kept for the trace file; counts cover all


class Tracer:
    def __init__(self):
        self.index = {name: i for i, name in enumerate(LAYERS)}
        self.calls = [0] * len(LAYERS)
        self.self_ns = [0] * len(LAYERS)
        # one row per span: id, parent, layer, start, end, operation
        self.spans = array("q")
        self.active = False
        self.ops = 0
        self.view_segments = [0, 0]     # segments scanned, accesses
        self.report_bytes = [0, 0]      # bytes serialized, reports
        self._stack: list[list[int]] = []
        self._next_id = 0
        self._saved: list = []

    # -- operation boundaries (called by the harness) ------------------------

    def begin_op(self):
        self.ops += 1
        self.active = True

    def end_op(self):
        self.active = False

    # -- wrapping ----------------------------------------------------------------

    def install(self):
        for name, owner, attr in _targets():
            raw = inspect.getattr_static(owner, attr)
            self._saved.append((owner, attr, raw))
            wrapper = self._wrap(getattr(owner, attr), self.index[name],
                                 _OBSERVERS.get(name))
            if isinstance(raw, staticmethod):
                wrapper = staticmethod(wrapper)
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def _wrap(self, fn, layer: int, observe):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, clock(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                tracer.calls[layer] += 1
                tracer.self_ns[layer] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if len(tracer.spans) < MAX_SPANS * 6:
                    tracer.spans.extend((span_id, parent, layer, frame[1],
                                         end, tracer.ops - 1))
            if observe is not None:
                observe(tracer, args, result)
            return result

        return wrapper

    # -- results -------------------------------------------------------------------

    def metrics(self) -> dict:
        """{metric: (value, unit)} for every wrapped layer."""
        out = {}
        ops = max(self.ops, 1)
        for name, i in self.index.items():
            calls = self.calls[i]
            out[f"{name}.calls_per_op"] = (calls / ops, "1/op")
            out[f"{name}.self_us"] = (
                self.self_ns[i] / calls / 1e3 if calls else 0.0, "us")
        segs, accesses = self.view_segments
        out["machine.view_segments"] = (segs / accesses if accesses else 0.0,
                                        "count")
        size, reports = self.report_bytes
        out["attest.report_bytes"] = (size / reports if reports else 0.0, "B")
        return out

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            fh.write("id,parent,layer,start_ns,end_ns,op\n")
            rows = self.spans
            for k in range(0, len(rows), 6):
                span_id, parent, layer, start, end, op = rows[k:k + 6]
                fh.write(f"{span_id},{parent},{LAYERS[layer]},{start},"
                         f"{end},{op}\n")


def _observe_access(tracer: Tracer, args, result):
    platform, core = args[0], args[1]
    tracer.view_segments[0] += len(platform.cores[core].local_view)
    tracer.view_segments[1] += 1


def _observe_report(tracer: Tracer, args, result):
    tracer.report_bytes[0] += len(result)
    tracer.report_bytes[1] += 1


_OBSERVERS = {
    "machine.read_mem": _observe_access,
    "machine.write_mem": _observe_access,
    "attest.to_bytes": _observe_report,
}
