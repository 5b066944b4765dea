"""Simulated machine backing the capability engine.

The simulator owns all physical memory, so every byte touched by a scenario
passes through the access interposer here.  Two execution modes share the
engine: a deterministic single-context stepper used for golden tests, and a
concurrent mode with one worker thread per core where the engine's
serialization plus the two-barrier update protocol are the only cross-core
synchronization.
"""

from __future__ import annotations

import contextlib
import heapq
import threading
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Optional

from .domains import NUM_VECTORS
from .errors import ErrorCode, MonitorError, deny
from .regions import PAGE, PhysRange

FAULT_VECTOR = 14       # synthetic fault raised by denied accesses
TIMER_VECTOR = 32       # synthetic preemption when a switch quantum expires
MAX_CORES = 64


@dataclass(frozen=True)
class DeviceConfig:
    name: str
    mmio: PhysRange
    vector: int


@dataclass(frozen=True)
class MachineConfig:
    memory_size: int
    cores: int
    monitor_reserved: PhysRange
    devices: tuple[DeviceConfig, ...] = ()
    metadata_pool: int = 1024

    def validate(self):
        if self.memory_size <= 0 or self.memory_size % PAGE:
            raise deny(ErrorCode.BAD_CONFIG, "memory size must be page aligned")
        if not 1 <= self.cores <= MAX_CORES:
            raise deny(ErrorCode.BAD_CONFIG, f"core count must be 1..{MAX_CORES}")
        if self.monitor_reserved.start != 0:
            raise deny(ErrorCode.BAD_CONFIG,
                       "monitor reserved range must start at address 0")
        if self.monitor_reserved.end >= self.memory_size:
            raise deny(ErrorCode.BAD_CONFIG, "monitor reserves all of RAM")
        if self.metadata_pool < 1:
            raise deny(ErrorCode.BAD_CONFIG, "metadata pool must be positive")
        seen = set()
        for dev in self.devices:
            if dev.name in seen:
                raise deny(ErrorCode.BAD_CONFIG, f"duplicate device {dev.name}")
            seen.add(dev.name)
            if dev.mmio.start < self.memory_size:
                raise deny(ErrorCode.BAD_CONFIG,
                           f"device {dev.name} MMIO must sit above RAM")
            if not 0 <= dev.vector < NUM_VECTORS:
                raise deny(ErrorCode.BAD_CONFIG, f"device {dev.name} vector")
            for other in self.devices:
                if other is not dev and other.mmio.overlaps(dev.mmio):
                    raise deny(ErrorCode.BAD_CONFIG,
                               f"device MMIO overlap {dev.name}/{other.name}")

    @property
    def address_top(self) -> int:
        top = self.memory_size
        for dev in self.devices:
            top = max(top, dev.mmio.end)
        return top

    def canonical_bytes(self) -> bytes:
        """Stable serialization; the boot-info that gets measured."""
        lines = [
            f"memory {self.memory_size:#x}",
            f"cores {self.cores}",
            f"monitor_reserved {self.monitor_reserved.start:#x} "
            f"{self.monitor_reserved.end:#x}",
        ]
        for dev in self.devices:
            lines.append(f"device {dev.name} {dev.mmio.start:#x} "
                         f"{dev.mmio.end:#x} {dev.vector}")
        return ("\n".join(lines) + "\n").encode()


def parse_config(text: str) -> MachineConfig:
    memory = None
    cores = None
    reserved = None
    pool = 1024
    devices: list[DeviceConfig] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        key = tokens[0]
        try:
            if key == "memory" and len(tokens) == 2:
                memory = int(tokens[1], 0)
            elif key == "cores" and len(tokens) == 2:
                cores = int(tokens[1], 0)
            elif key == "monitor_reserved" and len(tokens) == 3:
                reserved = PhysRange(int(tokens[1], 0), int(tokens[2], 0))
            elif key == "pool" and len(tokens) == 2:
                pool = int(tokens[1], 0)
            elif key == "device" and len(tokens) == 5:
                devices.append(DeviceConfig(
                    tokens[1], PhysRange(int(tokens[2], 0), int(tokens[3], 0)),
                    int(tokens[4], 0)))
            else:
                raise ValueError(key)
        except (ValueError, MonitorError) as exc:
            raise deny(ErrorCode.BAD_CONFIG,
                       f"config line {lineno}: {raw.strip()!r}") from exc
    if memory is None or cores is None or reserved is None:
        raise deny(ErrorCode.BAD_CONFIG,
                   "config needs memory, cores, and monitor_reserved")
    config = MachineConfig(memory, cores, reserved, tuple(devices), pool)
    config.validate()
    return config


@dataclass
class AccessEvent:
    seq: int
    step: int
    core: int           # -1 for monitor or device accesses
    domain: int
    addr: int
    kind: str           # R / W / X / DMA-R / DMA-W / MON-R / MON-W
    allowed: bool


@dataclass
class ProtocolEvent:
    seq: int
    phase: str          # ipi / park / publish / release / drain
    core: int
    tag: str


class SimMemory:
    """Byte-addressable physical memory; the simulator is its only owner."""

    def __init__(self, size: int):
        self.size = size
        self.data = bytearray(size)

    def in_bounds(self, rng: PhysRange) -> bool:
        return 0 <= rng.start and rng.end <= self.size

    def peek(self, start: int, end: int) -> bytes:
        return bytes(self.data[start:end])

    def poke(self, start: int, blob: bytes):
        self.data[start:start + len(blob)] = blob


class CoreRunState:
    RUNNING = "running"
    PARKED = "parked"


@dataclass
class SimCore:
    id: int
    run_state: str = CoreRunState.RUNNING
    steps: int = 0
    queue: list = field(default_factory=list)
    # local cached view of the current domain: (start, end, rights) sorted
    # by start and disjoint, as disjoint_view builds it
    local_view: list[tuple[int, int, int]] = field(default_factory=list)


_ACCESS_BITS = {"R": 4, "W": 2, "X": 1}


# an end past every address: (addr, _TOP, 8) sorts after each segment that
# starts at or below addr
_TOP = 1 << 64


def disjoint_view(segments: list[tuple[int, int, int]]
                  ) -> list[tuple[int, int, int]]:
    """(start, end, rights) segments sorted by start and made disjoint:
    where segments overlap, the overlap is split off with their rights OR'ed."""
    view = sorted(segments)
    if all(prev[1] <= seg[0] for prev, seg in zip(view, view[1:])):
        return view
    cuts = sorted({p for start, end, _ in view for p in (start, end)})
    out: list[tuple[int, int, int]] = []
    active: list[tuple[int, int, int]] = []
    nxt = 0
    for lo, hi in zip(cuts, cuts[1:]):
        # every start is a cut, so a segment covers [lo, hi) iff it has
        # started and not ended by lo
        while nxt < len(view) and view[nxt][0] == lo:
            active.append(view[nxt])
            nxt += 1
        active = [seg for seg in active if seg[1] > lo]
        if active:
            rights = 0
            for seg in active:
                rights |= seg[2]
            out.append((lo, hi, rights))
    return out


def view_allows(view: list[tuple[int, int, int]], addr: int,
                kind: str) -> bool:
    """Whether a view from disjoint_view grants `kind` access at addr."""
    at = bisect_right(view, (addr, _TOP, 8)) - 1
    if at < 0:
        return False
    _, end, rights = view[at]
    return addr < end and bool(rights & _ACCESS_BITS[kind])


class Platform:
    """Deterministic single-context platform; also the base for concurrent mode."""

    def __init__(self, config: MachineConfig):
        config.validate()
        self.config = config
        self.memory = SimMemory(config.address_top)
        self.cores = [SimCore(i) for i in range(config.cores)]
        self.engine = None
        self.now = 0
        self._seq = 0
        self.access_log: list[AccessEvent] = []
        self.protocol_log: list[ProtocolEvent] = []
        self._pending_irqs: list[tuple[int, int, int]] = []  # (step, order, vector)
        self._irq_order = 0
        # one context runs everything, so engine calls need no lock
        self.engine_lock = contextlib.nullcontext()

    # -- wiring -----------------------------------------------------------

    def attach_engine(self, engine):
        self.engine = engine

    @property
    def ncores(self) -> int:
        return self.config.cores

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # -- monitor memory access (only legal when no domain can reach it) ----

    def read_bytes(self, rng: PhysRange) -> bytes:
        if not self.memory.in_bounds(rng):
            raise deny(ErrorCode.OUT_OF_MEMORY_BOUNDS, repr(rng))
        self.log_access(AccessEvent(
            self.next_seq(), self.now, -1, -1, rng.start, "MON-R", True))
        return self.memory.peek(rng.start, rng.end)

    def zero_range(self, rng: PhysRange):
        if not self.memory.in_bounds(rng):
            raise deny(ErrorCode.OUT_OF_MEMORY_BOUNDS, repr(rng))
        self.log_access(AccessEvent(
            self.next_seq(), self.now, -1, -1, rng.start, "MON-W", True))
        self.memory.poke(rng.start, bytes(rng.end - rng.start))

    def log_access(self, event: AccessEvent):
        self.access_log.append(event)

    # -- interposed domain accesses ----------------------------------------

    def mem_access(self, core: int, addr: int, kind: str) -> bool:
        sim = self.cores[core]
        assert sim.run_state != CoreRunState.PARKED, \
            "parked cores make no memory accesses"
        domain = self.engine.current_domain(core)
        allowed = view_allows(sim.local_view, addr, kind) and \
            0 <= addr < self.memory.size
        self.log_access(AccessEvent(
            self.next_seq(), self.now, core, domain, addr, kind, allowed))
        return allowed

    def read_mem(self, core: int, addr: int) -> tuple[bool, int]:
        if not self.mem_access(core, addr, "R"):
            return False, 0
        return True, self.memory.data[addr]

    def write_mem(self, core: int, addr: int, value: int) -> bool:
        if not self.mem_access(core, addr, "W"):
            return False
        self.memory.data[addr] = value & 0xFF
        return True

    def dma_access(self, device_domain: int, addr: int, kind: str) -> bool:
        allowed = self.engine.domain_may_access(device_domain, addr, kind)
        self.log_access(AccessEvent(
            self.next_seq(), self.now, -1, device_domain, addr,
            f"DMA-{kind}", allowed))
        return allowed

    # -- update queues and the two-barrier protocol ------------------------

    def enqueue_update(self, core: int, update):
        self.cores[core].queue.append(update)

    def pop_update(self, core: int):
        queue = self.cores[core].queue
        return queue.pop(0) if queue else None

    def barrier_update(self, initiator: Optional[int], affected: set[int],
                       publish: Callable[[], None], tag: str):
        """Park affected cores, publish new state, release, drain.

        Deterministic mode runs the whole protocol inline; the phase markers
        still land in the protocol log so ordering is checkable.
        """
        others = sorted(c for c in affected if c != initiator)
        for core in others:
            self.protocol_log.append(ProtocolEvent(
                self.next_seq(), "ipi", core, tag))
            self.cores[core].run_state = CoreRunState.PARKED
            self.protocol_log.append(ProtocolEvent(
                self.next_seq(), "park", core, tag))
        self.protocol_log.append(ProtocolEvent(
            self.next_seq(), "publish", -1 if initiator is None else initiator,
            tag))
        publish()
        self.protocol_log.append(ProtocolEvent(
            self.next_seq(), "release", -1 if initiator is None else initiator,
            tag))
        for core in others:
            self.cores[core].run_state = CoreRunState.RUNNING
            self.engine.process_updates(core)
            self.protocol_log.append(ProtocolEvent(
                self.next_seq(), "drain", core, tag))
        if initiator is not None and initiator in affected:
            self.engine.process_updates(initiator)
            self.protocol_log.append(ProtocolEvent(
                self.next_seq(), "drain", initiator, tag))

    # -- time --------------------------------------------------------------

    def tick(self, n: int = 1, core: Optional[int] = None):
        for _ in range(n):
            self.now += 1
            if core is not None:
                self.cores[core].steps += 1
            self._fire_due_irqs()
            self.engine.check_quanta()

    def schedule_device_interrupt(self, vector: int, at_step: int):
        heapq.heappush(self._pending_irqs, (at_step, self._irq_order, vector))
        self._irq_order += 1

    def _fire_due_irqs(self):
        while self._pending_irqs and self._pending_irqs[0][0] <= self.now:
            _, _, vector = heapq.heappop(self._pending_irqs)
            self.engine.route_device_interrupt(vector)


class _IpiRequest:
    def __init__(self, barrier1: threading.Barrier,
                 barrier2: threading.Barrier, tag: str):
        self.barrier1 = barrier1
        self.barrier2 = barrier2
        self.tag = tag


class _EngineLock:
    """Reentrant engine lock whose waiters service IPIs to their own core,
    so a parked request never deadlocks against the initiator holding it;
    a register-ABI call holds it while running the call it decodes."""

    def __init__(self, platform: "ConcurrentPlatform"):
        self._platform = platform
        self._lock = threading.RLock()

    def __enter__(self):
        my_core = getattr(self._platform._thread_core, "core", None)
        while not self._lock.acquire(timeout=0.0002):
            if my_core is not None:
                self._platform.service_ipi(my_core)

    def __exit__(self, *exc_info):
        self._lock.release()


class ConcurrentPlatform(Platform):
    """One worker thread per core; engine ops serialize on an IPI-aware lock."""

    def __init__(self, config: MachineConfig):
        super().__init__(config)
        self.engine_lock = _EngineLock(self)
        self._log_lock = threading.Lock()
        self._ipi_requests: list[Optional[_IpiRequest]] = [None] * config.cores
        self._work: list[list] = [[] for _ in range(config.cores)]
        self._work_cv = [threading.Condition() for _ in range(config.cores)]
        self._threads: list[threading.Thread] = []
        self._stop = False
        self._errors: list[BaseException] = []
        self._thread_core = threading.local()

    def next_seq(self) -> int:
        with self._log_lock:
            self._seq += 1
            return self._seq

    def log_access(self, event: AccessEvent):
        with self._log_lock:
            self.access_log.append(event)

    # -- IPI servicing ------------------------------------------------------

    def service_ipi(self, core: int):
        req = self._ipi_requests[core]
        if req is None:
            return
        self._ipi_requests[core] = None
        self.cores[core].run_state = CoreRunState.PARKED
        with self._log_lock:
            self.protocol_log.append(ProtocolEvent(
                self._bump_seq(), "park", core, req.tag))
        req.barrier1.wait()
        req.barrier2.wait()
        self.cores[core].run_state = CoreRunState.RUNNING
        with self.engine_lock:
            self.engine.process_updates(core)
        with self._log_lock:
            self.protocol_log.append(ProtocolEvent(
                self._bump_seq(), "drain", core, req.tag))

    def _bump_seq(self) -> int:
        self._seq += 1
        return self._seq

    def barrier_update(self, initiator: Optional[int], affected: set[int],
                       publish: Callable[[], None], tag: str):
        initiator = getattr(self._thread_core, "core", None)
        others = sorted(c for c in affected
                        if c != initiator and self._threads)
        live = [c for c in others if not self._stop]
        barrier1 = threading.Barrier(len(live) + 1)
        barrier2 = threading.Barrier(len(live) + 1)
        for core in live:
            with self._log_lock:
                self.protocol_log.append(ProtocolEvent(
                    self._bump_seq(), "ipi", core, tag))
            self._ipi_requests[core] = _IpiRequest(barrier1, barrier2, tag)
            with self._work_cv[core]:
                self._work_cv[core].notify()
        barrier1.wait()
        with self._log_lock:
            self.protocol_log.append(ProtocolEvent(
                self._bump_seq(), "publish",
                -1 if initiator is None else initiator, tag))
        publish()
        with self._log_lock:
            self.protocol_log.append(ProtocolEvent(
                self._bump_seq(), "release",
                -1 if initiator is None else initiator, tag))
        barrier2.wait()
        if initiator is not None and initiator in affected:
            self.engine.process_updates(initiator)

    # -- worker threads -----------------------------------------------------

    def start_cores(self):
        self._stop = False
        for core in range(self.ncores):
            thread = threading.Thread(
                target=self._worker, args=(core,), daemon=True,
                name=f"core{core}")
            self._threads.append(thread)
            thread.start()

    def submit(self, core: int, fn: Callable[[], None]):
        with self._work_cv[core]:
            self._work[core].append(fn)
            self._work_cv[core].notify()

    def _worker(self, core: int):
        self._thread_core.core = core
        while True:
            self.service_ipi(core)
            fn = None
            with self._work_cv[core]:
                if self._work[core]:
                    fn = self._work[core].pop(0)
                elif self._stop:
                    return
                else:
                    self._work_cv[core].wait(timeout=0.0005)
            if fn is not None:
                try:
                    fn()
                except MonitorError:
                    pass
                except BaseException as exc:  # surfaced by join()
                    self._errors.append(exc)

    def join(self, timeout: float = 60.0):
        deadline = time.monotonic() + timeout
        while any(self._work[c] for c in range(self.ncores)):
            if time.monotonic() > deadline:
                raise TimeoutError("cores did not drain their work queues")
            time.sleep(0.001)
        self._stop = True
        for cv in self._work_cv:
            with cv:
                cv.notify_all()
        for thread in self._threads:
            thread.join(timeout=5)
        self._threads.clear()
        if self._errors:
            raise self._errors[0]

    def tick(self, n: int = 1, core: Optional[int] = None):
        # step accounting is advisory in concurrent mode
        self.now += n


def boot(config: MachineConfig, seed: int = 0, concurrent: bool = False):
    """Build the machine, the engine, td0, and the device domains.

    Returns (engine, td0 id, boot measurement).  td0 owns one exclusive root
    region covering everything above the monitor-reserved range, runs on all
    cores, may issue every monitor call, and delivers every vector.  Each
    device gets a domain holding a carve of its MMIO range plus an alias of
    td0's RAM for DMA, and td0 receives a channel to it.
    """
    from . import attest as attest_mod
    from .engine import Engine

    config.validate()
    platform = ConcurrentPlatform(config) if concurrent else Platform(config)
    measurement = attest_mod.measure_boot(
        config.canonical_bytes(), attest_mod.MONITOR_IDENTITY, seed)
    engine = Engine(platform, seed=seed, measurement=measurement)
    platform.attach_engine(engine)
    td0 = engine.boot_td0()
    return engine, td0, measurement
