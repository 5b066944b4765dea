"""Simulated machine backing the capability engine.

The simulator owns all physical memory, so every byte touched by a scenario
passes through the access interposer here.  Two execution modes share the
engine: a deterministic single-context stepper used for golden tests, and a
concurrent mode with one worker thread per core where the engine's
serialization plus the two-barrier protocol are the only cross-core
synchronization.  Step mode takes no lock.  Concurrent mode's engine lock
covers the `ConcurrentEngine` entry points, the clock's `tick` and each
scenario statement.  A barrier round parks the affected cores, publishes,
then releases them; each then drains under the engine lock, and the engine
works out the drain from its own state, so a core carries no queue of
updates.

Concurrent mode waits on one condition, `ConcurrentPlatform._cv`, and only
where the protocol says: a thread wanting the engine lock until its holder
releases it, or, while its own core has an IPI pending, parked until the
round releases it; a round's initiator until every other affected core has
parked; an idle worker until it has an IPI, work or a stop request; and
`join` until every work list is empty.

The platform keeps two logs, each a ring of the newest LOG_KEEP entries,
so neither grows with the length of a run.  Entries are plain tuples:

    access_log:   (seq, step, core, domain, addr, kind, allowed)
    protocol_log: (seq, phase, core, tag)

`seq` numbers accesses and barrier phases in one sequence; `core` is -1 for
monitor and device accesses and for a phase with no initiating core; `kind`
is R / W / X / DMA-R / DMA-W / MON-R / MON-W; `phase` is ipi / park /
publish / release / drain.
"""

from __future__ import annotations

import heapq
import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from .domains import NUM_VECTORS
from .errors import ErrorCode, MonitorError, deny
from .regions import PAGE, PhysRange

FAULT_VECTOR = 14       # synthetic fault raised by denied accesses
TIMER_VECTOR = 32       # synthetic preemption when a switch quantum expires
MAX_CORES = 64
LOG_KEEP = 4096         # entries each platform log keeps, newest last
DEFAULT_POOL = 1024     # metadata pool of a config with no `pool` line


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
    metadata_pool: int = DEFAULT_POOL

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
        """Stable serialization; the boot-info that gets measured.  It
        names every field, so `parse_config` gives back an equal config.
        The default pool writes no line, as a config file without a `pool`
        line gets it."""
        lines = [
            f"memory {self.memory_size:#x}",
            f"cores {self.cores}",
            f"monitor_reserved {self.monitor_reserved.start:#x} "
            f"{self.monitor_reserved.end:#x}",
        ]
        for dev in self.devices:
            lines.append(f"device {dev.name} {dev.mmio.start:#x} "
                         f"{dev.mmio.end:#x} {dev.vector}")
        if self.metadata_pool != DEFAULT_POOL:
            lines.append(f"pool {self.metadata_pool}")
        return ("\n".join(lines) + "\n").encode()


def parse_config(text: str) -> MachineConfig:
    memory = None
    cores = None
    reserved = None
    pool = DEFAULT_POOL
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
    # the table of the domain the core runs, as the engine last installed
    # it: the very bytes object the domain's capability table holds
    local_view: bytes = b""


_ACCESS_BITS = {"R": 4, "W": 2, "X": 1}


def view_allows(view: bytes, addr: int, kind: str) -> bool:
    """Whether a domain's table (one byte per page from page 0, in the
    format regions.py defines) grants `kind` access at addr."""
    page = addr // PAGE
    return 0 <= page < len(view) and bool(view[page] & _ACCESS_BITS[kind])


class Platform:
    """Deterministic single-context platform; also the base for concurrent
    mode.  One context runs everything, so it has no engine lock and
    nothing here or in its `Engine` takes one."""

    def __init__(self, config: MachineConfig):
        config.validate()
        self.config = config
        self.memory = SimMemory(config.address_top)
        self.cores = [SimCore(i) for i in range(config.cores)]
        self.engine = None
        self.now = 0
        self._seq = 0
        # rings of plain tuples; the module docstring gives their layouts
        self.access_log: deque[tuple] = deque(maxlen=LOG_KEEP)
        self.protocol_log: deque[tuple] = deque(maxlen=LOG_KEEP)
        self._pending_irqs: list[tuple[int, int, int]] = []  # (step, order, vector)
        self._irq_order = 0

    # -- wiring -----------------------------------------------------------

    def attach_engine(self, engine):
        self.engine = engine

    @property
    def ncores(self) -> int:
        return self.config.cores

    def worker_core(self) -> Optional[int]:
        """The core whose worker thread runs this code: none, as one
        context runs everything here."""
        return None

    def _log_phase(self, phase: str, core: Optional[int], tag: str):
        """Log one phase of a barrier round; no core (None) logs as -1."""
        self._seq += 1
        self.protocol_log.append(
            (self._seq, phase, -1 if core is None else core, tag))

    # -- monitor memory access (only legal when no domain can reach it) ----

    def read_bytes(self, rng: PhysRange) -> bytes:
        if not self.memory.in_bounds(rng):
            raise deny(ErrorCode.OUT_OF_MEMORY_BOUNDS, repr(rng))
        self.log_access(-1, -1, rng.start, "MON-R", True)
        return self.memory.peek(rng.start, rng.end)

    def zero_range(self, rng: PhysRange):
        if not self.memory.in_bounds(rng):
            raise deny(ErrorCode.OUT_OF_MEMORY_BOUNDS, repr(rng))
        self.log_access(-1, -1, rng.start, "MON-W", True)
        self.memory.poke(rng.start, bytes(rng.end - rng.start))

    def log_access(self, core: int, domain: int, addr: int, kind: str,
                   allowed: bool):
        """Number one monitor or DMA access and append it to the access
        log; `mem_access` logs a guest access itself."""
        self._seq += 1
        self.access_log.append(
            (self._seq, self.now, core, domain, addr, kind, allowed))

    # -- interposed domain accesses ----------------------------------------

    def mem_access(self, core: int, addr: int, kind: str) -> bool:
        """Decide one guest access against the core's installed table and
        log it: the whole interposer in one frame.

        The lookup is `view_allows` written inline, since every checked
        access pays a call; `view_allows` stays the rule the DMA check and
        the tests use.  It never calls `log_access`, whose concurrent form
        takes the log lock that concurrent `mem_access` already holds.
        """
        # a negative core would index the core list from its end and be
        # logged as a monitor access
        if not 0 <= core < self.config.cores:
            raise deny(ErrorCode.CORE_NOT_ALLOWED, f"core {core}")
        sim = self.cores[core]
        assert sim.run_state != CoreRunState.PARKED, \
            "parked cores make no memory accesses"
        view = sim.local_view
        page = addr // PAGE
        # a negative page would read the table from its end
        allowed = 0 <= page < len(view) and \
            bool(view[page] & _ACCESS_BITS[kind]) and addr < self.memory.size
        self._seq += 1
        self.access_log.append((self._seq, self.now, core,
                                self.engine.cores[core].current, addr, kind,
                                allowed))
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
        self.log_access(-1, device_domain, addr, f"DMA-{kind}", allowed)
        return allowed

    # -- the two-barrier protocol -------------------------------------------

    def barrier_update(self, initiator: Optional[int], affected: set[int],
                       publish: Callable[[], None], tag: str):
        """Park affected cores, publish new state, release, drain.

        Deterministic mode runs the whole protocol inline; the phase markers
        still land in the protocol log so ordering is checkable.
        """
        others = sorted(c for c in affected if c != initiator)
        for core in others:
            self._log_phase("ipi", core, tag)
            self.cores[core].run_state = CoreRunState.PARKED
            self._log_phase("park", core, tag)
        self._log_phase("publish", initiator, tag)
        publish()
        self._log_phase("release", initiator, tag)
        for core in others:
            self.cores[core].run_state = CoreRunState.RUNNING
            self.engine.process_updates(core)
            self._log_phase("drain", core, tag)
        if initiator is not None and initiator in affected:
            self.engine.process_updates(initiator)
            self._log_phase("drain", initiator, tag)

    # -- time --------------------------------------------------------------

    def tick(self, n: int = 1):
        for _ in range(n):
            self.now += 1
            self._fire_due_irqs()
            self.engine.check_quanta()

    def schedule_device_interrupt(self, vector: int, at_step: int):
        heapq.heappush(self._pending_irqs, (at_step, self._irq_order, vector))
        self._irq_order += 1

    def _fire_due_irqs(self):
        while self._pending_irqs and self._pending_irqs[0][0] <= self.now:
            _, _, vector = heapq.heappop(self._pending_irqs)
            self.engine.route_device_interrupt(vector)


class _EngineLock:
    """Reentrant engine lock whose waiters park for their own core's IPI,
    so a round never deadlocks against the initiator holding the lock; a
    core that parked drains first thing once it holds the lock."""

    def __init__(self, platform: "ConcurrentPlatform"):
        self._platform = platform
        self._lock = threading.RLock()

    def __enter__(self):
        platform = self._platform
        core = platform.worker_core()
        with platform._cv:
            while not self._lock.acquire(blocking=False):
                if core is not None and platform._ipi[core] is not None:
                    platform._park(core)
                else:
                    platform._cv.wait()
        if core is not None and platform._parked_for[core]:
            platform._drain(core)

    def __exit__(self, *exc_info):
        self._lock.release()
        if not self._lock._is_owned():
            with self._platform._cv:
                self._platform._cv.notify_all()


class ConcurrentPlatform(Platform):
    """One worker thread per core; engine ops serialize on an IPI-aware
    lock, `engine_lock`.  Its scope is the `ConcurrentEngine` entry points,
    `tick` and each statement a scenario runner executes.  `_cv` guards
    each core's IPI tag and run state, the work lists and the engine
    lock's hand-off, and every change to them notifies it."""

    def __init__(self, config: MachineConfig):
        super().__init__(config)
        self.engine_lock = _EngineLock(self)
        self._log_lock = threading.Lock()
        self._cv = threading.Condition()
        # the tag of the round each core must park for, or None
        self._ipi: list[Optional[str]] = [None] * config.cores
        # the tags of the rounds each core parked for and has not drained;
        # only the core's own thread uses its list
        self._parked_for: list[list[str]] = [[] for _ in range(config.cores)]
        # each core's statements; the running one stays at the head
        self._work: list[list] = [[] for _ in range(config.cores)]
        self._threads: list[threading.Thread] = []
        self._stop = False
        self._errors: list[BaseException] = []
        self._thread_core = threading.local()

    def worker_core(self) -> Optional[int]:
        """The core whose worker thread runs this code, or None."""
        return getattr(self._thread_core, "core", None)

    def tick(self, n: int = 1):
        with self.engine_lock:
            super().tick(n)

    def log_access(self, *event):
        with self._log_lock:
            super().log_access(*event)

    def mem_access(self, core: int, addr: int, kind: str) -> bool:
        with self._log_lock:
            return super().mem_access(core, addr, kind)

    def _log_phase(self, phase: str, core: Optional[int], tag: str):
        with self._log_lock:
            super()._log_phase(phase, core, tag)

    # -- the barrier round --------------------------------------------------

    def _park(self, core: int):
        """Park `core` for the round its IPI names until the initiator
        releases it; called holding `_cv`."""
        tag, self._ipi[core] = self._ipi[core], None
        self._parked_for[core].append(tag)
        self.cores[core].run_state = CoreRunState.PARKED
        self._log_phase("park", core, tag)
        self._cv.notify_all()
        self._cv.wait_for(
            lambda: self.cores[core].run_state == CoreRunState.RUNNING)

    def _drain(self, core: int):
        """Drain a core that parked, holding the engine lock.  The engine
        works out the drain from its own state, so one drain serves every
        round the core parked for; each round logs its own."""
        self.engine.process_updates(core)
        for tag in self._parked_for[core]:
            self._log_phase("drain", core, tag)
        self._parked_for[core].clear()

    def barrier_update(self, initiator: Optional[int], affected: set[int],
                       publish: Callable[[], None], tag: str):
        if not self._threads:
            # no worker would drain another core: run the protocol
            # inline, as the single-context platform does
            return super().barrier_update(initiator, affected, publish, tag)
        initiator = self.worker_core()
        others = [self.cores[c] for c in sorted(affected) if c != initiator]
        with self._cv:
            for sim in others:
                self._log_phase("ipi", sim.id, tag)
                self._ipi[sim.id] = tag
            self._cv.notify_all()
            self._cv.wait_for(lambda: all(
                sim.run_state == CoreRunState.PARKED for sim in others))
        self._log_phase("publish", initiator, tag)
        publish()
        self._log_phase("release", initiator, tag)
        with self._cv:
            for sim in others:
                sim.run_state = CoreRunState.RUNNING
            self._cv.notify_all()
        if initiator is not None and initiator in affected:
            self.engine.process_updates(initiator)
            self._log_phase("drain", initiator, tag)

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
        with self._cv:
            self._work[core].append(fn)
            self._cv.notify_all()

    def _worker(self, core: int):
        self._thread_core.core = core
        work = self._work[core]
        while True:
            with self._cv:
                self._cv.wait_for(lambda: self._ipi[core] is not None
                                  or work or self._stop)
                if self._ipi[core] is not None:
                    self._park(core)
                elif not work:
                    return
            if self._parked_for[core]:
                with self.engine_lock:  # taking it drains the core
                    pass
                continue
            try:
                work[0]()
            except MonitorError:
                pass
            except BaseException as exc:  # surfaced by join()
                self._errors.append(exc)
            with self._cv:
                work.pop(0)
                self._cv.notify_all()

    def join(self, timeout: float = 60.0):
        """Stop the workers once every core has run all its work, so no
        statement is still running when they stop: one that is would find
        the other cores no longer parking for its barrier rounds."""
        with self._cv:
            if not self._cv.wait_for(lambda: not any(self._work), timeout):
                raise TimeoutError("cores did not drain their work queues")
            self._stop = True
            self._cv.notify_all()
        for thread in self._threads:
            thread.join()
        self._threads.clear()
        if self._errors:
            raise self._errors[0]


def boot(config: MachineConfig, seed: int = 0, concurrent: bool = False):
    """Build the machine, the engine, td0, and the device domains.

    Returns (engine, td0 id, boot measurement).  td0 owns one exclusive root
    region covering everything above the monitor-reserved range, runs on all
    cores, may issue every monitor call, and delivers every vector.  Each
    device gets a domain holding a carve of its MMIO range plus an alias of
    td0's RAM for DMA, and td0 receives a channel to it.
    """
    from . import attest as attest_mod
    from .engine import ConcurrentEngine, Engine

    config.validate()
    if concurrent:
        platform, engine_cls = ConcurrentPlatform(config), ConcurrentEngine
    else:
        platform, engine_cls = Platform(config), Engine
    measurement = attest_mod.measure_boot(
        config.canonical_bytes(), attest_mod.MONITOR_IDENTITY, seed)
    engine = engine_cls(platform, seed=seed, measurement=measurement)
    platform.attach_engine(engine)
    td0 = engine.boot_td0()
    return engine, td0, measurement
