"""Workload `guest_mem`: memory traffic of running guests.

The paper enforces isolation on every access, so every guest access here
goes through the interposer and is checked against the domain's view.

Machine: 2 MiB of RAM above a 1 MiB monitor range, 2 cores, and one DMA
device.  The device's RAM alias covers all of RAM, so the host can only
alias the root region, never carve it.  The host aliases tens of small
regions to each of two guests (one per core, some regions shared by
both), seals them and switches them in.

Operations, in a seeded order with fixed counts:
  * access bursts: one guest makes BURST reads and writes through
    `Engine.domain_read` / `Engine.domain_write`.  A fixed share of the
    accesses is denied; each denial routes fault vector 14 to the host,
    which resumes the guest within the same operation;
  * switches: the guest returns to the host, which switches it back in;
  * DMA bursts: BURST device accesses checked by `Platform.dma_access`.

Every verdict is compared with the benchmark's own model of the ranges it
granted, and every allowed read with the benchmark's shadow copy of memory.
"""

from __future__ import annotations

import random

from capmon.domains import ApiCall, CapKind
from capmon.machine import DeviceConfig, MachineConfig, boot
from capmon.regions import PAGE, PhysRange, Rights
from harness import engine_counts

RAM_START = 0x100000
RAM_END = 0x200000
MMIO = PhysRange(0x200000, 0x201000)
SLOT_PAGES = 3              # each region sits at the start of its own slot
PRIVATE_REGIONS = 30        # per guest
SHARED_REGIONS = 6          # aliased to both guests
BURST = 16
OPS = 6000
SWITCH_PERMILLE = 5
DMA_PERMILLE = 20
DENY_PERMILLE = 1           # of guest accesses
DMA_DENY_PERMILLE = 100     # of DMA checks
# offsets touched inside a page: a small working set, so reads mostly hit
# bytes written earlier in the round
_OFFSETS = range(0, PAGE, 61)
_RIGHTS = (Rights.RW, Rights.RW, Rights.RW, Rights.R, Rights.RWX)
_BIT = {"R": 4, "W": 2, "X": 1}


def machine_config() -> MachineConfig:
    return MachineConfig(memory_size=RAM_END, cores=2,
                         monitor_reserved=PhysRange(0, RAM_START),
                         devices=(DeviceConfig("dma0", MMIO, 33),))


class GuestState:
    def __init__(self, engine, td0, guests, handles, device):
        self.engine = engine
        self.td0 = td0
        self.guests = guests            # guest domain id per core
        self.handles = handles          # td0's handle for each guest, per core
        self.device = device
        self.shadow = bytearray(RAM_END)
        self.denied = 0


class GuestMem:
    name = "guest_mem"

    def __init__(self, seed: int, ops: int = OPS):
        rng = random.Random(f"guest_mem/{seed}")
        slots = list(range((RAM_END - RAM_START) // (SLOT_PAGES * PAGE)))
        rng.shuffle(slots)
        take = iter(slots)

        def region():
            start = RAM_START + next(take) * SLOT_PAGES * PAGE
            return (start, start + rng.choice((1, 2)) * PAGE,
                    int(rng.choice(_RIGHTS)))

        # (start, end, rights) granted to each core's guest, in grant order
        self.shared = [region() for _ in range(SHARED_REGIONS)]
        self.private = [[region() for _ in range(PRIVATE_REGIONS)]
                        for _ in range(2)]
        self.free_slots = [RAM_START + s * SLOT_PAGES * PAGE for s in take]
        self.views = [self.private[c] + self.shared for c in range(2)]
        self.ops = self._generate(rng, ops)

    # -- input generation -------------------------------------------------------

    def allowed(self, core: int, addr: int, kind: str) -> bool:
        """The benchmark's own verdict: some granted range covers addr with
        the right."""
        return any(start <= addr < end and rights & _BIT[kind]
                   for start, end, rights in self.views[core])

    def dma_allowed(self, addr: int, kind: str) -> bool:
        inside = RAM_START <= addr < RAM_END or MMIO.start <= addr < MMIO.end
        return inside and kind in ("R", "W")

    def _generate(self, rng: random.Random, n: int) -> list:
        """n operations in four quarters with the same make-up each, so the
        last quarter (late_ops_per_s) costs the same as the others."""
        return [op for _ in range(4) for op in self._quarter(rng, n // 4)]

    def _quarter(self, rng: random.Random, n: int) -> list:
        n_switch = n * SWITCH_PERMILLE // 1000
        n_dma = n * DMA_PERMILLE // 1000
        n_burst = n - n_switch - n_dma
        accesses = n_burst * BURST
        n_denied = accesses * DENY_PERMILLE // 1000
        dma_checks = n_dma * BURST
        n_dma_denied = dma_checks * DMA_DENY_PERMILLE // 1000

        denied = [True] * n_denied + [False] * (accesses - n_denied)
        rng.shuffle(denied)
        dma_denied = [True] * n_dma_denied + \
            [False] * (dma_checks - n_dma_denied)
        rng.shuffle(dma_denied)
        cores = [k % 2 for k in range(n_burst + n_switch)]
        rng.shuffle(cores)

        kinds = ["burst"] * n_burst + ["switch"] * n_switch + ["dma"] * n_dma
        rng.shuffle(kinds)
        ops, d, dd, c = [], iter(denied), iter(dma_denied), iter(cores)
        for kind in kinds:
            if kind == "burst":
                core = next(c)
                ops.append(("burst", core, [
                    self._access(rng, core, next(d)) for _ in range(BURST)]))
            elif kind == "switch":
                ops.append(("switch", next(c), None))
            else:
                ops.append(("dma", None, [
                    self._dma(rng, next(dd)) for _ in range(BURST)]))
        return ops

    def _access(self, rng: random.Random, core: int, deny: bool):
        """One (kind, addr, value) access by core's guest."""
        if not deny:
            if rng.random() < 0.6:
                start, end, _ = rng.choice(self.views[core])
                return ("R", self._addr(rng, start, end), 0)
            writable = [r for r in self.views[core] if r[2] & _BIT["W"]]
            start, end, _ = rng.choice(writable)
            return ("W", self._addr(rng, start, end), rng.randrange(1, 256))
        case = rng.randrange(4)
        if case == 0:       # a slot nobody was granted
            base = rng.choice(self.free_slots)
            addr = self._addr(rng, base, base + PAGE)
        elif case == 1:     # the other guest's private memory
            start, end, _ = rng.choice(self.private[1 - core])
            addr = self._addr(rng, start, end)
        elif case == 2:     # the monitor's own range
            addr = self._addr(rng, 0, RAM_START)
        else:               # a write to a read-only region
            ro = [r for r in self.views[core] if not r[2] & _BIT["W"]]
            if ro:
                start, end, _ = rng.choice(ro)
                return ("W", self._addr(rng, start, end), rng.randrange(1, 256))
            base = rng.choice(self.free_slots)
            addr = self._addr(rng, base, base + PAGE)
        return (rng.choice("RW"), addr, rng.randrange(1, 256))

    def _dma(self, rng: random.Random, deny: bool):
        if deny:
            if rng.random() < 0.5:
                return ("X", rng.randrange(RAM_START, RAM_END))
            return (rng.choice("RW"), rng.randrange(0, RAM_START))
        if rng.random() < 0.1:
            return (rng.choice("RW"), rng.randrange(MMIO.start, MMIO.end))
        return (rng.choice("RW"), rng.randrange(RAM_START, RAM_END))

    @staticmethod
    def _addr(rng: random.Random, start: int, end: int) -> int:
        page = rng.randrange(start, end, PAGE)
        return page + rng.choice(_OFFSETS)

    # -- set-up ----------------------------------------------------------------------

    def segments(self) -> list:
        return [None]

    def setup(self, spec) -> GuestState:
        engine, td0, _ = boot(machine_config())
        device = next(d.id for d in engine.domains.values() if d.is_device)
        root = engine.domains[td0].owned.find(CapKind.REGION,
                                              engine.root_region)
        guests, handles = [], []
        for core in range(2):
            handle = engine.create(td0)
            engine.set_policy(td0, handle, "cores", 1 << core)
            engine.set_policy(td0, handle, "mon_api", 1 << ApiCall.SWITCH)
            guests.append(engine.domains[td0].owned.get(handle).ref)
            handles.append(handle)
        for core in range(2):
            for start, end, rights in self.views[core]:
                alias = engine.tree_alias(td0, root, PhysRange(start, end),
                                          Rights(rights))
                engine.send(td0, alias, handles[core])
        for core in range(2):
            engine.seal(td0, handles[core])
            engine.switch(td0, core, handles[core])
        return GuestState(engine, td0, guests, handles, device)

    # -- operations --------------------------------------------------------------------

    def operations(self, spec, st: GuestState):
        for kind, core, items in self.ops:
            if kind == "burst":
                yield (lambda core=core, items=items: _burst(st, core, items),
                       lambda result, core=core, items=items:
                       self._check_burst(st, core, items, result))
            elif kind == "switch":
                yield (lambda core=core: _switch(st, core),
                       lambda result, core=core: _check_current(st, core))
            else:
                yield (lambda items=items: _dma(st, items),
                       lambda result, items=items:
                       self._check_dma(items, result))

    def _check_burst(self, st: GuestState, core: int, items, result):
        for (kind, addr, value), (ok, got) in zip(items, result):
            if ok != self.allowed(core, addr, kind):
                return f"core {core} {kind} {addr:#x}: verdict {ok}"
            if not ok:
                st.denied += 1
            elif kind == "R":
                if got != st.shadow[addr]:
                    return (f"core {core} read {addr:#x}: got {got}, "
                            f"shadow {st.shadow[addr]}")
            else:
                st.shadow[addr] = value
        return _check_current(st, core)

    def _check_dma(self, items, result):
        for (kind, addr), ok in zip(items, result):
            if ok != self.dma_allowed(addr, kind):
                return f"DMA {kind} {addr:#x}: verdict {ok}"
        return None

    def counts(self, st: GuestState) -> dict:
        return dict(engine_counts(st.engine), denied=st.denied)


def _burst(st: GuestState, core: int, items):
    """The timed unit: a guest's accesses, each denial resumed by the host."""
    engine = st.engine
    out = []
    for kind, addr, value in items:
        if kind == "R":
            out.append(engine.domain_read(core, addr))
        else:
            out.append((engine.domain_write(core, addr, value), value))
        if not out[-1][0]:
            # the fault routed to the host; it resumes the guest
            engine.switch(st.td0, core, st.handles[core])
    return out


def _switch(st: GuestState, core: int):
    st.engine.switch(st.guests[core], core, None)
    st.engine.switch(st.td0, core, st.handles[core])


def _dma(st: GuestState, items):
    dma = st.engine.platform.dma_access
    return [dma(st.device, addr, kind) for kind, addr in items]


def _check_current(st: GuestState, core: int):
    cs = st.engine.cores[core]
    if cs.current != st.guests[core] or cs.irq is not None:
        return f"core {core}: guest not resumed (current {cs.current})"
    return None
