"""Simulated machine: config parsing, boot state, access interposition,
update protocol ordering, bounded logs, and device modeling."""

import dataclasses
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capmon import (
    DeviceConfig, MachineConfig, PhysRange, Rights, boot, parse_config,
)
from capmon.domains import ALL_CALLS_MASK, CapKind
from capmon.errors import ErrorCode
from capmon.machine import LOG_KEEP, view_allows
from capmon.regions import EXCLUSIVE_BIT, PAGE
from capmon.state import dump_state

from support import (
    FuzzDriver, delivered_in_place, expect_code, frames_entered, hold_drains,
    make_child, page_table, small_config, small_engine,
)

A = [PAGE * (1 + k) for k in range(8)]


# a config with every field set, the pool left at its default
_MEASURED = MachineConfig(
    0x40000, 2, PhysRange(0, 0x1000),
    (DeviceConfig("net0", PhysRange(0x80000, 0x81000), 33),))


def _device(**change):
    return lambda config: dataclasses.replace(config, devices=(
        dataclasses.replace(config.devices[0], **change),))


# one change per MachineConfig and DeviceConfig field: (field, change)
_CONFIG_CHANGES = [
    ("memory_size",
     lambda config: dataclasses.replace(config, memory_size=0x50000)),
    ("cores", lambda config: dataclasses.replace(config, cores=3)),
    ("monitor_reserved", lambda config: dataclasses.replace(
        config, monitor_reserved=PhysRange(0, 0x2000))),
    ("devices", lambda config: dataclasses.replace(config, devices=())),
    ("metadata_pool",
     lambda config: dataclasses.replace(config, metadata_pool=0x20)),
    ("device name", _device(name="net1")),
    ("device mmio", _device(mmio=PhysRange(0x80000, 0x82000))),
    ("device vector", _device(vector=34)),
]


class TestConfig:
    def test_parse_round_trip(self):
        text = (
            "memory 0x200000\n"
            "cores 2\n"
            "monitor_reserved 0x0 0x100000\n"
            "device net0 0x200000 0x201000 33\n"
        )
        config = parse_config(text)
        assert config.memory_size == 0x200000
        assert config.cores == 2
        assert config.devices[0].name == "net0"
        assert parse_config(config.canonical_bytes().decode()) == config

    def test_bad_configs(self):
        expect_code(ErrorCode.BAD_CONFIG, parse_config, "memory 0x1000\n")
        expect_code(ErrorCode.BAD_CONFIG, parse_config,
                    "memory 0x200000\ncores 0\nmonitor_reserved 0x0 0x1000\n")
        expect_code(ErrorCode.BAD_CONFIG, parse_config,
                    "memory 0x200000\ncores 2\nmonitor_reserved 0x1000 0x2000\n")
        expect_code(ErrorCode.BAD_CONFIG, parse_config,
                    "memory 0x200000\ncores 2\nmonitor_reserved 0x0 0x1000\n"
                    "device a 0x100000 0x101000 3\n")  # MMIO below RAM top
        expect_code(ErrorCode.BAD_CONFIG, parse_config, "nonsense 1\n")

    @pytest.mark.parametrize("lines, message", [
        ("monitor_reserved 0x0 0x200000\n", "monitor reserves all of RAM"),
        ("monitor_reserved 0x0 0x1000\npool 0\n",
         "metadata pool must be positive"),
        ("monitor_reserved 0x0 0x1000\ndevice a 0x200000 0x201000 3\n"
         "device a 0x300000 0x301000 4\n", "duplicate device a"),
        ("monitor_reserved 0x0 0x1000\ndevice a 0x200000 0x201000 256\n",
         "device a vector"),
    ])
    def test_each_validate_rejection(self, lines, message):
        err = expect_code(ErrorCode.BAD_CONFIG, parse_config,
                          "memory 0x200000\ncores 2\n" + lines)
        assert err.message == message

    def test_pool_line_sets_the_pool(self):
        config = parse_config("memory 0x200000\ncores 2\n"
                              "monitor_reserved 0x0 0x1000\npool 0x20\n")
        assert config.metadata_pool == 0x20

    @pytest.mark.parametrize("field, change", _CONFIG_CHANGES,
                             ids=[field for field, _ in _CONFIG_CHANGES])
    def test_every_field_is_measured(self, field, change):
        # a config that differs in one field boots with other canonical
        # bytes and another PCR, and each parses back from its bytes
        changed = change(_MEASURED)
        assert changed != _MEASURED
        assert changed.canonical_bytes() != _MEASURED.canonical_bytes()
        assert boot(changed)[2].pcr != boot(_MEASURED)[2].pcr
        for config in (_MEASURED, changed):
            assert parse_config(config.canonical_bytes().decode()) == config

    def test_the_changes_cover_every_field(self):
        # a field added later needs a row, so it cannot be left out of the
        # measurement unnoticed
        assert {field for field, _ in _CONFIG_CHANGES} == \
            {f.name for f in dataclasses.fields(MachineConfig)} | \
            {f"device {f.name}" for f in dataclasses.fields(DeviceConfig)}

    def test_default_pool_writes_no_line(self):
        # so every config that leaves the pool out keeps the PCR it had
        assert b"pool" not in _MEASURED.canonical_bytes()

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 4), st.integers(1, 3),
           st.integers(1, 1 << 16), st.integers(0, 2))
    def test_canonical_bytes_parse_back(self, pages, cores, reserved, pool,
                                        ndevices):
        memory = 0x10000 * pages
        config = MachineConfig(
            memory, cores, PhysRange(0, PAGE * reserved),
            tuple(DeviceConfig(f"dev{k}", PhysRange(memory + k * PAGE,
                                                    memory + (k + 1) * PAGE),
                               k) for k in range(ndevices)),
            pool)
        config.validate()
        assert parse_config(config.canonical_bytes().decode()) == config

    def test_overlapping_device_mmio(self):
        config = MachineConfig(
            0x200000, 1, PhysRange(0, 0x1000),
            devices=(DeviceConfig("a", PhysRange(0x200000, 0x202000), 1),
                     DeviceConfig("b", PhysRange(0x201000, 0x203000), 2)))
        expect_code(ErrorCode.BAD_CONFIG, config.validate)


class TestBoot:
    def test_td0_owns_everything_above_reserved(self):
        engine, td0 = small_engine(pages=32)
        view = engine.tree.effective_view(engine.root_region)
        assert len(view) == 1
        seg = view[0]
        assert seg.range == PhysRange(PAGE, 32 * PAGE)
        assert seg.status.value == "exclusive"
        assert engine.tree.nodes[engine.root_region].owner == td0
        td0_node = engine.domains[td0]
        assert td0_node.policies.mon_api == ALL_CALLS_MASK
        assert td0_node.policies.cores == 0b11
        for core in engine.cores:
            assert core.current == td0

    def test_boot_with_device(self):
        config = small_config(
            pages=32, cores=2,
            devices=[DeviceConfig("net0", PhysRange(0x20000, 0x21000), 0x21)])
        engine, td0, measurement = boot(config)
        devices = [d for d in engine.domains.values() if d.is_device]
        assert len(devices) == 1
        dev = devices[0]
        entries = [e for _, e in dev.owned.entries()]
        kinds = sorted(
            (engine.tree.nodes[e.ref].kind.value, e.ref) for e in entries)
        assert [k for k, _ in kinds] == ["alias", "carve"]
        # td0 holds exactly one channel, referencing the device domain
        chans = [e for _, e in engine.domains[td0].owned.entries()
                 if e.kind is CapKind.CHANNEL]
        assert len(chans) == 1 and chans[0].ref == dev.id
        # the device's RAM alias makes td0's memory shared
        view = engine.tree.effective_view(engine.root_region)
        assert any(seg.status.value == "aliased" for seg in view)

    def test_boot_measurement_stable(self):
        a = boot(small_config())[2]
        b = boot(small_config())[2]
        assert a.pcr == b.pcr
        c = boot(small_config(pages=64))[2]
        assert c.pcr != a.pcr


class TestInterposition:
    def test_allowed_and_denied_accesses_recorded(self):
        engine, td0 = small_engine()
        ok, _ = engine.platform.read_mem(0, A[0])
        assert ok
        ok = engine.platform.write_mem(0, 0x10, 0xFF)  # reserved page
        assert not ok
        log = engine.platform.access_log
        assert any(allowed and kind == "R" and addr == A[0]
                   for _, _, _, _, addr, kind, allowed in log)
        assert any(not allowed and kind == "W" and addr == 0x10
                   for _, _, _, _, addr, kind, allowed in log)
        # the denied write must not have modified memory
        assert engine.platform.memory.peek(0x10, 0x11) == b"\x00"

    def test_view_respects_rights(self):
        engine, td0 = small_engine()
        dom, handle = make_child(engine, td0, seal=False)
        root_handle = engine.domains[td0].owned.find(CapKind.REGION, 0)
        rh = engine.tree_carve(td0, root_handle, PhysRange(A[0], A[1]),
                               Rights.R)
        engine.send(td0, rh, handle)
        engine.seal(td0, handle)
        engine.switch(td0, 0, handle)
        assert engine.platform.mem_access(0, A[0], "R")
        assert not engine.platform.mem_access(0, A[0], "W")
        assert not engine.platform.mem_access(0, A[0], "X")

    def test_carved_away_range_denied_to_parent(self):
        engine, td0 = small_engine()
        dom, handle = make_child(engine, td0, seal=False)
        root_handle = engine.domains[td0].owned.find(CapKind.REGION, 0)
        rh = engine.tree_carve(td0, root_handle, PhysRange(A[0], A[2]),
                               Rights.RWX)
        engine.send(td0, rh, handle)
        assert not engine.platform.mem_access(0, A[0], "W")
        assert engine.platform.mem_access(0, A[2], "W")

    @pytest.mark.parametrize("core", [2, 7, -1])
    def test_access_from_a_core_outside_the_machine_is_denied(self, core):
        # -1 would read core 1's view and log as a monitor access
        engine, td0 = small_engine(cores=2)
        platform = engine.platform
        before = dump_state(engine)
        logs = list(platform.access_log), list(platform.protocol_log)
        traced = len(engine.trace.records)
        expect_code(ErrorCode.CORE_NOT_ALLOWED, engine.domain_read, core, A[0])
        expect_code(ErrorCode.CORE_NOT_ALLOWED, engine.domain_write, core,
                    A[0], 1)
        expect_code(ErrorCode.CORE_NOT_ALLOWED, platform.mem_access, core,
                    A[0], "X")
        assert dump_state(engine) == before
        assert (list(platform.access_log), list(platform.protocol_log)) == logs
        assert len(engine.trace.records) == traced
        assert platform.memory.peek(A[0], A[0] + 1) == b"\x00"

    def test_an_access_enters_three_frames(self):
        # pins the interposer's depth: mem_access decides and logs a guest
        # access with no helper frame under it
        engine, td0 = small_engine()
        (ok, _), names = frames_entered(engine.domain_read, 0, A[0])
        assert ok and names == ["domain_read", "read_mem", "mem_access"]
        ok, names = frames_entered(engine.domain_write, 0, A[0], 1)
        assert ok and names == ["domain_write", "write_mem", "mem_access"]


def linear_view_allows(segments, addr, kind):
    """Reference view check: a linear scan over overlapping segments, which
    reads only the rights bits 0-2; bit 3 (EXCLUSIVE_BIT) grants nothing."""
    bit = {"R": 4, "W": 2, "X": 1}[kind]
    return any(start <= addr < end and bits & 0b111 & bit
               for start, end, bits in segments)


class TestViewLookup:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 12),
                              st.integers(0, 15)), max_size=10))
    def test_page_view_equals_linear_scan(self, spans):
        segments = [(start * PAGE, (start + length) * PAGE, bits)
                    for start, length, bits in spans]
        view = page_table(segments)
        assert isinstance(view, bytes)
        # the interposer's inline lookup is the same rule, bounded by RAM
        engine, td0 = small_engine()
        platform = engine.platform
        platform.cores[1].local_view = view
        for page in range(-1, len(view) + 2):
            for addr in (page * PAGE, page * PAGE + PAGE - 1):
                for kind in "RWX":
                    assert view_allows(view, addr, kind) == \
                        linear_view_allows(segments, addr, kind), (addr, kind)
                    verdict = platform.mem_access(1, addr, kind)
                    assert verdict is (view_allows(view, addr, kind)
                                       and addr < platform.memory.size)
                    assert platform.access_log[-1][2:] == \
                        (1, td0, addr, kind, verdict)
            if 0 <= page < len(view):
                assert bool(view[page] & EXCLUSIVE_BIT) == any(
                    start <= page * PAGE < end and bits & EXCLUSIVE_BIT
                    for start, end, bits in segments), page

    def test_no_segments_give_an_empty_view_that_denies_everything(self):
        view = page_table([])
        assert view == b""
        for addr in (-1, 0, PAGE - 1, PAGE, A[0]):
            for kind in "RWX":
                assert not view_allows(view, addr, kind)


class TestPageTable:
    """The per-page table as the engine and the DMA check use it."""

    @pytest.fixture
    def guest(self):
        """td0 and a sealed guest running on core 1 with no region yet."""
        engine, td0 = small_engine()
        dom, handle = make_child(engine, td0)
        engine.switch(td0, 1, handle)
        return engine, td0, handle

    @staticmethod
    def grant(engine, td0, handle, start, end, rights):
        root = engine.domains[td0].owned.find(CapKind.REGION,
                                              engine.root_region)
        alias = engine.tree_alias(td0, root, PhysRange(start, end), rights)
        engine.send(td0, alias, handle)

    @staticmethod
    def access(engine, td0, handle, kind, addr):
        """One guest access on core 1; a denial faults to td0, which
        resumes the guest."""
        if kind == "R":
            ok = engine.domain_read(1, addr)[0]
        else:
            ok = engine.domain_write(1, addr, 0x5A)
        if not ok:
            engine.switch(td0, 1, handle)
        return ok

    def test_r_and_w_aliases_of_one_page_give_rw_but_not_x(self, guest):
        engine, td0, handle = guest
        self.grant(engine, td0, handle, A[0], A[1], Rights.R)
        self.grant(engine, td0, handle, A[0], A[1], Rights.W)
        for addr in (A[0], A[1] - 1):
            assert self.access(engine, td0, handle, "R", addr)
            assert self.access(engine, td0, handle, "W", addr)
            assert not engine.platform.mem_access(1, addr, "X")

    def test_adjacent_pages_are_judged_by_their_own_rights(self, guest):
        engine, td0, handle = guest
        self.grant(engine, td0, handle, A[2], A[3], Rights.R)
        self.grant(engine, td0, handle, A[3], A[4], Rights.W)
        assert self.access(engine, td0, handle, "R", A[3] - 1)
        assert not self.access(engine, td0, handle, "W", A[3] - 1)
        assert not self.access(engine, td0, handle, "R", A[3])
        assert self.access(engine, td0, handle, "W", A[3])
        assert engine.cores[1].irq is None

    def test_one_byte_past_the_last_granted_page_is_denied(self, guest):
        engine, td0, handle = guest
        self.grant(engine, td0, handle, A[2], A[4], Rights.RW)
        assert len(engine.platform.cores[1].local_view) == A[4] // PAGE
        assert self.access(engine, td0, handle, "R", A[4] - 1)
        assert self.access(engine, td0, handle, "W", A[4] - 1)
        assert not self.access(engine, td0, handle, "R", A[4])
        assert not self.access(engine, td0, handle, "W", A[4])

    def test_dma_reaches_the_last_mmio_byte_and_not_past_it(self):
        mmio = PhysRange(0x20000, 0x21000)
        engine, td0, _ = boot(small_config(
            devices=[DeviceConfig("net0", mmio, 0x21)]))
        dev = next(d.id for d in engine.domains.values() if d.is_device)
        for kind in "RW":
            assert engine.platform.dma_access(dev, mmio.end - 1, kind)
            assert not engine.platform.dma_access(dev, mmio.end, kind)
        assert not engine.platform.dma_access(dev, mmio.end - 1, "X")


class TestUpdateProtocol:
    def test_send_drains_both_cores_inside_window(self):
        engine, td0 = small_engine(cores=2)
        dom, handle = make_child(engine, td0, cores=0b11)
        engine.switch(td0, 1, handle)
        root_handle = engine.domains[td0].owned.find(CapKind.REGION, 0)
        rh = engine.tree_carve(td0, root_handle, PhysRange(A[0], A[2]),
                               Rights.RWX)
        engine.send(td0, rh, handle)
        phases = [(phase, core)
                  for _, phase, core, tag in engine.platform.protocol_log
                  if tag.startswith("send:")]
        # core 1 (running the receiver) parks before publish, drains after
        assert ("park", 1) in phases and ("drain", 1) in phases
        order = [p for p, _ in phases]
        assert order.index("park") < order.index("publish") < \
            order.index("release") <= order.index("drain")

    def test_view_cache_refreshes_after_send(self):
        engine, td0 = small_engine(cores=2)
        dom, handle = make_child(engine, td0, cores=0b11)
        engine.switch(td0, 1, handle)
        root_handle = engine.domains[td0].owned.find(CapKind.REGION, 0)
        rh = engine.tree_carve(td0, root_handle, PhysRange(A[0], A[2]),
                               Rights.RWX)
        assert not engine.platform.mem_access(1, A[0], "R")
        engine.send(td0, rh, handle)
        assert engine.platform.mem_access(1, A[0], "R")
        assert not engine.platform.mem_access(0, A[0], "R")

    def test_parked_cores_make_no_accesses(self):
        # structural: mem_access asserts the core is not parked
        engine, td0 = small_engine()
        engine.platform.cores[0].run_state = "parked"
        with pytest.raises(AssertionError):
            engine.platform.mem_access(0, A[0], "R")


class TestBoundedLogs:
    def test_access_log_keeps_the_newest_accesses(self):
        engine, td0 = small_engine()
        platform = engine.platform
        for _ in range(3 * LOG_KEEP):
            platform.read_mem(0, A[0])
        platform.write_mem(0, 0x10, 1)   # the newest access, a denied one
        log = platform.access_log
        assert len(log) == LOG_KEEP
        seqs = [access[0] for access in log]
        assert seqs == list(range(seqs[-1] - LOG_KEEP + 1, seqs[-1] + 1))
        assert seqs[-1] == platform._seq
        assert log[-1][2:] == (0, td0, 0x10, "W", False)

    def test_protocol_log_keeps_the_newest_phases(self):
        engine, td0 = small_engine(cores=2)
        platform = engine.platform
        rounds = 0
        while rounds * 6 < 3 * LOG_KEEP:   # six phases a round
            platform.barrier_update(0, {0, 1}, lambda: None, f"r{rounds}")
            rounds += 1
        log = platform.protocol_log
        assert len(log) == LOG_KEEP
        seqs = [event[0] for event in log]
        assert seqs == list(range(seqs[-1] - LOG_KEEP + 1, seqs[-1] + 1))
        assert seqs[-1] == platform._seq
        assert log[-1][1:] == ("drain", 0, f"r{rounds - 1}")

    def test_memory_stays_flat_once_the_ring_is_full(self):
        engine, td0 = small_engine()
        platform = engine.platform
        tracemalloc.start()
        try:
            for _ in range(2 * LOG_KEEP):
                platform.read_mem(0, A[0])
            full = tracemalloc.get_traced_memory()[0]
            for _ in range(2 * LOG_KEEP):
                platform.read_mem(0, A[0])
            later = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert later - full < 4096, (full, later)


class TestClean:
    def test_clean_zeroes_between_removal_and_restore(self):
        engine, td0 = small_engine()
        dom, handle = make_child(engine, td0, seal=False)
        rng = PhysRange(A[0], A[2])
        root_handle = engine.domains[td0].owned.find(CapKind.REGION, 0)
        rh = engine.tree_carve(td0, root_handle, rng, Rights.RWX)
        from capmon import AttrFlags
        engine.send(td0, rh, handle, AttrFlags.CLEAN)
        engine.platform.memory.poke(rng.start, b"\xFF" * (rng.end - rng.start))
        child_index = engine.tree.nodes[0].children.index(
            [r for r in engine.tree.nodes[0].children][-1])
        engine.revoke_region(td0, root_handle, child_index)
        assert engine.platform.memory.peek(rng.start, rng.end) == \
            bytes(rng.end - rng.start)
        # monitor wrote the range inside the operation
        assert any(kind == "MON-W" and addr == rng.start
                   for _, _, _, _, addr, kind, _ in engine.platform.access_log)


class TestDevices:
    def build(self):
        config = small_config(
            pages=32, cores=1,
            devices=[DeviceConfig("net0", PhysRange(0x20000, 0x21000), 0x21)])
        engine, td0, _ = boot(config)
        dev = next(d for d in engine.domains.values() if d.is_device)
        return engine, td0, dev

    def test_dma_inside_alias_allowed(self):
        engine, td0, dev = self.build()
        assert engine.platform.dma_access(dev.id, A[0], "R")
        assert engine.platform.dma_access(dev.id, A[0], "W")

    def test_dma_outside_alias_denied(self):
        engine, td0, dev = self.build()
        assert not engine.platform.dma_access(dev.id, 0x10, "W")
        carved = PhysRange(A[0], A[1])
        root_handle = engine.domains[td0].owned.find(CapKind.REGION, 0)
        # after revoking the device's RAM alias, DMA to RAM is denied
        alias_id = next(e.ref for _, e in dev.owned.entries()
                        if engine.tree.nodes[e.ref].kind.value == "alias")
        index = engine.tree.nodes[0].children.index(alias_id)
        engine.revoke_region(td0, root_handle, index)
        assert not engine.platform.dma_access(dev.id, A[0], "W")

    def test_interrupt_to_parked_core_deferred_until_release(self):
        # core 0 still runs a revoked child, whose record is held, as
        # between a barrier round's release and the core's drain
        engine, td0, dev = self.build()
        dom, handle = make_child(engine, td0)
        engine.switch(td0, 0, handle)
        hold_drains(engine)
        engine.revoke_domain(td0, handle)
        assert engine.current_domain(0) == dom and dom in engine.domains.held
        assert engine.route_device_interrupt(dev.device_vector) is None
        assert not delivered_in_place(engine)
        engine.process_updates(0)
        assert engine.current_domain(0) == td0
        assert delivered_in_place(engine) == [(0, dev.device_vector, td0)]

    def test_device_mmio_is_exclusive_carve(self):
        engine, td0, dev = self.build()
        mmio = next(engine.tree.nodes[e.ref] for _, e in dev.owned.entries()
                    if engine.tree.nodes[e.ref].kind.value == "carve")
        assert mmio.status.value == "exclusive"
        assert mmio.initial_range == PhysRange(0x20000, 0x21000)
        # td0 cannot reach the MMIO range anymore
        assert not engine.platform.mem_access(0, 0x20000, "R")

    def test_device_attestable_via_boot_channel(self):
        engine, td0, dev = self.build()
        chan = engine.domains[td0].owned.find(CapKind.CHANNEL, dev.id)
        report = engine.attest(td0, chan)
        assert report.subject.sealed
        regions = {(r.status, r.start, r.end) for r in report.subject.regions}
        assert ("exclusive", 0x20000, 0x21000) in regions


class TestDumpReload:
    def test_dump_and_reload_preserve_attestation(self):
        from capmon import state
        from capmon.attest import build_report
        engine, td0 = small_engine()
        dom, handle = make_child(engine, td0)
        before = engine.attest(td0, handle).to_bytes()
        reloaded = state.load_state(state.dump_state(engine))
        after = build_report(reloaded, dom).to_bytes()
        assert before == after

    def test_td0_interrupt_table_is_one_default(self):
        # the JSON round trip of both kinds of table is
        # test_dump_round_trips_interrupt_state's
        from capmon import Visibility, state
        from capmon.domains import (
            DEFAULT_INTERRUPT_POLICY, NUM_VECTORS, InterruptPolicy,
        )
        engine, td0 = small_engine()
        dom, _ = make_child(engine, td0, interrupts=[
            (9, Visibility.NOT_REPORT, 0b11), (40, Visibility.REPORT, 0)])
        dump = state.dump_state(engine)
        policies = {rec["id"]: rec["policies"] for rec in dump["domains"]}
        assert policies[td0]["interrupts"] == []
        assert policies[td0]["interrupt_default"] == ["deliver", 0]
        assert policies[dom]["interrupts"] == [[9, "noreport", 3],
                                               [40, "report", 0]]
        assert policies[dom]["interrupt_default"] == ["noreport", 0]
        for live in (engine, state.load_state(dump)):
            td0_policies = live.domains[td0].policies
            assert all(td0_policies.interrupt(v) ==
                       InterruptPolicy(Visibility.DELIVER, 0)
                       for v in range(NUM_VECTORS))
            child = live.domains[dom].policies
            assert child.interrupt(9) == \
                InterruptPolicy(Visibility.NOT_REPORT, 0b11)
            assert child.interrupt(41) == DEFAULT_INTERRUPT_POLICY
        with pytest.raises(ValueError):
            state.load_state(dict(dump, version=3))

    def test_view_memo_is_not_state(self):
        from capmon import state
        driver = FuzzDriver(seed=8)
        driver.run(300)  # each step's oracle diff warms the live views
        dump = state.dump_state(driver.engine)
        reloaded = state.load_state(dump)
        assert state.dump_state(reloaded) == dump
        for nid in reloaded.tree.nodes:
            reloaded.tree.effective_view(nid)
        for dom_id in list(reloaded.domains):
            reloaded.view_cache_for(dom_id)
        reloaded.page_access_map()
        assert state.dump_state(reloaded) == dump

    def test_reloaded_td0_reads_its_page(self):
        from capmon import state
        engine, td0 = small_engine()
        reloaded = state.load_state(state.dump_state(engine))
        reloaded.platform.memory.data[PAGE] = 0x5A
        assert reloaded.platform.read_mem(0, PAGE) == (True, 0x5A)
        assert reloaded.domain_read(1, PAGE) == (True, 0x5A)

    def test_dump_round_trips_interrupt_state(self):
        import json

        from capmon import Visibility, state
        from capmon.domains import ApiCall
        routed, td0 = small_engine()
        dom, handle = make_child(
            routed, td0, interrupts=[(9, Visibility.NOT_REPORT, 0)])
        routed.switch(td0, 0, handle)
        routed.route_interrupt(0, 9)
        assert routed.cores[0].irq is not None

        # an undrained ATTEST buffer, an issued channel and an armed quantum,
        # after a vector delivered in place (only the trace records that)
        pending, td0 = small_engine()
        _, child = make_child(pending, td0)
        regs = pending.domains[td0].core_regs(0)
        regs[:3] = [int(ApiCall.ATTEST), 0, 0]
        pending.monitor_call(0)
        assert regs[0] == 0
        pending.getchan(td0, child)
        pending.route_interrupt(0, 9)
        pending.set_quantum(50)
        pending.switch(td0, 1, child)

        reloads = []
        for engine in (routed, pending):
            blob = json.dumps(state.dump_state(engine), sort_keys=True)
            reloaded = state.load_state(json.loads(blob))
            assert json.dumps(state.dump_state(reloaded), sort_keys=True) \
                == blob
            for attr in ("_next_token", "_buffers", "quantum",
                         "_quantum_deadlines"):
                assert getattr(reloaded, attr) == getattr(engine, attr), attr
            reloads.append(reloaded)
        cs = reloads[0].cores[0]
        assert cs.current == td0
        assert cs.irq is not None and cs.irq.vector == 9
        assert [e.domain for e in cs.irq.resume] == [dom]
