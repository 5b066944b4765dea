"""Simulated machine: config parsing, boot state, access interposition,
update protocol ordering, and device modeling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capmon import (
    DeviceConfig, MachineConfig, MonitorError, PhysRange, Rights, boot,
    parse_config,
)
from capmon.domains import ALL_CALLS_MASK, CapKind
from capmon.errors import ErrorCode
from capmon.machine import disjoint_view, view_allows
from capmon.regions import PAGE

from support import (
    FuzzDriver, delivered_in_place, make_child, small_config, small_engine,
)

A = [PAGE * (1 + k) for k in range(8)]


def expect_code(code, fn, *args, **kw):
    with pytest.raises(MonitorError) as err:
        fn(*args, **kw)
    assert err.value.code is code


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
        assert any(e.allowed and e.kind == "R" and e.addr == A[0]
                   for e in log)
        assert any(not e.allowed and e.kind == "W" and e.addr == 0x10
                   for e in log)
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


def linear_view_allows(segments, addr, kind):
    """Reference view check: a linear scan over overlapping segments."""
    bit = {"R": 4, "W": 2, "X": 1}[kind]
    return any(start <= addr < end and rights & bit
               for start, end, rights in segments)


class TestViewLookup:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 12),
                              st.integers(0, 7)), max_size=10))
    def test_bisect_on_disjoint_view_equals_linear_scan(self, spans):
        segments = [(start, start + length, rights)
                    for start, length, rights in spans]
        view = disjoint_view(segments)
        assert all(prev[1] <= seg[0] for prev, seg in zip(view, view[1:]))
        for addr in range(-1, 54):
            for kind in "RWX":
                assert view_allows(view, addr, kind) == \
                    linear_view_allows(segments, addr, kind), (addr, kind)


class TestUpdateProtocol:
    def test_send_drains_both_cores_inside_window(self):
        engine, td0 = small_engine(cores=2)
        dom, handle = make_child(engine, td0, cores=0b11)
        engine.switch(td0, 1, handle)
        root_handle = engine.domains[td0].owned.find(CapKind.REGION, 0)
        rh = engine.tree_carve(td0, root_handle, PhysRange(A[0], A[2]),
                               Rights.RWX)
        engine.send(td0, rh, handle)
        events = [e for e in engine.platform.protocol_log
                  if e.tag.startswith("send:")]
        phases = [(e.phase, e.core) for e in events]
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
        assert any(e.kind == "MON-W" and e.addr == rng.start
                   for e in engine.platform.access_log)


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
        engine, td0, dev = self.build()
        engine.platform.cores[0].run_state = "parked"
        assert engine.route_device_interrupt(dev.device_vector) is None
        assert not delivered_in_place(engine)
        engine.platform.cores[0].run_state = "running"
        engine.process_updates(0)
        assert any(v == dev.device_vector
                   for _, v, _ in delivered_in_place(engine))

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
        assert all(node._view is None
                   for node in reloaded.tree.nodes.values())
        assert state.dump_state(reloaded) == dump
        for nid in reloaded.tree.nodes:
            reloaded.tree.effective_view(nid)
        assert state.dump_state(reloaded) == dump

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

        # an undrained ATTEST buffer, a minted channel and an armed quantum,
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
            for attr in ("_next_channel", "_next_token", "_buffers",
                         "quantum", "_quantum_deadlines"):
                assert getattr(reloaded, attr) == getattr(engine, attr), attr
            reloads.append(reloaded)
        cs = reloads[0].cores[0]
        assert cs.current == td0
        assert cs.irq is not None and cs.irq.vector == 9
        assert [e.domain for e in cs.irq.resume] == [dom]
