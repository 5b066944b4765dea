"""Concurrent mode: real threads per core, engine serialization, and the
two-barrier update protocol.  Verifies access atomicity outside barrier
windows and linearizability against a deterministic replay."""

import sys

from capmon import DeviceConfig, Oracle, PhysRange, Rights, boot
from capmon.domains import ALL_CALLS_MASK, ApiCall, CapKind, CapTable
from capmon.regions import PAGE
from capmon.scenario import ScenarioRunner, parse_script
from capmon.state import dump_state

from support import replay_trace, small_config
from test_abi import call, drain

A = [PAGE * (1 + k) for k in range(16)]


def build_concurrent(cores=4, pages=64):
    config = small_config(pages=pages, cores=cores)
    engine, td0, _ = boot(config, concurrent=True)
    return engine, td0, config


class TestConcurrentBasics:
    def test_ops_from_worker_threads_serialize(self):
        engine, td0, config = build_concurrent(cores=2, pages=32)
        platform = engine.platform
        platform.start_cores()
        results = []
        for i in range(20):
            platform.submit(0, lambda: results.append(engine.create(td0)))
        platform.join()
        assert len(results) == 20
        assert len(set(results)) == 20

    def test_barrier_send_parks_receiver_core(self):
        engine, td0, config = build_concurrent(cores=2, pages=32)
        platform = engine.platform
        # whether each drain of a core's update queue holds the engine lock
        drains = []
        process_updates = engine.process_updates

        def drain_updates(core):
            drains.append(platform.engine_lock._lock._is_owned())
            process_updates(core)

        engine.process_updates = drain_updates
        platform.start_cores()
        handle = engine.create(td0)
        dom = engine.domains[td0].owned.get(handle).ref
        engine.set_policy(td0, handle, "cores", 0b11)
        engine.set_policy(td0, handle, "mon_api", ALL_CALLS_MASK)
        engine.set_policy(td0, handle, "receive", 1)
        engine.seal(td0, handle)
        platform.submit(1, lambda: engine.switch(td0, 1, handle))
        platform.join()
        platform.start_cores()
        root_handle = engine.domains[td0].owned.find(CapKind.REGION, 0)
        rh = engine.tree_carve(td0, root_handle, PhysRange(A[0], A[2]),
                               Rights.RWX)
        engine.send(td0, rh, handle)  # main thread initiates; core 1 parks
        platform.join()
        phases = [(e.phase, e.core) for e in platform.protocol_log
                  if e.tag.startswith("send:")]
        assert ("ipi", 1) in phases
        assert ("park", 1) in phases
        assert drains and all(drains), drains

    def test_views_are_read_under_the_engine_lock(self):
        # a view memo filled outside the lock could race a mutator and keep
        # a stale view for good, so every read of a view must hold the lock
        config = small_config(pages=32, cores=2, devices=[
            DeviceConfig("net0", PhysRange(0x20000, 0x21000), 0x21)])
        runner = ScenarioRunner(config, concurrent=True)
        engine = runner.engine
        platform = engine.platform
        dev = next(d.id for d in engine.domains.values() if d.is_device)
        held = []
        effective_view = engine.tree.effective_view

        def locked_view(region_id):
            held.append(platform.engine_lock._lock._is_owned())
            return effective_view(region_id)

        engine.tree.effective_view = locked_view
        for addr in range(A[0], A[8], PAGE):
            platform.submit(1, lambda a=addr: platform.dma_access(dev, a, "W"))
            platform.submit(1, engine.page_access_map)
        assert runner.run(parse_script(
            "alias r1 root 0x2000 0x4000 RW_\n"
            "expect view r1 S:0x2000:0x4000\n"
            "carve r2 r1 0x2000 0x3000 RW_\n"
            "expect view r1 S:0x3000:0x4000\n"
            "revoke r1\n")) == 0, runner.failures
        assert any(r.ok and r.op == "revoke_region"
                   for r in engine.trace.records)
        assert len(held) > 16 and all(held), held

    def test_scenario_resolves_handles_under_the_engine_lock(
            self, monkeypatch):
        # a handle resolved before the call takes the lock could name
        # another capability or child by the time the call runs
        runner = ScenarioRunner(small_config(pages=32, cores=2),
                                concurrent=True)
        lock = runner.engine.platform.engine_lock
        held = []
        find, get = CapTable.find, CapTable.get

        def locked_find(table, kind, ref):
            held.append(("find", lock._lock._is_owned()))
            return find(table, kind, ref)

        def locked_get(table, index):
            held.append(("get", lock._lock._is_owned()))
            return get(table, index)

        monkeypatch.setattr(CapTable, "find", locked_find)
        monkeypatch.setattr(CapTable, "get", locked_get)
        assert runner.run(parse_script(
            "create a\n"
            "set a cores 3\n"
            "set a mon_api 0x7ff\n"
            "set a receive on\n"
            "seal a\n"
            "alias r1 root 0x2000 0x4000 RW_\n"
            "carve r2 r1 0x2000 0x3000 RW_\n"
            "send r2 a\n"
            "getchan c a\n"
            "attest rep a\n"
            "revoke r1\n"
            "expect gone r2\n"
            "@1 alias r3 root 0x6000 0x8000 RW_\n"
            "@1 revoke r3\n"
            "revoke a\n"
            "expect state a revoked\n")) == 0, runner.failures
        assert {op for op, _ in held} == {"find", "get"}
        assert all(owned for _, owned in held), held


class TestConcurrentAbi:
    CYCLES = 20

    def test_attest_and_drain_from_two_cores(self):
        engine, td0, config = build_concurrent(cores=2, pages=32)
        platform = engine.platform
        blobs, tokens = [], []

        def cycles(core):
            def fn():
                for _ in range(self.CYCLES):
                    status, total, token, _ = call(engine, core,
                                                   ApiCall.ATTEST, 0, 0)
                    assert status == 0
                    tokens.append(token)
                    blobs.append(drain(engine, core, ApiCall.ATTEST, token,
                                       total))
            return fn

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            platform.start_cores()
            for core in range(2):
                platform.submit(core, cycles(core))
            platform.join()
        finally:
            sys.setswitchinterval(interval)
        expected = engine.attest(td0).to_bytes()
        assert len(blobs) == 2 * self.CYCLES
        assert all(blob == expected for blob in blobs)
        assert len(set(tokens)) == len(tokens)


class TestConcurrentStress:
    CYCLES = 60

    def run_stress(self):
        engine, td0, config = build_concurrent(cores=4, pages=64)
        platform = engine.platform
        platform.start_cores()

        # tdA runs on cores 1 and 2, tdB on core 3; both receive post-seal
        hA = engine.create(td0)
        tdA = engine.domains[td0].owned.get(hA).ref
        engine.set_policy(td0, hA, "cores", 0b1111)
        engine.set_policy(td0, hA, "mon_api", ALL_CALLS_MASK)
        engine.set_policy(td0, hA, "receive", 1)
        engine.seal(td0, hA)
        hB = engine.create(td0)
        tdB = engine.domains[td0].owned.get(hB).ref
        engine.set_policy(td0, hB, "cores", 0b1000)
        engine.set_policy(td0, hB, "mon_api", ALL_CALLS_MASK)
        engine.set_policy(td0, hB, "receive", 1)
        engine.seal(td0, hB)
        # tdA gets a channel back to td0 so it can send the region home
        chan = engine.getchan(td0, None)
        engine.send(td0, chan, hA)

        platform.submit(1, lambda: engine.switch(td0, 1, hA))
        platform.submit(2, lambda: engine.switch(td0, 2, hA))
        platform.submit(3, lambda: engine.switch(td0, 3, hB))
        platform.join()
        platform.start_cores()

        ping = PhysRange(A[4], A[6])
        root_handle = engine.domains[td0].owned.find(CapKind.REGION, 0)

        def td0_sends():
            for _, entry in engine.domains[td0].owned.entries():
                if entry.kind is CapKind.REGION and entry.ref != 0:
                    handle = engine.domains[td0].owned.find(
                        CapKind.REGION, entry.ref)
                    engine.send(td0, handle, hA)
                    return

        def tdA_returns():
            chan_home = engine.domains[tdA].owned.find(CapKind.CHANNEL, td0)
            for _, entry in engine.domains[tdA].owned.entries():
                if entry.kind is CapKind.REGION:
                    handle = engine.domains[tdA].owned.find(
                        CapKind.REGION, entry.ref)
                    engine.send(tdA, handle, chan_home)
                    return

        def probe(core):
            def fn():
                platform.mem_access(core, A[4] + 8, "R")
                platform.mem_access(core, A[5], "W")
                platform.mem_access(core, 0x10, "R")
            return fn

        # the ping region starts with td0
        rh = engine.tree_carve(td0, root_handle, ping, Rights.RWX)

        for _ in range(self.CYCLES):
            platform.submit(0, td0_sends)
            platform.submit(1, tdA_returns)
            platform.submit(2, probe(2))
            platform.submit(3, probe(3))
        platform.join()
        return engine, td0, tdA, tdB, config

    def test_atomicity_and_linearizability(self):
        engine, td0, tdA, tdB, config = self.run_stress()
        platform = engine.platform

        # 1. parked cores perform no accesses between park and drain
        windows = {}
        for event in platform.protocol_log:
            if event.phase == "park":
                windows.setdefault(event.core, []).append([event.seq, None])
            elif event.phase == "drain":
                spans = windows.get(event.core)
                if spans and spans[-1][1] is None:
                    spans[-1][1] = event.seq
        for access in platform.access_log:
            if access.core < 0:
                continue
            for lo, hi in windows.get(access.core, []):
                if hi is not None:
                    assert not (lo < access.seq < hi), \
                        f"access at seq {access.seq} inside barrier window"

        # 2. every access decision matches the oracle state at that moment;
        # publishes happen while affected cores are parked, so the page map
        # built from ops published before an access is authoritative for it
        publishes = [e for e in platform.protocol_log if e.phase == "publish"]
        barrier_records = [
            r for r in engine.trace.records
            if r.ok and (r.op in ("alias", "carve", "revoke_region",
                                  "revoke_domain")
                         or (r.op == "send" and "region" in r.results))]
        assert len(publishes) == len(barrier_records)
        oracle = Oracle()
        barrier_ids = {id(r) for r in barrier_records}
        for rec in engine.trace.records:
            if id(rec) not in barrier_ids:
                oracle.apply(rec)  # page-map neutral: registers domains etc.
        events = sorted(
            [("publish", e.seq, i) for i, e in enumerate(publishes)] +
            [("access", a.seq, a) for a in platform.access_log
             if a.core >= 0],
            key=lambda t: t[1])
        checks = 0
        for kind, seq, payload in events:
            if kind == "publish":
                oracle.apply(barrier_records[payload])
                continue
            access = payload
            page_map = oracle.address_map().get(access.domain, {})
            rights, _ = page_map.get(access.addr // PAGE, (0, False))
            bit = {"R": 4, "W": 2, "X": 1}[access.kind]
            expected = bool(rights & bit) and access.addr < config.memory_size
            assert access.allowed == expected, \
                f"seq {seq}: {access} vs oracle rights {rights}"
            checks += 1
        assert checks > 100, "stress must generate real probes"

        # 3. the final state equals the deterministic replay of the trace
        replayed = replay_trace(engine.trace.records, config)
        assert dump_state(replayed) == dump_state(engine)
