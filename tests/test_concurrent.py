"""Concurrent mode: real threads per core, engine serialization, and the
two-barrier update protocol.  Verifies access atomicity outside barrier
windows and linearizability against a deterministic replay."""

import sys
import threading
import time

import pytest

from capmon import DeviceConfig, Oracle, PhysRange, Rights, Visibility, boot
from capmon.domains import (
    ALL_CALLS_MASK, ApiCall, CapKind, CapTable, PayloadCode,
)
from capmon.engine import ConcurrentEngine, Engine
from capmon.machine import LOG_KEEP, TIMER_VECTOR, Platform
from capmon.regions import PAGE
from capmon.scenario import ScenarioRunner, parse_script
from capmon.state import dump_state, load_state

from support import (
    carve_to, delivered_in_place, make_child, replay_trace, small_config,
)
from test_abi import call, drain, load

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
        # whether each core's drain holds the engine lock
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
        phases = [(phase, core)
                  for _, phase, core, tag in platform.protocol_log
                  if tag.startswith("send:")]
        assert ("ipi", 1) in phases
        assert ("park", 1) in phases
        assert drains and all(drains), drains

    def test_barrier_round_logs_the_phases_step_mode_does(self):
        # an alias by td0, which runs on both cores, from a worker on core
        # 0: the initiator drains itself after the round and logs it
        rounds = []
        for concurrent in (False, True):
            engine, td0, _ = boot(small_config(pages=32, cores=2),
                                  concurrent=concurrent)
            platform = engine.platform
            root = engine.domains[td0].owned.find(CapKind.REGION, 0)

            def alias():
                engine.tree_alias(td0, root, PhysRange(A[0], A[1]), Rights.R)

            if concurrent:
                platform.start_cores()
                platform.submit(0, alias)
                platform.join()
            else:
                alias()
            rounds.append(sorted(
                (phase, core) for _, phase, core, _ in platform.protocol_log))
        assert ("drain", 0) in rounds[0]
        assert rounds[1] == rounds[0]

    def test_views_are_read_under_the_engine_lock(self):
        # a table patched or read outside the lock could race a mutator and
        # keep or hand out a stale view, so every patch of a domain's table,
        # which reads the region views under it, and every read of one must
        # hold the lock
        config = small_config(pages=32, cores=2, devices=[
            DeviceConfig("net0", PhysRange(0x20000, 0x21000), 0x21)])
        runner = ScenarioRunner(config, concurrent=True)
        engine = runner.engine
        platform = engine.platform
        dev = next(d.id for d in engine.domains.values() if d.is_device)
        held = []

        def locked(fn):
            def wrapper(*args):
                held.append((fn.__name__,
                             platform.engine_lock._lock._is_owned()))
                return fn(*args)
            return wrapper

        engine._patch_view = locked(engine._patch_view)
        engine.view_cache_for = locked(engine.view_cache_for)
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
        assert {name for name, _ in held} == {"_patch_view", "view_cache_for"}
        assert len(held) > 16 and all(owned for _, owned in held), held

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


# each entry point ConcurrentEngine locks, by what a worker calls it with
_ENTRY_POINTS = {
    "_call": lambda engine, td0: engine.create(td0),
    "monitor_call": lambda engine, td0: (load(engine, 1, ApiCall.CREATE),
                                         engine.monitor_call(1)),
    "route_interrupt": lambda engine, td0: engine.route_interrupt(1, 0x21),
    "route_device_interrupt":
        lambda engine, td0: engine.route_device_interrupt(0x21),
    "domain_may_access":
        lambda engine, td0: engine.domain_may_access(td0, A[0], "R"),
    "page_access_map": lambda engine, td0: engine.page_access_map(),
}


class TestLockScope:
    """Concurrent mode's lock scope is the ConcurrentEngine entry points and
    the platform's tick; step mode has no engine lock at all."""

    def test_step_mode_has_no_engine_lock(self):
        engine, _, _ = boot(small_config(pages=32, cores=2))
        assert type(engine) is Engine
        assert not hasattr(engine.platform, "engine_lock")
        engine, _, _ = build_concurrent(cores=2, pages=32)
        assert type(engine) is ConcurrentEngine

    def test_each_entry_point_runs_under_the_engine_lock(self, monkeypatch):
        # each unlocked body, and the unlocked tick, records whether the
        # worker that called it holds the lock; an override that took no
        # lock would leave the body to run without it
        engine, td0, _ = build_concurrent(cores=2, pages=32)
        platform = engine.platform
        held = []

        def spy(cls, name):
            body = getattr(cls, name)

            def wrapper(*args, **kw):
                held.append((name, platform.engine_lock._lock._is_owned()))
                return body(*args, **kw)
            monkeypatch.setattr(cls, name, wrapper)

        for name in _ENTRY_POINTS:
            spy(Engine, name)
        spy(Platform, "tick")
        platform.start_cores()
        for fn in _ENTRY_POINTS.values():
            platform.submit(1, lambda fn=fn: fn(engine, td0))
        platform.submit(1, platform.tick)
        platform.join()
        assert {name for name, _ in held} == {*_ENTRY_POINTS, "tick"}
        assert all(owned for _, owned in held), held
        assert not platform.engine_lock._lock._is_owned()


class TestConcurrentWithoutWorkers:
    @pytest.mark.parametrize("started", (False, True))
    def test_updates_drain_as_in_step_mode(self, started):
        # before start_cores and after join no worker drains another core,
        # so the barrier round must drain it as step mode does
        dumps = []
        for concurrent in (False, True):
            engine, td0, _ = boot(small_config(pages=32, cores=2),
                                  concurrent=concurrent)
            if concurrent and started:
                engine.platform.start_cores()
                engine.platform.join()
            dom, handle = make_child(engine, td0)
            engine.switch(td0, 1, handle)
            carve_to(engine, td0, handle, PhysRange(A[0], A[1]))
            engine.revoke_domain(td0, handle)
            # core 1 drained: it unwound, and no record is held for it
            assert engine.current_domain(1) == td0
            assert engine.cores[1].last_payload == (
                PayloadCode.REVOKED_CHILD, dom)
            assert not engine.domains.held
            dumps.append(dump_state(engine))
        assert dumps[0] == dumps[1]


class TestJoin:
    def test_join_waits_for_a_statement_still_running(self):
        # core 0's last statement is still running when the work lists run
        # empty; the revoke it then makes must still park and drain core 1
        engine, td0, _ = boot(small_config(pages=32, cores=2),
                              concurrent=True)
        platform = engine.platform
        dom, handle = make_child(engine, td0)
        engine.switch(td0, 1, handle)
        go = threading.Event()

        def revoke_late():
            assert go.wait(5)
            engine.revoke_domain(td0, handle)

        platform.start_cores()
        platform.submit(0, revoke_late)
        timer = threading.Timer(0.05, go.set)
        timer.start()
        platform.join()
        timer.join(timeout=5)
        assert dom not in engine.domains
        assert engine.current_domain(1) == td0
        assert engine.cores[1].last_payload == (PayloadCode.REVOKED_CHILD, dom)
        assert not engine.domains.held

    def test_a_denied_call_leaves_its_core_running(self):
        # the worker swallows a denial: it is traced, the core's next
        # statement still runs, and join raises nothing; both calls are
        # traced on core 1, whose worker made them, though td0 runs on
        # core 0 too
        engine, td0, _ = boot(small_config(pages=32, cores=2),
                              concurrent=True)
        platform = engine.platform
        unheld = 40
        assert engine.domains[td0].owned.get(unheld) is None
        platform.start_cores()
        platform.submit(1, lambda: engine.seal(td0, unheld))
        platform.submit(1, lambda: engine.create(td0))
        platform.join()
        denied, created = engine.trace.lines()[-2:]
        assert denied.endswith(
            " 1 seal caller=0 handle=0x28 -> err=BAD_HANDLE")
        assert " 1 create caller=0 -> ok " in created


class _DrainStall:
    """Stands in for the engine lock.  Core 0's worker, the first time it
    takes the lock, waits until `go` is set: a barrier round has released
    the core and its drain has not yet run."""

    def __init__(self, lock):
        self.lock = lock
        self.reached = threading.Event()
        self.go = threading.Event()

    def __enter__(self):
        if threading.current_thread().name == "core0" and \
                not self.reached.is_set():
            self.reached.set()
            self.go.wait(timeout=5)
        self.lock.__enter__()

    def __exit__(self, *exc_info):
        self.lock.__exit__(*exc_info)


class TestDrainWindow:
    """Between a barrier round's release and a core's drain the core may
    still run a revoked domain; nothing may be delivered to it there."""

    def revoke_and_stall(self, vector, quantum=None):
        # R runs on core 0 only and delivers `vector`; the main thread
        # revokes R, and core 0's drain is held back
        engine, td0, _ = boot(small_config(pages=32, cores=2),
                              concurrent=True)
        engine.set_quantum(quantum)
        dom, handle = make_child(engine, td0, cores=0b01, interrupts=[
            (vector, Visibility.DELIVER, 0)])
        engine.switch(td0, 0, handle)
        stall = _DrainStall(engine.platform.engine_lock)
        engine.platform.engine_lock = stall
        engine.platform.start_cores()
        engine.revoke_domain(td0, handle)
        assert stall.reached.wait(5)
        return engine, td0, dom, stall

    def drain(self, engine, td0, dom, stall):
        stall.go.set()
        engine.platform.join()
        assert engine.current_domain(0) == td0
        assert engine.cores[0].last_payload == (PayloadCode.REVOKED_CHILD,
                                                dom)

    def test_device_interrupt_waits_for_the_drain(self):
        engine, td0, dom, stall = self.revoke_and_stall(0x21)
        try:
            handler = engine.route_device_interrupt(0x21)
        finally:
            self.drain(engine, td0, dom, stall)
        assert handler is None
        # the drain routes the vector to td0, which R's core now runs
        assert delivered_in_place(engine) == [(0, 0x21, td0)]

    def test_routed_vector_waits_for_the_drain(self):
        # the fault path of a guest access routes through route_interrupt
        engine, td0, dom, stall = self.revoke_and_stall(0x21)
        try:
            handler = engine.route_interrupt(0, 0x21)
        finally:
            self.drain(engine, td0, dom, stall)
        # the core drained first, so td0, not the revoked R, handles it
        assert handler == td0
        assert delivered_in_place(engine) == [(0, 0x21, td0)]

    def test_quantum_expiry_waits_for_the_drain(self):
        engine, td0, dom, stall = self.revoke_and_stall(TIMER_VECTOR,
                                                        quantum=5)
        try:
            engine.platform.tick(10)
        finally:
            self.drain(engine, td0, dom, stall)
        # the unwind cleared R's deadline
        assert delivered_in_place(engine) == []
        assert 0 not in engine._quantum_deadlines

    def test_a_dump_taken_in_the_window_reloads_and_drains(self):
        engine, td0, dom, stall = self.revoke_and_stall(0x21)
        try:
            dump = dump_state(engine)
        finally:
            self.drain(engine, td0, dom, stall)
        reloaded = load_state(dump)
        assert reloaded.current_domain(0) == dom
        assert dom in reloaded.domains.held
        # the reload's core 0 names R's held record, so its drain is due
        reloaded.process_updates(0)
        assert reloaded.current_domain(0) == td0
        assert reloaded.cores[0].last_payload == (PayloadCode.REVOKED_CHILD,
                                                  dom)
        assert not reloaded.domains.held


class _CountingLock:
    """Stands in for the platform's log lock: a plain, non-reentrant lock
    that counts how often it is taken."""

    def __init__(self):
        self.lock = threading.Lock()
        self.taken = 0

    def __enter__(self):
        self.lock.acquire()
        self.taken += 1

    def __exit__(self, *exc_info):
        self.lock.release()


class TestLogLock:
    ACCESSES = 50

    def test_each_access_takes_the_log_lock_once(self):
        engine, td0, config = build_concurrent(cores=2, pages=32)
        platform = engine.platform
        lock = platform._log_lock = _CountingLock()
        logged = len(platform.access_log)
        errors = []

        def touch(core):
            for i in range(self.ACCESSES):
                assert engine.domain_read(core, A[i % 4])[0]
                assert engine.domain_write(core, A[i % 4], i)

        def accesses():
            # core 0's worker and this thread access memory side by side
            try:
                platform.start_cores()
                platform.submit(0, lambda: touch(0))
                touch(1)
                platform.join()
            except BaseException as exc:
                errors.append(exc)

        runner = threading.Thread(target=accesses, daemon=True)
        runner.start()
        runner.join(timeout=10)
        # an access that took the lock twice would deadlock, not hang here
        assert not runner.is_alive(), "an access deadlocked on the log lock"
        assert errors == []
        assert lock.taken == 4 * self.ACCESSES
        assert len(platform.access_log) - logged == 4 * self.ACCESSES


class _CountingAcquire:
    """Stands in for the engine lock's reentrant lock and counts the
    attempts core 1's worker makes to take it."""

    def __init__(self, lock):
        self.lock = lock
        self.attempts = 0
        self.tried = threading.Event()

    def acquire(self, *args, **kwargs):
        taken = self.lock.acquire(*args, **kwargs)
        if threading.current_thread().name == "core1":
            self.attempts += 1
            self.tried.set()
        return taken

    def release(self):
        self.lock.release()

    def _is_owned(self):
        return self.lock._is_owned()


class TestLockWait:
    def test_a_waiting_core_tries_the_lock_only_when_it_is_released(self):
        # core 1's worker waits 50 ms for the lock the main thread holds; a
        # waiter that polled would try it many times over
        engine, td0, _ = build_concurrent(cores=2, pages=32)
        platform = engine.platform
        lock = platform.engine_lock._lock = _CountingAcquire(
            platform.engine_lock._lock)
        platform.start_cores()
        with platform.engine_lock:
            platform.submit(1, engine.page_access_map)
            assert lock.tried.wait(5)
            time.sleep(0.05)
        platform.join()
        assert 2 <= lock.attempts <= 3, lock.attempts


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

        # the checks below replay both logs whole, so neither may have
        # dropped its oldest entries
        assert len(platform.access_log) < LOG_KEEP
        assert len(platform.protocol_log) < LOG_KEEP

        # 0. each access is numbered as it is appended
        seqs = [access[0] for access in platform.access_log]
        assert all(a < b for a, b in zip(seqs, seqs[1:]))

        # 1. parked cores perform no accesses between park and drain
        windows = {}
        for seq, phase, core, _ in platform.protocol_log:
            if phase == "park":
                windows.setdefault(core, []).append([seq, None])
            elif phase == "drain":
                spans = windows.get(core)
                if spans and spans[-1][1] is None:
                    spans[-1][1] = seq
        for seq, _, core, _, _, _, _ in platform.access_log:
            if core < 0:
                continue
            for lo, hi in windows.get(core, []):
                if hi is not None:
                    assert not (lo < seq < hi), \
                        f"access at seq {seq} inside barrier window"

        # 2. every access decision matches the oracle state at that moment;
        # publishes happen while affected cores are parked, so the page map
        # built from ops published before an access is authoritative for it
        publishes = [seq for seq, phase, _, _ in platform.protocol_log
                     if phase == "publish"]
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
            [("publish", seq, i) for i, seq in enumerate(publishes)] +
            # an access is (seq, step, core, ...); core -1 is the monitor's
            [("access", a[0], a) for a in platform.access_log
             if a[2] >= 0],
            key=lambda t: t[1])
        checks = 0
        for kind, seq, payload in events:
            if kind == "publish":
                oracle.apply(barrier_records[payload])
                continue
            _, _, _, domain, addr, access_kind, allowed = payload
            page_map = oracle.address_map().get(domain, {})
            rights, _ = page_map.get(addr // PAGE, (0, False))
            bit = {"R": 4, "W": 2, "X": 1}[access_kind]
            expected = bool(rights & bit) and addr < config.memory_size
            assert allowed == expected, \
                f"seq {seq}: {payload} vs oracle rights {rights}"
            checks += 1
        assert checks > 100, "stress must generate real probes"

        # 3. the final state equals the deterministic replay of the trace
        replayed = replay_trace(engine.trace.records, config)
        assert dump_state(replayed) == dump_state(engine)

    def test_atomicity_and_linearizability_with_fast_switching(self):
        # a thread switch every microsecond, as TestConcurrentAbi runs
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            self.test_atomicity_and_linearizability()
        finally:
            sys.setswitchinterval(interval)
