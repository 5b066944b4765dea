"""Switch call-return, interrupt routing over the domain tree, the
report/no-report return path, and revocation-forced control transfers."""

import pytest

from capmon import PhysRange, Visibility
from capmon.domains import PayloadCode
from capmon.errors import ErrorCode, MonitorError
from capmon.machine import FAULT_VECTOR, TIMER_VECTOR

from support import (
    build_policy_tree, delivered_in_place, drive_resume, make_child,
    small_engine,
)


def expect_code(code, fn, *args, **kw):
    with pytest.raises(MonitorError) as err:
        fn(*args, **kw)
    assert err.value.code is code
    return err.value


class TestSwitch:
    def test_call_return_round_trip(self):
        engine, td0 = small_engine()
        dom, handle = make_child(engine, td0)
        engine.switch(td0, 0, handle)
        assert engine.current_domain(0) == dom
        assert [e.domain for e in engine.cores[0].chain] == [td0]
        engine.switch(dom, 0, None)
        assert engine.current_domain(0) == td0
        code, detail = engine.cores[0].last_payload
        assert code == PayloadCode.RETURNED
        # the payload lands in the resumed domain's result registers
        assert engine.domains[td0].core_regs(0)[0] == PayloadCode.RETURNED

    def test_switch_to_unsealed(self):
        engine, td0 = small_engine()
        handle = engine.create(td0)
        expect_code(ErrorCode.NOT_SEALED, engine.switch, td0, 0, handle)

    def test_switch_core_not_allowed(self):
        engine, td0 = small_engine()
        dom, handle = make_child(engine, td0, cores=0b01)
        expect_code(ErrorCode.CORE_NOT_ALLOWED, engine.switch, td0, 1, handle)

    def test_return_with_no_parent(self):
        engine, td0 = small_engine()
        expect_code(ErrorCode.NO_PARENT, engine.switch, td0, 0, None)

    def test_caller_must_be_current(self):
        engine, td0 = small_engine()
        dom, handle = make_child(engine, td0)
        expect_code(ErrorCode.NOT_RUNNING, engine.switch, dom, 0, None)

    def test_chain_is_rootward_path(self):
        engine, td0 = small_engine()
        mid, mid_handle = make_child(engine, td0)
        engine.switch(td0, 0, mid_handle)
        leaf, leaf_handle = make_child(engine, mid)
        engine.switch(mid, 0, leaf_handle)
        cs = engine.cores[0]
        path = [e.domain for e in cs.chain] + [cs.current]
        assert path == [td0, mid, leaf]
        for upper, lower in zip(path, path[1:]):
            assert engine.domains[lower].parent == upper


class TestRouting:
    def test_deliver_in_place(self):
        engine, td0 = small_engine()
        handler = engine.route_interrupt(0, 7)
        assert handler == td0
        assert engine.cores[0].irq is None
        assert (0, 7, td0) in delivered_in_place(engine)

    def test_walk_to_first_deliver(self):
        engine, td0 = small_engine()
        mid, mid_handle = make_child(
            engine, td0, interrupts=[(9, Visibility.REPORT, 0)])
        engine.switch(td0, 0, mid_handle)
        leaf, leaf_handle = make_child(
            engine, mid, interrupts=[(9, Visibility.NOT_REPORT, 0)])
        engine.switch(mid, 0, leaf_handle)
        handler = engine.route_interrupt(0, 9)
        assert handler == td0
        assert engine.current_domain(0) == td0
        assert engine.cores[0].last_payload == (PayloadCode.INTERRUPT, 9)
        resume = engine.cores[0].irq.resume
        assert [e.domain for e in resume] == [mid, leaf]
        assert resume[0].pending_observation is True
        assert resume[1].pending_observation is False

    def test_report_observers_in_rootward_order(self):
        engine, td0 = small_engine()
        mid, mid_handle = make_child(
            engine, td0, interrupts=[(9, Visibility.REPORT, 0)])
        engine.switch(td0, 0, mid_handle)
        leaf, leaf_handle = make_child(
            engine, mid, interrupts=[(9, Visibility.NOT_REPORT, 0)])
        engine.switch(mid, 0, leaf_handle)
        engine.route_interrupt(0, 9)
        observers = drive_resume(engine, 0)
        assert observers == [mid]
        assert engine.current_domain(0) == leaf
        assert engine.cores[0].irq is None

    def test_all_noreport_chain_resumes_in_one_switch(self):
        engine, td0 = small_engine()
        mid, mid_handle = make_child(
            engine, td0, interrupts=[(9, Visibility.NOT_REPORT, 0)])
        engine.switch(td0, 0, mid_handle)
        leaf, leaf_handle = make_child(
            engine, mid, interrupts=[(9, Visibility.NOT_REPORT, 0)])
        engine.switch(mid, 0, leaf_handle)
        engine.route_interrupt(0, 9)
        assert engine.current_domain(0) == td0
        engine.switch(td0, 0, mid_handle)  # one switch resumes the leaf
        assert engine.current_domain(0) == leaf
        assert engine.cores[0].irq is None
        # the skipped domain stays suspended on the chain
        assert [e.domain for e in engine.cores[0].chain] == [td0, mid]

    def test_handler_must_resume_the_chain(self):
        engine, td0 = small_engine()
        mid, mid_handle = make_child(
            engine, td0, interrupts=[(9, Visibility.NOT_REPORT, 0)])
        other, other_handle = make_child(engine, td0)
        engine.switch(td0, 0, mid_handle)
        engine.route_interrupt(0, 9)
        assert engine.current_domain(0) == td0
        expect_code(ErrorCode.IRQ_RESUME_REQUIRED,
                    engine.switch, td0, 0, other_handle)
        expect_code(ErrorCode.IRQ_RESUME_REQUIRED,
                    engine.switch, td0, 0, None)
        engine.switch(td0, 0, mid_handle)
        assert engine.current_domain(0) == mid

    def test_preempted_domain_resumes_at_snapshot(self):
        engine, td0 = small_engine()
        mid, mid_handle = make_child(
            engine, td0, interrupts=[(9, Visibility.NOT_REPORT, 0)])
        engine.switch(td0, 0, mid_handle)
        engine.domains[mid].core_regs(0)[5] = 0x1234
        engine.route_interrupt(0, 9)
        engine.domains[mid].core_regs(0)[5] = 0  # clobber while suspended
        engine.switch(td0, 0, mid_handle)
        assert engine.domains[mid].core_regs(0)[5] == 0x1234

    def test_nested_vector_deferred_until_resume(self):
        engine, td0 = small_engine()
        mid, mid_handle = make_child(
            engine, td0, interrupts=[(9, Visibility.NOT_REPORT, 0),
                                     (11, Visibility.NOT_REPORT, 0)])
        engine.switch(td0, 0, mid_handle)
        engine.route_interrupt(0, 9)
        engine.route_interrupt(0, 11)  # td0 delivers: handled in place
        assert (0, 11, td0) in delivered_in_place(engine)
        mid2, mid2_handle = make_child(
            engine, td0, interrupts=[(11, Visibility.NOT_REPORT, 0)])
        # a vector that cannot be delivered in place defers while routed
        engine.cores[0].deferred_vectors.clear()
        handler = engine.route_interrupt(0, 200)
        assert handler == td0  # td0 is current and delivers everything

    def test_fault_vector_from_denied_access(self):
        engine, td0 = small_engine()
        mid, mid_handle = make_child(
            engine, td0,
            interrupts=[(FAULT_VECTOR, Visibility.NOT_REPORT, 0)])
        engine.switch(td0, 0, mid_handle)
        ok = engine.domain_write(0, 0x0800, 0xFF)  # monitor-reserved page
        assert not ok
        # the denial routed the fault vector to td0
        assert engine.current_domain(0) == td0
        assert engine.cores[0].last_payload == (PayloadCode.INTERRUPT,
                                                FAULT_VECTOR)


class TestRegisterVisibility:
    def build(self, readable):
        engine, td0 = small_engine()
        mid, mid_handle = make_child(
            engine, td0, seal=False,
            interrupts=[(9, Visibility.NOT_REPORT, readable)])
        engine.set_register(td0, mid_handle, 0, 3, 0xBEEF)
        engine.seal(td0, mid_handle)
        engine.switch(td0, 0, mid_handle)
        engine.route_interrupt(0, 9)
        return engine, td0, mid, mid_handle

    def test_readable_register_during_handling(self):
        engine, td0, mid, handle = self.build(readable=1 << 3)
        assert engine.get_register(td0, handle, 0, 3) == 0xBEEF

    def test_hidden_register_during_handling(self):
        engine, td0, mid, handle = self.build(readable=0)
        expect_code(ErrorCode.REGISTER_HIDDEN,
                    engine.get_register, td0, handle, 0, 3)

    def test_no_access_outside_interrupt_window(self):
        engine, td0 = small_engine()
        mid, handle = make_child(engine, td0)
        expect_code(ErrorCode.REGISTER_HIDDEN,
                    engine.get_register, td0, handle, 0, 3)

    def test_report_observer_reads_its_chain_child(self):
        # td0 -> mid (Report) -> leaf (NotReport); the observer reads the
        # preempted child's registers under the child's own policy
        engine, td0 = small_engine()
        mid, mid_handle = make_child(
            engine, td0, interrupts=[(9, Visibility.REPORT, 0)])
        engine.switch(td0, 0, mid_handle)
        leaf, leaf_handle = make_child(
            engine, mid, seal=False,
            interrupts=[(9, Visibility.NOT_REPORT, 1 << 7)])
        engine.set_register(mid, leaf_handle, 0, 7, 0xCAFE)
        engine.seal(mid, leaf_handle)
        engine.switch(mid, 0, leaf_handle)
        engine.route_interrupt(0, 9)
        assert engine.current_domain(0) == td0
        engine.switch(td0, 0, mid_handle)  # mid observes the interrupt
        assert engine.current_domain(0) == mid
        assert engine.get_register(mid, leaf_handle, 0, 7) == 0xCAFE
        expect_code(ErrorCode.REGISTER_HIDDEN,
                    engine.get_register, mid, leaf_handle, 0, 6)
        engine.switch(mid, 0, leaf_handle)
        assert engine.current_domain(0) == leaf


class TestRandomRoutingAgainstOracle:
    def test_handler_matches_oracle_and_return_path(self):
        for seed in range(150):
            engine, oracle, preempted, handles = build_policy_tree(seed)
            vector = 5 if seed % 2 == 0 else 33
            expected = oracle.handler_of(preempted, vector)
            handler = engine.route_interrupt(0, vector)
            assert handler == expected, f"seed {seed}"
            if engine.cores[0].irq is None:
                assert handler == preempted
                continue
            # expected observers: Report-marked domains strictly between
            # the handler and the preempted leaf, in root-to-leaf order
            chain = []
            walker = preempted
            while walker != handler:
                chain.append(walker)
                walker = oracle.domains[walker].parent
            chain.reverse()
            expected_observers = [d for d in chain[:-1]
                                  if oracle.domains[d].visibility(vector)
                                  == "report"]
            observers = drive_resume(engine, 0)
            assert observers == expected_observers, f"seed {seed}"
            assert engine.current_domain(0) == preempted, f"seed {seed}"


class TestQuantum:
    def test_quantum_expiry_routes_timer_vector(self):
        engine, td0 = small_engine()
        engine.set_quantum(4)
        mid, mid_handle = make_child(
            engine, td0,
            interrupts=[(TIMER_VECTOR, Visibility.NOT_REPORT, 0)])
        engine.switch(td0, 0, mid_handle)
        assert engine.current_domain(0) == mid
        engine.platform.tick(3, core=0)
        assert engine.current_domain(0) == mid
        engine.platform.tick(2, core=0)
        assert engine.current_domain(0) == td0
        assert engine.cores[0].last_payload == (PayloadCode.INTERRUPT,
                                                TIMER_VECTOR)

    def test_quantum_cleared_on_voluntary_return(self):
        engine, td0 = small_engine()
        engine.set_quantum(4)
        mid, mid_handle = make_child(engine, td0)
        engine.switch(td0, 0, mid_handle)
        engine.switch(mid, 0, None)
        engine.platform.tick(10, core=0)
        assert engine.current_domain(0) == td0
        assert engine.cores[0].last_payload == (PayloadCode.RETURNED, mid)


class TestForcedTransferOnRevocation:
    def test_core_running_revoked_child_lands_in_parent(self):
        engine, td0 = small_engine(cores=2)
        dom, handle = make_child(engine, td0, cores=0b11)
        engine.switch(td0, 1, handle)
        assert engine.current_domain(1) == dom
        engine.revoke_domain(td0, handle)
        assert engine.current_domain(1) == td0
        assert engine.cores[1].last_payload == (PayloadCode.REVOKED_CHILD,
                                                dom)

    def test_core_running_descendant_unwinds_to_revoker(self):
        engine, td0 = small_engine(cores=2)
        mid, mid_handle = make_child(engine, td0, cores=0b11)
        engine.switch(td0, 1, mid_handle)
        leaf, leaf_handle = make_child(engine, mid, cores=0b11)
        engine.switch(mid, 1, leaf_handle)
        assert engine.current_domain(1) == leaf
        engine.revoke_domain(td0, mid_handle)
        assert engine.current_domain(1) == td0
        assert engine.cores[1].last_payload == (PayloadCode.REVOKED_CHILD,
                                                mid)
        assert engine.cores[1].chain == []

    def test_pending_irq_cleared_by_unwind(self):
        engine, td0 = small_engine(cores=2)
        mid, mid_handle = make_child(
            engine, td0, cores=0b11,
            interrupts=[(9, Visibility.NOT_REPORT, 0)])
        engine.switch(td0, 1, mid_handle)
        engine.route_interrupt(1, 9)
        assert engine.cores[1].irq is not None
        engine.revoke_domain(td0, mid_handle)
        assert engine.cores[1].irq is None
        assert engine.current_domain(1) == td0


class TestDeviceRouting:
    def test_lowest_allowed_core_for_handler(self):
        from capmon import DeviceConfig
        from support import small_config
        from capmon import boot
        config = small_config(
            pages=32, cores=2,
            devices=[DeviceConfig("net0", PhysRange(0x20000, 0x21000), 0x21)])
        engine, td0, _ = boot(config)
        # core 0 runs a child that cannot handle 0x21; td0 on core 1 can
        mid, mid_handle = make_child(
            engine, td0, cores=0b11,
            interrupts=[(0x21, Visibility.NOT_REPORT, 0)])
        engine.switch(td0, 0, mid_handle)
        handler = engine.route_device_interrupt(0x21)
        assert handler == td0
        # routed on core 0 (lowest) since td0 may run there
        assert engine.current_domain(0) == td0

    def test_scheduled_interrupt_fires_at_step(self):
        from capmon import DeviceConfig
        from support import small_config
        from capmon import boot
        config = small_config(
            pages=32, cores=1,
            devices=[DeviceConfig("net0", PhysRange(0x20000, 0x21000), 0x21)])
        engine, td0, _ = boot(config)
        engine.platform.schedule_device_interrupt(0x21, at_step=5)
        engine.platform.tick(3)
        assert not delivered_in_place(engine)
        engine.platform.tick(3)
        assert any(v == 0x21 for _, v, _ in delivered_in_place(engine))
