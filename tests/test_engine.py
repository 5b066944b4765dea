"""Domain lifecycle, capability ownership, sends, channels, revocation."""

import hashlib

import pytest

from capmon import AttrFlags, PhysRange, Rights, Visibility
from capmon.domains import (
    ALL_CALLS_MASK, NUM_REGS, ApiCall, CapEntry, CapKind, CapTable,
    DomainState, InterruptPolicy,
)
from capmon.engine import CAP_SLOT_QUOTA
from capmon.errors import ErrorCode, MonitorError
from capmon.regions import PAGE
from capmon.state import dump_state

from support import expect_code, make_child, small_engine

A = [PAGE * (1 + k) for k in range(8)]


class TestCreate:
    def test_create_builds_unsealed_child(self):
        engine, td0 = small_engine()
        handle = engine.create(td0)
        child = engine.domains[engine.domains[td0].owned.get(handle).ref]
        assert child.state is DomainState.UNSEALED
        assert child.parent == td0
        assert child.policies.cores == 0
        assert child.policies.mon_api == 0
        assert len(child.owned) == 0

    def test_two_creates_ordered_children(self):
        engine, td0 = small_engine()
        h1 = engine.create(td0)
        h2 = engine.create(td0)
        c1 = engine.domains[td0].owned.get(h1).ref
        c2 = engine.domains[td0].owned.get(h2).ref
        assert c2 > c1
        kids = [e.ref for _, e in engine.domains[td0].owned.entries()
                if e.kind is CapKind.DOMAIN]
        assert kids == [c1, c2]

    def test_create_policy_gate(self):
        engine, td0 = small_engine()
        dom, _ = make_child(engine, td0,
                            mon_api=ALL_CALLS_MASK & ~(1 << ApiCall.CREATE))
        expect_code(ErrorCode.POLICY_DENIED, engine.create, dom)

    def test_unsealed_caller_cannot_create(self):
        engine, td0 = small_engine()
        dom, _ = make_child(engine, td0, seal=False)
        expect_code(ErrorCode.NOT_RUNNING, engine.create, dom)

    def test_metadata_pool_exhaustion_leaves_existing_intact(self):
        engine, td0 = small_engine(pool=4)
        made = []
        while True:
            try:
                made.append(engine.create(td0))
            except MonitorError as err:
                assert err.code is ErrorCode.OUT_OF_METADATA
                break
        assert len(made) == 3  # td0 occupies one pool slot
        for handle in made:
            ref = engine.domains[td0].owned.get(handle).ref
            assert engine.domains[ref].live


class TestSetGet:
    def test_set_registers_then_freeze_at_seal(self):
        engine, td0 = small_engine()
        handle = engine.create(td0)
        engine.set_policy(td0, handle, "cores", 0b01)
        engine.set_register(td0, handle, 0, 3, 0xDEAD)
        assert engine.get_register(td0, handle, 0, 3) == 0xDEAD
        engine.seal(td0, handle)
        expect_code(ErrorCode.SEALED,
                    engine.set_register, td0, handle, 0, 3, 1)
        expect_code(ErrorCode.SEALED,
                    engine.set_policy, td0, handle, "cores", 0b01)

    def test_register_reads_leave_the_state_unchanged(self):
        # a read of an unsealed child's register creates no register file:
        # a core of the machine without one reads as 0, any other core is
        # denied, through the Python call and the register ABI alike
        engine, td0 = small_engine()
        handle = engine.create(td0)
        before = dump_state(engine)
        assert engine.get_register(td0, handle, 1, 3) == 0
        for core in (2, 999, -5, 2**40):
            expect_code(ErrorCode.CORE_NOT_ALLOWED,
                        engine.get_register, td0, handle, core, 0)
        regs = engine.domains[td0].core_regs(0)
        for core in (1, 2, 2**64 - 1):
            regs[:5] = [ApiCall.SET_GET, 1, handle, core, 0]
            engine.monitor_call(0)
            assert regs[0] == (0 if core == 1 else ErrorCode.CORE_NOT_ALLOWED)
        regs[:5] = [0] * 5      # td0's own registers as they were
        assert dump_state(engine) == before

    def test_policy_escalation_rejected(self):
        engine, td0 = small_engine()
        dom, dom_handle = make_child(engine, td0, cores=0b01,
                                     mon_api=0b00001110000)
        engine.switch(td0, 0, dom_handle)
        # dom lacks CREATE so it cannot even try; build grandchild via td0
        engine.switch(dom, 0, None)
        handle = engine.create(td0)
        expect_code(ErrorCode.POLICY_ESCALATION,
                    engine.set_policy, td0, handle, "cores", 0xFF)
        grandchild = engine.domains[td0].owned.get(handle).ref
        assert engine.domains[grandchild].policies.cores == 0

    def test_child_policy_must_be_subset_of_parent(self):
        engine, td0 = small_engine()
        mid, mid_handle = make_child(engine, td0, cores=0b01,
                                     mon_api=(1 << ApiCall.CREATE)
                                     | (1 << ApiCall.SET_GET)
                                     | (1 << ApiCall.SWITCH))
        engine.switch(td0, 0, mid_handle)
        inner_handle = engine.create(mid)
        expect_code(ErrorCode.POLICY_ESCALATION,
                    engine.set_policy, mid, inner_handle, "cores", 0b11)
        expect_code(ErrorCode.POLICY_ESCALATION,
                    engine.set_policy, mid, inner_handle, "mon_api",
                    1 << ApiCall.REVOKE)
        engine.set_policy(mid, inner_handle, "cores", 0b01)

    def test_deliver_needs_parent_deliver(self):
        engine, td0 = small_engine()
        mid, mid_handle = make_child(
            engine, td0, seal=False,
            interrupts=[(7, Visibility.REPORT, 0)])
        engine.set_interrupt_policy(td0, mid_handle, 3, Visibility.DELIVER, 0)
        engine.seal(td0, mid_handle)
        engine.switch(td0, 0, mid_handle)
        inner = engine.create(mid)
        # vector 3 is Deliver in mid, so the child may deliver it too
        engine.set_interrupt_policy(mid, inner, 3, Visibility.DELIVER, 0)
        # vector 7 is only Report in mid: the child cannot deliver it
        expect_code(ErrorCode.POLICY_ESCALATION,
                    engine.set_interrupt_policy, mid, inner, 7,
                    Visibility.DELIVER, 0)
        engine.set_interrupt_policy(mid, inner, 7, Visibility.REPORT, 0)

    def test_set_via_channel_rejected(self):
        engine, td0 = small_engine()
        dom, handle = make_child(engine, td0, seal=False)
        chan = engine.getchan(td0, handle)
        expect_code(ErrorCode.CHANNEL_NO_CONTROL,
                    engine.set_policy, td0, chan, "cores", 0b01)


class TestSeal:
    def test_seal_records_register_hash(self):
        engine, td0 = small_engine()
        h1 = engine.create(td0)
        engine.set_policy(td0, h1, "cores", 0b01)
        engine.set_register(td0, h1, 0, 0, 42)
        engine.seal(td0, h1)
        c1 = engine.domains[engine.domains[td0].owned.get(h1).ref]
        assert c1.register_hash is not None

        h2 = engine.create(td0)
        engine.set_policy(td0, h2, "cores", 0b01)
        engine.set_register(td0, h2, 0, 0, 42)
        engine.seal(td0, h2)
        c2 = engine.domains[engine.domains[td0].owned.get(h2).ref]
        assert c1.register_hash == c2.register_hash

        h3 = engine.create(td0)
        engine.set_policy(td0, h3, "cores", 0b01)
        engine.set_register(td0, h3, 0, 0, 43)
        engine.seal(td0, h3)
        c3 = engine.domains[engine.domains[td0].owned.get(h3).ref]
        assert c3.register_hash != c1.register_hash

    def test_double_seal(self):
        engine, td0 = small_engine()
        handle = engine.create(td0)
        engine.seal(td0, handle)
        expect_code(ErrorCode.ALREADY_SEALED, engine.seal, td0, handle)

    def test_seal_needs_a_deliverer_for_every_vector(self):
        engine, td0 = small_engine()
        # td0 has no parent to set its policies, so the test edits them
        engine.domains[td0].policies.interrupts[40] = \
            InterruptPolicy(Visibility.REPORT)
        handle = engine.create(td0)
        before = dump_state(engine)
        expect_code(ErrorCode.UNDELIVERABLE_VECTOR, engine.seal, td0, handle)
        assert dump_state(engine) == before
        # a child that delivers the vector itself needs no ancestor for it
        engine.set_interrupt_policy(td0, handle, 40, Visibility.DELIVER)
        engine.seal(td0, handle)


class TestSend:
    def setup_engine(self):
        engine, td0 = small_engine()
        dom, handle = make_child(engine, td0, seal=False)
        return engine, td0, dom, handle

    def test_send_region_moves_ownership(self):
        engine, td0, dom, dom_handle = self.setup_engine()
        root_handle = engine.domains[td0].owned.find(CapKind.REGION, 0)
        r = engine.tree_carve(td0, root_handle, PhysRange(A[0], A[2]),
                              Rights.RWX)
        region = engine.domains[td0].owned.get(r).ref
        engine.send(td0, r, dom_handle)
        assert engine.tree.nodes[region].owner == dom
        assert engine.domains[td0].owned.get(r) is None
        assert engine.domains[dom].owned.find(CapKind.REGION, region) is not None

    def test_td_capability_untransferable(self):
        engine, td0, dom, dom_handle = self.setup_engine()
        other_handle = engine.create(td0)
        expect_code(ErrorCode.UNTRANSFERABLE_TD,
                    engine.send, td0, other_handle, dom_handle)

    def test_send_to_sealed_without_receive(self):
        engine, td0 = small_engine()
        dom, dom_handle = make_child(engine, td0, receive=False)
        root_handle = engine.domains[td0].owned.find(CapKind.REGION, 0)
        r = engine.tree_carve(td0, root_handle, PhysRange(A[0], A[1]),
                              Rights.RWX)
        expect_code(ErrorCode.RECEIVE_DENIED,
                    engine.send, td0, r, dom_handle)

    def test_send_to_sealed_with_receive(self):
        engine, td0 = small_engine()
        dom, dom_handle = make_child(engine, td0, receive=True)
        root_handle = engine.domains[td0].owned.find(CapKind.REGION, 0)
        r = engine.tree_carve(td0, root_handle, PhysRange(A[0], A[1]),
                              Rights.RWX)
        engine.send(td0, r, dom_handle)

    def test_attributes_need_unsealed_receiver(self):
        engine, td0 = small_engine()
        dom, dom_handle = make_child(engine, td0, receive=True)
        root_handle = engine.domains[td0].owned.find(CapKind.REGION, 0)
        r = engine.tree_carve(td0, root_handle, PhysRange(A[0], A[1]),
                              Rights.RWX)
        expect_code(ErrorCode.ATTRIBUTES_ON_SEALED,
                    engine.send, td0, r, dom_handle, AttrFlags.CLEAN)

    def test_hash_requires_exclusive(self):
        engine, td0, dom, dom_handle = self.setup_engine()
        root_handle = engine.domains[td0].owned.find(CapKind.REGION, 0)
        r = engine.tree_alias(td0, root_handle, PhysRange(A[0], A[1]),
                              Rights.RW)
        expect_code(ErrorCode.HASH_ON_ALIASED,
                    engine.send, td0, r, dom_handle, AttrFlags.HASH)

    def test_hash_digest_matches_independent_recompute(self):
        engine, td0, dom, dom_handle = self.setup_engine()
        rng = PhysRange(A[0], A[2])
        engine.platform.memory.poke(rng.start, b"\xA5" * (rng.end - rng.start))
        root_handle = engine.domains[td0].owned.find(CapKind.REGION, 0)
        r = engine.tree_carve(td0, root_handle, rng, Rights.RWX)
        region = engine.domains[td0].owned.get(r).ref
        engine.send(td0, r, dom_handle, AttrFlags.HASH)
        stored = engine.tree.nodes[region].attributes.hash_digest
        assert stored == hashlib.sha256(
            b"\xA5" * (rng.end - rng.start)).digest()

    def test_hash_on_region_with_live_children_still_accessible(self):
        engine, td0, dom, dom_handle = self.setup_engine()
        root_handle = engine.domains[td0].owned.find(CapKind.REGION, 0)
        r = engine.tree_carve(td0, root_handle, PhysRange(A[0], A[2]),
                              Rights.RWX)
        engine.tree_alias(td0, r, PhysRange(A[0], A[1]), Rights.RW)
        expect_code(ErrorCode.STILL_ACCESSIBLE,
                    engine.send, td0, r, dom_handle, AttrFlags.HASH)

    def test_digest_of_carved_and_parked_range(self):
        engine, td0 = small_engine()
        dom, dom_handle = make_child(engine, td0, seal=False)
        rng = PhysRange(A[0], A[1])
        root_handle = engine.domains[td0].owned.find(CapKind.REGION, 0)
        rh = engine.tree_carve(td0, root_handle, rng, Rights.RWX)
        region = engine.domains[td0].owned.get(rh).ref
        engine.send(td0, rh, dom_handle, AttrFlags.HASH)
        stored = engine.tree.nodes[region].attributes.hash_digest
        assert stored == hashlib.sha256(bytes(PAGE)).digest()

    def test_attributes_replaced_on_each_send(self):
        engine, td0 = small_engine()
        domA, hA = make_child(engine, td0, receive=True)
        root_handle = engine.domains[td0].owned.find(CapKind.REGION, 0)
        r = engine.tree_carve(td0, root_handle, PhysRange(A[0], A[1]),
                              Rights.RWX)
        region = engine.domains[td0].owned.get(r).ref
        engine.send(td0, r, hA)  # no attributes survive from before
        assert engine.tree.nodes[region].attributes.flags == AttrFlags.NONE

    def test_send_channel(self):
        engine, td0 = small_engine()
        domA, hA = make_child(engine, td0)
        domB, hB = make_child(engine, td0)
        chan = engine.getchan(td0, hB)
        engine.send(td0, chan, hA)
        assert engine.domains[domA].owned.find(CapKind.CHANNEL, domB) is not None

    def test_channel_send_with_attributes_rejected(self):
        engine, td0 = small_engine()
        domA, hA = make_child(engine, td0, seal=False)
        chan = engine.getchan(td0, None)
        expect_code(ErrorCode.ATTRIBUTES_ON_CHANNEL,
                    engine.send, td0, chan, hA, AttrFlags.CLEAN)


class TestChannels:
    def test_channel_allows_attest_but_not_control(self):
        engine, td0 = small_engine()
        dom, handle = make_child(engine, td0)
        chan = engine.getchan(td0, handle)
        report = engine.attest(td0, chan)
        assert report.subject.sealed
        expect_code(ErrorCode.CHANNEL_NO_CONTROL,
                    engine.switch, td0, 0, chan)
        expect_code(ErrorCode.CHANNEL_NO_CONTROL,
                    engine.seal, td0, chan)
        expect_code(ErrorCode.CHANNEL_NO_CONTROL,
                    engine.revoke_domain, td0, chan)

    def test_channel_from_channel(self):
        engine, td0 = small_engine()
        dom, handle = make_child(engine, td0)
        chan = engine.getchan(td0, handle)
        chan2 = engine.getchan(td0, chan)
        assert engine.domains[td0].owned.get(chan2).ref == dom

    def test_channel_to_revoked_domain_is_inert(self):
        engine, td0 = small_engine()
        dom, handle = make_child(engine, td0)
        chan = engine.getchan(td0, handle)
        engine.revoke_domain(td0, handle)
        expect_code(ErrorCode.DOMAIN_REVOKED, engine.attest, td0, chan)
        expect_code(ErrorCode.DOMAIN_REVOKED, engine.getchan, td0, chan)

    def test_self_channel_extension(self):
        engine, td0 = small_engine()
        chan = engine.getchan(td0, None)
        assert engine.domains[td0].owned.get(chan).ref == td0

    def test_channel_is_recorded_only_in_the_holders_table(self):
        # the capability is the whole record: the referent keeps no count
        engine, td0 = small_engine()
        dom, handle = make_child(engine, td0)
        before = dump_state(engine)
        chan = engine.getchan(td0, handle)
        after = dump_state(engine)
        assert engine.domains[td0].owned.get(chan) == \
            CapEntry(CapKind.CHANNEL, dom)
        record = {rec["id"]: rec for rec in before["domains"]}
        assert {rec["id"]: rec for rec in after["domains"]}[dom] == \
            record[dom]

    def test_siblings_attest_each_other_through_channels(self):
        # a channel lets non parent-child domains attest one another
        engine, td0 = small_engine()
        domA, hA = make_child(engine, td0, receive=True)
        domB, hB = make_child(engine, td0)
        chan_to_b = engine.getchan(td0, hB)
        engine.send(td0, chan_to_b, hA)
        held = engine.domains[domA].owned.find(CapKind.CHANNEL, domB)
        report = engine.attest(domA, held)
        assert report.subject.sealed
        assert report.name_of_domain[domB] == "td0"  # report-local name

    def test_self_getchan_stops_at_the_slot_quota(self):
        engine, td0 = small_engine()
        before = dump_state(engine)
        denied = []
        for _ in range(5000):
            try:
                engine.getchan(td0, None)
            except MonitorError as exc:
                assert exc.code is ErrorCode.OUT_OF_METADATA
                # a rejected call changes nothing, so the dump stays flat
                assert dump_state(engine) == before
                denied.append(len(repr(before)))
            else:
                before = dump_state(engine)
        assert len(engine.domains[td0].owned) == CAP_SLOT_QUOTA
        assert len(engine.domains[td0].owned.slots) <= CAP_SLOT_QUOTA
        assert len(denied) > 4000 and len(set(denied)) == 1

    def test_channels_sent_away_stop_at_the_quota(self):
        # sending each new channel away frees the caller's slot, so the
        # receiver's full table stops the loop
        engine, td0 = small_engine()
        dom, handle = make_child(engine, td0, seal=False)
        for _ in range(CAP_SLOT_QUOTA + 50):
            chan = engine.getchan(td0, None)
            before = dump_state(engine)
            try:
                engine.send(td0, chan, handle)
            except MonitorError as exc:
                assert exc.code is ErrorCode.OUT_OF_METADATA
                assert dump_state(engine) == before
                break
        else:
            raise AssertionError("the receiver's table never filled")
        assert len(engine.domains[dom].owned) == CAP_SLOT_QUOTA


def fill_table(engine, dom_id: int):
    """Self-channels until the domain's table holds CAP_SLOT_QUOTA."""
    while len(engine.domains[dom_id].owned) < CAP_SLOT_QUOTA:
        engine.getchan(dom_id, None)


class TestCapabilityBound:
    """One bound for every call that adds a capability to a table: past
    CAP_SLOT_QUOTA it is denied OUT_OF_METADATA and changes nothing."""

    @staticmethod
    def denied(engine, fn, *args):
        before = dump_state(engine)
        expect_code(ErrorCode.OUT_OF_METADATA, fn, *args)
        assert dump_state(engine) == before

    def test_full_caller_cannot_create_alias_carve_or_getchan(self):
        engine, td0 = small_engine()
        root = engine.domains[td0].owned.find(CapKind.REGION, 0)
        fill_table(engine, td0)
        self.denied(engine, engine.create, td0)
        self.denied(engine, engine.tree_alias, td0, root,
                    PhysRange(A[0], A[1]), Rights.RW)
        self.denied(engine, engine.tree_carve, td0, root,
                    PhysRange(A[0], A[1]), Rights.RW)
        self.denied(engine, engine.getchan, td0, None)

    def test_send_into_a_full_receiver_is_denied(self):
        engine, td0 = small_engine()
        dom, handle = make_child(engine, td0, seal=False)
        root = engine.domains[td0].owned.find(CapKind.REGION, 0)
        region = engine.tree_carve(td0, root, PhysRange(A[0], A[1]),
                                   Rights.RW)
        chan = engine.getchan(td0, None)
        fill_table(engine, dom)
        self.denied(engine, engine.send, td0, region, handle)
        self.denied(engine, engine.send, td0, chan, handle)

    def test_a_full_domain_may_send_to_itself(self):
        # the capability leaves the table it enters, so nothing grows
        engine, td0 = small_engine()
        root = engine.domains[td0].owned.find(CapKind.REGION, 0)
        region = engine.tree_carve(td0, root, PhysRange(A[0], A[1]),
                                   Rights.RW)
        region_id = engine.domains[td0].owned.get(region).ref
        to_self = engine.getchan(td0, None)
        fill_table(engine, td0)
        engine.send(td0, region, to_self)
        assert len(engine.domains[td0].owned) == CAP_SLOT_QUOTA
        assert engine.domains[td0].owned.find(CapKind.REGION, region_id) \
            is not None

    def test_aliasing_one_page_stops_at_the_quota(self):
        engine, td0 = small_engine()
        root = engine.domains[td0].owned.find(CapKind.REGION, 0)
        nodes = len(engine.tree.nodes)
        before = dump_state(engine)
        denied = 0
        for _ in range(3000):
            try:
                engine.tree_alias(td0, root, PhysRange(A[0], A[1]),
                                  Rights.RW)
            except MonitorError as exc:
                assert exc.code is ErrorCode.OUT_OF_METADATA
                assert dump_state(engine) == before
                denied += 1
            else:
                before = dump_state(engine)
        assert len(engine.domains[td0].owned) == CAP_SLOT_QUOTA
        assert len(engine.tree.nodes) == nodes + CAP_SLOT_QUOTA - 1
        assert denied == 3000 - (CAP_SLOT_QUOTA - 1)

    def test_td0_issues_channels_again_after_the_sandbox_is_revoked(self):
        # channels issued through a sandbox's channel to td0 are the
        # sandbox's capabilities; revoking it leaves td0 nothing to count
        engine, td0 = small_engine()
        box, box_handle = make_child(engine, td0, seal=False)
        engine.send(td0, engine.getchan(td0, None), box_handle)
        to_td0 = engine.domains[box].owned.find(CapKind.CHANNEL, td0)
        for _ in range(CAP_SLOT_QUOTA - 1):
            engine.getchan(box, to_td0)
        self.denied(engine, engine.getchan, box, to_td0)
        engine.revoke_domain(td0, box_handle)
        assert len(engine.domains[td0].owned) == 1
        chan = engine.getchan(td0, None)
        assert engine.domains[td0].owned.get(chan) == \
            CapEntry(CapKind.CHANNEL, td0)


class TestEnumerate:
    def test_enumerate_region_reports_children_of_other_owners(self):
        engine, td0 = small_engine()
        dom, dom_handle = make_child(engine, td0, seal=False)
        root_handle = engine.domains[td0].owned.find(CapKind.REGION, 0)
        r2h = engine.tree_carve(td0, root_handle, PhysRange(A[1], A[4]),
                                Rights.RWX)
        r3h = engine.tree_alias(td0, r2h, PhysRange(A[2], A[3]), Rights.RW)
        engine.send(td0, r3h, dom_handle)  # child now owned elsewhere
        desc, _ = engine.enumerate(td0, 0)  # root region entry
        descs = []
        cursor = 0
        while True:
            desc, cursor = engine.enumerate(td0, cursor)
            if desc is None:
                break
            descs.append(desc)
        assert f"region exclusive {A[1]:#x} {A[4]:#x} RWX" \
            f" | alias {A[2]:#x} {A[3]:#x} c0 RW_" in descs

    def test_empty_table_ends_immediately(self):
        engine, td0 = small_engine()
        dom, handle = make_child(engine, td0)
        engine.switch(td0, 0, handle)
        desc, cursor = engine.enumerate(dom, 0)
        assert desc is None

    def test_enumeration_stable_without_mutation(self):
        engine, td0 = small_engine()
        first = []
        cursor = 0
        while True:
            desc, cursor = engine.enumerate(td0, cursor)
            if desc is None:
                break
            first.append(desc)
        second = []
        cursor = 0
        while True:
            desc, cursor = engine.enumerate(td0, cursor)
            if desc is None:
                break
            second.append(desc)
        assert first == second

    def test_bad_cursor(self):
        engine, td0 = small_engine()
        expect_code(ErrorCode.BAD_CURSOR, engine.enumerate, td0, -1)
        expect_code(ErrorCode.BAD_CURSOR, engine.enumerate, td0, 9999)


class TestHandleReuse:
    def test_lowest_free_index_first(self):
        engine, td0 = small_engine()
        h1 = engine.create(td0)
        h2 = engine.create(td0)
        engine.revoke_domain(td0, h1)
        h3 = engine.create(td0)
        assert h3 == h1
        assert h2 != h3

    def test_table_with_holes_counts_and_refills_lowest_hole(self):
        table = CapTable()
        for ref in range(6):
            assert table.insert(CapEntry(CapKind.CHANNEL, ref)) == ref
        for index in (4, 1, 3):
            table.remove(index)
        assert len(table) == 3
        assert [table.insert(CapEntry(CapKind.CHANNEL, 10 + k))
                for k in range(4)] == [1, 3, 4, 6]
        assert len(table) == 7
        # a table built from slots with holes, as load_state builds one
        rebuilt = CapTable([None, CapEntry(CapKind.CHANNEL, 0), None])
        assert len(rebuilt) == 1
        assert rebuilt.insert(CapEntry(CapKind.CHANNEL, 1)) == 0
        assert rebuilt.insert(CapEntry(CapKind.CHANNEL, 2)) == 2
        assert rebuilt.insert(CapEntry(CapKind.CHANNEL, 3)) == 3


class TestRevocation:
    def build_cascade(self):
        """td0 -> td1 (vital carve r2) -> td2 (alias r3 + carve r4)."""
        engine, td0 = small_engine()
        td1, h1 = make_child(engine, td0, seal=False)
        engine.set_policy(td0, h1, "cores", 0b11)
        engine.set_policy(td0, h1, "mon_api", ALL_CALLS_MASK)
        engine.set_policy(td0, h1, "receive", 1)
        root_handle = engine.domains[td0].owned.find(CapKind.REGION, 0)
        r1h = engine.tree_alias(td0, root_handle, PhysRange(A[0], A[1]),
                                Rights.RW)
        r1 = engine.domains[td0].owned.get(r1h).ref
        r2h = engine.tree_carve(td0, root_handle, PhysRange(A[1], A[4]),
                                Rights.RWX)
        r2 = engine.domains[td0].owned.get(r2h).ref
        engine.send(td0, r1h, h1)
        engine.send(td0, r2h, h1,
                    AttrFlags.HASH | AttrFlags.CLEAN | AttrFlags.VITAL)
        engine.seal(td0, h1)
        engine.switch(td0, 0, h1)
        td2, h2 = make_child(engine, td1, cores=0b01,
                             mon_api=0b00001110000, receive=False,
                             seal=False)
        r2_h1 = engine.domains[td1].owned.find(CapKind.REGION, r2)
        r3h = engine.tree_alias(td1, r2_h1, PhysRange(A[2], A[3]), Rights.RW)
        r3 = engine.domains[td1].owned.get(r3h).ref
        r4h = engine.tree_carve(td1, r2_h1, PhysRange(A[3], A[4]), Rights.RWX)
        r4 = engine.domains[td1].owned.get(r4h).ref
        engine.send(td1, r3h, h2)
        engine.send(td1, r4h, h2)
        engine.seal(td1, h2)
        engine.switch(td1, 0, None)
        return engine, td0, td1, td2, (r1, r2, r3, r4), h1

    def test_revoke_region_cascades_and_restores(self):
        engine, td0, td1, td2, (r1, r2, r3, r4), h1 = self.build_cascade()
        engine.platform.memory.poke(A[1], b"\xFF" * (A[4] - A[1]))
        root_handle = engine.domains[td0].owned.find(CapKind.REGION, 0)
        child_index = engine.tree.nodes[0].children.index(r2)
        engine.revoke_region(td0, root_handle, child_index)
        for rid in (r2, r3, r4):
            assert rid not in engine.tree.nodes
        # vital on r2 revoked td1, which cascaded into td2 and destroyed r1
        assert engine.domains[td1].state is DomainState.REVOKED
        assert engine.domains[td2].state is DomainState.REVOKED
        assert r1 not in engine.tree.nodes
        # clean honored: the carved range reads back as zeros
        assert engine.platform.memory.peek(A[1], A[4]) == bytes(A[4] - A[1])
        view = engine.tree.effective_view(0)
        assert len(view) == 1 and view[0].status.value == "exclusive"

    def test_revoke_leaf_alias_restores_status(self):
        engine, td0 = small_engine()
        root_handle = engine.domains[td0].owned.find(CapKind.REGION, 0)
        engine.tree_alias(td0, root_handle, PhysRange(A[0], A[1]), Rights.RW)
        engine.revoke_region(td0, root_handle, 0)
        view = engine.tree.effective_view(0)
        assert len(view) == 1 and view[0].status.value == "exclusive"

    def test_revoke_domain_returns_memory_to_parents(self):
        engine, td0, td1, td2, regions, h1 = self.build_cascade()
        engine.revoke_domain(td0, h1)
        assert engine.domains[td1].state is DomainState.REVOKED
        assert engine.domains[td2].state is DomainState.REVOKED
        for rid in regions:
            assert rid not in engine.tree.nodes
        view = engine.tree.effective_view(0)
        assert len(view) == 1 and view[0].status.value == "exclusive"
        # no capability anywhere references the revoked domains
        for dom in engine.domains.values():
            for _, entry in dom.owned.entries():
                if entry.kind is CapKind.DOMAIN:
                    assert entry.ref not in (td1, td2)

    def test_revoke_leaf_domain_without_caps(self):
        engine, td0 = small_engine()
        dom, handle = make_child(engine, td0)
        engine.revoke_domain(td0, handle)
        assert engine.domains[dom].state is DomainState.REVOKED
        assert engine.domains[td0].owned.get(handle) is None

    def test_revocation_totality_on_deep_chains(self):
        # revocations always succeed, regardless of subtree depth or owners
        engine, td0 = small_engine(pages=64)
        root_handle = engine.domains[td0].owned.find(CapKind.REGION, 0)
        receivers = []
        parent_handle = root_handle
        top_child = None
        for depth in range(25):
            start = PAGE * (1 + depth)
            handle = engine.tree_carve(td0, parent_handle,
                                       PhysRange(start, 64 * PAGE - PAGE),
                                       Rights.RWX)
            region = engine.domains[td0].owned.get(handle).ref
            if top_child is None:
                top_child = region
            dom, dom_handle = make_child(engine, td0, seal=False)
            receivers.append(dom)
            if depth == 24:
                engine.send(td0, handle, dom_handle)
                break
            # keep deriving from the carve before handing it over
            parent_handle = handle
        index = engine.tree.nodes[0].children.index(top_child)
        engine.revoke_region(td0, root_handle, index)
        assert len(engine.tree.nodes) == 1
        view = engine.tree.effective_view(0)
        assert len(view) == 1 and view[0].status.value == "exclusive"

    def test_root_survives_owner_revocation(self):
        engine, td0 = small_engine()
        dom, handle = make_child(engine, td0, seal=False)
        root_handle = engine.domains[td0].owned.find(CapKind.REGION, 0)
        engine.send(td0, root_handle, handle)
        assert engine.tree.nodes[0].owner == dom
        engine.revoke_domain(td0, handle)
        assert 0 in engine.tree.nodes
        assert engine.tree.nodes[0].owner == td0


class TestUnreachedGuards:
    """Guards that no fuzz step and no other test reaches: each call is
    denied with its code and leaves the state as it was."""

    def denied(self, engine, code, fn, *args):
        before = dump_state(engine)
        expect_code(code, fn, *args)
        assert dump_state(engine) == before

    def alias_root(self, engine, td0, rng):
        root = engine.domains[td0].owned.find(CapKind.REGION,
                                              engine.root_region)
        return engine.tree_alias(td0, root, rng, Rights.RW)

    def test_a_region_handle_names_no_domain(self):
        # region 1 and child A share the id 1: read as a domain handle, B's
        # handle to region 1 would revoke A, which B never held
        engine, td0 = small_engine()
        a, _ = make_child(engine, td0)
        alias = self.alias_root(engine, td0, PhysRange(A[0], A[1]))
        assert engine.domains[td0].owned.get(alias).ref == a
        b, b_handle = make_child(engine, td0, seal=False)
        engine.send(td0, alias, b_handle)
        engine.seal(td0, b_handle)
        region = engine.domains[b].owned.find(CapKind.REGION, a)
        self.denied(engine, ErrorCode.BAD_HANDLE,
                    engine.revoke_domain, b, region)

    def test_a_domain_handle_names_no_region(self):
        # child A and region 1 share the id 1, and region 1 has a child: read
        # as a region handle, td0's handle to A would revoke that child, or
        # alias or carve from region 1
        engine, td0 = small_engine()
        a, a_handle = make_child(engine, td0)
        alias = self.alias_root(engine, td0, PhysRange(A[0], A[2]))
        assert engine.domains[td0].owned.get(alias).ref == a
        engine.tree_alias(td0, alias, PhysRange(A[0], A[1]), Rights.RW)
        self.denied(engine, ErrorCode.BAD_HANDLE,
                    engine.revoke_region, td0, a_handle, 0)
        for derive in (engine.tree_alias, engine.tree_carve):
            self.denied(engine, ErrorCode.BAD_HANDLE, derive, td0, a_handle,
                        PhysRange(A[1], A[2]), Rights.R)

    def test_readable_registers_stay_within_the_file(self):
        engine, td0 = small_engine()
        _, handle = make_child(engine, td0, seal=False)
        self.denied(engine, ErrorCode.POLICY_ESCALATION,
                    engine.set_interrupt_policy, td0, handle, 5,
                    Visibility.DELIVER, 1 << NUM_REGS)

    def test_get_policy_of_an_unknown_field(self):
        engine, td0 = small_engine()
        _, handle = make_child(engine, td0, seal=False)
        self.denied(engine, ErrorCode.BAD_HANDLE,
                    engine.get_policy, td0, handle, "interrupts")

    @pytest.mark.parametrize("core", [2, -1])
    def test_switch_on_a_core_outside_the_machine(self, core):
        # -1 would index core 1, which td0 runs
        engine, td0 = small_engine(cores=2)
        _, handle = make_child(engine, td0)
        self.denied(engine, ErrorCode.CORE_NOT_ALLOWED,
                    engine.switch, td0, core, handle)


class TestApiGateExhaustive:
    """Clearing one mon_api bit makes exactly that call fail PolicyDenied."""

    @staticmethod
    def _build(cleared):
        engine, td0 = small_engine(pages=32)
        mask = ALL_CALLS_MASK & ~(1 << cleared) if cleared is not None \
            else ALL_CALLS_MASK
        dom, dom_handle = make_child(engine, td0, mon_api=mask, receive=True)
        root_handle = engine.domains[td0].owned.find(CapKind.REGION, 0)
        rh = engine.tree_carve(td0, root_handle, PhysRange(A[4], A[6]),
                               Rights.RWX)
        engine.send(td0, rh, dom_handle)
        engine.switch(td0, 0, dom_handle)
        # best-effort material so later probes do not mutate before calling
        if mask & (1 << ApiCall.CREATE):
            engine.create(dom)
        if mask & (1 << ApiCall.GETCHAN):
            engine.getchan(dom, None)
        if mask & (1 << ApiCall.ALIAS):
            region = next(h for h, e in engine.domains[dom].owned.entries()
                          if e.kind is CapKind.REGION)
            engine.tree_alias(dom, region, PhysRange(A[4], A[5]), Rights.RW)
        return engine, td0, dom, dom_handle

    @staticmethod
    def _attempt(engine, td0, dom, dom_handle, call):
        """Issue one call as dom, touching nothing before the call itself."""

        def child():
            for h, e in engine.domains[dom].owned.entries():
                if e.kind is CapKind.DOMAIN:
                    return h
            return 99  # no child material: resolves to BAD_HANDLE, not denial

        def chan():
            for h, e in engine.domains[dom].owned.entries():
                if e.kind is CapKind.CHANNEL:
                    return h
            return 99

        def region():
            for h, e in engine.domains[dom].owned.entries():
                if e.kind is CapKind.REGION:
                    return h
            raise AssertionError("region material missing")

        if call is ApiCall.CREATE:
            engine.create(dom)
        elif call is ApiCall.SET_GET:
            engine.set_policy(dom, child(), "cores", 0)
        elif call is ApiCall.SEND:
            engine.send(dom, chan(), chan())
        elif call is ApiCall.SEAL:
            engine.seal(dom, child())
        elif call is ApiCall.ATTEST:
            engine.attest(dom, None)
        elif call is ApiCall.ENUMERATE:
            engine.enumerate(dom, 0)
        elif call is ApiCall.SWITCH:
            engine.switch(dom, 0, None)
            engine.switch(td0, 0, dom_handle)
        elif call is ApiCall.ALIAS:
            engine.tree_alias(dom, region(), PhysRange(A[4], A[5]), Rights.RW)
        elif call is ApiCall.CARVE:
            engine.tree_carve(dom, region(), PhysRange(A[5], A[6]),
                              Rights.RWX)
        elif call is ApiCall.REVOKE:
            engine.revoke_region(dom, region(), 0)
        elif call is ApiCall.GETCHAN:
            engine.getchan(dom, None)

    def test_each_bit_gates_exactly_its_call(self):
        for cleared in ApiCall:
            engine, td0, dom, dom_handle = self._build(cleared)
            before = dump_state(engine)
            with pytest.raises(MonitorError) as err:
                self._attempt(engine, td0, dom, dom_handle, cleared)
            assert err.value.code is ErrorCode.POLICY_DENIED, \
                f"{cleared.name}: got {err.value.code.name}"
            assert dump_state(engine) == before, \
                f"{cleared.name}: denied call changed state"
            for other in ApiCall:
                if other is cleared:
                    continue
                try:
                    self._attempt(engine, td0, dom, dom_handle, other)
                except MonitorError as exc:
                    assert exc.code is not ErrorCode.POLICY_DENIED, \
                        f"{other.name} denied with only {cleared.name} clear"

    def test_all_bits_set_all_calls_pass(self):
        engine, td0, dom, dom_handle = self._build(None)
        for call in ApiCall:
            self._attempt(engine, td0, dom, dom_handle, call)
