"""Revoked domain records are reclaimed: `engine.domains` holds live records
only, a reclaimed id reads as a read-only REVOKED record, and a record that
a core path still names waits until that core's unwind drains."""

import dataclasses
import json

import pytest

from capmon import PhysRange, Rights, boot, state
from capmon.domains import (
    CapKind, DomainNode, DomainState, RevokedDomain, UpdateKind,
)
from capmon.errors import ErrorCode
from capmon.regions import PAGE
from capmon.scenario import ScenarioRunner, parse_script

from support import make_child, small_config, small_engine
from test_engine import expect_code


class TestReclaim:
    CYCLES = 2000

    def test_create_revoke_churn_keeps_only_live_records(self):
        engine, td0 = small_engine()
        keep, _ = make_child(engine, td0)
        dumps = {}
        for cycle in range(self.CYCLES):
            handle = engine.create(td0)
            engine.revoke_domain(td0, handle)
            if cycle in (9, self.CYCLES - 1):
                dumps[cycle] = state.dump_state(engine)
        assert sorted(engine.domains) == [td0, keep]
        assert all(dom.live for dom in engine.domains.values())
        assert not engine.domains.held
        assert [ref for _, ref in engine.domains[td0].children] == [keep]
        # the dump does not grow with the number of revoked domains
        first, last = dumps[9], dumps[self.CYCLES - 1]
        assert last["domains"] == first["domains"]
        assert last["regions"] == first["regions"]
        assert last["next_domain"] == first["next_domain"] + \
            self.CYCLES - 10

    def test_revoke_cascade_prunes_the_parents_children(self):
        engine, td0 = small_engine()
        mid, mid_handle = make_child(engine, td0)
        engine.switch(td0, 0, mid_handle)  # a domain creates while running
        leaf, leaf_handle = make_child(engine, mid)
        other, _ = make_child(engine, mid)
        engine.revoke_domain(mid, leaf_handle)
        assert [ref for _, ref in engine.domains[mid].children] == [other]
        engine.revoke_domain(td0, mid_handle)
        assert engine.domains[td0].children == []
        assert sorted(engine.domains) == [td0]
        for dom in (mid, leaf, other):
            assert engine.domains[dom].state is DomainState.REVOKED

    def test_channel_to_reclaimed_domain_is_denied_revoked(self):
        engine, td0 = small_engine()
        dom, handle = make_child(engine, td0)
        chan = engine.getchan(td0, handle)
        engine.revoke_domain(td0, handle)
        assert dom not in engine.domains
        assert engine.domains.get(dom) is None
        assert isinstance(engine.domains[dom], RevokedDomain)
        assert engine.domain(dom).state is DomainState.REVOKED
        expect_code(ErrorCode.DOMAIN_REVOKED, engine.getchan, td0, chan)
        expect_code(ErrorCode.DOMAIN_REVOKED, engine.attest, td0, chan)
        root_handle = engine.domains[td0].owned.find(CapKind.REGION, 0)
        region = engine.tree_carve(td0, root_handle,
                                   PhysRange(PAGE, 2 * PAGE), Rights.RW)
        expect_code(ErrorCode.DOMAIN_REVOKED, engine.send, td0, region, chan)
        # enumerate still describes the channel, as revoked
        cursor, states = 0, []
        while True:
            desc, cursor = engine.enumerate(td0, cursor)
            if desc is None:
                break
            if desc.kind == "channel":
                states.append(desc.state)
        assert states == ["revoked"]
        # ids are never reused: one at or above the counter is unknown
        expect_code(ErrorCode.UNKNOWN_DOMAIN, engine.domain,
                    engine.domains.next_id)
        expect_code(ErrorCode.UNKNOWN_DOMAIN, engine.domain, -1)
        with pytest.raises(KeyError):
            engine.domains[engine.domains.next_id]

    def test_reclaimed_record_is_read_only(self):
        engine, td0 = small_engine()
        dom, handle = make_child(engine, td0)
        engine.revoke_domain(td0, handle)
        record = engine.domains[dom]
        assert record.id == dom and not record.live
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.state = DomainState.SEALED
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.live = True
        assert engine.domains[dom].state is DomainState.REVOKED

    def test_scenario_expects_state_of_a_reclaimed_domain(self):
        script = ("create a\n"
                  "seal a\n"
                  "revoke a\n"
                  "expect state a {}\n")
        runner = ScenarioRunner(small_config())
        assert runner.run(parse_script(script.format("revoked"))) == 0, \
            runner.failures
        runner = ScenarioRunner(small_config())
        assert runner.run(parse_script(script.format("sealed"))) == 1
        assert "is revoked" in runner.failures[0].message

    def test_dump_lists_live_records_and_round_trips(self):
        engine, td0 = small_engine()
        keep, _ = make_child(engine, td0)
        gone, handle = make_child(engine, td0)
        engine.revoke_domain(td0, handle)
        dump = state.dump_state(engine)
        assert dump["version"] == 5
        assert [rec["id"] for rec in dump["domains"]] == [td0, keep]
        reloaded = state.load_state(json.loads(json.dumps(dump)))
        assert state.dump_state(reloaded) == dump
        assert reloaded.domains[gone].state is DomainState.REVOKED
        expect_code(ErrorCode.UNKNOWN_DOMAIN, reloaded.domain,
                    dump["next_domain"])
        with pytest.raises(ValueError):
            state.load_state(dict(dump, version=4))

    def test_step_mode_frees_the_current_domain_after_its_unwind(self):
        engine, td0 = small_engine()
        dom, handle = make_child(engine, td0)
        engine.switch(td0, 1, handle)
        assert engine.current_domain(1) == dom
        engine.revoke_domain(td0, handle)
        assert engine.current_domain(1) == td0
        assert not engine.domains.held
        assert isinstance(engine.domains[dom], RevokedDomain)


class TestReclaimConcurrent:
    def test_record_waits_until_the_parked_core_drains(self):
        engine, td0, _ = boot(small_config(pages=32, cores=2),
                              concurrent=True)
        platform = engine.platform
        dom, handle = make_child(engine, td0)
        platform.start_cores()
        platform.submit(1, lambda: engine.switch(td0, 1, handle))
        platform.join()
        assert engine.current_domain(1) == dom

        seen = []
        process_updates = engine.process_updates

        def observed(core):
            unwinding = core == 1 and any(
                u.kind is UpdateKind.DOMAIN_REVOKED
                for u in platform.cores[1].queue)
            if unwinding:
                seen.append(("parked", engine.domains[dom],
                             dom in engine.domains, len(engine.domains)))
            process_updates(core)
            if unwinding:
                seen.append(("drained", engine.domains[dom],
                             dom in engine.domains, len(engine.domains)))

        engine.process_updates = observed
        platform.start_cores()
        engine.revoke_domain(td0, handle)  # main thread initiates; core 1 parks
        platform.join()

        assert [step for step, *_ in seen] == ["parked", "drained"]
        (_, parked, parked_in, parked_len), \
            (_, drained, drained_in, drained_len) = seen
        # before the drain the record is the revoked node, held for core 1
        assert isinstance(parked, DomainNode)
        assert parked.state is DomainState.REVOKED and parked.parent == td0
        assert not parked_in and parked_len == 1
        # the drain frees it: the id reads as a reclaimed record
        assert isinstance(drained, RevokedDomain)
        assert not drained_in and drained_len == 1
        assert not engine.domains.held
        assert engine.current_domain(1) == td0
