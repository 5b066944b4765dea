"""The domain view memo: after each kind of change every reader sees what a
build from scratch gives, and a memo that is still valid is not rebuilt."""

import json

import pytest

from capmon import AttrFlags, DeviceConfig, PhysRange, Rights, boot, state
from capmon import engine as engine_mod
from capmon.domains import CapEntry, CapKind, CapTable
from capmon.regions import PAGE

from support import (
    carve_to, check_views, fresh_memo, make_child, small_config,
    small_engine,
)

A = [PAGE * (1 + k) for k in range(16)]


def warm(engine):
    """Fill every live domain's memo, so that a stale one would be read."""
    engine.page_access_map()


def assert_fresh(engine):
    """Both readers give a build from scratch for every domain, as do the
    memos they leave and the cores' views."""
    views = engine.page_access_map()
    assert set(views) == set(engine.domains)
    for dom in engine.domains.values():
        fresh = fresh_memo(engine, dom).build_view()
        assert engine.view_cache_for(dom.id) == fresh, dom.id
        assert views[dom.id] == fresh, dom.id
    check_views(engine)


def root_handle(engine, dom):
    return engine.domains[dom].owned.find(CapKind.REGION, engine.root_region)


def held_handle(engine, dom, region):
    return engine.domains[dom].owned.find(CapKind.REGION, region)


@pytest.fixture
def guest():
    """td0 and a sealed guest on core 1 holding one carved region."""
    engine, td0 = small_engine()
    dom, handle = make_child(engine, td0)
    region = carve_to(engine, td0, handle, PhysRange(A[0], A[6]), Rights.RW)
    engine.switch(td0, 1, handle)
    return engine, td0, dom, handle, region


class TestEveryReaderSeesTheChange:
    def test_alias_and_carve_under_a_held_region(self, guest):
        engine, td0, dom, _, region = guest
        warm(engine)
        engine.tree_alias(dom, held_handle(engine, dom, region),
                          PhysRange(A[0], A[2]), Rights.R)
        assert_fresh(engine)
        warm(engine)
        engine.tree_carve(dom, held_handle(engine, dom, region),
                          PhysRange(A[3], A[5]), Rights.RW)
        assert_fresh(engine)

    def test_send(self, guest):
        engine, td0, dom, handle, _ = guest
        warm(engine)
        carve_to(engine, td0, handle, PhysRange(A[8], A[9]), Rights.R,
                 AttrFlags.NONE)
        assert_fresh(engine)

    def test_revoke_region_held_by_another_domain(self, guest):
        # the guest's table does not change, only the regions under it
        engine, td0, dom, _, region = guest
        sub = engine.tree_alias(dom, held_handle(engine, dom, region),
                                PhysRange(A[1], A[2]), Rights.R)
        warm(engine)
        root = engine.tree.nodes[engine.root_region]
        engine.revoke_region(td0, root_handle(engine, td0),
                             root.children.index(region))
        assert engine.domains[dom].owned.get(sub) is None
        assert_fresh(engine)

    def test_revoke_domain_cascade(self, guest):
        engine, td0, dom, handle, region = guest
        grandchild, gc_handle = make_child(engine, dom)
        sub = engine.tree_carve(dom, held_handle(engine, dom, region),
                                PhysRange(A[4], A[5]), Rights.RW)
        engine.send(dom, sub, gc_handle, AttrFlags.NONE)
        warm(engine)
        engine.revoke_domain(td0, handle)
        assert dom not in engine.domains and grandchild not in engine.domains
        assert_fresh(engine)

    def test_root_returns_to_its_heir(self):
        engine, td0 = small_engine()
        dom, handle = make_child(engine, td0)
        engine.send(td0, root_handle(engine, td0), handle)
        warm(engine)
        engine.revoke_domain(td0, handle)
        assert engine.tree.nodes[engine.root_region].owner == td0
        assert_fresh(engine)

    def test_load_state_round_trip(self, guest):
        engine, td0, dom, _, region = guest
        warm(engine)
        dump = state.dump_state(engine)
        reloaded = state.load_state(json.loads(json.dumps(dump)))
        # the memos are no part of the state, filled or not
        assert state.dump_state(reloaded) == dump
        assert_fresh(reloaded)
        assert state.dump_state(reloaded) == dump
        warm(reloaded)
        reloaded.tree_alias(dom, held_handle(reloaded, dom, region),
                            PhysRange(A[0], A[1]), Rights.R)
        assert_fresh(reloaded)


class TestMemoHits:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Counts the page views the engine builds."""
        count = []
        build = engine_mod.page_view

        def counted(segments):
            count.append(len(segments))
            return build(segments)

        monkeypatch.setattr(engine_mod, "page_view", counted)
        return count

    def test_switch_out_and_back_rebuilds_no_view(self, guest, builds):
        engine, td0, dom, handle, _ = guest
        engine.switch(dom, 1)
        engine.switch(td0, 1, handle)
        builds.clear()
        for _ in range(3):
            engine.switch(dom, 1)
            engine.switch(td0, 1, handle)
        assert builds == []
        check_views(engine)

    def test_dma_burst_builds_the_device_view_at_most_once(self, builds):
        engine, td0, _ = boot(small_config(devices=[
            DeviceConfig("net0", PhysRange(0x20000, 0x21000), 0x21)]))
        dev = next(d.id for d in engine.domains.values() if d.is_device)
        builds.clear()  # boot installs td0's view
        verdicts = [engine.platform.dma_access(dev, A[k % 8], "W")
                    for k in range(16)]
        assert all(verdicts)
        assert len(builds) <= 1

    def test_oracle_is_handed_the_table_the_core_checks(self, guest):
        engine, td0, dom, _, _ = guest
        assert engine.cores[1].current == dom
        assert engine.page_access_map()[dom] is \
            engine.platform.cores[1].local_view

    def test_table_writes_drop_the_memo(self):
        table = CapTable()
        table.view_memo = object()
        index = table.insert(CapEntry(CapKind.CHANNEL, 0))
        assert table.view_memo is None
        table.view_memo = object()
        table.remove(index)
        assert table.view_memo is None
