"""Domain page tables, patched by the calls that change them: after each
kind of change every reader sees what a build from scratch gives, and a
table the change leaves as it was keeps its object."""

import json

import pytest

from capmon import AttrFlags, DeviceConfig, PhysRange, Rights, boot, state
from capmon import engine as engine_mod
from capmon.domains import CapKind
from capmon.regions import EXCLUSIVE_BIT, PAGE

from support import (
    carve_to, check_invariants, check_views, fresh_view, make_child,
    small_config, small_engine,
)

A = [PAGE * (1 + k) for k in range(16)]


def assert_fresh(engine):
    """Both readers give a build from scratch for every domain, as do the
    cores' views, and every region's view is a fresh sweep."""
    views = engine.page_access_map()
    assert set(views) == set(engine.domains)
    for dom in engine.domains.values():
        fresh = fresh_view(engine, dom)
        assert engine.view_cache_for(dom.id) == fresh, dom.id
        assert views[dom.id] == fresh, dom.id
    check_views(engine)
    check_invariants(engine.tree)


def root_handle(engine, dom):
    return engine.domains[dom].owned.find(CapKind.REGION, engine.root_region)


def held_handle(engine, dom, region):
    return engine.domains[dom].owned.find(CapKind.REGION, region)


def table(engine, dom):
    return engine.view_cache_for(dom)


def page_bytes(engine, dom, lo, hi):
    return table(engine, dom)[lo // PAGE:hi // PAGE]


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
        engine.tree_alias(dom, held_handle(engine, dom, region),
                          PhysRange(A[0], A[2]), Rights.R)
        assert_fresh(engine)
        engine.tree_carve(dom, held_handle(engine, dom, region),
                          PhysRange(A[3], A[5]), Rights.RW)
        assert_fresh(engine)

    def test_send(self, guest):
        engine, td0, dom, handle, _ = guest
        carve_to(engine, td0, handle, PhysRange(A[8], A[9]), Rights.R,
                 AttrFlags.NONE)
        assert_fresh(engine)

    def test_revoke_region_held_by_another_domain(self, guest):
        # the guest's table does not change, only the regions under it
        engine, td0, dom, _, region = guest
        sub = engine.tree_alias(dom, held_handle(engine, dom, region),
                                PhysRange(A[1], A[2]), Rights.R)
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
        engine.revoke_domain(td0, handle)
        assert dom not in engine.domains and grandchild not in engine.domains
        assert_fresh(engine)

    def test_root_returns_to_its_heir(self):
        engine, td0 = small_engine()
        dom, handle = make_child(engine, td0)
        engine.send(td0, root_handle(engine, td0), handle)
        engine.revoke_domain(td0, handle)
        assert engine.tree.nodes[engine.root_region].owner == td0
        assert_fresh(engine)

    def test_load_state_round_trip(self, guest):
        engine, td0, dom, _, region = guest
        dump = state.dump_state(engine)
        reloaded = state.load_state(json.loads(json.dumps(dump)))
        # the tables are no part of the state
        assert state.dump_state(reloaded) == dump
        assert_fresh(reloaded)
        assert state.dump_state(reloaded) == dump
        reloaded.tree_alias(dom, held_handle(reloaded, dom, region),
                            PhysRange(A[0], A[1]), Rights.R)
        assert_fresh(reloaded)


class TestMemoHits:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Counts the _patch_view calls the engine makes, to build or to
        patch a table."""
        count = []
        patch = engine_mod.Engine._patch_view

        def counted(engine, dom, *window):
            count.append(dom.id)
            return patch(engine, dom, *window)

        monkeypatch.setattr(engine_mod.Engine, "_patch_view", counted)
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
        builds.clear()  # boot builds every domain's table
        verdicts = [engine.platform.dma_access(dev, A[k % 8], "W")
                    for k in range(16)]
        assert all(verdicts)
        assert builds == []

    def test_oracle_is_handed_the_table_the_core_checks(self, guest):
        engine, td0, dom, _, _ = guest
        assert engine.cores[1].current == dom
        assert engine.page_access_map()[dom] is \
            engine.platform.cores[1].local_view


class TestPatchEdgeCases:
    """Each call patches only the pages it changes, in only the tables it
    changes; every table still equals a build from scratch."""

    def test_alias_under_an_exclusive_parent(self, guest):
        engine, _, dom, _, region = guest
        before = table(engine, dom)
        assert all(b & EXCLUSIVE_BIT for b in page_bytes(engine, dom,
                                                         A[0], A[6]))
        engine.tree_alias(dom, held_handle(engine, dom, region),
                          PhysRange(A[1], A[3]), Rights.R)
        assert_fresh(engine)
        after = table(engine, dom)
        # only the aliased pages lose the exclusive bit
        assert not any(b & EXCLUSIVE_BIT
                       for b in page_bytes(engine, dom, A[1], A[3]))
        assert after[:A[1] // PAGE] == before[:A[1] // PAGE]
        assert after[A[3] // PAGE:] == before[A[3] // PAGE:]

    def test_alias_under_an_aliased_parent(self):
        engine, td0 = small_engine()
        dom, handle = make_child(engine, td0)
        root = root_handle(engine, td0)
        alias = engine.tree_alias(td0, root, PhysRange(A[0], A[6]), Rights.RW)
        region = engine.domains[td0].owned.get(alias).ref
        engine.send(td0, alias, handle)
        assert_fresh(engine)
        view = table(engine, dom)
        region_view = engine.tree.nodes[region]._view
        engine.tree_alias(dom, held_handle(engine, dom, region),
                          PhysRange(A[1], A[3]), Rights.R)
        assert_fresh(engine)
        # the pages were aliased already: neither view changes at all
        assert table(engine, dom) is view
        assert engine.tree.nodes[region]._view is region_view

    def test_carve_under_an_aliased_parent_beside_another_alias(self):
        engine, td0 = small_engine()
        dom, handle = make_child(engine, td0)
        root = root_handle(engine, td0)
        wide = engine.tree_alias(td0, root, PhysRange(A[0], A[6]), Rights.RW)
        region = engine.domains[td0].owned.get(wide).ref
        engine.send(td0, wide, handle)
        narrow = engine.tree_alias(td0, root, PhysRange(A[2], A[5]),
                                   Rights.R)
        engine.send(td0, narrow, handle)
        assert_fresh(engine)
        view = table(engine, dom)
        engine.tree_carve(dom, held_handle(engine, dom, region),
                          PhysRange(A[3], A[4]), Rights.W)
        assert_fresh(engine)
        # the carve takes the page from the wide alias and gives it back as
        # an aliased W page; the narrow alias still grants R there, so the
        # table's bytes, and so its object, stay as they were
        assert page_bytes(engine, dom, A[3], A[4]) == bytes([6])
        assert table(engine, dom) is view

    def test_send_to_self(self, guest):
        engine, _, dom, _, region = guest
        view = table(engine, dom)
        region_view = engine.tree.nodes[region]._view
        chan = engine.getchan(dom)
        engine.send(dom, held_handle(engine, dom, region), chan)
        assert_fresh(engine)
        assert engine.tree.nodes[region].owner == dom
        assert table(engine, dom) is view
        assert engine.tree.nodes[region]._view is region_view

    def test_send_past_the_receivers_last_page_grows_its_table(self, guest):
        engine, td0, dom, handle, _ = guest
        assert len(table(engine, dom)) == A[6] // PAGE
        carve_to(engine, td0, handle, PhysRange(A[10], A[12]), Rights.R)
        assert_fresh(engine)
        assert len(table(engine, dom)) == A[12] // PAGE
        assert page_bytes(engine, dom, A[6], A[10]) == bytes(4)

    def test_send_of_the_senders_highest_region_shrinks_its_table(self,
                                                                   guest):
        engine, td0, dom, handle, _ = guest
        top = carve_to(engine, td0, handle, PhysRange(A[10], A[12]),
                       Rights.R)
        assert len(table(engine, dom)) == A[12] // PAGE
        grandchild, gc_handle = make_child(engine, dom)
        engine.send(dom, held_handle(engine, dom, top), gc_handle)
        assert_fresh(engine)
        assert len(table(engine, dom)) == A[6] // PAGE
        assert len(table(engine, grandchild)) == A[12] // PAGE

    def test_vital_revoke_cascade(self):
        # revoking a vital region revokes the domain holding it, which runs
        # on core 1 and holds more regions; core 1 unwinds to td0
        engine, td0 = small_engine()
        dom, handle = make_child(engine, td0, seal=False)
        vital = carve_to(engine, td0, handle, PhysRange(A[0], A[2]),
                         Rights.RW, AttrFlags.VITAL)
        carve_to(engine, td0, handle, PhysRange(A[4], A[6]), Rights.RW)
        shared = engine.tree_alias(td0, root_handle(engine, td0),
                                   PhysRange(A[8], A[9]), Rights.R)
        engine.send(td0, shared, handle)
        engine.seal(td0, handle)
        engine.switch(td0, 1, handle)
        assert_fresh(engine)
        td0_view = table(engine, td0)
        root = engine.tree.nodes[engine.root_region]
        engine.revoke_region(td0, root_handle(engine, td0),
                             root.children.index(vital))
        assert dom not in engine.domains
        assert engine.cores[1].current == td0
        assert_fresh(engine)
        # td0 gets back every page the cascade freed, exclusive again
        assert table(engine, td0) != td0_view
        assert all(b == 7 | EXCLUSIVE_BIT for b in table(engine, td0)[1:])
