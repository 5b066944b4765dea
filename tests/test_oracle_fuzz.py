"""Differential testing: the engine against the brute-force per-page model.

The oracle rebuilds per-page access from the operation log alone; any
divergence from the engine's locally-computed views is a bug in one of them.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capmon import MonitorError, Oracle, PhysRange, Rights
from capmon.domains import CapKind
from capmon.regions import PAGE, RegionStatus
from capmon.trace import parse_log

from support import FuzzDriver, small_engine

A = [PAGE * (1 + k) for k in range(8)]


class TestFuzzEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_short_runs(self, seed):
        driver = FuzzDriver(seed=seed)
        driver.run(500)
        assert driver.accepted > 50, "generator should produce valid ops"
        assert not driver.oracle.diff(driver.engine)

    @pytest.mark.parametrize("seed", (1, 9))
    def test_short_runs_with_a_device(self, seed):
        from capmon import DeviceConfig
        device = DeviceConfig("net0", PhysRange(16 * PAGE, 17 * PAGE), 0x21)
        driver = FuzzDriver(seed=seed, devices=(device,))
        driver.run(500)
        assert not driver.oracle.diff(driver.engine)

    def test_empty_log_after_boot(self):
        engine, td0 = small_engine(pages=8)
        oracle = Oracle().replay(engine.trace.records)
        page_map = oracle.address_map()[td0]
        assert set(page_map) == set(range(1, 8))
        assert all(rights == 7 and excl
                   for rights, excl in page_map.values())

    def test_revoking_every_derivation_restores_boot_state(self):
        engine, td0 = small_engine(pages=8)
        boot_map = Oracle().replay(engine.trace.records).address_map()
        root_handle = engine.domains[td0].owned.find(CapKind.REGION, 0)
        engine.tree_alias(td0, root_handle, PhysRange(A[0], A[1]), Rights.RW)
        engine.tree_carve(td0, root_handle, PhysRange(A[2], A[4]), Rights.RWX)
        while engine.tree.nodes[0].children:
            engine.revoke_region(td0, root_handle, 0)
        oracle = Oracle().replay(engine.trace.records)
        assert oracle.address_map() == boot_map
        assert not oracle.diff(engine)

    def test_diff_pinpoints_corruption(self):
        engine, td0 = small_engine(pages=8)
        root_handle = engine.domains[td0].owned.find(CapKind.REGION, 0)
        engine.tree_carve(td0, root_handle, PhysRange(A[0], A[2]), Rights.RWX)
        oracle = Oracle().replay(engine.trace.records)
        assert not oracle.diff(engine)
        # fault injection: flip the carved child's status
        child = engine.tree.nodes[0].children[0]
        engine.tree.nodes[child].status = RegionStatus.ALIASED
        problems = oracle.diff(engine)
        assert problems
        assert f"domain {td0}" in problems[0]

    @pytest.mark.parametrize("field, value", [
        ("rights", Rights.R),
        ("status", RegionStatus.ALIASED),
        ("initial_range", PhysRange(A[0], A[1])),
    ])
    def test_diff_sees_behind_the_back_write_to_a_viewed_region(self, field,
                                                                value):
        engine, td0 = small_engine(pages=8)
        root_handle = engine.domains[td0].owned.find(CapKind.REGION, 0)
        engine.tree_carve(td0, root_handle, PhysRange(A[0], A[2]), Rights.RWX)
        oracle = Oracle().replay(engine.trace.records)
        assert not oracle.diff(engine)  # every view is now memoised
        child = engine.tree.nodes[0].children[0]
        setattr(engine.tree.nodes[child], field, value)
        problems = oracle.diff(engine)
        assert problems and f"domain {td0}" in problems[0]

    def test_trace_lines_replay_identically(self):
        driver = FuzzDriver(seed=42)
        driver.run(300)
        text = driver.engine.trace.dump()
        oracle = Oracle().replay(parse_log(text))
        assert not oracle.diff(driver.engine)


class TestConservation:
    @pytest.mark.parametrize("seed", (3, 11))
    def test_no_page_exclusive_twice(self, seed):
        driver = FuzzDriver(seed=seed)
        driver.run(600)
        owners_of_exclusive: dict[int, list[int]] = {}
        for dom_id, pages in driver.engine.page_access_map().items():
            for page, (_, exclusive) in pages.items():
                if exclusive:
                    owners_of_exclusive.setdefault(page, []).append(dom_id)
        for page, owners in owners_of_exclusive.items():
            assert len(owners) == 1, \
                f"page {page:#x} exclusive in domains {owners}"


class TestHandlerOracle:
    def test_handler_of_running_deliver_is_itself(self):
        engine, td0 = small_engine(pages=8)
        oracle = Oracle().replay(engine.trace.records)
        assert oracle.handler_of(td0, 99) == td0


class TestViewCacheCoherence:
    @pytest.mark.parametrize("seed", (5, 17))
    def test_access_decisions_match_views_after_fuzz(self, seed):
        # the per-core cached view must agree with the engine's truth for
        # the current domain after any operation sequence
        driver = FuzzDriver(seed=seed)
        driver.run(700)
        engine = driver.engine
        page_maps = engine.page_access_map()
        for core in engine.cores:
            pages = page_maps[core.current]
            for page in range(16):
                addr = page * PAGE + 8
                for kind, bit in (("R", 4), ("W", 2), ("X", 1)):
                    expected = bool(pages.get(page, (0, False))[0] & bit)
                    got = engine.platform.mem_access(core.id, addr, kind)
                    assert got == expected, \
                        (core.id, core.current, hex(addr), kind)


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.booleans(), st.integers(0, 6), st.integers(1, 7),
              st.sampled_from([1, 2, 3, 4, 5, 6, 7])),
    min_size=1, max_size=12))
def test_locality_on_generated_derivations(program):
    """Each node's locally-computed view must match the per-page replay."""
    engine, td0 = small_engine(pages=8)
    oracle = Oracle()
    pos = 0
    for is_carve, lo, span, rights in program:
        handles = [h for h, e in engine.domains[td0].owned.entries()
                   if e.kind is CapKind.REGION]
        handle = handles[(lo + span) % len(handles)]
        node = engine.tree.get(engine.domains[td0].owned.get(handle).ref)
        base = node.initial_range.start
        limit = node.initial_range.end
        start = min(base + lo * PAGE, limit - PAGE)
        end = min(start + span * PAGE, limit)
        try:
            if is_carve:
                engine.tree_carve(td0, handle, PhysRange(start, end),
                                  Rights(rights))
            else:
                engine.tree_alias(td0, handle, PhysRange(start, end),
                                  Rights(rights))
        except MonitorError:
            pass
        for rec in engine.trace.records[pos:]:
            oracle.apply(rec)
        pos = len(engine.trace.records)
        assert not oracle.diff(engine)
