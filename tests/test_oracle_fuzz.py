"""Differential testing: the engine against the brute-force per-page model.

The oracle rebuilds per-page access from the operation log alone; any
divergence from the engine's locally-computed views is a bug in one of them.
"""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capmon import MonitorError, Oracle, PhysRange, Rights
from capmon import oracle as oracle_mod
from capmon.domains import CapKind
from capmon.errors import ErrorCode
from capmon.regions import EXCLUSIVE_BIT, PAGE, RegionStatus
from capmon.trace import OpRecord, parse_log

from support import (
    FuzzDriver, carve_to, check_invariants, check_views, expect_code,
    make_child, small_engine,
)

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

    def test_oracle_keeps_only_live_domains(self):
        driver = FuzzDriver(seed=3)
        driver.run(1000)
        engine, oracle = driver.engine, driver.oracle
        assert engine.domains.next_id > len(engine.domains), \
            "the run revokes some domain"
        assert sorted(oracle.domains) == sorted(engine.domains)
        for dom in oracle.domains.values():
            assert set(dom.children) <= set(oracle.domains)

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
        # fault injection: flip the carved child's status; the tables are
        # patched by calls, so they show it once rebuilt from the tree
        child = engine.tree.nodes[0].children[0]
        engine.tree.nodes[child].status = RegionStatus.ALIASED
        engine._build_views()
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
        # rights below the root's, so moving the carve's boundary between
        # two of td0's regions changes td0's access
        engine.tree_carve(td0, root_handle, PhysRange(A[0], A[2]), Rights.RW)
        oracle = Oracle().replay(engine.trace.records)
        assert not oracle.diff(engine)
        child = engine.tree.nodes[0].children[0]
        setattr(engine.tree.nodes[child], field, value)
        # no call patched a table, so the per-step checks see the write at
        # once, and the diff sees it in the tables rebuilt from the tree
        with pytest.raises(AssertionError):
            check_views(engine)
            check_invariants(engine.tree)
        engine._build_views()
        problems = oracle.diff(engine)
        assert problems and f"domain {td0}" in problems[0]

    def test_diff_describes_each_mismatch(self, monkeypatch):
        engine, td0 = small_engine(pages=8)
        dom, handle = make_child(engine, td0)
        other, _ = make_child(engine, td0)
        carve_to(engine, td0, handle, PhysRange(A[0], A[1]))
        oracle = Oracle().replay(engine.trace.records)
        assert not oracle.diff(engine)
        page = A[0] // PAGE
        real = engine.page_access_map

        def tampered():
            # clear bit 3 of dom's exclusive page and drop `other`
            views = real()
            table = bytearray(views[dom])
            assert table[page] == Rights.RWX | EXCLUSIVE_BIT
            table[page] &= ~EXCLUSIVE_BIT
            views[dom] = bytes(table)
            del views[other]
            return views

        monkeypatch.setattr(engine, "page_access_map", tampered)
        assert oracle.diff(engine) == [
            f"domain {dom} page {page:#x}: oracle=(7, True) "
            f"engine=(7, False)",
            f"domain {other}: liveness mismatch (oracle=True, engine=False)",
        ]

    def test_trace_lines_replay_identically(self):
        driver = FuzzDriver(seed=42)
        driver.run(300)
        text = driver.engine.trace.dump()
        oracle = Oracle().replay(parse_log(text))
        assert not oracle.diff(driver.engine)


class TestMalformedLog:
    def test_unknown_op(self):
        engine, td0 = small_engine()
        records = engine.trace.records + [OpRecord(0, 0, "frob")]
        err = expect_code(ErrorCode.MALFORMED_LOG, Oracle().replay, records)
        assert err.message == "unknown op frob"

    def test_no_boot_record(self):
        # the records after boot name domains and regions no record made
        engine, td0 = small_engine()
        make_child(engine, td0)
        assert engine.trace.records[0].op == "boot"
        err = expect_code(ErrorCode.MALFORMED_LOG, Oracle().replay,
                          engine.trace.records[1:])
        assert err.message == "no boot record"


class TestConservation:
    @pytest.mark.parametrize("seed", (3, 11))
    def test_no_page_exclusive_twice(self, seed):
        driver = FuzzDriver(seed=seed)
        driver.run(600)
        owners_of_exclusive: dict[int, list[int]] = {}
        for dom_id, view in driver.engine.page_access_map().items():
            for page, byte in enumerate(view):
                if byte & EXCLUSIVE_BIT:
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
        # the per-core cached view must agree with the oracle's model of
        # the current domain after any operation sequence
        driver = FuzzDriver(seed=seed)
        driver.run(700)
        engine = driver.engine
        page_maps = driver.oracle.address_map()
        for core in engine.cores:
            pages = page_maps[core.current]
            for page in range(16):
                addr = page * PAGE + 8
                for kind, bit in (("R", 4), ("W", 2), ("X", 1)):
                    expected = bool(pages.get(page, (0, False))[0] & bit)
                    got = engine.platform.mem_access(core.id, addr, kind)
                    assert got == expected, \
                        (core.id, core.current, hex(addr), kind)


def capmon_imports(source: str) -> set[str]:
    """The capmon modules a module's source imports, by name; `capmon`
    stands for the package itself."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "capmon." + module if module else "capmon"
            names = [module] if module != "capmon" else \
                ["capmon." + alias.name for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "capmon":
                found.add(parts[1] if len(parts) > 1 else "capmon")
    return found


class TestOracleIndependence:
    def test_import_walk_sees_every_form(self):
        source = ("from .engine import Engine\nimport capmon.regions\n"
                  "from capmon import state\nfrom . import machine\n"
                  "import capmon\nimport json\n")
        assert capmon_imports(source) == {
            "engine", "regions", "state", "machine", "capmon"}

    def test_oracle_imports_only_errors_and_trace(self):
        # the differential test holds only while the oracle shares no code
        # with the engine it checks
        source = Path(oracle_mod.__file__).read_text()
        assert capmon_imports(source) <= {"errors", "trace"}


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
