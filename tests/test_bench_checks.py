"""The benchmark's own checks, run once at small size on each workload: a
change that breaks the `fuzz_checked` rejection and oracle checks, the
`guest_mem` access verdicts, or the `tenant_sessions` signature, PCR,
verdict or CLEAN checks fails here, not only in a benchmark run.  So does a
change that deletes or renames a name the benchmark's self-tests plant
faults in or its layer tracer wraps, one that lets the platform's
access log grow with the round, one that rebuilds a view a round or a
set-up does not change, and one that lets a view outgrow the machine."""

import io
import sys
import unittest
from pathlib import Path

import pytest

from capmon import engine as engine_mod
from capmon.machine import LOG_KEEP, boot
from capmon.regions import PAGE, RegionTree

# the workload modules import each other by module name
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import fuzz_checked  # noqa: E402
import guest_mem  # noqa: E402
import harness  # noqa: E402
import selftest  # noqa: E402
import tenant_sessions  # noqa: E402
import tracing  # noqa: E402


def test_tenant_sessions_round_passes_its_checks():
    res = harness.run_round(tenant_sessions.TenantSessions(seed=1, sessions=8))
    assert res.failed == 0, res.messages
    assert res.ops == 4 * 8


def test_fuzz_checked_round_passes_its_checks():
    res = harness.run_round(fuzz_checked.FuzzChecked(seed=1, segments=3,
                                                     steps=200))
    assert res.failed == 0, res.messages
    assert res.counts["accepted"] > 0 and res.counts["rejected"] > 0


def test_guest_mem_round_passes_its_checks():
    res = harness.run_round(guest_mem.GuestMem(seed=1, ops=600))
    assert res.failed == 0, res.messages
    assert res.ops == 600


def test_guest_mem_round_keeps_a_bounded_access_log():
    # a round of 600 ops makes about 9,600 accesses; the platform keeps
    # only the newest LOG_KEEP of them
    res = harness.run_round(guest_mem.GuestMem(seed=1, ops=600))
    assert res.failed == 0, res.messages
    assert res.counts["access_log"] == LOG_KEEP


def test_guest_mem_views_take_one_byte_per_page():
    workload = guest_mem.GuestMem(seed=1, ops=600)
    st = workload.setup(None)
    engine = st.engine
    top = engine.platform.config.address_top // PAGE
    views = {dom: engine.view_cache_for(dom) for dom in engine.domains}
    # td0 reaches RAM only, as the device's MMIO is carved away from it;
    # the device reaches RAM and its MMIO page
    assert len(views[st.td0]) == 512
    assert len(views[st.device]) == 513 == top
    assert all(len(view) <= top for view in views.values())


def test_guest_mem_round_rebuilds_only_the_device_view(monkeypatch):
    builds = []
    patch = engine_mod.Engine._patch_view

    def counted(engine, dom, *window):
        builds.append(dom.id)
        return patch(engine, dom, *window)

    monkeypatch.setattr(engine_mod.Engine, "_patch_view", counted)

    class Counted(guest_mem.GuestMem):
        def setup(self, spec):
            st = super().setup(spec)
            builds.clear()
            return st

    res = harness.run_round(Counted(seed=1, ops=600))
    assert res.failed == 0, res.messages
    # every table, the device's included, is built at boot and patched by
    # the calls that change it, none of which a round makes; the guests'
    # 36-segment views and td0's are reused across every switch and fault
    assert builds == []


def test_guest_mem_setup_patches_without_sweeping_the_root(monkeypatch):
    # the device's RAM alias makes the root's view one aliased segment, so
    # the host's aliases of the root and their sends change neither the
    # root's view nor td0's table
    after_boot = {}
    sweeps = []
    sweep = RegionTree._sweep

    def counted_sweep(tree, node, window=None):
        sweeps.append(node.id)
        return sweep(tree, node, window)

    def counted_boot(config):
        engine, td0, measurement = boot(config)
        after_boot.update(table=engine.view_cache_for(td0),
                          root=engine.tree.nodes[engine.root_region]._view)
        sweeps.clear()
        return engine, td0, measurement

    monkeypatch.setattr(RegionTree, "_sweep", counted_sweep)
    monkeypatch.setattr(guest_mem, "boot", counted_boot)
    st = guest_mem.GuestMem(seed=1).setup(None)
    engine = st.engine
    assert len(engine.tree.nodes) == 3 + 72
    # no region is swept after boot, the root included
    assert sweeps == [], sweeps
    assert engine.view_cache_for(st.td0) is after_boot["table"]
    assert engine.tree.nodes[engine.root_region]._view is after_boot["root"]


def test_benchmark_selftest_passes():
    suite = unittest.defaultTestLoader.loadTestsFromModule(selftest)
    result = unittest.TextTestRunner(stream=io.StringIO()).run(suite)
    assert result.testsRun > 0
    assert result.wasSuccessful(), result.failures + result.errors


@pytest.mark.parametrize("name",
                         ["fuzz_checked", "guest_mem", "tenant_sessions"])
def test_traced_round_passes_its_checks(name):
    workload = selftest.small(name)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        res = harness.run_round(workload, tracer)
    finally:
        tracer.uninstall()
    assert res.failed == 0, res.messages
    assert tracer.ops == res.ops > 0
