"""The benchmark's own checks, run once at small size on each workload: a
change that breaks the `fuzz_checked` rejection and oracle checks, the
`guest_mem` access verdicts, or the `tenant_sessions` signature, PCR,
verdict or CLEAN checks fails here, not only in a benchmark run.  So does a
change that deletes or renames a name the benchmark's self-tests plant
faults in or its layer tracer wraps, and one that lets the platform's
access log grow with the round."""

import io
import sys
import unittest
from pathlib import Path

import pytest

from capmon.machine import LOG_KEEP

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
