"""The benchmark's own checks, run once at small size on each workload: a
change that breaks the `fuzz_checked` rejection and oracle checks, the
`guest_mem` access verdicts, or the `tenant_sessions` signature, PCR,
verdict or CLEAN checks fails here, not only in a benchmark run."""

import sys
from pathlib import Path

# the workload modules import each other by module name
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import fuzz_checked  # noqa: E402
import guest_mem  # noqa: E402
import harness  # noqa: E402
import tenant_sessions  # noqa: E402


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
