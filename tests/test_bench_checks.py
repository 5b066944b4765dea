"""The benchmark's own checks, run once at small size: a change to the
register ABI or the report codec that breaks the `tenant_sessions`
signature, PCR, verdict or CLEAN checks fails here, not only in a
benchmark run."""

import sys
from pathlib import Path

# the workload modules import each other by module name
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import harness  # noqa: E402
import tenant_sessions  # noqa: E402


def test_tenant_sessions_round_passes_its_checks():
    res = harness.run_round(tenant_sessions.TenantSessions(seed=1, sessions=8))
    assert res.failed == 0, res.messages
    assert res.ops == 4 * 8
