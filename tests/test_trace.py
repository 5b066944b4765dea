"""Operation-log record format: stable lines, exact round trips,
malformed-input rejection, and a golden trace of every op."""

from pathlib import Path

import pytest

from capmon import PhysRange, Rights, Visibility
from capmon.domains import ALL_CALLS_MASK, ApiCall, CapKind
from capmon.errors import ErrorCode, MonitorError
from capmon.regions import PAGE
from capmon.trace import OpRecord, parse_log

from support import small_engine

A = [PAGE * (1 + k) for k in range(8)]


class TestLineFormat:
    def test_ok_record_round_trip(self):
        rec = OpRecord(12, 1, "carve",
                       {"caller": 0, "handle": 2, "start": 0x102000,
                        "end": 0x105000, "rights": "RWX"},
                       True, "", {"region": 7, "status": "exclusive"})
        line = rec.to_line()
        again = OpRecord.from_line(line)
        assert again == rec
        assert again.to_line() == line

    def test_err_record_round_trip(self):
        rec = OpRecord(3, 0, "alias", {"caller": 1}, False, "OUT_OF_RANGE")
        assert OpRecord.from_line(rec.to_line()) == rec

    def test_values_stay_single_token(self):
        rec = OpRecord(1, 0, "send", {"attrs": 7}, True, "", {"to": 2})
        for token in rec.to_line().split():
            assert " " not in token

    def test_hex_rendering_for_large_values(self):
        rec = OpRecord(0, 0, "boot", {"mem": 0x200000, "cores": 2})
        line = rec.to_line()
        assert "mem=0x200000" in line
        assert "cores=2" in line


class TestMalformed:
    @pytest.mark.parametrize("line", [
        "",
        "1 2",
        "x y boot a=1 -> ok",
        "1 0 boot a=1",
        "1 0 boot a=1 -> maybe",
        "1 0 boot noequals -> ok",
    ])
    def test_bad_lines_rejected(self, line):
        with pytest.raises(MonitorError) as err:
            OpRecord.from_line(line)
        assert err.value.code is ErrorCode.MALFORMED_LOG

    def test_parse_log_skips_comments_and_blanks(self):
        text = ("# header comment\n"
                "\n"
                "1 0 create caller=0 -> ok dom=1 handle=1\n")
        records = parse_log(text)
        assert len(records) == 1
        assert records[0].op == "create"


# ---------------------------------------------------------------------------
# a golden trace of every op: each monitor call accepted once and rejected
# once, both gate rejections, every kind of irq line and an abi rejection
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden" / "every_op.trace"


def rejected(fn, *args):
    with pytest.raises(MonitorError):
        fn(*args)


def every_op_trace() -> str:
    engine, td0 = small_engine()
    root = engine.domains[td0].owned.find(CapKind.REGION, engine.root_region)

    # td0 configures child a: REPORT on 5, DELIVER on 6
    ha = engine.create(td0)
    a = engine.domains[td0].owned.get(ha).ref
    rejected(engine.create, a)                      # gate: POLICY_DENIED
    engine.set_policy(td0, ha, "cores", 0b11)
    engine.set_policy(td0, ha, "mon_api", ALL_CALLS_MASK)
    rejected(engine.create, a)                      # NOT_RUNNING
    rejected(engine.set_policy, td0, ha, "nope", 1)
    assert engine.get_policy(td0, ha, "cores") == 0b11
    rejected(engine.get_policy, td0, 99, "cores")
    engine.set_register(td0, ha, 1, 2, 7)
    rejected(engine.set_register, td0, ha, 5, 0, 1)
    assert engine.get_register(td0, ha, 1, 2) == 7
    rejected(engine.get_register, td0, ha, 1, 99)
    engine.set_interrupt_policy(td0, ha, 5, Visibility.REPORT, 0b11)
    engine.set_interrupt_policy(td0, ha, 6, Visibility.DELIVER)
    rejected(engine.set_interrupt_policy, td0, ha, 300, Visibility.DELIVER)

    # regions: a carve for a, an alias td0 keeps and revokes
    carved = engine.tree_carve(td0, root, PhysRange(A[0], A[4]), Rights.RW)
    rejected(engine.tree_carve, td0, ha, PhysRange(A[0], A[1]), Rights.R)
    aliased = engine.tree_alias(td0, root, PhysRange(A[5], A[6]), Rights.R)
    rejected(engine.tree_alias, td0, aliased, PhysRange(A[5], A[6]),
             Rights.RW)
    engine.send(td0, carved, ha)
    rejected(engine.send, td0, ha, ha)
    engine.revoke_region(td0, root, 0)
    rejected(engine.revoke_region, td0, root, 9)
    engine.seal(td0, ha)
    rejected(engine.seal, td0, ha)
    chan = engine.getchan(td0)
    rejected(engine.getchan, td0, 99)
    engine.enumerate(td0, chan)
    rejected(engine.enumerate, td0, 999)
    engine.attest(td0, chan)
    rejected(engine.attest, td0, 99)

    # a runs on core 1 and starts grandchild b, REPORT on 5
    engine.switch(td0, 1, ha)
    rejected(engine.switch, td0, 1, ha)
    hb = engine.create(a)
    engine.set_policy(a, hb, "cores", 0b10)
    engine.set_policy(a, hb, "mon_api", 1 << ApiCall.SWITCH)
    engine.set_interrupt_policy(a, hb, 5, Visibility.REPORT)
    engine.seal(a, hb)
    b = engine.domains[a].owned.get(hb).ref
    engine.route_interrupt(1, 6)                    # in place, in a
    engine.switch(a, 1, hb)
    rejected(engine.getchan, b)                     # gate: POLICY_DENIED

    # 5 goes to td0 over b and a; a observes it and defers 8, which b's
    # resume routes to td0
    engine.route_interrupt(1, 5)
    drive = engine.domains[td0].owned.find(CapKind.DOMAIN, a)
    engine.switch(td0, 1, drive)
    engine.route_interrupt(1, 8)                    # deferred
    engine.switch(a, 1, hb)
    engine.switch(td0, 1, drive)
    rejected(engine.route_interrupt, 1, 300)

    # a device vector on the lowest core, then a quantum on core 1
    engine.route_device_interrupt(9)
    engine.set_quantum(2)
    engine.switch(b, 1)
    engine.switch(a, 1, hb)
    engine.platform.tick(2)

    # the register ABI rejects an unknown call id before any call runs
    engine.domains[td0].core_regs(0)[0] = 99
    engine.monitor_call(0)

    engine.revoke_domain(td0, ha)
    rejected(engine.revoke_domain, td0, ha)
    rejected(engine.create, a)                      # gate: DOMAIN_REVOKED
    return engine.trace.dump()


def test_every_op_golden():
    assert every_op_trace() == GOLDEN.read_text()
