"""The simulated monitor-call ABI: call id in register 0, arguments in
registers 1..6, results in registers 0..3, large outputs drained through a
continuation token."""

from hypothesis import given, settings, strategies as st

from capmon import AttestationReport, Rights
from capmon.domains import (
    ALL_CALLS_MASK, ApiCall, CapKind, InterruptPolicy, PayloadCode, Visibility,
)
from capmon.engine import MAX_UNDRAINED
from capmon.errors import ErrorCode
from capmon.regions import PAGE
from capmon.state import dump_state

from support import make_child, small_engine

A = [PAGE * (1 + k) for k in range(8)]


def load(engine, core, call_id, *args):
    """Put a call id and its arguments in the current domain's registers."""
    regs = engine.domains[engine.current_domain(core)].core_regs(core)
    regs[0] = int(call_id)
    for i, value in enumerate(args):
        regs[1 + i] = value
    for i in range(len(args), 6):
        regs[1 + i] = 0


def call(engine, core, call_id, *args):
    """Load registers, trap into the monitor, read the result registers."""
    load(engine, core, call_id, *args)
    engine.monitor_call(core)
    out = engine.domains[engine.current_domain(core)].core_regs(core)
    return out[0], out[1], out[2], out[3]


def drain(engine, core, call_id, token, total):
    blob = b""
    while len(blob) < total:
        status, n, lo, hi = call(engine, core, call_id, 0, token)
        assert status == 0
        chunk = lo.to_bytes(8, "little") + hi.to_bytes(8, "little")
        blob += chunk[:n]
    return blob


class TestAbiLifecycle:
    def test_full_flow_through_registers(self):
        engine, td0 = small_engine()

        status, handle, _, _ = call(engine, 0, ApiCall.CREATE)
        assert status == 0

        # set cores = 0b01 (sub-op 2 = set policy, field 0 = cores)
        status, *_ = call(engine, 0, ApiCall.SET_GET, 2, handle, 0, 0b01)
        assert status == 0
        # set mon_api = everything (field 1)
        status, *_ = call(engine, 0, ApiCall.SET_GET, 2, handle, 1, 0x7FF)
        assert status == 0
        # set register 3 on core 0 (sub-op 0)
        status, *_ = call(engine, 0, ApiCall.SET_GET, 0, handle, 0, 3, 0xAB)
        assert status == 0
        # read it back (sub-op 1)
        status, value, _, _ = call(engine, 0, ApiCall.SET_GET, 1, handle, 0, 3)
        assert status == 0 and value == 0xAB

        # carve a region from the root (handle 0) and send it over
        status, region_handle, _, _ = call(engine, 0, ApiCall.CARVE,
                                           0, A[0], A[2], int(Rights.RWX))
        assert status == 0
        status, *_ = call(engine, 0, ApiCall.SEND, region_handle, handle, 0)
        assert status == 0

        status, *_ = call(engine, 0, ApiCall.SEAL, handle)
        assert status == 0

        # switch into the child (handle encoded +1; 0 means return)
        dom = engine.domains[td0].owned.get(handle).ref
        status_ignored = call(engine, 0, ApiCall.SWITCH, handle + 1)
        assert engine.current_domain(0) == dom

        # child returns; td0's switch completes with the return payload
        ret = call(engine, 0, ApiCall.SWITCH, 0)
        assert engine.current_domain(0) == td0
        assert ret[0] == PayloadCode.RETURNED

    def test_alias_and_revoke_via_registers(self):
        engine, td0 = small_engine()
        status, alias_handle, _, _ = call(engine, 0, ApiCall.ALIAS,
                                          0, A[0], A[1], int(Rights.RW))
        assert status == 0
        status, *_ = call(engine, 0, ApiCall.REVOKE, 0, 0)
        assert status == 0
        assert len(engine.tree.nodes) == 1  # only the root remains

    def test_getchan_via_registers(self):
        engine, td0 = small_engine()
        status, chan, _, _ = call(engine, 0, ApiCall.GETCHAN, 0)  # self
        assert status == 0
        entry = engine.domains[td0].owned.get(chan)
        assert entry.kind is CapKind.CHANNEL and entry.ref == td0


class TestAbiSetGet:
    def test_every_policy_field_and_visibility_by_id(self):
        engine, td0 = small_engine()
        status, handle, *_ = call(engine, 0, ApiCall.CREATE)
        assert status == 0
        dom = engine.domains[td0].owned.get(handle).ref
        # field ids 0-3: cores, mon_api, user_calls, receive
        values = [0b10, ALL_CALLS_MASK & ~(1 << ApiCall.CREATE), 1, 1]
        for field_id, value in enumerate(values):
            assert call(engine, 0, ApiCall.SET_GET, 2, handle, field_id,
                        value)[0] == 0
        for field_id, value in enumerate(values):
            assert call(engine, 0, ApiCall.SET_GET, 3, handle,
                        field_id) == (0, value, handle, field_id)
        assert [engine.get_policy(td0, handle, name) for name in
                ("cores", "mon_api", "user_calls", "receive")] == values
        # visibility ids 0-2: deliver, report, not report
        for vis_id in range(3):
            assert call(engine, 0, ApiCall.SET_GET, 4, handle, 40 + vis_id,
                        vis_id, 1 << vis_id)[0] == 0
        assert [engine.domains[dom].policies.interrupt(40 + vis_id)
                for vis_id in range(3)] == [
            InterruptPolicy(Visibility.DELIVER, 0b1),
            InterruptPolicy(Visibility.REPORT, 0b10),
            InterruptPolicy(Visibility.NOT_REPORT, 0b100)]
        # one id past each table, and one sub-op past the last
        for registers in ((2, handle, 4, 1), (3, handle, 4),
                          (4, handle, 43, 3, 0), (5, handle)):
            load(engine, 0, ApiCall.SET_GET, *registers)
            expected = dump_state(engine)
            expected["domains"][td0]["regs"]["0"][0] = int(
                ErrorCode.BAD_HANDLE)
            engine.monitor_call(0)
            assert dump_state(engine) == expected, registers


class TestAbiErrors:
    def test_error_code_in_register_zero(self):
        engine, td0 = small_engine()
        status, *_ = call(engine, 0, ApiCall.SEAL, 99)
        assert status == ErrorCode.BAD_HANDLE

    def test_unknown_call_id(self):
        engine, td0 = small_engine()
        status, *_ = call(engine, 0, 77)
        assert status == ErrorCode.BAD_HANDLE

    def test_user_space_gate(self):
        engine, td0 = small_engine()
        dom, handle = make_child(engine, td0, seal=False)
        engine.set_policy(td0, handle, "mon_api", 0x7FF)
        engine.set_policy(td0, handle, "cores", 0b11)
        # user_calls stays off for the child
        engine.seal(td0, handle)
        engine.switch(td0, 0, handle)
        caller = engine.current_domain(0)
        regs = engine.domains[caller].core_regs(0)
        regs[0] = int(ApiCall.GETCHAN)
        regs[1] = 0
        engine.monitor_call(0, user=True)
        assert regs[0] == ErrorCode.POLICY_DENIED
        regs[0] = int(ApiCall.GETCHAN)
        regs[1] = 0
        engine.monitor_call(0)  # kernel-mode call passes
        assert regs[0] == 0

    def test_policy_denied_via_abi(self):
        engine, td0 = small_engine()
        dom, handle = make_child(engine, td0, mon_api=0)
        engine.switch(td0, 0, handle)
        status, *_ = call(engine, 0, ApiCall.CREATE)
        assert status == ErrorCode.POLICY_DENIED


class TestAbiContinuation:
    def test_attestation_bytes_via_continuation(self):
        engine, td0 = small_engine()
        dom, handle = make_child(engine, td0)
        # subject register: a handle plus one, or 0 for the caller itself
        for subject, direct in ((handle + 1, engine.attest(td0, handle)),
                                (0, engine.attest(td0))):
            status, total, token, _ = call(engine, 0, ApiCall.ATTEST,
                                           subject, 0)
            assert status == 0 and total > 0 and token != 0
            blob = drain(engine, 0, ApiCall.ATTEST, token, total)
            assert blob == direct.to_bytes()
            assert AttestationReport.from_bytes(blob).to_bytes() == blob

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(st.integers(0, 300), st.integers(0, 19).map(
        lambda k: 16 * k)).flatmap(lambda n: st.binary(min_size=n,
                                                       max_size=n)))
    def test_drain_returns_every_byte(self, blob):
        engine, td0 = small_engine()
        token = engine._issue_buffer(td0, blob)
        drains = []
        engine.process_updates = lambda core, run=engine.process_updates: (
            drains.append(core), run(core))
        offsets = range(0, max(len(blob), 1), 16)
        got = b""
        for offset in offsets:
            assert token in engine._buffers
            status, n, lo, hi = call(engine, 0, ApiCall.ATTEST, 0, token)
            chunk = blob[offset:offset + 16]
            padded = chunk.ljust(16, b"\0")
            assert (status, n, lo, hi) == (
                0, len(chunk), int.from_bytes(padded[:8], "little"),
                int.from_bytes(padded[8:], "little"))
            got += (lo | hi << 64).to_bytes(16, "little")[:n]
        assert got == blob
        # every drain ran the core's pending updates, and the last one
        # freed the token
        assert drains == [0] * len(offsets)
        assert token not in engine._buffers
        assert call(engine, 0, ApiCall.ATTEST, 0, token)[0] == \
            ErrorCode.BAD_CURSOR

    def test_enumerate_via_continuation(self):
        engine, td0 = small_engine()
        status, nxt, token, total = call(engine, 0, ApiCall.ENUMERATE, 0, 0)
        assert status == 0 and token != 0
        blob = drain(engine, 0, ApiCall.ENUMERATE, token, total)
        assert blob.decode().startswith("region exclusive")

    def test_stale_token_rejected(self):
        engine, td0 = small_engine()
        status, *_ = call(engine, 0, ApiCall.ATTEST, 0, 12345)
        assert status == ErrorCode.BAD_CURSOR

    def test_foreign_token_rejected(self):
        engine, td0 = small_engine()
        dom, handle = make_child(engine, td0)
        engine.switch(td0, 1, handle)
        status, nxt, token, total = call(engine, 0, ApiCall.ENUMERATE, 0, 0)
        assert status == 0 and token != 0
        status, *_ = call(engine, 1, ApiCall.ENUMERATE, 0, token)
        assert status == ErrorCode.BAD_CURSOR
        blob = drain(engine, 0, ApiCall.ENUMERATE, token, total)
        assert blob.decode().startswith("region exclusive")

    def test_revoke_drops_undrained_buffers(self):
        engine, td0 = small_engine()
        dom, handle = make_child(engine, td0)
        engine.switch(td0, 1, handle)
        status, *_ = call(engine, 1, ApiCall.ATTEST, 0, 0)
        assert status == 0
        status, *_ = call(engine, 0, ApiCall.ENUMERATE, 0, 0)
        assert status == 0
        engine.revoke_domain(td0, handle)
        assert [owner for _, owner, _, _ in dump_state(engine)["buffers"]] \
            == [td0]

    def test_undrained_outputs_are_capped(self):
        engine, td0 = small_engine()
        status, total, token, _ = call(engine, 0, ApiCall.ATTEST, 0, 0)
        assert status == 0
        codes = [call(engine, 0, ApiCall.ATTEST, 0, 0)[0] for _ in range(999)]
        assert codes == [0] * (MAX_UNDRAINED - 1) + \
            [ErrorCode.OUT_OF_METADATA] * (1000 - MAX_UNDRAINED)
        assert len(dump_state(engine)["buffers"]) == MAX_UNDRAINED
        # draining one output makes room for the next
        drain(engine, 0, ApiCall.ATTEST, token, total)
        assert call(engine, 0, ApiCall.ATTEST, 0, 0)[0] == 0


class TestAbiRejections:
    def test_rejected_calls_change_only_register_zero(self):
        engine, td0 = small_engine()
        # user calls stay off and the REVOKE bit is clear for the child
        dom, handle = make_child(
            engine, td0, mon_api=ALL_CALLS_MASK & ~(1 << ApiCall.REVOKE))
        engine.switch(td0, 1, handle)
        status, _, token, _ = call(engine, 0, ApiCall.ENUMERATE, 0, 0)
        assert status == 0
        for _ in range(MAX_UNDRAINED - 1):  # td0 then holds the most it may
            assert call(engine, 0, ApiCall.ATTEST, 0, 0)[0] == 0
        cases = [  # core, user mode, registers, expected error, trace line
            (0, False, (ApiCall.ATTEST, 0, 12345), ErrorCode.BAD_CURSOR,
             "abi call=4"),
            (1, False, (ApiCall.ENUMERATE, 0, token), ErrorCode.BAD_CURSOR,
             "abi call=5"),
            (1, True, (ApiCall.GETCHAN, 0), ErrorCode.POLICY_DENIED,
             "abi call=0xa"),
            (0, False, (77,), ErrorCode.BAD_HANDLE, "abi call=0x4d"),
            # ids past the table, and one that must not index it from
            # its end
            (0, False, (len(ApiCall),), ErrorCode.BAD_HANDLE,
             "abi call=0xb"),
            (0, False, (-1,), ErrorCode.BAD_HANDLE, "abi call=-1"),
            (0, False, (2 ** 64 - 1,), ErrorCode.BAD_HANDLE,
             "abi call=0xffffffffffffffff"),
            (0, False, (ApiCall.SET_GET, 5, handle), ErrorCode.BAD_HANDLE,
             "abi call=1"),
            (0, False, (ApiCall.SET_GET, 2, handle, 4, 1),
             ErrorCode.BAD_HANDLE, "abi call=1"),
            (0, False, (ApiCall.SET_GET, 4, handle, 9, 3, 0),
             ErrorCode.BAD_HANDLE, "abi call=1"),
            (0, False, (ApiCall.ALIAS, 0, A[2], A[0], int(Rights.RW)),
             ErrorCode.INVALID_RANGE, "abi call=7"),
            (0, False, (ApiCall.CARVE, 0, A[0], A[0] + 1, int(Rights.RW)),
             ErrorCode.INVALID_RANGE, "abi call=8"),
            (1, False, (ApiCall.REVOKE, 99), ErrorCode.POLICY_DENIED,
             "revoke_domain handle=0x63"),
            (0, False, (ApiCall.ATTEST, 0, 0), ErrorCode.OUT_OF_METADATA,
             "abi call=4"),
        ]
        for core, user, registers, code, line in cases:
            load(engine, core, *registers)
            expected = dump_state(engine)
            caller = engine.current_domain(core)
            record = next(d for d in expected["domains"] if d["id"] == caller)
            record["regs"][str(core)][0] = int(code)
            # the dump is a copy: editing it leaves the registers alone
            assert engine.domains[caller].core_regs(core)[0] == registers[0]
            traced = len(engine.trace.records)
            engine.monitor_call(core, user=user)
            assert dump_state(engine) == expected, registers
            op, detail = line.split(" ", 1)
            lines = [r.to_line() for r in engine.trace.records[traced:]]
            assert lines == [f"0 {core} {op} caller={caller} {detail} "
                             f"-> err={code.name}"], registers
