"""The simulated monitor-call ABI: call id in register 0, arguments in
registers 1..6, results in registers 0..3, large outputs drained through a
continuation token."""

import pytest
from hypothesis import given, settings, strategies as st

from capmon import AttestationReport, Oracle, PhysRange, Rights
from capmon.domains import (
    ALL_CALLS_MASK, ApiCall, CapKind, InterruptPolicy, PayloadCode, Visibility,
)
from capmon.engine import MAX_UNDRAINED
from capmon.errors import ErrorCode, MonitorError
from capmon.regions import PAGE
from capmon.state import dump_state, load_state

from support import (
    carve_to, frames_entered, hold_drains, make_child, small_engine,
)

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
        # ATTEST and ENUMERATE drain by one rule, a length that is a
        # multiple of 16 and one that is not alike
        for call_id in (ApiCall.ATTEST, ApiCall.ENUMERATE):
            engine, td0 = small_engine()
            token = engine._issue_buffer(td0, call_id, blob)
            drains = []
            engine.process_updates = lambda core, run=engine.process_updates: (
                drains.append(core), run(core))[1]
            offsets = range(0, max(len(blob), 1), 16)
            got = b""
            for offset in offsets:
                assert token in engine._buffers
                status, n, lo, hi = call(engine, 0, call_id, 0, token)
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
            assert call(engine, 0, call_id, 0, token)[0] == \
                ErrorCode.BAD_CURSOR

    def test_half_drained_token_survives_a_reload(self):
        engine, td0 = small_engine()
        status, total, token, _ = call(engine, 0, ApiCall.ATTEST, 0, 0)
        assert status == 0
        full = engine._buffers[token][2]
        half = total // 32 * 16
        head = drain(engine, 0, ApiCall.ATTEST, token, half)
        reloaded = load_state(dump_state(engine))
        assert reloaded._buffers == engine._buffers
        rests = [drain(e, 0, ApiCall.ATTEST, token, total - half)
                 for e in (engine, reloaded)]
        assert rests[0] == rests[1] and head + rests[0] == full
        assert token not in reloaded._buffers

    def test_successful_drain_changes_only_registers_and_offset(self):
        engine, td0 = small_engine()
        status, total, token, _ = call(engine, 0, ApiCall.ATTEST, 0, 0)
        assert status == 0
        traced = len(engine.trace.records)
        offset = 0
        while offset < total:
            load(engine, 0, ApiCall.ATTEST, 0, token)
            expected = dump_state(engine)
            engine.monitor_call(0)
            regs = engine.domains[td0].core_regs(0)
            n = min(16, total - offset)
            assert regs[0] == 0 and regs[1] == n
            offset += 16
            # the caller's registers 0-3, and the token's offset or, after
            # the last chunk, the token itself
            dom = next(d for d in expected["domains"] if d["id"] == td0)
            dom["regs"]["0"][:4] = regs[:4]
            if offset < total:
                expected["buffers"][0][4] = offset
            else:
                del expected["buffers"][0]
            assert dump_state(engine) == expected
            assert len(engine.trace.records) == traced
        assert token not in engine._buffers

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

    def test_token_drains_only_through_its_call(self):
        engine, td0 = small_engine()
        status, total, token, _ = call(engine, 0, ApiCall.ATTEST, 0, 0)
        assert status == 0
        status, _, chan_token, chan_total = call(engine, 0,
                                                 ApiCall.ENUMERATE, 0, 0)
        assert status == 0
        for call_id, other in ((ApiCall.ENUMERATE, token),
                               (ApiCall.ATTEST, chan_token)):
            load(engine, 0, call_id, 0, other)
            expected = dump_state(engine)
            record = next(d for d in expected["domains"] if d["id"] == td0)
            record["regs"]["0"][0] = int(ErrorCode.BAD_CURSOR)
            traced = len(engine.trace.records)
            engine.monitor_call(0)
            assert dump_state(engine) == expected
            assert [r.to_line() for r in engine.trace.records[traced:]] == \
                [f"0 0 abi caller={td0} call={int(call_id)} "
                 f"-> err=BAD_CURSOR"]
        # both outputs still drain whole through the call that issued them
        blob = drain(engine, 0, ApiCall.ATTEST, token, total)
        assert AttestationReport.from_bytes(blob).to_bytes() == blob
        assert drain(engine, 0, ApiCall.ENUMERATE, chan_token, chan_total) \
            .decode().startswith("region exclusive")

    def test_revoke_drops_undrained_buffers(self):
        engine, td0 = small_engine()
        dom, handle = make_child(engine, td0)
        engine.switch(td0, 1, handle)
        status, *_ = call(engine, 1, ApiCall.ATTEST, 0, 0)
        assert status == 0
        status, *_ = call(engine, 0, ApiCall.ENUMERATE, 0, 0)
        assert status == 0
        engine.revoke_domain(td0, handle)
        assert [owner for _, owner, *_ in dump_state(engine)["buffers"]] \
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

    def test_enumerate_past_the_last_entry_ends(self):
        # td0's table ends in a hole once its channel is sent away
        engine, td0 = small_engine()
        _, handle = make_child(engine, td0, seal=False)
        engine.send(td0, engine.getchan(td0), handle)
        slots = engine.domains[td0].owned.slots
        assert slots[-1] is None
        token = engine._next_token
        for cursor in (len(slots) - 1, len(slots)):
            load(engine, 0, ApiCall.ENUMERATE, cursor, 0, 7)
            engine.monitor_call(0)
            assert engine.domains[td0].core_regs(0)[:4] == [0, len(slots),
                                                            0, 0]
        assert engine._buffers == {} and engine._next_token == token


DRAINS = pytest.mark.parametrize("call_id",
                                 [ApiCall.ATTEST, ApiCall.ENUMERATE],
                                 ids=("attest", "enumerate"))


def issue(engine, core, call_id):
    """Issue an ATTEST on the caller itself, or an ENUMERATE from cursor 0,
    through the registers; the token the output drains through."""
    status, _, token, _ = call(engine, core, call_id, 0, 0)
    assert status == 0 and token in engine._buffers
    return token


class TestAbiDrain:
    """A drain is decided and answered in monitor_call's own frame, after
    the core's drain and the user_calls gate."""

    @DRAINS
    def test_a_drain_enters_three_frames(self, call_id):
        # pins the drain's depth: no handler or buffer helper frame runs
        # under monitor_call, and step mode takes no engine lock, so no
        # frame from any source enters a lock's __enter__ or __exit__
        engine, td0 = small_engine()
        token = issue(engine, 0, call_id)
        assert len(engine._buffers[token][2]) > 32
        load(engine, 0, call_id, 0, token)
        _, names = frames_entered(engine.monitor_call, 0)
        assert engine.domains[td0].core_regs(0)[:2] == [0, 16]
        assert engine._buffers[token][3] == 16
        assert names == ["monitor_call", "process_updates", "core_regs"]

    @DRAINS
    def test_user_drain_is_gated_before_its_token(self, call_id):
        engine, td0 = small_engine()
        # the child may make every call, but user calls stay off for it
        dom, handle = make_child(engine, td0, seal=False)
        carve_to(engine, td0, handle, PhysRange(A[0], A[2]))
        engine.seal(td0, handle)
        engine.switch(td0, 0, handle)
        token = issue(engine, 0, call_id)
        # its own token, and one never issued: both denied by the gate
        for word in (token, 12345):
            load(engine, 0, call_id, 0, word)
            expected = dump_state(engine)
            record = next(d for d in expected["domains"] if d["id"] == dom)
            record["regs"]["0"][0] = int(ErrorCode.POLICY_DENIED)
            traced = len(engine.trace.records)
            engine.monitor_call(0, user=True)
            assert dump_state(engine) == expected
            assert [r.to_line() for r in engine.trace.records[traced:]] == \
                [f"{engine.platform.now} 0 abi caller={dom} "
                 f"call={int(call_id)} -> err=POLICY_DENIED"]
        assert engine._buffers[token][3] == 0
        # in kernel mode the same token drains from its start
        assert call(engine, 0, call_id, 0, token)[:2] == (0, 16)
        assert engine._buffers[token][3] == 16

    @DRAINS
    def test_an_unwound_core_makes_no_call(self, call_id):
        # td0 loads a drain of its own token on core 0 and switches to a
        # child; the child is revoked with the core's drain held back, and a
        # vector td0 takes in place waits for that drain
        engine, td0 = small_engine()
        token = issue(engine, 0, call_id)
        load(engine, 0, call_id, 0, token)
        dom, handle = make_child(engine, td0)
        engine.switch(td0, 0, handle)
        hold_drains(engine)
        engine.revoke_domain(td0, handle)
        assert engine.route_device_interrupt(0x21) is None
        cs = engine.cores[0]
        seen = []
        engine.process_updates = lambda core, run=engine.process_updates: (
            seen.append((core, engine._held_cut(cs))), run(core))[1]
        traced = len(engine.trace.records)
        engine.monitor_call(0)
        # the drain ran first and cut the core's path at the child
        assert seen == [(0, 1)]
        assert engine._held_cut(cs) is None and cs.deferred_vectors == []
        assert not engine.domains.held
        assert [(r.op, r.args, r.results) for r in
                engine.trace.records[traced:]] == \
            [("irq", {"vector": 0x21, "deferred": 1},
              {"handler": td0, "delivered": "inplace"})]
        # td0 runs at the registers it switched with, under the payload, and
        # no call decoded them: the token was not drained
        assert cs.current == td0
        assert engine.domains[td0].core_regs(0)[:4] == [
            PayloadCode.REVOKED_CHILD, dom, token, 0]
        assert engine._buffers[token][3] == 0
        assert call(engine, 0, call_id, 0, token)[:2] == (0, 16)


class TestAbiRejections:
    @pytest.mark.parametrize("core", [2, 7, -1])
    def test_call_from_a_core_outside_the_machine_is_denied(self, core):
        # -1 would run core 1's caller from its registers
        engine, td0 = small_engine(cores=2)
        platform = engine.platform
        load(engine, 1, ApiCall.CREATE)
        before = dump_state(engine)
        logs = list(platform.access_log), list(platform.protocol_log)
        traced = len(engine.trace.records)
        with pytest.raises(MonitorError) as err:
            engine.monitor_call(core)
        assert err.value.code is ErrorCode.CORE_NOT_ALLOWED
        assert dump_state(engine) == before
        assert (list(platform.access_log), list(platform.protocol_log)) == logs
        assert [r.to_line() for r in engine.trace.records[traced:]] == \
            [f"0 {core} abi -> err=CORE_NOT_ALLOWED"]

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

    @pytest.mark.parametrize("word", [8, 0x1F, 2 ** 64 - 1], ids=hex)
    @pytest.mark.parametrize("call_id", [ApiCall.ALIAS, ApiCall.CARVE],
                             ids=("alias", "carve"))
    def test_rights_above_rwx_are_an_escalation(self, call_id, word):
        # td0's root grants RWX; a rights word with any bit above those
        # asks for a right td0 does not hold
        engine, td0 = small_engine()
        load(engine, 0, call_id, 0, A[1], A[3], word)
        expected = dump_state(engine)
        next(d for d in expected["domains"] if d["id"] == td0)[
            "regs"]["0"][0] = int(ErrorCode.RIGHTS_ESCALATION)
        engine.monitor_call(0)
        assert dump_state(engine) == expected
        assert Oracle().replay(engine.trace.records).diff(engine) == []
