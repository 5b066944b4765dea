"""Attestation: canonical form, signatures, boot measurement chain,
visibility rules, fresh naming, and the two security predicates."""

import functools
import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from capmon import (
    AttrFlags, MonitorError, PhysRange, Rights, Visibility,
    is_confidential, is_encapsulated, measure_boot, monitor_public_key,
    verify_report,
)
from capmon.attest import (
    MAGIC, MONITOR_IDENTITY, VERSION, AttestationReport, interrupt_table,
    pcr_extend,
)
from capmon.domains import (
    NUM_VECTORS, REG_MASK, ApiCall, CapKind, InterruptPolicy, Policies,
)
from capmon.errors import ErrorCode
from capmon.regions import PAGE

from support import carve_to, make_child, small_engine

A = [PAGE * (1 + k) for k in range(8)]


def figure_engine():
    """td0 -> td1 {shared alias, exclusive carve(H|C|V), td2 {alias, carve}}."""
    engine, td0 = small_engine()
    td1, h1 = make_child(engine, td0, cores=0b11, seal=False,
                         interrupts=[(v, Visibility.REPORT, 0)
                                     for v in range(4)])
    engine.set_policy(td0, h1, "receive", 1)
    root_handle = engine.domains[td0].owned.find(CapKind.REGION, 0)
    r1h = engine.tree_alias(td0, root_handle, PhysRange(A[0], A[1]), Rights.RW)
    r2h = engine.tree_carve(td0, root_handle, PhysRange(A[1], A[4]),
                            Rights.RWX)
    r2 = engine.domains[td0].owned.get(r2h).ref
    engine.send(td0, r1h, h1)
    engine.send(td0, r2h, h1,
                AttrFlags.HASH | AttrFlags.CLEAN | AttrFlags.VITAL)
    engine.seal(td0, h1)
    engine.switch(td0, 0, h1)
    td2, h2 = make_child(engine, td1, cores=0b01, mon_api=0b00001110000,
                         receive=False, seal=False,
                         interrupts=[(v, Visibility.NOT_REPORT, 0)
                                     for v in range(4)])
    r2_h = engine.domains[td1].owned.find(CapKind.REGION, r2)
    r3h = engine.tree_alias(td1, r2_h, PhysRange(A[2], A[3]), Rights.RW)
    r4h = engine.tree_carve(td1, r2_h, PhysRange(A[3], A[4]), Rights.RWX)
    engine.send(td1, r3h, h2)
    engine.send(td1, r4h, h2, AttrFlags.CLEAN)
    engine.seal(td1, h2)
    engine.switch(td1, 0, None)
    return engine, td0, td1, td2, h1


class TestCanonicalForm:
    def test_serialize_parse_serialize_identity(self):
        engine, td0, td1, td2, h1 = figure_engine()
        report = engine.attest(td0, h1)
        blob = report.to_bytes()
        again = AttestationReport.from_bytes(blob).to_bytes()
        assert blob == again

    def test_same_state_same_bytes(self):
        engine, td0, td1, td2, h1 = figure_engine()
        first = engine.attest(td0, h1, nonce=b"n" * 8).to_bytes()
        second = engine.attest(td0, h1, nonce=b"n" * 8).to_bytes()
        assert first == second

    def test_trailing_bytes_rejected(self):
        engine, td0, td1, td2, h1 = figure_engine()
        blob = engine.attest(td0, h1).to_bytes() + b"x"
        with pytest.raises(MonitorError) as err:
            AttestationReport.from_bytes(blob)
        assert err.value.code is ErrorCode.PARSE_ERROR

    def test_unknown_visibility_code_rejected(self):
        engine, td0 = small_engine()
        report = engine.attest(td0)
        report.subject.interrupts[5] = (len(Visibility) + 4, 0)
        blob = report.to_bytes()
        with pytest.raises(MonitorError) as err:
            AttestationReport.from_bytes(blob)
        assert err.value.code is ErrorCode.PARSE_ERROR

    def test_remote_fields_measured_into_signature(self):
        engine, td0, td1, td2, h1 = figure_engine()
        plain = engine.attest(td0, h1)
        remote = engine.attest(td0, h1, verifier_key=b"v" * 32,
                               nonce=b"n" * 16, domain_key=b"d" * 32)
        assert plain.signature != remote.signature
        parsed = AttestationReport.from_bytes(remote.to_bytes())
        assert parsed.nonce == b"n" * 16
        assert parsed.verifier_key == b"v" * 32
        assert parsed.domain_key == b"d" * 32


class TestVerify:
    def test_round_trip_accepts(self):
        engine, td0, td1, td2, h1 = figure_engine()
        report = engine.attest(td0, h1)
        verify_report(report, monitor_public_key(engine.seed),
                      engine.measurement.pcr)

    def test_flipped_byte_rejected(self):
        engine, td0, td1, td2, h1 = figure_engine()
        blob = bytearray(engine.attest(td0, h1).to_bytes())
        blob[40] ^= 0x01
        report = AttestationReport.from_bytes(bytes(blob))
        with pytest.raises(MonitorError) as err:
            verify_report(report, monitor_public_key(engine.seed),
                          engine.measurement.pcr)
        assert err.value.code is ErrorCode.BAD_SIGNATURE

    def test_wrong_pcr_rejected(self):
        engine, td0, td1, td2, h1 = figure_engine()
        report = engine.attest(td0, h1)
        with pytest.raises(MonitorError) as err:
            verify_report(report, monitor_public_key(engine.seed), bytes(32))
        assert err.value.code is ErrorCode.MEASUREMENT_MISMATCH

    def test_nonce_mismatch(self):
        engine, td0, td1, td2, h1 = figure_engine()
        report = engine.attest(td0, h1, nonce=b"abc")
        with pytest.raises(MonitorError) as err:
            verify_report(report, monitor_public_key(engine.seed),
                          engine.measurement.pcr, expected_nonce=b"xyz")
        assert err.value.code is ErrorCode.NONCE_MISMATCH


class TestBootMeasurement:
    def test_pcr_chain_definition(self):
        m = measure_boot(b"cfg", MONITOR_IDENTITY, seed=0)
        pcr = bytes(32)
        for _, digest in m.event_log:
            pcr = hashlib.sha256(pcr + digest).digest()
        assert pcr == m.pcr

    def test_empty_log_is_zero_pcr(self):
        assert pcr_extend.__name__  # chain starts from PCR_0 = 32 zero bytes
        pcr = bytes(32)
        assert pcr == bytes(32)

    def test_same_inputs_same_pcr(self):
        a = measure_boot(b"cfg", b"mon", seed=3)
        b = measure_boot(b"cfg", b"mon", seed=3)
        assert a.pcr == b.pcr

    def test_event_order_changes_pcr(self):
        m = measure_boot(b"cfg", b"mon", seed=0)
        pcr = bytes(32)
        for _, digest in reversed(m.event_log):
            pcr = pcr_extend(pcr, digest)
        assert pcr != m.pcr

    def test_config_changes_pcr(self):
        assert measure_boot(b"cfg1", b"mon").pcr != \
            measure_boot(b"cfg2", b"mon").pcr


class TestVisibility:
    def test_direct_children_but_not_further(self):
        engine, td0 = small_engine()
        a, ha = make_child(engine, td0)
        engine.switch(td0, 0, ha)
        b, hb = make_child(engine, a)
        engine.switch(a, 0, hb)
        c, hc = make_child(engine, b)
        engine.switch(b, 0, None)
        engine.switch(a, 0, None)
        report = engine.attest(td0, ha)
        # subject block is a; b appears nested; c is a name inside b only
        names = report.name_of_domain
        assert set(names) == {a, b, c}
        nested = {d.name for d in report.subject.nested}
        assert nested == {names[b]}
        b_desc = report.subject.nested[0]
        assert names[c] in b_desc.owned_names
        assert b_desc.nested == []  # grandchild has no block of its own

    def test_nested_regions_have_no_children_lines(self):
        engine, td0, td1, td2, h1 = figure_engine()
        report = engine.attest(td0, h1)
        for region in report.subject.nested[0].regions:
            assert region.children == []
        subject_regions = {r.name: r for r in report.subject.regions}
        carved = [r for r in report.subject.regions
                  if r.status == "exclusive"]
        assert carved and carved[0].children

    def test_region_lineage_via_naming(self):
        engine, td0, td1, td2, h1 = figure_engine()
        report = engine.attest(td0, h1)
        exclusive = next(r for r in report.subject.regions
                         if r.status == "exclusive")
        child_names = {c.name for c in exclusive.children}
        td2_region_names = set(report.subject.nested[0].owned_names)
        assert child_names <= td2_region_names

    def test_fresh_names_dense_from_zero(self):
        engine, td0, td1, td2, h1 = figure_engine()
        report = engine.attest(td0, h1)
        text = report.text()
        dom_names = sorted(report.name_of_domain.values())
        assert dom_names == [f"td{i}" for i in range(len(dom_names))]
        region_names = set()
        for dom in report.subject.all_domains():
            for region in dom.regions:
                region_names.add(region.name)
                for child in region.children:
                    region_names.add(child.name)
        assert sorted(region_names) == \
            [f"r{i}" for i in range(len(region_names))]

    def test_names_uncorrelated_across_requesters(self):
        engine, td0, td1, td2, h1 = figure_engine()
        by_td0 = engine.attest(td0, h1)
        # td1 attests itself: same engine domain, fresh local namespace
        engine.switch(td0, 0, h1)
        by_td1 = engine.attest(td1, None)
        assert by_td1.name_of_domain[td1] == "td0"
        assert by_td0.name_of_domain[td1] == "td0"
        assert by_td0.name_of_domain[td2] != by_td0.name_of_domain[td1]


class TestEnumerateFigureState:
    def test_exclusive_region_entry_with_attributes_and_children(self):
        engine, td0, td1, td2, h1 = figure_engine()
        engine.switch(td0, 0, h1)
        entries = []
        cursor = 0
        while True:
            desc, cursor = engine.enumerate(td1, cursor)
            if desc is None:
                break
            entries.append(desc)
        exclusive = [d for d in entries
                     if d.kind == "region" and d.status == "exclusive"]
        assert len(exclusive) == 1
        entry = exclusive[0]
        assert (entry.start, entry.end) == (A[1], A[4])
        assert entry.rights == "RWX"
        assert entry.attributes == "HASH|CLEAN|VITAL"
        kinds = [(kind, start, end, rights)
                 for _, kind, start, end, rights in entry.children]
        assert kinds == [("alias", A[2], A[3], "RW_"),
                         ("carve", A[3], A[4], "RWX")]


class TestTextProjection:
    def test_layout_tokens(self):
        engine, td0, td1, td2, h1 = figure_engine()
        text = engine.attest(td0, h1).text()
        assert "cores: 0b11" in text
        assert "cores: 0b01" in text
        assert "mon.api: 0b11111111111 | RECEIVE" in text
        assert "mon.api: 0b00001110000 | !RECEIVE" in text
        assert f"= exclusive {hex(A[1])} {hex(A[4])} with RWX, " \
               f"HASH|CLEAN|VITAL" in text
        assert f"|alias at {hex(A[2])} {hex(A[3])} for " in text
        assert f"|carve at {hex(A[3])} {hex(A[4])} for " in text
        assert "registers.HASH: " in text
        assert text.rstrip().splitlines()[-1].startswith("signature: ")

    def test_interrupt_rendering_groups_vectors(self):
        engine, td0, td1, td2, h1 = figure_engine()
        text = engine.attest(td0, h1).text()
        assert "0-3 -> {Report, registers: 0b0}" in text
        assert "4-255 -> {Not report, registers: 0b0}" in text


class TestPredicates:
    def test_confidential_true_on_enclave_recipe(self):
        engine, td0, td1, td2, h1 = figure_engine()
        report = engine.attest(td0, h1)
        verdict, clauses = is_confidential(report,
                                           report.name_of_domain[td2])
        assert verdict, [c for c in clauses if not c.ok]

    def test_confidential_false_without_exclusive(self):
        engine, td0 = small_engine()
        dom, handle = make_child(engine, td0, seal=False)
        root_handle = engine.domains[td0].owned.find(CapKind.REGION, 0)
        alias = engine.tree_alias(td0, root_handle, PhysRange(A[0], A[1]),
                                  Rights.RW)
        engine.send(td0, alias, handle)
        engine.seal(td0, handle)
        report = engine.attest(td0, handle)
        verdict, clauses = is_confidential(report,
                                           report.name_of_domain[dom])
        assert not verdict
        failed = [c.name for c in clauses if not c.ok]
        assert failed == ["exclusive-region"]

    def test_confidential_false_without_clean(self):
        engine, td0 = small_engine()
        dom, handle = make_child(engine, td0, seal=False)
        carve_to(engine, td0, handle, PhysRange(A[0], A[1]))
        engine.seal(td0, handle)
        report = engine.attest(td0, handle)
        verdict, clauses = is_confidential(report,
                                           report.name_of_domain[dom])
        assert not verdict
        assert [c.name for c in clauses if not c.ok] == ["clean-on-exclusive"]

    def test_confidential_false_with_register_exposure(self):
        engine, td0 = small_engine()
        dom, handle = make_child(
            engine, td0, seal=False,
            interrupts=[(9, Visibility.REPORT, 0b1111)])
        carve_to(engine, td0, handle, PhysRange(A[0], A[1]),
                 attrs=AttrFlags.CLEAN)
        engine.seal(td0, handle)
        report = engine.attest(td0, handle)
        verdict, clauses = is_confidential(report,
                                           report.name_of_domain[dom])
        assert not verdict
        assert [c.name for c in clauses if not c.ok] == ["interrupt-exposure"]

    def test_encapsulated_true_on_sandbox_recipe(self):
        engine, td0, td1, td2, h1 = figure_engine()
        report = engine.attest(td0, h1)
        names = report.name_of_domain
        verdict, clauses = is_encapsulated(report, names[td2], names[td1])
        assert verdict, [c for c in clauses if not c.ok]

    def test_encapsulated_false_with_send_bit(self):
        engine, td0 = small_engine()
        td1, h1 = make_child(engine, td0, seal=False)
        engine.set_policy(td0, h1, "receive", 1)
        r = carve_to(engine, td0, h1, PhysRange(A[0], A[2]))
        engine.seal(td0, h1)
        engine.switch(td0, 0, h1)
        td2, h2 = make_child(engine, td1,
                             mon_api=(1 << ApiCall.SEND)
                             | (1 << ApiCall.SWITCH),
                             receive=False, seal=False)
        r_h = engine.domains[td1].owned.find(CapKind.REGION, r)
        sub = engine.tree_carve(td1, r_h, PhysRange(A[0], A[1]), Rights.RWX)
        engine.send(td1, sub, h2)
        engine.seal(td1, h2)
        engine.switch(td1, 0, None)
        report = engine.attest(td0, h1)
        names = report.name_of_domain
        verdict, clauses = is_encapsulated(report, names[td2], names[td1])
        assert not verdict
        assert [c.name for c in clauses if not c.ok] == ["no-send"]

    def test_encapsulated_false_with_foreign_region(self):
        # the child holds a region that does not derive from the parent
        engine, td0 = small_engine()
        td1, h1 = make_child(engine, td0, seal=False)
        engine.set_policy(td0, h1, "receive", 1)
        carve_to(engine, td0, h1, PhysRange(A[0], A[2]))
        engine.seal(td0, h1)
        engine.switch(td0, 0, h1)
        td2, h2 = make_child(engine, td1, mon_api=1 << ApiCall.SWITCH,
                             receive=False, seal=False)
        engine.switch(td1, 0, None)
        # td0 slips td2 a region of its own, bypassing td1's memory
        chan_td2 = None
        engine.switch(td0, 0, h1)
        chan = engine.getchan(td1, engine.domains[td1].owned.find(
            CapKind.DOMAIN, td2))
        engine.send(td1, chan, engine.domains[td1].owned.find(
            CapKind.CHANNEL, td0) or self_channel_roundtrip(engine, td0, td1))
        engine.switch(td1, 0, None)
        foreign = engine.domains[td0].owned.find(CapKind.CHANNEL, td2)
        rh = carve_to(engine, td0, foreign, PhysRange(A[4], A[5]))
        engine.switch(td0, 0, h1)
        engine.seal(td1, h2)
        engine.switch(td1, 0, None)
        report = engine.attest(td0, h1)
        names = report.name_of_domain
        verdict, clauses = is_encapsulated(report, names[td2], names[td1])
        assert not verdict
        assert "regions-from-parent-exclusive" in \
            [c.name for c in clauses if not c.ok]

    def test_unknown_subject(self):
        engine, td0, td1, td2, h1 = figure_engine()
        report = engine.attest(td0, h1)
        with pytest.raises(MonitorError) as err:
            is_confidential(report, "td99")
        assert err.value.code is ErrorCode.UNKNOWN_SUBJECT


def self_channel_roundtrip(engine, td0, td1):
    """td0 mints a channel to itself and hands it to td1."""
    chan = engine.getchan(td0, None)
    h1 = engine.domains[td0].owned.find(CapKind.DOMAIN, td1)
    engine.send(td0, chan, h1)
    return engine.domains[td1].owned.find(CapKind.CHANNEL, td0)


_POLICY = st.builds(InterruptPolicy, st.sampled_from(list(Visibility)),
                    st.integers(0, REG_MASK))


@settings(max_examples=200, deadline=None)
@given(_POLICY, st.dictionaries(st.integers(0, NUM_VECTORS - 1), _POLICY,
                                max_size=40))
def test_interrupt_table_equals_a_lookup_per_vector(default, entries):
    policies = Policies(interrupts=entries, interrupt_default=default)
    codes = list(Visibility)
    assert interrupt_table(policies) == [
        (codes.index(policies.interrupt(v).visibility),
         policies.interrupt(v).readable_regs) for v in range(NUM_VECTORS)]


@functools.cache
def signed_reports() -> tuple[bytes, ...]:
    """Reports with every part of the format: remote fields, a digest,
    region children, a nested domain, a channel and an undescribed domain
    name."""
    engine, td0, td1, td2, h1 = figure_engine()
    remote = engine.attest(td0, h1, verifier_key=b"v" * 32, nonce=b"n" * 16,
                           domain_key=b"d" * 32).to_bytes()
    engine, td0 = small_engine()
    a, ha = make_child(engine, td0)
    engine.switch(td0, 0, ha)
    b, hb = make_child(engine, a)
    engine.switch(a, 0, hb)
    make_child(engine, b)
    engine.switch(b, 0, None)
    engine.getchan(a, None)
    engine.switch(a, 0, None)
    return remote, engine.attest(td0, ha).to_bytes()


@functools.cache
def trust_anchor() -> tuple[bytes, bytes]:
    """The monitor key and boot measurement the reports above verify with."""
    engine, _ = small_engine()
    return monitor_public_key(engine.seed), engine.measurement.pcr


@st.composite
def damaged_reports(draw):
    blob = bytearray(draw(st.sampled_from(signed_reports())))
    at = draw(st.integers(0, len(blob) - 1))
    how = draw(st.sampled_from(("flip", "cut", "insert", "delete")))
    if how == "flip":
        blob[at] ^= draw(st.integers(1, 255))
    elif how == "cut":
        del blob[at:]
    elif how == "insert":
        blob[at:at] = draw(st.binary(min_size=1, max_size=8))
    else:
        del blob[at:at + draw(st.integers(1, 8))]
    return bytes(blob)


class TestParser:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(st.binary(max_size=64),
                     st.binary(max_size=64).map(
                         lambda tail: MAGIC + VERSION.to_bytes(2, "little")
                         + tail),
                     damaged_reports()))
    def test_rejects_or_round_trips(self, blob):
        try:
            report = AttestationReport.from_bytes(blob)
        except MonitorError as exc:
            assert exc.code is ErrorCode.PARSE_ERROR
            return
        assert report.to_bytes() == blob
        assert report.text()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_no_flipped_byte_verifies(self, data):
        blob = bytearray(data.draw(st.sampled_from(signed_reports())))
        blob[data.draw(st.integers(0, len(blob) - 1))] ^= \
            data.draw(st.integers(1, 255))
        self.assert_rejected(bytes(blob))

    def test_no_flag_byte_has_a_second_encoding(self):
        # a 0/1 byte read as "not zero" would let 1 -> 3 keep the signature
        for blob in signed_reports():
            for at in range(len(blob)):
                flipped = bytearray(blob)
                flipped[at] ^= 0x02
                self.assert_rejected(bytes(flipped))

    @staticmethod
    def assert_rejected(blob: bytes):
        with pytest.raises(MonitorError) as err:
            verify_report(AttestationReport.from_bytes(blob), *trust_anchor())
        assert err.value.code in (ErrorCode.PARSE_ERROR,
                                  ErrorCode.BAD_SIGNATURE)
