"""Attestation reports: canonical serialization, signing, verification,
security predicates, and the boot measurement chain.

A report describes one domain: its configuration plus its owned capabilities,
with visibility into each owned capability's direct children in its
derivation tree but no further.  Names inside a report are fresh, dense from
zero per kind, and deliberately uncorrelated with engine-global identifiers.
Lineage between regions is expressed purely through that naming.

The binary form is canonical (fixed field order, little-endian integers,
length-prefixed variable sections), so identical state yields identical
bytes and signatures verify across implementations.  The text projection
mirrors the binary content line for line.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import struct
from dataclasses import dataclass, field
from typing import Optional

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .domains import NUM_VECTORS, ApiCall, CapKind, Visibility
from .errors import ErrorCode, deny
from .regions import AttrFlags, DerivationKind

MAGIC = b"CAPA"
VERSION = 1
HASH_NAME = "sha-256"
SIG_SCHEME = "ed25519"
MONITOR_IDENTITY = b"capmon security monitor v0.1.0\n"

# a visibility's code in a report is its position in declaration order
_CODE_OF = {vis: code for code, vis in enumerate(Visibility)}
# a domain's interrupt table: (visibility code, readable registers) per vector
_INTERRUPT_TABLE = struct.Struct("<" + "BI" * NUM_VECTORS)


# ---------------------------------------------------------------------------
# attestation keys and boot measurement
# ---------------------------------------------------------------------------

def _private_key(seed: int) -> Ed25519PrivateKey:
    material = hashlib.sha256(
        b"capmon attestation key" + seed.to_bytes(8, "little")).digest()
    return Ed25519PrivateKey.from_private_bytes(material)


def monitor_public_key(seed: int) -> bytes:
    return _private_key(seed).public_key().public_bytes_raw()


def sign_bytes(seed: int, data: bytes) -> bytes:
    return _private_key(seed).sign(data)


def pcr_extend(pcr: bytes, event_digest: bytes) -> bytes:
    return hashlib.sha256(pcr + event_digest).digest()


@dataclass
class BootMeasurement:
    pcr: bytes
    event_log: list[tuple[str, bytes]]


def measure_boot(config_bytes: bytes, monitor_identity: bytes,
                 seed: int = 0) -> BootMeasurement:
    """Fold boot-info, monitor, and attestation public key into a PCR chain."""
    events = [
        ("boot-info", hashlib.sha256(config_bytes).digest()),
        ("monitor", hashlib.sha256(monitor_identity).digest()),
        ("attestation-key",
         hashlib.sha256(monitor_public_key(seed)).digest()),
    ]
    pcr = bytes(32)
    for _, digest in events:
        pcr = pcr_extend(pcr, digest)
    return BootMeasurement(pcr=pcr, event_log=events)


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

@dataclass
class RegionChildLine:
    kind: str       # alias | carve
    start: int
    end: int
    name: str
    rights: str


@dataclass
class RegionDescriptor:
    name: str
    status: str     # exclusive | aliased
    start: int
    end: int
    rights: str
    attr_flags: int = 0
    digest: Optional[bytes] = None
    children: list[RegionChildLine] = field(default_factory=list)


@dataclass
class DomainDescriptor:
    name: str
    register_hash: bytes
    sealed: bool
    cores: int
    mon_api: int
    user_calls: bool
    receive: bool
    interrupts: list[tuple[int, int]]           # 256 x (visibility, readable)
    owned_names: list[str] = field(default_factory=list)
    regions: list[RegionDescriptor] = field(default_factory=list)
    nested: list["DomainDescriptor"] = field(default_factory=list)

    def all_domains(self) -> list["DomainDescriptor"]:
        return [self] + self.nested


@dataclass
class AttestationReport:
    measurement: bytes
    ncores: int
    nonce: Optional[bytes]
    verifier_key: Optional[bytes]
    domain_key: Optional[bytes]
    subject: DomainDescriptor
    signature: bytes = b""
    hash_name: str = HASH_NAME
    sig_scheme: str = SIG_SCHEME

    def signed_bytes(self) -> bytes:
        buf = io.BytesIO()
        _write_header(buf, self)
        _write_domain(buf, self.subject)
        return buf.getvalue()

    def to_bytes(self) -> bytes:
        body = self.signed_bytes()
        return body + struct.pack("<I", len(self.signature)) + self.signature

    @staticmethod
    def from_bytes(blob: bytes) -> "AttestationReport":
        reader = _Reader(blob)
        report = _read_header(reader)
        report.subject = _read_domain(reader)
        signature = reader.read_bytes()
        report.signature = signature
        if not reader.exhausted():
            raise deny(ErrorCode.PARSE_ERROR, "trailing bytes in report")
        return report

    def text(self) -> str:
        lines: list[str] = []
        for dom in self.subject.all_domains():
            _render_domain(lines, dom, self.ncores,
                           shallow=dom is not self.subject)
        for region in self.subject.regions:
            _render_region(lines, region, indent="", with_children=True)
        lines.append(f"signature: {self.signature.hex()}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# report construction from engine state
# ---------------------------------------------------------------------------

class _Namer:
    def __init__(self):
        self.regions: dict[int, str] = {}
        self.domains: dict[int, str] = {}

    def region(self, region_id: int) -> str:
        if region_id not in self.regions:
            self.regions[region_id] = f"r{len(self.regions)}"
        return self.regions[region_id]

    def domain(self, dom_id: int) -> str:
        if dom_id not in self.domains:
            self.domains[dom_id] = f"td{len(self.domains)}"
        return self.domains[dom_id]


def build_report(engine, subject_id: int,
                 verifier_key: Optional[bytes] = None,
                 nonce: Optional[bytes] = None,
                 domain_key: Optional[bytes] = None) -> AttestationReport:
    namer = _Namer()
    subject = _describe_domain(engine, subject_id, namer, shallow=False)
    report = AttestationReport(
        measurement=engine.measurement.pcr if engine.measurement else bytes(32),
        ncores=engine.platform.ncores,
        nonce=nonce, verifier_key=verifier_key, domain_key=domain_key,
        subject=subject)
    report.signature = sign_bytes(engine.seed, report.signed_bytes())
    # runtime-only convenience for tooling; never serialized
    report.name_of_domain = dict(namer.domains)
    return report


def _describe_domain(engine, dom_id: int, namer: _Namer,
                     shallow: bool) -> DomainDescriptor:
    dom = engine.domains[dom_id]
    policies = dom.policies
    interrupts = []
    for vector in range(NUM_VECTORS):
        pol = policies.interrupt(vector)
        interrupts.append((_CODE_OF[pol.visibility], pol.readable_regs))
    desc = DomainDescriptor(
        name=namer.domain(dom_id),
        register_hash=dom.register_hash or bytes(32),
        sealed=dom.state.value == "sealed",
        cores=policies.cores,
        mon_api=policies.mon_api,
        user_calls=policies.user_calls,
        receive=policies.receive,
        interrupts=interrupts)

    for _, entry in dom.owned.entries():
        if entry.kind is CapKind.REGION:
            region = _describe_region(engine, entry.ref, namer,
                                      with_children=not shallow)
            desc.owned_names.append(region.name)
            desc.regions.append(region)
        elif entry.kind is CapKind.DOMAIN:
            name = namer.domain(entry.ref)
            desc.owned_names.append(name)
            if not shallow:
                desc.nested.append(
                    _describe_domain(engine, entry.ref, namer, shallow=True))
        else:
            target = engine.domains.get(entry.ref)
            if target is not None and target.live:
                desc.owned_names.append(f"chan({namer.domain(entry.ref)})")
            else:
                desc.owned_names.append("chan(inert)")
    return desc


def _describe_region(engine, region_id: int, namer: _Namer,
                     with_children: bool) -> RegionDescriptor:
    node = engine.tree.nodes[region_id]
    desc = RegionDescriptor(
        name=namer.region(region_id),
        status=node.status.value,
        start=node.initial_range.start,
        end=node.initial_range.end,
        rights=node.rights.render(),
        attr_flags=int(node.attributes.flags),
        digest=node.attributes.hash_digest)
    if with_children:
        for child_id in node.children:
            child = engine.tree.nodes[child_id]
            desc.children.append(RegionChildLine(
                kind="carve" if child.kind is DerivationKind.CARVE else "alias",
                start=child.initial_range.start,
                end=child.initial_range.end,
                name=namer.region(child_id),
                rights=child.rights.render()))
    return desc


# ---------------------------------------------------------------------------
# canonical binary form
# ---------------------------------------------------------------------------

class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise deny(ErrorCode.PARSE_ERROR, "truncated report")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def read_bytes(self) -> bytes:
        return self.take(self.u32())

    def read_str(self) -> str:
        return self.read_bytes().decode()

    def read_opt(self) -> Optional[bytes]:
        return self.read_bytes() if self.u8() else None

    def exhausted(self) -> bool:
        return self.pos == len(self.blob)


def _w_bytes(buf: io.BytesIO, data: bytes):
    buf.write(struct.pack("<I", len(data)))
    buf.write(data)


def _w_str(buf: io.BytesIO, text: str):
    _w_bytes(buf, text.encode())


def _w_opt(buf: io.BytesIO, data: Optional[bytes]):
    if data is None:
        buf.write(b"\0")
    else:
        buf.write(b"\1")
        _w_bytes(buf, data)


def _write_header(buf: io.BytesIO, report: AttestationReport):
    buf.write(MAGIC)
    buf.write(struct.pack("<H", VERSION))
    _w_str(buf, report.hash_name)
    _w_str(buf, report.sig_scheme)
    buf.write(report.measurement)
    buf.write(struct.pack("<B", report.ncores))
    _w_opt(buf, report.nonce)
    _w_opt(buf, report.verifier_key)
    _w_opt(buf, report.domain_key)


def _read_header(reader: _Reader) -> AttestationReport:
    if reader.take(4) != MAGIC:
        raise deny(ErrorCode.PARSE_ERROR, "bad magic")
    version = reader.u16()
    if version != VERSION:
        raise deny(ErrorCode.PARSE_ERROR, f"unsupported version {version}")
    hash_name = reader.read_str()
    sig_scheme = reader.read_str()
    measurement = reader.take(32)
    ncores = reader.u8()
    nonce = reader.read_opt()
    verifier_key = reader.read_opt()
    domain_key = reader.read_opt()
    return AttestationReport(
        measurement=measurement, ncores=ncores, nonce=nonce,
        verifier_key=verifier_key, domain_key=domain_key,
        subject=None, hash_name=hash_name, sig_scheme=sig_scheme)


def _write_domain(buf: io.BytesIO, dom: DomainDescriptor):
    _w_str(buf, dom.name)
    buf.write(dom.register_hash)
    buf.write(struct.pack("<B", int(dom.sealed)))
    buf.write(struct.pack("<Q", dom.cores))
    buf.write(struct.pack("<H", dom.mon_api))
    buf.write(struct.pack("<B", int(dom.user_calls) | (int(dom.receive) << 1)))
    buf.write(_INTERRUPT_TABLE.pack(*itertools.chain(*dom.interrupts)))
    buf.write(struct.pack("<I", len(dom.owned_names)))
    region_by_name = {r.name: r for r in dom.regions}
    nested_by_name = {n.name: n for n in dom.nested}
    for name in dom.owned_names:
        if name in region_by_name:
            buf.write(b"\0")
            _write_region(buf, region_by_name[name])
        elif name in nested_by_name:
            buf.write(b"\1")
            _write_domain(buf, nested_by_name[name])
        elif name.startswith("chan("):
            buf.write(b"\2")
            _w_str(buf, name[5:-1])
        else:
            buf.write(b"\3")
            _w_str(buf, name)


def _read_domain(reader: _Reader) -> DomainDescriptor:
    name = reader.read_str()
    register_hash = reader.take(32)
    sealed = bool(reader.u8())
    cores = reader.u64()
    mon_api = reader.u16()
    flags = reader.u8()
    table = _INTERRUPT_TABLE.unpack(reader.take(_INTERRUPT_TABLE.size))
    codes = table[::2]
    if max(codes) >= len(_CODE_OF):
        raise deny(ErrorCode.PARSE_ERROR, f"bad visibility code {max(codes)}")
    interrupts = list(zip(codes, table[1::2]))
    dom = DomainDescriptor(
        name=name, register_hash=register_hash, sealed=sealed, cores=cores,
        mon_api=mon_api, user_calls=bool(flags & 1), receive=bool(flags & 2),
        interrupts=interrupts)
    count = reader.u32()
    for _ in range(count):
        tag = reader.u8()
        if tag == 0:
            region = _read_region(reader)
            dom.owned_names.append(region.name)
            dom.regions.append(region)
        elif tag == 1:
            nested = _read_domain(reader)
            dom.owned_names.append(nested.name)
            dom.nested.append(nested)
        elif tag == 2:
            dom.owned_names.append(f"chan({reader.read_str()})")
        elif tag == 3:
            dom.owned_names.append(reader.read_str())
        else:
            raise deny(ErrorCode.PARSE_ERROR, f"bad capability tag {tag}")
    return dom


def _write_region(buf: io.BytesIO, region: RegionDescriptor):
    _w_str(buf, region.name)
    buf.write(struct.pack("<B", 0 if region.status == "exclusive" else 1))
    buf.write(struct.pack("<QQ", region.start, region.end))
    _w_str(buf, region.rights)
    buf.write(struct.pack("<B", region.attr_flags))
    _w_opt(buf, region.digest)
    buf.write(struct.pack("<I", len(region.children)))
    for child in region.children:
        buf.write(struct.pack("<B", 0 if child.kind == "alias" else 1))
        buf.write(struct.pack("<QQ", child.start, child.end))
        _w_str(buf, child.name)
        _w_str(buf, child.rights)


def _read_region(reader: _Reader) -> RegionDescriptor:
    name = reader.read_str()
    status = "exclusive" if reader.u8() == 0 else "aliased"
    start, end = struct.unpack("<QQ", reader.take(16))
    rights = reader.read_str()
    attr_flags = reader.u8()
    digest = reader.read_opt()
    region = RegionDescriptor(name=name, status=status, start=start, end=end,
                              rights=rights, attr_flags=attr_flags,
                              digest=digest)
    for _ in range(reader.u32()):
        kind = "alias" if reader.u8() == 0 else "carve"
        cstart, cend = struct.unpack("<QQ", reader.take(16))
        cname = reader.read_str()
        crights = reader.read_str()
        region.children.append(
            RegionChildLine(kind, cstart, cend, cname, crights))
    return region


# ---------------------------------------------------------------------------
# text projection
# ---------------------------------------------------------------------------

def _render_domain(lines: list[str], dom: DomainDescriptor, ncores: int,
                   shallow: bool):
    lines.append(f"{dom.name} = domain {{{', '.join(dom.owned_names)}}}")
    pad = "      |"
    lines.append(f"{pad}registers.HASH: {dom.register_hash.hex()}")
    lines.append(f"{pad}cores: 0b{dom.cores:0{max(ncores, 1)}b}")
    receive = "RECEIVE" if dom.receive else "!RECEIVE"
    lines.append(f"{pad}mon.api: 0b{dom.mon_api:011b} | {receive}")
    lines.append(f"{pad}interrupts: {{")
    for lo, hi, vis, readable in _group_vectors(dom.interrupts):
        span = f"{lo}" if lo == hi else f"{lo}-{hi}"
        lines.append(f"{pad} {span} -> {{{list(Visibility)[vis].render()}, "
                     f"registers: 0b{readable:b}}},")
    lines.append(f"{pad}}}")
    if shallow:
        for region in dom.regions:
            _render_region(lines, region, indent=pad, with_children=False)


def _render_region(lines: list[str], region: RegionDescriptor, indent: str,
                   with_children: bool):
    attrs = AttrFlags(region.attr_flags).render()
    line = (f"{indent}{region.name} = {region.status} {region.start:#x} "
            f"{region.end:#x} with {region.rights}")
    if attrs:
        line += f", {attrs}"
    lines.append(line)
    if with_children:
        if region.digest is not None:
            lines.append(f"     |HASH: {region.digest.hex()}")
        for child in region.children:
            lines.append(f"     |{child.kind} at {child.start:#x} "
                         f"{child.end:#x} for {child.name} with {child.rights}")


def _group_vectors(interrupts: list[tuple[int, int]]):
    groups = []
    for vector, entry in enumerate(interrupts):
        if groups and groups[-1][2:] == list(entry) and \
                groups[-1][1] == vector - 1:
            groups[-1][1] = vector
        else:
            groups.append([vector, vector, entry[0], entry[1]])
    return [tuple(g) for g in groups]


# ---------------------------------------------------------------------------
# verification and predicates
# ---------------------------------------------------------------------------

def verify_report(report: AttestationReport, monitor_pub: bytes,
                  expected_pcr: bytes,
                  expected_nonce: Optional[bytes] = None):
    """Check signature, monitor measurement, and nonce; raises on failure."""
    try:
        Ed25519PublicKey.from_public_bytes(monitor_pub).verify(
            report.signature, report.signed_bytes())
    except (InvalidSignature, ValueError) as exc:
        raise deny(ErrorCode.BAD_SIGNATURE, "signature check failed") from exc
    if report.measurement != expected_pcr:
        raise deny(ErrorCode.MEASUREMENT_MISMATCH,
                   "monitor measurement differs")
    if expected_nonce is not None and report.nonce != expected_nonce:
        raise deny(ErrorCode.NONCE_MISMATCH, "nonce differs")


@dataclass
class Clause:
    name: str
    ok: bool
    detail: str


def _find_domain(report: AttestationReport, name: str) -> DomainDescriptor:
    for dom in report.subject.all_domains():
        if dom.name == name:
            return dom
    raise deny(ErrorCode.UNKNOWN_SUBJECT, name)


def is_confidential(report: AttestationReport,
                    subject_name: str) -> tuple[bool, list[Clause]]:
    """Exclusive memory, clean on revocation, no register exposure on
    vectors routed away."""
    dom = _find_domain(report, subject_name)
    clauses: list[Clause] = []

    exclusive = [r for r in dom.regions if r.status == "exclusive"]
    clauses.append(Clause(
        "exclusive-region", bool(exclusive),
        f"{len(exclusive)} exclusive region(s)" if exclusive
        else "no exclusive region"))

    dirty = [r.name for r in exclusive
             if not AttrFlags(r.attr_flags) & AttrFlags.CLEAN]
    clauses.append(Clause(
        "clean-on-exclusive", not dirty,
        "all exclusive regions carry CLEAN" if not dirty
        else f"revocation may leak: {', '.join(dirty)}"))

    exposed = [v for v, (vis, readable) in enumerate(dom.interrupts)
               if vis != 0 and readable != 0]
    clauses.append(Clause(
        "interrupt-exposure", not exposed,
        "routed-away vectors expose no registers" if not exposed
        else f"vectors exposing registers: {exposed[:8]}"))

    return all(c.ok for c in clauses), clauses


def is_encapsulated(report: AttestationReport, child_name: str,
                    parent_name: str) -> tuple[bool, list[Clause]]:
    """Child memory derives from the parent's exclusive regions and the
    child can neither send nor receive capabilities after sealing."""
    child = _find_domain(report, child_name)
    parent = _find_domain(report, parent_name)
    clauses: list[Clause] = []

    lineage: dict[str, RegionDescriptor] = {}
    for region in parent.regions:
        for line in region.children:
            lineage[line.name] = region
    stray = []
    for region in child.regions:
        source = lineage.get(region.name)
        if source is None or source.status != "exclusive":
            stray.append(region.name)
    clauses.append(Clause(
        "regions-from-parent-exclusive", not stray,
        "all regions derive from the parent's exclusive memory" if not stray
        else f"regions outside the parent's exclusive memory: "
             f"{', '.join(stray)}"))

    send_clear = not child.mon_api & (1 << ApiCall.SEND)
    clauses.append(Clause(
        "no-send", send_clear,
        "SEND bit clear" if send_clear else "child may send capabilities"))

    clauses.append(Clause(
        "no-receive", not child.receive,
        "!RECEIVE" if not child.receive
        else "child may receive capabilities after seal"))

    return all(c.ok for c in clauses), clauses
