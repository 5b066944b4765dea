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

import functools
import hashlib
import itertools
import struct
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .domains import NUM_VECTORS, VISIBILITY_IDS, ApiCall, CapKind
from .errors import ErrorCode, deny
from .regions import CLEAN_BIT, AttrFlags, DerivationKind

MAGIC = b"CAPA"
VERSION = 1
HASH_NAME = "sha-256"
SIG_SCHEME = "ed25519"
MONITOR_IDENTITY = b"capmon security monitor v0.1.0\n"

# the fixed-layout parts of the binary form
_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_PREAMBLE = struct.Struct("<4sH")           # magic, version
_MEASURED = struct.Struct("<32sB")          # measurement, ncores
_DOMAIN_FIXED = struct.Struct("<BQHB")      # sealed, cores, mon_api, flags
# the register hash and the fixed part: the reader takes the hash's 32
# bytes with them, while the writer copies the hash as the field holds it
_DOMAIN_HEAD = struct.Struct("<32sBQHB")
# a domain's interrupt table: one row, (visibility code, readable
# registers), per vector
_INTERRUPT_ROW = struct.Struct("<BI")
_INTERRUPT_TABLE = struct.Struct("<" + "BI" * NUM_VECTORS)
_SPAN = struct.Struct("<BQQ")               # status or kind, start, end


# ---------------------------------------------------------------------------
# attestation keys and boot measurement
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def _private_key(seed: int) -> Ed25519PrivateKey:
    """The monitor's key, derived from the seed alone; Ed25519 signing is
    deterministic, so a cached key signs the same bytes identically."""
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


class NamedCap(NamedTuple):
    """An owned capability the report names but does not describe: a
    channel (named "inert" once its domain is revoked), or a domain owned
    by a nested domain."""
    kind: CapKind   # CHANNEL | DOMAIN
    name: str


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
    # the owned capabilities, in capability-table order
    owned: list[Union[RegionDescriptor, "DomainDescriptor", NamedCap]] = \
        field(default_factory=list)

    @property
    def regions(self) -> list[RegionDescriptor]:
        return [e for e in self.owned if isinstance(e, RegionDescriptor)]

    @property
    def nested(self) -> list["DomainDescriptor"]:
        return [e for e in self.owned if isinstance(e, DomainDescriptor)]

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
    # the report-local name of each domain id, for tooling: set when the
    # monitor builds the report, never serialized, so a parsed report has
    # none
    name_of_domain: dict[int, str] = field(
        default_factory=dict, compare=False, repr=False)

    def signed_bytes(self) -> bytes:
        parts: list[bytes] = []
        _write_header(parts, self)
        _write_domain(parts, self.subject)
        return b"".join(parts)

    def to_bytes(self) -> bytes:
        return _with_signature(self.signed_bytes(), self.signature)

    @staticmethod
    def from_bytes(blob: bytes) -> "AttestationReport":
        """Parse the canonical form.  Each report has exactly one encoding:
        bytes that would serialise back differently are PARSE_ERROR."""
        reader = _Reader(blob)
        try:
            report = _read_header(reader)
            report.subject = _read_domain(reader, nested=False)
            report.signature = reader.read_bytes()
        except struct.error:
            raise deny(ErrorCode.PARSE_ERROR, "truncated report") from None
        except UnicodeDecodeError:
            raise deny(ErrorCode.PARSE_ERROR, "name is not UTF-8") from None
        if reader.pos != len(blob):
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
    return build_signed_report(engine, subject_id, verifier_key, nonce,
                               domain_key)[0]


def build_signed_report(engine, subject_id: int,
                        verifier_key: Optional[bytes] = None,
                        nonce: Optional[bytes] = None,
                        domain_key: Optional[bytes] = None,
                        ) -> tuple[AttestationReport, bytes]:
    """A signed report and its canonical bytes, serialised once: the body
    is signed, and the bytes are that body, the signature length and the
    signature.  The bytes go back to the caller, never onto the report,
    whose fields a caller may still change."""
    namer = _Namer()
    subject = _describe_domain(engine, subject_id, namer, shallow=False)
    report = AttestationReport(
        measurement=engine.measurement.pcr,
        ncores=engine.platform.ncores,
        nonce=nonce, verifier_key=verifier_key, domain_key=domain_key,
        subject=subject)
    body = report.signed_bytes()
    report.signature = sign_bytes(engine.seed, body)
    report.name_of_domain = dict(namer.domains)
    return report, _with_signature(body, report.signature)


def interrupt_table(policies) -> list[tuple[int, int]]:
    """(visibility code, readable registers) for every vector: the default
    row, with the explicit entries' rows written over it."""
    table = [policies.interrupt_default.row] * NUM_VECTORS
    for vector, pol in policies.interrupts.items():
        table[vector] = pol.row
    return table


def _describe_domain(engine, dom_id: int, namer: _Namer,
                     shallow: bool) -> DomainDescriptor:
    dom = engine.domains[dom_id]
    policies = dom.policies
    desc = DomainDescriptor(
        name=namer.domain(dom_id),
        register_hash=dom.register_hash or bytes(32),
        sealed=dom.state.value == "sealed",
        cores=policies.cores,
        mon_api=policies.mon_api,
        user_calls=policies.user_calls,
        receive=policies.receive,
        interrupts=interrupt_table(policies))

    for _, entry in dom.owned.entries():
        if entry.kind is CapKind.REGION:
            desc.owned.append(_describe_region(engine, entry.ref, namer,
                                               with_children=not shallow))
        elif entry.kind is CapKind.DOMAIN and not shallow:
            desc.owned.append(
                _describe_domain(engine, entry.ref, namer, shallow=True))
        elif entry.kind is CapKind.DOMAIN or entry.ref in engine.domains:
            desc.owned.append(NamedCap(entry.kind, namer.domain(entry.ref)))
        else:
            desc.owned.append(NamedCap(CapKind.CHANNEL, "inert"))
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
    """A cursor over report bytes.  Fixed-layout parts are read with a
    precompiled struct at the cursor; a read past the end raises
    `struct.error`, which `from_bytes` turns into PARSE_ERROR."""

    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def unpack(self, layout: struct.Struct) -> tuple:
        out = layout.unpack_from(self.blob, self.pos)
        self.pos += layout.size
        return out

    def read_bytes(self) -> bytes:
        start = self.pos + 4
        end = start + _U32.unpack_from(self.blob, self.pos)[0]
        if end > len(self.blob):
            raise deny(ErrorCode.PARSE_ERROR, "truncated report")
        self.pos = end
        return self.blob[start:end]

    def read_str(self) -> str:
        return self.read_bytes().decode()

    def read_opt(self) -> Optional[bytes]:
        present = self.unpack(_U8)[0]
        if present > 1:
            raise deny(ErrorCode.PARSE_ERROR, f"bad presence byte {present}")
        return self.read_bytes() if present else None


def _with_signature(body: bytes, signature: bytes) -> bytes:
    return body + _U32.pack(len(signature)) + signature


def _w_bytes(parts: list[bytes], data: bytes):
    parts.append(_U32.pack(len(data)))
    parts.append(data)


def _w_str(parts: list[bytes], text: str):
    _w_bytes(parts, text.encode())


def _w_opt(parts: list[bytes], data: Optional[bytes]):
    if data is None:
        parts.append(b"\0")
    else:
        parts.append(b"\1")
        _w_bytes(parts, data)


def _write_header(parts: list[bytes], report: AttestationReport):
    parts.append(_PREAMBLE.pack(MAGIC, VERSION))
    _w_str(parts, report.hash_name)
    _w_str(parts, report.sig_scheme)
    parts.append(report.measurement)
    parts.append(_U8.pack(report.ncores))
    _w_opt(parts, report.nonce)
    _w_opt(parts, report.verifier_key)
    _w_opt(parts, report.domain_key)


def _read_header(reader: _Reader) -> AttestationReport:
    magic, version = reader.unpack(_PREAMBLE)
    if magic != MAGIC:
        raise deny(ErrorCode.PARSE_ERROR, "bad magic")
    if version != VERSION:
        raise deny(ErrorCode.PARSE_ERROR, f"unsupported version {version}")
    hash_name = reader.read_str()
    sig_scheme = reader.read_str()
    measurement, ncores = reader.unpack(_MEASURED)
    nonce = reader.read_opt()
    verifier_key = reader.read_opt()
    domain_key = reader.read_opt()
    return AttestationReport(
        measurement=measurement, ncores=ncores, nonce=nonce,
        verifier_key=verifier_key, domain_key=domain_key,
        subject=None, hash_name=hash_name, sig_scheme=sig_scheme)


def _write_domain(parts: list[bytes], dom: DomainDescriptor):
    _w_str(parts, dom.name)
    parts.append(dom.register_hash)
    parts.append(_DOMAIN_FIXED.pack(
        int(dom.sealed), dom.cores, dom.mon_api,
        int(dom.user_calls) | (int(dom.receive) << 1)))
    _write_interrupts(parts, dom.interrupts)
    parts.append(_U32.pack(len(dom.owned)))
    for entry in dom.owned:
        if isinstance(entry, RegionDescriptor):
            parts.append(b"\0")
            _write_region(parts, entry)
        elif isinstance(entry, DomainDescriptor):
            parts.append(b"\1")
            _write_domain(parts, entry)
        else:
            parts.append(b"\2" if entry.kind is CapKind.CHANNEL else b"\3")
            _w_str(parts, entry.name)


def _read_domain(reader: _Reader, nested: bool) -> DomainDescriptor:
    name = reader.read_str()
    register_hash, sealed, cores, mon_api, flags = reader.unpack(_DOMAIN_HEAD)
    if sealed > 1 or flags > 3:
        raise deny(ErrorCode.PARSE_ERROR, "bad domain flag byte")
    dom = DomainDescriptor(
        name=name, register_hash=register_hash, sealed=bool(sealed),
        cores=cores, mon_api=mon_api, user_calls=bool(flags & 1),
        receive=bool(flags & 2), interrupts=_read_interrupts(reader))
    for _ in range(reader.unpack(_U32)[0]):
        tag = reader.unpack(_U8)[0]
        if tag == 0:
            dom.owned.append(_read_region(reader))
        elif tag == 1 and not nested:
            dom.owned.append(_read_domain(reader, nested=True))
        elif tag in (2, 3):
            kind = CapKind.CHANNEL if tag == 2 else CapKind.DOMAIN
            dom.owned.append(NamedCap(kind, reader.read_str()))
        else:
            raise deny(ErrorCode.PARSE_ERROR, f"bad capability tag {tag}")
    return dom


# A domain's interrupt table is most often one row repeated: a domain
# setting no vector apart has its default row on all of them.  The codec
# then packs, or compares, the table's bytes as a whole instead of as 512
# separate values; any other table goes value by value.

def _write_interrupts(parts: list[bytes], rows: list[tuple[int, int]]):
    first = rows[0]
    if rows.count(first) == len(rows) == NUM_VECTORS:
        parts.append(_INTERRUPT_ROW.pack(*first) * NUM_VECTORS)
    else:
        parts.append(_INTERRUPT_TABLE.pack(
            *itertools.chain.from_iterable(rows)))


def _read_interrupts(reader: _Reader) -> list[tuple[int, int]]:
    blob, pos = reader.blob, reader.pos
    row = blob[pos:pos + _INTERRUPT_ROW.size]
    if blob[pos:pos + _INTERRUPT_TABLE.size] == row * NUM_VECTORS:
        rows = [_INTERRUPT_ROW.unpack(row)] * NUM_VECTORS
        reader.pos += _INTERRUPT_TABLE.size
        code = rows[0][0]
    else:
        table = reader.unpack(_INTERRUPT_TABLE)
        codes = table[::2]
        rows = list(zip(codes, table[1::2]))
        code = max(codes)
    if code >= len(VISIBILITY_IDS):
        raise deny(ErrorCode.PARSE_ERROR, f"bad visibility code {code}")
    return rows


def _write_region(parts: list[bytes], region: RegionDescriptor):
    _w_str(parts, region.name)
    parts.append(_SPAN.pack(0 if region.status == "exclusive" else 1,
                            region.start, region.end))
    _w_str(parts, region.rights)
    parts.append(_U8.pack(region.attr_flags))
    _w_opt(parts, region.digest)
    parts.append(_U32.pack(len(region.children)))
    for child in region.children:
        parts.append(_SPAN.pack(0 if child.kind == "alias" else 1,
                                child.start, child.end))
        _w_str(parts, child.name)
        _w_str(parts, child.rights)


def _read_region(reader: _Reader) -> RegionDescriptor:
    name = reader.read_str()
    status, start, end = reader.unpack(_SPAN)
    if status > 1:
        raise deny(ErrorCode.PARSE_ERROR, f"bad region status {status}")
    rights = reader.read_str()
    attr_flags = reader.unpack(_U8)[0]
    region = RegionDescriptor(
        name=name, status="aliased" if status else "exclusive",
        start=start, end=end, rights=rights, attr_flags=attr_flags,
        digest=reader.read_opt())
    for _ in range(reader.unpack(_U32)[0]):
        kind, cstart, cend = reader.unpack(_SPAN)
        if kind > 1:
            raise deny(ErrorCode.PARSE_ERROR, f"bad derivation kind {kind}")
        region.children.append(RegionChildLine(
            "carve" if kind else "alias", cstart, cend, reader.read_str(),
            reader.read_str()))
    return region


# ---------------------------------------------------------------------------
# text projection
# ---------------------------------------------------------------------------

def _render_domain(lines: list[str], dom: DomainDescriptor, ncores: int,
                   shallow: bool):
    names = [f"chan({e.name})"
             if isinstance(e, NamedCap) and e.kind is CapKind.CHANNEL
             else e.name for e in dom.owned]
    lines.append(f"{dom.name} = domain {{{', '.join(names)}}}")
    pad = "      |"
    lines.append(f"{pad}registers.HASH: {dom.register_hash.hex()}")
    lines.append(f"{pad}cores: 0b{dom.cores:0{max(ncores, 1)}b}")
    receive = "RECEIVE" if dom.receive else "!RECEIVE"
    lines.append(f"{pad}mon.api: 0b{dom.mon_api:011b} | {receive}")
    lines.append(f"{pad}interrupts: {{")
    for lo, hi, vis, readable in _group_vectors(dom.interrupts):
        span = f"{lo}" if lo == hi else f"{lo}-{hi}"
        lines.append(f"{pad} {span} -> {{{VISIBILITY_IDS[vis].render()}, "
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
             if not r.attr_flags & CLEAN_BIT]
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
