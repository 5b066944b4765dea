"""Workload `tenant_sessions`: the paper's confidential-inference setting.

A host runs a confidential VM (CVM); the CVM creates one enclave per user
session, attests it and tears it down.  Set-up boots the host and the CVM
once per round.  A session is four timed operations, one per step:

  1. block: a generated scenario-script block (create, set, alias/carve,
     send, seal, switch, write-mem/read-mem, switch ret) is parsed and
     executed by `ScenarioRunner.run` on the round's one runner;
  2. fetch: the CVM fetches its report, which describes the enclave,
     through the register ABI: `Engine.monitor_call` issues ATTEST, then
     drains the continuation token 16 bytes at a time;
  3. judge: the report is parsed with `AttestationReport.from_bytes`,
     verified with `verify_report`, and `is_confidential` /
     `is_encapsulated` evaluated;
  4. revoke: the CVM revokes the enclave.

A session as one operation would make a round of the 1,000 operations
that `op_p99_us` needs take about 4 s, so a 40 s run would time each
operation only about eight times; as steps, 250 sessions make the 1,000
operations and each is timed about 35 times.

The seed picks each block's variant and layout.  The variants follow
`llm.tyscn` and its three `llm_mut_*` mutants, so both verdicts of each
predicate occur and each verdict is known from how the block was made.
"""

from __future__ import annotations

import hashlib
import random

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

from capmon import attest as attest_mod
from capmon import scenario as scenario_mod
from capmon.domains import ApiCall, CapKind, DomainState
from capmon.machine import MachineConfig
from capmon.regions import AttrFlags, PAGE, PhysRange
from capmon.scenario import ScenarioRunner
from harness import engine_counts

SESSIONS = 250
CVM_MEM = (0x102000, 0x180000)
SETUP_SCRIPT = f"""
create cvm
set cvm cores 0b11
set cvm mon_api 0b11111111111
set cvm receive on
set cvm intr all report
alias shr root 0x101000 0x102000 RW_
carve mem root {CVM_MEM[0]:#x} {CVM_MEM[1]:#x} RWX
send shr cvm
send mem cvm HASH|CLEAN|VITAL
seal cvm
switch cvm
"""
# variant -> (enclave memory derivation, CLEAN on it, enclave mon_api,
#             expected is_confidential, expected is_encapsulated)
VARIANTS = {
    "llm": ("carve", True, 0b00001110000, True, True),
    "noclean": ("carve", False, 0b00001110000, False, True),
    "shared": ("alias", True, 0b00001110000, False, True),
    "send": ("carve", True, 0b00001110100, True, False),
}


def machine_config() -> MachineConfig:
    return MachineConfig(memory_size=0x200000, cores=2,
                         monitor_reserved=PhysRange(0, 0x100000))


def expected_pcr(config: MachineConfig, seed: int) -> bytes:
    """The boot measurement, folded here rather than by the program."""
    pcr = bytes(32)
    for blob in (config.canonical_bytes(), attest_mod.MONITOR_IDENTITY,
                 attest_mod.monitor_public_key(seed)):
        pcr = hashlib.sha256(pcr + hashlib.sha256(blob).digest()).digest()
    return pcr


class Session:
    """One generated session block and what it must produce."""

    def __init__(self, n: int, rng: random.Random):
        self.variant = rng.choice(sorted(VARIANTS))
        derive, clean, mon_api, self.confidential, self.encapsulated = \
            VARIANTS[self.variant]
        pages = (CVM_MEM[1] - CVM_MEM[0]) // PAGE
        msg_pages, encl_pages = rng.randint(1, 2), rng.randint(1, 4)
        start = CVM_MEM[0] + rng.randrange(pages - msg_pages - encl_pages) * PAGE
        self.msg = (start, start + msg_pages * PAGE)
        self.encl = (self.msg[1], self.msg[1] + encl_pages * PAGE)
        if rng.random() < 0.5:          # enclave memory below the message
            self.encl = (start, start + encl_pages * PAGE)
            self.msg = (self.encl[1], self.encl[1] + msg_pages * PAGE)
        self.clean = clean
        self.dom = f"e{n}"
        lines = [
            f"create {self.dom}",
            f"set {self.dom} cores 0b01",
            f"set {self.dom} mon_api {mon_api:#b}",
            f"alias m{n} mem {self.msg[0]:#x} {self.msg[1]:#x} RW_",
            f"{derive} k{n} mem {self.encl[0]:#x} {self.encl[1]:#x} RWX",
            f"send m{n} {self.dom}",
            f"send k{n} {self.dom}{' CLEAN' if clean else ''}",
            f"seal {self.dom}",
            f"switch {self.dom}",
        ]
        for _ in range(rng.randint(2, 6)):
            lo, hi = rng.choice((self.msg, self.encl))
            lines.append(f"write-mem {rng.randrange(lo, hi):#x} "
                         f"{rng.randrange(1, 256):#x}")
        for _ in range(rng.randint(2, 6)):
            lo, hi = rng.choice((self.msg, self.encl))
            lines.append(f"read-mem {rng.randrange(lo, hi):#x}")
        lines.append("switch ret")
        self.script = "\n".join(lines) + "\n"
        self.regions = sorted([
            ("aliased", self.msg[0], self.msg[1], "RW_", 0),
            ("exclusive" if derive == "carve" else "aliased",
             self.encl[0], self.encl[1], "RWX",
             int(AttrFlags.CLEAN) if clean else 0),
        ])


class TenantState:
    def __init__(self, runner: ScenarioRunner):
        self.runner = runner
        self.engine = runner.engine
        self.cvm = runner.names["cvm"][1]
        self.abi_calls = 0


class TenantSessions:
    name = "tenant_sessions"

    def __init__(self, seed: int, sessions: int = SESSIONS):
        self.seed = seed
        self.config = machine_config()
        self.public_key = attest_mod.monitor_public_key(seed)
        self.pcr = expected_pcr(self.config, seed)
        rng = random.Random(f"tenant_sessions/{seed}")
        self.sessions = [Session(n, rng) for n in range(sessions)]
        self.setup_statements = scenario_mod.parse_script(SETUP_SCRIPT)

    def segments(self) -> list:
        return [None]

    def setup(self, spec) -> TenantState:
        runner = ScenarioRunner(self.config, seed=self.seed)
        runner.run(self.setup_statements)
        st = TenantState(runner)
        if any(not r.ok for r in st.engine.trace.records) or \
                st.engine.current_domain(0) != st.cvm:
            raise RuntimeError("tenant set-up script was rejected")
        return st

    def operations(self, spec, st: TenantState):
        for s in self.sessions:
            out = {}        # what one step hands to the next
            yield (lambda s=s, out=out: _block(st, s, out),
                   lambda _, s=s, out=out: self.check_block(st, s, out))
            yield (lambda out=out: _fetch(st, out),
                   lambda _, s=s, out=out: self.check_fetch(s, out))
            yield (lambda out=out: _judge(out, self.public_key, self.pcr),
                   lambda _, s=s, out=out: self.check_judge(s, out))
            yield (lambda s=s: _revoke(st, s),
                   lambda _, s=s: self.check_revoke(st, s))

    def check_block(self, st: TenantState, s: Session, out) -> str | None:
        records = st.engine.trace.records[out["first"]:]
        rejected = sum(1 for r in records if not r.ok)
        if rejected:
            return f"session {s.dom}: {rejected} statement(s) rejected"
        return None

    def check_fetch(self, s: Session, out) -> str | None:
        problem = self.check_signature(out["blob"])
        return f"session {s.dom}: {problem}" if problem else None

    def check_judge(self, s: Session, out) -> str | None:
        report, verdicts = out["report"], out["verdicts"]
        if report.measurement != self.pcr:
            return f"session {s.dom}: PCR differs"
        if verdicts != (s.confidential, s.encapsulated):
            return (f"session {s.dom} ({s.variant}): verdicts {verdicts}, "
                    f"expected {(s.confidential, s.encapsulated)}")
        got = sorted((r.status, r.start, r.end, r.rights, r.attr_flags)
                     for r in report.subject.nested[0].regions)
        if got != s.regions:
            return f"session {s.dom}: report regions {got}, made {s.regions}"
        return None

    def check_revoke(self, st: TenantState, s: Session) -> str | None:
        dom = st.runner.names[s.dom][1]
        if st.engine.domains[dom].state is not DomainState.REVOKED:
            return f"session {s.dom}: enclave not revoked"
        if s.clean and any(st.engine.platform.memory.data[s.encl[0]:s.encl[1]]):
            return f"session {s.dom}: CLEAN range not zero after revoke"
        return None

    def check_signature(self, blob: bytes) -> str | None:
        """Ed25519 over the signed body, split from the raw report bytes."""
        if len(blob) < 68 or int.from_bytes(blob[-68:-64], "little") != 64:
            return "report does not end in a 64-byte signature"
        try:
            Ed25519PublicKey.from_public_bytes(self.public_key).verify(
                blob[-64:], blob[:-68])
        except InvalidSignature:
            return "signature does not verify against monitor_public_key(seed)"
        return None

    def counts(self, st: TenantState) -> dict:
        return dict(engine_counts(st.engine), abi_calls=st.abi_calls)


def fetch_report(st: TenantState, core: int = 0) -> bytes:
    """ATTEST on self, then drain the continuation token through registers."""
    engine = st.engine
    regs = engine.domains[st.cvm].core_regs(core)
    regs[0:7] = [int(ApiCall.ATTEST), 0, 0, 0, 0, 0, 0]
    engine.monitor_call(core)
    st.abi_calls += 1
    if regs[0] != 0:
        raise RuntimeError(f"ATTEST failed with code {regs[0]}")
    total, token = regs[1], regs[2]
    chunks = []
    received = 0
    while received < total:
        regs[0:3] = [int(ApiCall.ATTEST), 0, token]
        engine.monitor_call(core)
        st.abi_calls += 1
        if regs[0] != 0:
            raise RuntimeError(f"drain failed with code {regs[0]}")
        n = regs[1]
        chunk = regs[2].to_bytes(8, "little") + regs[3].to_bytes(8, "little")
        chunks.append(chunk[:n])
        received += n
    return b"".join(chunks)


def _block(st: TenantState, s: Session, out: dict):
    out["first"] = len(st.engine.trace.records)
    st.runner.run(scenario_mod.parse_script(s.script))


def _fetch(st: TenantState, out: dict):
    out["blob"] = fetch_report(st)


def _judge(out: dict, public_key: bytes, pcr: bytes):
    report = attest_mod.AttestationReport.from_bytes(out["blob"])
    attest_mod.verify_report(report, public_key, pcr)
    cvm_name = report.subject.name
    enclave = report.subject.nested[0].name
    out["report"] = report
    out["verdicts"] = (
        attest_mod.is_confidential(report, enclave)[0],
        attest_mod.is_encapsulated(report, enclave, cvm_name)[0])


def _revoke(st: TenantState, s: Session):
    engine = st.engine
    dom = st.runner.names[s.dom][1]
    engine.revoke_domain(st.cvm,
                         engine.domains[st.cvm].owned.find(CapKind.DOMAIN, dom))
