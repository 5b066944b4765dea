"""Scenario scripts: a small line-oriented command grammar driving the engine.

Statements execute as the current domain of a core (`@N` prefix, default
core 0) and names bind on first definition, so a script reads like the
operation sequence it performs.  `expect` statements make scripts
self-checking; the runner's exit status reflects them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

from . import attest as attest_mod
from .domains import (
    NUM_VECTORS, POLICY_FIELDS, REG_PC, REG_SW, CapKind, DomainState,
    PayloadCode, Visibility,
)
from .errors import ErrorCode, MonitorError, deny
from .machine import MachineConfig, boot
from .regions import AttrFlags, PhysRange, RegionStatus, Rights

_REG_NAMES = {"pc": REG_PC, "sw": REG_SW}


class ScriptError(Exception):
    """Scenario text that does not parse."""

    def __init__(self, lineno: int, message: str):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}")


@dataclass
class Statement:
    lineno: int
    core: int
    op: str
    args: list[str]
    text: str


@dataclass
class ExpectFailure:
    lineno: int
    message: str


def parse_script(text: str) -> list[Statement]:
    statements = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        core = 0
        tokens = line.split()
        if tokens[0].startswith("@"):
            try:
                core = int(tokens[0][1:])
            except ValueError:
                raise ScriptError(lineno, f"bad core prefix {tokens[0]!r}")
            tokens = tokens[1:]
            if not tokens:
                raise ScriptError(lineno, "core prefix without a statement")
        inner = tokens
        while inner[:2] == ["expect", "error"] and len(inner) > 3:
            inner = inner[3:]   # the statement `expect error CODE` runs
        if inner[0] not in _STATEMENT_OPS:
            raise ScriptError(lineno, f"unknown statement {inner[0]!r}")
        statements.append(Statement(lineno, core, tokens[0], tokens[1:], line))
    return statements


_STATEMENT_OPS = {
    "boot", "let", "create", "set", "get", "alias", "carve", "send", "seal",
    "switch", "getchan", "attest", "enumerate", "revoke", "write-mem",
    "read-mem", "irq", "devirq", "step", "expect",
}

# The engine lock exists only in concurrent mode; step mode takes none.
# There, memory statements run unlocked, as a guest's loads and stores do (a
# fault takes the lock to route), and so does `expect error`, whose
# statement locks itself.  Every other statement runs in one engine-lock
# scope, so the handles it resolves from engine state still name the same
# objects when the call they feed runs.
_UNLOCKED = {"write-mem", "read-mem", "expect read", "expect zero",
             "expect error"}
# switch, send's destination, getchan and attest name a domain by a domain
# capability or else a channel; seal, set, get and revoke take only the first
_DOMAIN_OR_CHANNEL = (CapKind.DOMAIN, CapKind.CHANNEL)


class ScenarioRunner:
    def __init__(self, config: MachineConfig, seed: int = 0,
                 concurrent: bool = False, quantum: Optional[int] = None):
        self.engine, self.td0, self.measurement = boot(
            config, seed=seed, concurrent=concurrent)
        if quantum:
            self.engine.set_quantum(quantum)
        self.concurrent = concurrent
        self.names: dict[str, tuple[str, int]] = {"td0": ("dom", self.td0),
                                                  "root": ("region", 0)}
        # device names come from the machine config, in boot order
        for dev_cfg, dom in zip(config.devices,
                                [d for d in self.engine.domains.values()
                                 if d.is_device]):
            self.names[dev_cfg.name] = ("dev", dom.id)
        self.reports: dict[str, attest_mod.AttestationReport] = {}
        self.failures: list[ExpectFailure] = []
        self._lock = threading.Lock()
        self.last_handler: Optional[int] = None

    # -- name handling ------------------------------------------------------

    def _unbound(self, name: str):
        """Refuse a bound name.  A statement that binds a name refuses it
        before its engine call and binds it after the call succeeds; every
        such statement runs in one engine-lock scope, so no other binds the
        name in between."""
        with self._lock:
            if name in self.names:
                raise deny(ErrorCode.BAD_HANDLE, f"name {name!r} already bound")

    def _bind(self, name: str, kind: str, ref: int):
        with self._lock:
            self.names[name] = (kind, ref)

    def _lookup(self, name: str, kinds: tuple[str, ...]) -> tuple[str, int]:
        with self._lock:
            if name not in self.names:
                raise deny(ErrorCode.BAD_HANDLE, f"unbound name {name!r}")
            kind, ref = self.names[name]
        if kind not in kinds:
            raise deny(ErrorCode.BAD_HANDLE,
                       f"{name!r} is a {kind}, expected {'/'.join(kinds)}")
        return kind, ref

    def _value(self, token: str) -> int:
        with self._lock:
            bound = self.names.get(token)
        if bound is not None and bound[0] == "addr":
            return bound[1]
        try:
            return int(token, 0)
        except ValueError:
            raise deny(ErrorCode.BAD_HANDLE, f"bad value {token!r}")

    def _caller(self, core: int) -> int:
        return self.engine.current_domain(core)

    def _handle(self, caller: int, ref: int, *kinds: CapKind) -> int:
        """The caller's handle to `ref` of the first of `kinds` it holds."""
        table = self.engine.domains[caller].owned
        for kind in kinds:
            handle = table.find(kind, ref)
            if handle is not None:
                return handle
        raise deny(ErrorCode.BAD_HANDLE, f"caller {caller} holds no "
                   f"{'/'.join(k.value for k in kinds)} capability for {ref}")

    def _subject(self, caller: int, name: str) -> tuple[Optional[int], int]:
        """The handle (None for `self`) and domain a getchan or attest names."""
        if name == "self":
            return None, caller
        _, dom_id = self._lookup(name, ("dom", "dev"))
        return self._handle(caller, dom_id, *_DOMAIN_OR_CHANNEL), dom_id

    # -- execution ------------------------------------------------------------

    def run(self, statements: list[Statement]) -> int:
        """Run a script; one naming a core the machine lacks runs nothing."""
        for stmt in statements:
            if not 0 <= stmt.core < self.engine.platform.ncores:
                raise ScriptError(stmt.lineno, f"no core {stmt.core}")
        if self.concurrent:
            platform = self.engine.platform
            platform.start_cores()
            for stmt in statements:
                platform.submit(stmt.core, lambda s=stmt: self._exec_guarded(s))
            platform.join()
        else:
            for stmt in statements:
                self._exec_guarded(stmt)
        return 1 if self.failures else 0

    def _exec_guarded(self, stmt: Statement):
        try:
            self.execute(stmt)
        except MonitorError:
            pass  # rejected operations are observable behavior, not crashes
        finally:
            self.engine.platform.tick()

    def execute(self, stmt: Statement):
        """Run one statement; arguments that do not decode (a missing one,
        a bad number, rights or attribute token) are a ScriptError."""
        handler = getattr(self, "_stmt_" + stmt.op.replace("-", "_"))
        try:
            scope = f"expect {stmt.args[0]}" if stmt.op == "expect" \
                else stmt.op
            if self.concurrent and scope not in _UNLOCKED:
                with self.engine.platform.engine_lock:
                    handler(stmt)
            else:
                handler(stmt)
        except (ValueError, IndexError) as exc:
            raise ScriptError(stmt.lineno,
                              f"{stmt.text!r}: bad arguments ({exc})") from None

    def _stmt_boot(self, stmt: Statement):
        pass  # the machine boots before the script runs

    def _stmt_let(self, stmt: Statement):
        name, value = stmt.args
        self._unbound(name)
        self._bind(name, "addr", int(value, 0))

    def _stmt_create(self, stmt: Statement):
        (name,) = stmt.args
        caller = self._caller(stmt.core)
        self._unbound(name)
        handle = self.engine.create(caller)
        dom_id = self.engine.domains[caller].owned.get(handle).ref
        self._bind(name, "dom", dom_id)

    def _stmt_set(self, stmt: Statement):
        name, fname = stmt.args[0], stmt.args[1]
        caller = self._caller(stmt.core)
        _, dom_id = self._lookup(name, ("dom",))
        handle = self._handle(caller, dom_id, CapKind.DOMAIN)
        kind = POLICY_FIELDS.get(fname)
        if kind is int:
            self.engine.set_policy(caller, handle, fname,
                                   self._value(stmt.args[2]))
        elif kind is bool:
            value = stmt.args[2].lower() in ("1", "on", "true")
            self.engine.set_policy(caller, handle, fname, int(value))
        elif fname == "intr":
            vspec, vis = stmt.args[2], stmt.args[3]
            readable = self._value(stmt.args[4]) if len(stmt.args) > 4 else 0
            try:
                visibility = Visibility(vis)
            except ValueError:
                raise deny(ErrorCode.BAD_HANDLE, f"visibility {vis!r}") \
                    from None
            for vector in self._vectors(vspec):
                self.engine.set_interrupt_policy(caller, handle, vector,
                                                 visibility, readable)
        elif fname == "reg":
            core, index = self._value(stmt.args[2]), self._reg(stmt.args[3])
            self.engine.set_register(caller, handle, core, index,
                                     self._value(stmt.args[4]))
        else:
            raise deny(ErrorCode.BAD_HANDLE, f"set field {fname!r}")

    def _stmt_get(self, stmt: Statement):
        name, fname = stmt.args[0], stmt.args[1]
        caller = self._caller(stmt.core)
        _, dom_id = self._lookup(name, ("dom",))
        handle = self._handle(caller, dom_id, CapKind.DOMAIN)
        if fname == "reg":
            core, index = self._value(stmt.args[2]), self._reg(stmt.args[3])
            self.engine.get_register(caller, handle, core, index)
        else:
            self.engine.get_policy(caller, handle, fname)

    @staticmethod
    def _reg(token: str) -> int:
        if token in _REG_NAMES:
            return _REG_NAMES[token]
        return int(token, 0)

    @staticmethod
    def _vectors(vspec: str) -> range:
        if vspec == "all":
            return range(NUM_VECTORS)
        if "-" in vspec:
            lo, hi = vspec.split("-", 1)
            return range(int(lo, 0), int(hi, 0) + 1)
        vector = int(vspec, 0)
        return range(vector, vector + 1)

    def _stmt_alias(self, stmt: Statement):
        self._derive(stmt, carve=False)

    def _stmt_carve(self, stmt: Statement):
        self._derive(stmt, carve=True)

    def _derive(self, stmt: Statement, carve: bool):
        new_name, parent_name, start, end, rights = stmt.args
        caller = self._caller(stmt.core)
        _, parent_id = self._lookup(parent_name, ("region",))
        handle = self._handle(caller, parent_id, CapKind.REGION)
        rng = PhysRange(self._value(start), self._value(end))
        rights = Rights.parse(rights)
        self._unbound(new_name)
        fn = self.engine.tree_carve if carve else self.engine.tree_alias
        new_handle = fn(caller, handle, rng, rights)
        region_id = self.engine.domains[caller].owned.get(new_handle).ref
        self._bind(new_name, "region", region_id)

    def _stmt_send(self, stmt: Statement):
        cap_name, dest_name = stmt.args[0], stmt.args[1]
        attrs = AttrFlags.parse(stmt.args[2]) if len(stmt.args) > 2 \
            else AttrFlags.NONE
        caller = self._caller(stmt.core)
        kind, ref = self._lookup(cap_name, ("region", "channel"))
        handle = self._handle(caller, ref, CapKind(kind))
        _, dest_id = self._lookup(dest_name, ("dom", "dev"))
        dest_handle = self._handle(caller, dest_id, *_DOMAIN_OR_CHANNEL)
        self.engine.send(caller, handle, dest_handle, attrs)

    def _stmt_seal(self, stmt: Statement):
        (name,) = stmt.args
        caller = self._caller(stmt.core)
        _, dom_id = self._lookup(name, ("dom",))
        handle = self._handle(caller, dom_id, CapKind.DOMAIN)
        self.engine.seal(caller, handle)

    def _stmt_switch(self, stmt: Statement):
        (target,) = stmt.args
        caller = self._caller(stmt.core)
        if target == "ret":
            self.engine.switch(caller, stmt.core, None)
        else:
            _, dom_id = self._lookup(target, ("dom",))
            handle = self._handle(caller, dom_id, *_DOMAIN_OR_CHANNEL)
            self.engine.switch(caller, stmt.core, handle)

    def _stmt_getchan(self, stmt: Statement):
        new_name, source = stmt.args
        caller = self._caller(stmt.core)
        handle, target_id = self._subject(caller, source)
        self._unbound(new_name)
        self.engine.getchan(caller, handle)
        self._bind(new_name, "channel", target_id)

    def _stmt_attest(self, stmt: Statement):
        rname, subject = stmt.args[0], stmt.args[1]
        nonce = bytes.fromhex(stmt.args[2]) if len(stmt.args) > 2 else None
        caller = self._caller(stmt.core)
        handle, _ = self._subject(caller, subject)
        report = self.engine.attest(caller, handle, nonce=nonce)
        with self._lock:
            self.reports[rname] = report

    def _stmt_enumerate(self, stmt: Statement):
        caller = self._caller(stmt.core)
        cursor = 0
        while True:
            desc, cursor = self.engine.enumerate(caller, cursor)
            if desc is None:
                break

    def _stmt_revoke(self, stmt: Statement):
        target = stmt.args[0]
        caller = self._caller(stmt.core)
        kind, ref = self._lookup(target, ("dom", "region"))
        if kind == "dom":
            self.engine.revoke_domain(caller, self._handle(caller, ref,
                                                           CapKind.DOMAIN))
        else:
            parent_id = self.engine.tree.get(ref).parent
            if parent_id is None:
                raise deny(ErrorCode.NOT_A_CHILD, "cannot revoke the root")
            parent_handle = self._handle(caller, parent_id, CapKind.REGION)
            index = self.engine.tree.nodes[parent_id].children.index(ref)
            self.engine.revoke_region(caller, parent_handle, index)

    def _stmt_write_mem(self, stmt: Statement):
        addr, value = self._value(stmt.args[0]), self._value(stmt.args[1])
        self.engine.domain_write(stmt.core, addr, value)

    def _stmt_read_mem(self, stmt: Statement):
        addr = self._value(stmt.args[0])
        self.engine.domain_read(stmt.core, addr)

    def _stmt_irq(self, stmt: Statement):
        vector = self._value(stmt.args[0])
        self.last_handler = self.engine.route_interrupt(stmt.core, vector)

    def _stmt_devirq(self, stmt: Statement):
        _, dev_id = self._lookup(stmt.args[0], ("dev",))
        vector = self.engine.domains[dev_id].device_vector
        if len(stmt.args) >= 3 and stmt.args[1] == "at":
            self.engine.platform.schedule_device_interrupt(
                vector, self._value(stmt.args[2]))
        else:
            self.last_handler = self.engine.route_device_interrupt(vector)

    def _stmt_step(self, stmt: Statement):
        self.engine.platform.tick(self._value(stmt.args[0]))

    # -- expects ---------------------------------------------------------------

    def _fail(self, stmt: Statement, message: str):
        with self._lock:
            self.failures.append(ExpectFailure(stmt.lineno, message))

    def _stmt_expect(self, stmt: Statement):
        kind = stmt.args[0]
        handler = getattr(self, "_expect_" + kind, None)
        if handler is None:
            raise ScriptError(stmt.lineno, f"unknown expect {kind!r}")
        handler(stmt, stmt.args[1:])

    def _expect_error(self, stmt: Statement, args: list[str]):
        code_name = args[0]
        inner = Statement(stmt.lineno, stmt.core, args[1], args[2:],
                          stmt.text)
        try:
            self.execute(inner)
        except MonitorError as exc:
            if exc.code.name != code_name.upper():
                self._fail(stmt, f"expected {code_name}, got {exc.code.name}")
        else:
            self._fail(stmt, f"expected {code_name}, but the operation succeeded")

    def _expect_view(self, stmt: Statement, args: list[str]):
        _, region_id = self._lookup(args[0], ("region",))
        want = []
        for seg in args[1:]:
            parts = seg.split(":")
            status = RegionStatus.EXCLUSIVE if parts[0].upper() == "X" \
                else RegionStatus.ALIASED
            want.append((status, self._value(parts[1]), self._value(parts[2])))
        got = [(s.status, s.range.start, s.range.end)
               for s in self.engine.tree.effective_view(region_id)]
        if got != want:
            self._fail(stmt, f"view of {args[0]} is {got}, expected {want}")

    def _expect_owner(self, stmt: Statement, args: list[str]):
        _, region_id = self._lookup(args[0], ("region",))
        _, dom_id = self._lookup(args[1], ("dom", "dev"))
        node = self.engine.tree.nodes.get(region_id)
        if node is None:
            self._fail(stmt, f"region {args[0]} was destroyed")
        elif node.owner != dom_id:
            self._fail(stmt, f"region {args[0]} owned by {node.owner}, "
                             f"expected {dom_id}")

    def _expect_gone(self, stmt: Statement, args: list[str]):
        _, region_id = self._lookup(args[0], ("region",))
        if region_id in self.engine.tree.nodes:
            self._fail(stmt, f"region {args[0]} still exists")

    def _expect_state(self, stmt: Statement, args: list[str]):
        _, dom_id = self._lookup(args[0], ("dom", "dev"))
        state = self.engine.domains[dom_id].state
        if state is not DomainState(args[1]):
            self._fail(stmt, f"domain {args[0]} is {state.value}, "
                             f"expected {args[1]}")

    def _expect_current(self, stmt: Statement, args: list[str]):
        _, dom_id = self._lookup(args[0], ("dom", "dev"))
        current = self.engine.current_domain(stmt.core)
        if current != dom_id:
            self._fail(stmt, f"core {stmt.core} runs domain {current}, "
                             f"expected {dom_id}")

    def _expect_payload(self, stmt: Statement, args: list[str]):
        want = args[0]
        got = self.engine.cores[stmt.core].last_payload
        if got is None:
            self._fail(stmt, "no payload delivered")
            return
        code, detail = got
        if want == "returned":
            ok = code == PayloadCode.RETURNED
        elif want.startswith("interrupt:"):
            ok = code == PayloadCode.INTERRUPT and \
                detail == self._value(want.split(":", 1)[1])
        elif want.startswith("revoked"):
            ok = code == PayloadCode.REVOKED_CHILD
            if ":" in want:
                _, dom_id = self._lookup(want.split(":", 1)[1], ("dom",))
                ok = ok and detail == dom_id
        else:
            raise ScriptError(stmt.lineno, f"bad payload spec {want!r}")
        if not ok:
            self._fail(stmt, f"payload is {got}, expected {want}")

    def _expect_read(self, stmt: Statement, args: list[str]):
        addr, verdict = self._value(args[0]), args[1]
        ok, _ = self.engine.domain_read(stmt.core, addr)
        if ok != (verdict == "allow"):
            self._fail(stmt, f"read {addr:#x} {'allowed' if ok else 'denied'}, "
                             f"expected {verdict}")

    def _expect_zero(self, stmt: Statement, args: list[str]):
        start, end = self._value(args[0]), self._value(args[1])
        blob = self.engine.platform.memory.peek(start, end)
        if any(blob):
            self._fail(stmt, f"[{start:#x},{end:#x}) is not all zero")

    def _expect_handler(self, stmt: Statement, args: list[str]):
        _, dom_id = self._lookup(args[0], ("dom",))
        if self.last_handler != dom_id:
            self._fail(stmt, f"handler was {self.last_handler}, "
                             f"expected {dom_id}")

    def _expect_delivered(self, stmt: Statement, args: list[str]):
        vector = self._value(args[0])
        _, dom_id = self._lookup(args[1], ("dom",))
        if not any(r.ok and r.op == "irq" and r.args["vector"] == vector
                   and r.results.get("delivered") == "inplace"
                   and r.results["handler"] == dom_id
                   for r in self.engine.trace.records):
            self._fail(stmt, f"vector {vector} never delivered in place "
                             f"to domain {dom_id}")

    def _expect_confidential(self, stmt: Statement, args: list[str]):
        self._predicate(stmt, args, encapsulated=False)

    def _expect_encapsulated(self, stmt: Statement, args: list[str]):
        self._predicate(stmt, args, encapsulated=True)

    def _predicate(self, stmt: Statement, args: list[str], encapsulated: bool):
        with self._lock:
            report = self.reports.get(args[0])
        if report is None:
            self._fail(stmt, f"no report named {args[0]!r}")
            return
        names = report.name_of_domain
        try:
            if encapsulated:
                child = names[self._lookup(args[1], ("dom",))[1]]
                parent = names[self._lookup(args[2], ("dom",))[1]]
                verdict, clauses = attest_mod.is_encapsulated(
                    report, child, parent)
                want = args[3] == "true"
            else:
                subject = names[self._lookup(args[1], ("dom",))[1]]
                verdict, clauses = attest_mod.is_confidential(report, subject)
                want = args[2] == "true"
        except KeyError:
            self._fail(stmt, "domain not visible in the report")
            return
        if verdict != want:
            detail = "; ".join(f"{c.name}={c.ok}" for c in clauses)
            self._fail(stmt, f"predicate is {verdict} ({detail}), "
                             f"expected {want}")
