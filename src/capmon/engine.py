"""The capability engine: one logical state machine for the whole machine.

Owns both derivation trees (memory regions and trust domains), validates and
executes the eleven monitor calls, routes interrupts over the domain tree,
and publishes cross-core effects through per-core update queues under the
two-barrier protocol.  Operations with overlapping targets execute one at a
time; in concurrent mode the platform supplies an IPI-aware lock.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from . import attest as attest_mod
from .domains import (
    ALL_CALLS_MASK, POLICY_FIELDS, REG_MASK, NUM_REGS, NUM_VECTORS, ApiCall,
    CapEntry, CapKind, ChainEntry, ChildKind, CoreState, DomainNode,
    DomainState, DomainTable, InterruptPolicy, IrqFrame, PayloadCode,
    Policies, RevokedDomain, Update, UpdateKind, Visibility,
    undeliverable_vectors, zero_registers,
)
from .errors import ErrorCode, MonitorError, deny
from .machine import (
    FAULT_VECTOR, TIMER_VECTOR, CoreRunState, disjoint_view, view_allows,
)
from .regions import (
    PAGE, AttrFlags, PhysRange, RegionAttributes, RegionStatus, RegionTree,
    Rights,
)
from .trace import OpRecord, TraceLog

# continuation buffers one domain may leave undrained; a further ATTEST or
# ENUMERATE through the register ABI is denied OUT_OF_METADATA
MAX_UNDRAINED = 8


@dataclass
class CapDescription:
    """Enumerate output for a single owned capability."""

    kind: str
    status: str = ""
    start: int = 0
    end: int = 0
    rights: str = ""
    attributes: str = ""
    state: str = ""
    children: list[tuple[str, str, int, int, str]] = field(default_factory=list)

    def render(self) -> str:
        if self.kind == "region":
            line = (f"region {self.status} {self.start:#x} {self.end:#x} "
                    f"{self.rights}")
            if self.attributes:
                line += f" {self.attributes}"
            for name, kind, start, end, rights in self.children:
                line += f" | {kind} {start:#x} {end:#x} {name} {rights}"
            return line
        if self.kind == "domain":
            return f"domain {self.state}"
        return f"channel {self.state}"


class Engine:
    def __init__(self, platform, seed: int = 0, measurement=None):
        self.platform = platform
        self.seed = seed
        self.measurement = measurement
        self.tree = RegionTree()
        self.domains = DomainTable()
        self._next_channel = 0
        self.cores = [CoreState(i) for i in range(platform.ncores)]
        self.trace = TraceLog()
        self.root_region: Optional[int] = None
        self.max_domains = platform.config.metadata_pool
        self.quantum: Optional[int] = None
        self._quantum_deadlines: dict[int, tuple[int, int]] = {}
        # continuation token -> (issuing domain, output bytes, bytes drained)
        self._buffers: dict[int, tuple[int, bytes, int]] = {}
        self._next_token = 1

    # ------------------------------------------------------------------
    # serialization of operations
    # ------------------------------------------------------------------

    def _call(self, call: ApiCall, op: str, caller: int, args: dict, body,
              core: Optional[int] = None) -> dict:
        """Run one monitor call under the engine lock and trace it.

        Inside the traced region the caller must be a live domain whose
        policy allows `call`; `body` then runs with the caller's node.  The
        trace names `core`, or else the core the caller runs on (-1 if
        none), read only once the lock is held.
        """
        def gated():
            dom = self.domain(caller)
            if not dom.live:
                raise deny(ErrorCode.DOMAIN_REVOKED, f"caller {caller}")
            if not dom.policies.allows(call):
                raise deny(ErrorCode.POLICY_DENIED, f"{call.name} bit clear")
            return body(dom)

        with self.platform.engine_lock:
            if core is None:
                core = self._core_of(caller)
            return self._record(op, core, args, gated)

    def _record(self, op: str, core: int, args: dict, fn):
        try:
            results = fn()
        except MonitorError as exc:
            self.trace.record(OpRecord(self.platform.now, core, op, args,
                                       False, exc.code.name))
            raise
        self.trace.record(OpRecord(self.platform.now, core, op, args,
                                   True, "", results or {}))
        return results

    # ------------------------------------------------------------------
    # boot
    # ------------------------------------------------------------------

    def boot_td0(self) -> int:
        config = self.platform.config
        td0 = self.domains.new(parent=None)
        td0.policies = Policies(
            cores=(1 << config.cores) - 1,
            mon_api=ALL_CALLS_MASK,
            user_calls=True,
            receive=True,
            interrupt_default=InterruptPolicy(Visibility.DELIVER, 0),
        )
        for core in range(config.cores):
            td0.regs[core] = zero_registers()
        td0.register_hash = self._register_hash(td0)
        td0.state = DomainState.SEALED

        root_range = PhysRange(config.monitor_reserved.end, config.address_top)
        self.root_region = self.tree.create_root(td0.id, root_range, Rights.RWX)
        td0.owned.insert(CapEntry(CapKind.REGION, self.root_region))

        boot_args = {
            "mem": config.memory_size,
            "reserved_end": config.monitor_reserved.end,
            "top": config.address_top,
            "cores": config.cores,
            "td0": td0.id,
            "root": self.root_region,
        }
        self.trace.record(OpRecord(0, -1, "boot", boot_args, True, "", {}))

        ram = PhysRange(config.monitor_reserved.end, config.memory_size)
        for dev_cfg in config.devices:
            dev = self.domains.new(parent=td0.id)
            dev.is_device = True
            dev.device_vector = dev_cfg.vector
            dev.mmio = dev_cfg.mmio
            dev.register_hash = self._register_hash(dev)
            dev.state = DomainState.SEALED
            carve_id = self.tree.carve(td0.id, self.root_region,
                                       dev_cfg.mmio, Rights.RW)
            self.tree.nodes[carve_id].owner = dev.id
            dev.owned.insert(CapEntry(CapKind.REGION, carve_id))
            alias_id = self.tree.alias(td0.id, self.root_region, ram, Rights.RW)
            self.tree.nodes[alias_id].owner = dev.id
            dev.owned.insert(CapEntry(CapKind.REGION, alias_id))
            td0.owned.insert(CapEntry(CapKind.CHANNEL, dev.id))
            dev.children.append((ChildKind.CHANNEL, self._mint_channel()))
            self.trace.record(OpRecord(0, -1, "devboot", {
                "dev": dev.id, "name": dev_cfg.name, "vector": dev_cfg.vector,
                "mmio_carve": carve_id, "mmio_start": dev_cfg.mmio.start,
                "mmio_end": dev_cfg.mmio.end, "ram_alias": alias_id,
                "ram_start": ram.start, "ram_end": ram.end,
            }, True, "", {}))

        for core in self.cores:
            core.current = td0.id
        self._refresh_views({c.id for c in self.cores})
        return td0.id

    def _mint_channel(self) -> int:
        self._next_channel += 1
        return self._next_channel

    def _register_hash(self, dom: DomainNode) -> bytes:
        h = hashlib.sha256()
        for core in range(self.platform.ncores):
            if not dom.policies.cores & (1 << core):
                continue
            h.update(core.to_bytes(2, "little"))
            for value in dom.core_regs(core):
                h.update(value.to_bytes(8, "little", signed=False))
        return h.digest()

    # ------------------------------------------------------------------
    # lookups and helpers
    # ------------------------------------------------------------------

    def domain(self, dom_id: int) -> DomainNode | RevokedDomain:
        """The record of a domain id; a revoked id reads as REVOKED, and an
        id never issued is UNKNOWN_DOMAIN."""
        try:
            return self.domains[dom_id]
        except KeyError:
            raise deny(ErrorCode.UNKNOWN_DOMAIN, f"domain {dom_id}") from None

    def current_domain(self, core: int) -> int:
        return self.cores[core].current

    def _resolve(self, dom: DomainNode, handle: int) -> CapEntry:
        entry = dom.owned.get(handle)
        if entry is None:
            raise deny(ErrorCode.BAD_HANDLE, f"handle {handle}")
        return entry

    def _resolve_td(self, dom: DomainNode, handle: int,
                    allow_channel: bool = False) -> DomainNode:
        entry = self._resolve(dom, handle)
        if entry.kind is CapKind.REGION:
            raise deny(ErrorCode.BAD_HANDLE, "expected a domain capability")
        if entry.kind is CapKind.CHANNEL and not allow_channel:
            raise deny(ErrorCode.CHANNEL_NO_CONTROL,
                       "channels cannot schedule, configure, or revoke")
        target = self.domain(entry.ref)
        if not target.live:
            raise deny(ErrorCode.DOMAIN_REVOKED, f"domain {target.id}")
        return target

    def _unsealed_child(self, dom: DomainNode, handle: int) -> DomainNode:
        """A child still open to configuration: it resolves and is unsealed."""
        child = self._resolve_td(dom, handle)
        if child.state is not DomainState.UNSEALED:
            raise deny(ErrorCode.SEALED, "configuration frozen after seal")
        return child

    def _running_core(self, dom_id: int) -> Optional[int]:
        for core in self.cores:
            if core.current == dom_id:
                return core.id
        return None

    def _core_of(self, caller: int) -> int:
        core = self._running_core(caller)
        return -1 if core is None else core

    def _cores_running(self, dom_ids: set[int]) -> set[int]:
        return {c.id for c in self.cores if c.current in dom_ids}

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    def _segments(self, dom: DomainNode):
        """(region id, segment) over the effective views of dom's regions."""
        for _, entry in dom.owned.entries():
            if entry.kind is CapKind.REGION:
                for seg in self.tree.effective_view(entry.ref):
                    yield entry.ref, seg

    def view_cache_for(self, dom_id: int) -> list[tuple[int, int, int]]:
        dom = self.domains.get(dom_id)
        if dom is None:
            return []
        return disjoint_view([(seg.range.start, seg.range.end, int(seg.rights))
                              for _, seg in self._segments(dom)])

    def _refresh_views(self, cores: set[int]):
        for core in cores:
            self.platform.cores[core].local_view = \
                self.view_cache_for(self.cores[core].current)

    def _push_views(self, cores: set[int]):
        """Queue each core's new view of the domain it runs (drained later);
        cores that run the same domain share one view."""
        views: dict[int, list[tuple[int, int, int]]] = {}
        for core in cores:
            current = self.cores[core].current
            if current not in views:
                views[current] = self.view_cache_for(current)
            self.platform.enqueue_update(core, Update(
                UpdateKind.ACCESS_CHANGED, domain=current,
                view=views[current]))

    def domain_may_access(self, dom_id: int, addr: int, kind: str) -> bool:
        with self.platform.engine_lock:
            return view_allows(self.view_cache_for(dom_id), addr, kind)

    def page_access_map(self) -> dict[int, dict[int, tuple[int, bool]]]:
        """Per-domain, per-page access as the engine sees it (for the oracle diff)."""
        out: dict[int, dict[int, tuple[int, bool]]] = {}
        with self.platform.engine_lock:
            for dom in self.domains.values():
                pages: dict[int, tuple[int, bool]] = {}
                for _, seg in self._segments(dom):
                    rights = int(seg.rights)
                    excl = seg.status is RegionStatus.EXCLUSIVE
                    for page in range(seg.range.start // PAGE,
                                      seg.range.end // PAGE):
                        old = pages.get(page)
                        pages[page] = (rights, excl) if old is None else \
                            (old[0] | rights, old[1] or excl)
                out[dom.id] = pages
        return out

    # ------------------------------------------------------------------
    # domain-facing memory access (used by the scenario runner)
    # ------------------------------------------------------------------

    def domain_read(self, core: int, addr: int) -> tuple[bool, int]:
        ok, value = self.platform.read_mem(core, addr)
        if not ok:
            self.route_interrupt(core, FAULT_VECTOR)
        return ok, value

    def domain_write(self, core: int, addr: int, value: int) -> bool:
        ok = self.platform.write_mem(core, addr, value)
        if not ok:
            self.route_interrupt(core, FAULT_VECTOR)
        return ok

    # ------------------------------------------------------------------
    # monitor calls
    # ------------------------------------------------------------------

    def create(self, caller: int) -> int:
        return self._call(ApiCall.CREATE, "create", caller, {"caller": caller},
                          self._create)["handle"]

    def _create(self, dom: DomainNode) -> dict:
        if dom.state is not DomainState.SEALED or \
                self._running_core(dom.id) is None:
            raise deny(ErrorCode.NOT_RUNNING, "caller must be sealed and running")
        if len(self.domains) >= self.max_domains:
            raise deny(ErrorCode.OUT_OF_METADATA, "domain pool exhausted")
        child = self.domains.new(parent=dom.id)
        dom.children.append((ChildKind.TD, child.id))
        handle = dom.owned.insert(CapEntry(CapKind.DOMAIN, child.id))
        return {"dom": child.id, "handle": handle}

    def set_register(self, caller: int, handle: int, core: int,
                     index: int, value: int):
        self._call(ApiCall.SET_GET, "set_reg", caller,
                   {"caller": caller, "handle": handle, "core": core,
                    "index": index, "value": value},
                   lambda dom: self._set_register(dom, handle, core, index,
                                                  value))

    def _set_register(self, dom: DomainNode, handle: int, core: int,
                      index: int, value: int) -> dict:
        child = self._unsealed_child(dom, handle)
        if not 0 <= core < self.platform.ncores:
            raise deny(ErrorCode.CORE_NOT_ALLOWED, f"core {core}")
        if not 0 <= index < NUM_REGS:
            raise deny(ErrorCode.BAD_HANDLE, f"register index {index}")
        child.core_regs(core)[index] = value & ((1 << 64) - 1)
        return {"dom": child.id}

    def get_register(self, caller: int, handle: int, core: int,
                     index: int) -> int:
        return self._call(
            ApiCall.SET_GET, "get_reg", caller,
            {"caller": caller, "handle": handle, "core": core, "index": index},
            lambda dom: self._get_register(dom, handle, core, index))["value"]

    def _get_register(self, dom: DomainNode, handle: int, core: int,
                      index: int) -> dict:
        child = self._resolve_td(dom, handle, allow_channel=False)
        if not 0 <= index < NUM_REGS:
            raise deny(ErrorCode.BAD_HANDLE, f"register index {index}")
        if child.state is DomainState.UNSEALED:
            return {"value": child.core_regs(core)[index]}
        # post-seal reads only for the active handler/observer, gated by the
        # child's readable-registers bitmap for the routed vector
        cs = self.cores[core] if 0 <= core < len(self.cores) else None
        if cs is None or cs.irq is None or cs.current != dom.id or \
                not cs.irq.resume or cs.irq.resume[0].domain != child.id:
            raise deny(ErrorCode.REGISTER_HIDDEN, "no routed interrupt grants access")
        policy = child.policies.interrupt(cs.irq.vector)
        if not policy.readable_regs & (1 << index):
            raise deny(ErrorCode.REGISTER_HIDDEN,
                       f"register {index} not readable for vector {cs.irq.vector}")
        return {"value": cs.irq.resume[0].saved_regs[index]}

    def set_policy(self, caller: int, handle: int, fname: str, value: int):
        self._call(ApiCall.SET_GET, "set_policy", caller,
                   {"caller": caller, "handle": handle, "field": fname,
                    "value": value},
                   lambda dom: self._set_policy(dom, handle, fname, value))

    def _set_policy(self, dom: DomainNode, handle: int, fname: str,
                    value: int) -> dict:
        child = self._unsealed_child(dom, handle)
        kind = POLICY_FIELDS.get(fname)
        if kind is None:
            raise deny(ErrorCode.BAD_HANDLE, f"policy field {fname}")
        # a child holds a subset of its parent's bits; td0 holds every call
        # bit and no more, so mon_api also stays within ALL_CALLS_MASK
        value = kind(value)
        if value & ~getattr(dom.policies, fname):
            raise deny(ErrorCode.POLICY_ESCALATION, f"{fname} beyond parent")
        setattr(child.policies, fname, value)
        return {"dom": child.id}

    def get_policy(self, caller: int, handle: int, fname: str) -> int:
        return self._call(
            ApiCall.SET_GET, "get_policy", caller,
            {"caller": caller, "handle": handle, "field": fname},
            lambda dom: self._get_policy(dom, handle, fname))["value"]

    def _get_policy(self, dom: DomainNode, handle: int, fname: str) -> dict:
        child = self._resolve_td(dom, handle)
        if fname not in POLICY_FIELDS:
            raise deny(ErrorCode.BAD_HANDLE, f"policy field {fname}")
        return {"value": int(getattr(child.policies, fname))}

    def set_interrupt_policy(self, caller: int, handle: int, vector: int,
                             visibility: Visibility, readable_regs: int = 0):
        self._call(ApiCall.SET_GET, "set_intr", caller,
                   {"caller": caller, "handle": handle, "vector": vector,
                    "vis": visibility.value, "regs": readable_regs},
                   lambda dom: self._set_interrupt_policy(
                       dom, handle, vector, visibility, readable_regs))

    def _set_interrupt_policy(self, dom: DomainNode, handle: int, vector: int,
                              visibility: Visibility,
                              readable_regs: int) -> dict:
        child = self._unsealed_child(dom, handle)
        if not 0 <= vector < NUM_VECTORS:
            raise deny(ErrorCode.BAD_HANDLE, f"vector {vector}")
        if readable_regs & ~REG_MASK:
            raise deny(ErrorCode.POLICY_ESCALATION, "readable regs beyond file")
        if visibility is Visibility.DELIVER and dom.parent is not None and \
                dom.policies.interrupt(vector).visibility is not Visibility.DELIVER:
            # a child may deliver a vector only if its parent ultimately can
            raise deny(ErrorCode.POLICY_ESCALATION,
                       f"vector {vector} not deliverable by parent")
        child.policies.interrupts[vector] = InterruptPolicy(
            visibility, readable_regs)
        return {"dom": child.id}

    def send(self, caller: int, handle: int, dest_handle: int,
             attrs: AttrFlags = AttrFlags.NONE):
        self._call(ApiCall.SEND, "send", caller,
                   {"caller": caller, "handle": handle, "dest": dest_handle,
                    "attrs": int(attrs)},
                   lambda dom: self._send(dom, handle, dest_handle, attrs))

    def _send(self, dom: DomainNode, handle: int, dest_handle: int,
              attrs: AttrFlags) -> dict:
        entry = self._resolve(dom, handle)
        if entry.kind is CapKind.DOMAIN:
            raise deny(ErrorCode.UNTRANSFERABLE_TD,
                       "td capabilities cannot be transferred")
        dest_entry = self._resolve(dom, dest_handle)
        if dest_entry.kind is CapKind.REGION:
            raise deny(ErrorCode.BAD_HANDLE, "destination must be a domain")
        dest = self.domain(dest_entry.ref)
        if not dest.live:
            raise deny(ErrorCode.DOMAIN_REVOKED, f"domain {dest.id}")
        if dest.state is DomainState.SEALED and \
                not dest.policies.receive:
            raise deny(ErrorCode.RECEIVE_DENIED, f"domain {dest.id} !RECEIVE")
        if attrs:
            if entry.kind is CapKind.CHANNEL:
                raise deny(ErrorCode.ATTRIBUTES_ON_CHANNEL,
                           "attributes apply to regions")
            if dest.state is not DomainState.UNSEALED:
                raise deny(ErrorCode.ATTRIBUTES_ON_SEALED,
                           "attributes need an unsealed receiver")
        results: dict = {}
        if entry.kind is CapKind.REGION:
            node = self.tree.get(entry.ref)
            digest = None
            if attrs & AttrFlags.HASH:
                if node.status is not RegionStatus.EXCLUSIVE:
                    raise deny(ErrorCode.HASH_ON_ALIASED,
                               "hash needs an exclusive region")
                self._check_unmapped(node.initial_range, exclude={node.id})
                digest = hashlib.sha256(
                    self.platform.read_bytes(node.initial_range)).digest()
                results["digest"] = digest.hex()

            def publish():
                dom.owned.remove(handle)
                node.owner = dest.id
                node.attributes = RegionAttributes(
                    hash_digest=digest,
                    clean=bool(attrs & AttrFlags.CLEAN),
                    vital=bool(attrs & AttrFlags.VITAL))
                dest.owned.insert(CapEntry(CapKind.REGION, node.id))
                self._push_views(affected)

            affected = self._cores_running({dom.id, dest.id})
            self.platform.barrier_update(self._core_of(dom.id), affected,
                                         publish, f"send:{node.id}")
            results.update({"region": node.id, "to": dest.id})
        else:
            dom.owned.remove(handle)
            dest.owned.insert(CapEntry(CapKind.CHANNEL, entry.ref))
            results.update({"chan_to": entry.ref, "to": dest.id})
        return results

    def _check_unmapped(self, rng: PhysRange, exclude: set[int]):
        for other in self.domains.values():
            for region, seg in self._segments(other):
                if region not in exclude and seg.range.overlaps(rng):
                    raise deny(ErrorCode.STILL_ACCESSIBLE,
                               f"{rng} reachable via region {region}")

    def region_digest(self, rng: PhysRange) -> bytes:
        """Digest of raw memory; only legal when no domain can reach it."""
        with self.platform.engine_lock:
            if not self.platform.memory.in_bounds(rng):
                raise deny(ErrorCode.OUT_OF_MEMORY_BOUNDS, repr(rng))
            self._check_unmapped(rng, exclude=set())
            return hashlib.sha256(self.platform.read_bytes(rng)).digest()

    def seal(self, caller: int, handle: int):
        self._call(ApiCall.SEAL, "seal", caller,
                   {"caller": caller, "handle": handle},
                   lambda dom: self._seal(dom, handle))

    def _seal(self, dom: DomainNode, handle: int) -> dict:
        child = self._resolve_td(dom, handle)
        if child.state is not DomainState.UNSEALED:
            raise deny(ErrorCode.ALREADY_SEALED, f"domain {child.id}")
        undeliverable = undeliverable_vectors(self._policies_rootward(child))
        if undeliverable:
            raise deny(ErrorCode.UNDELIVERABLE_VECTOR,
                       f"vector {min(undeliverable)}")
        child.register_hash = self._register_hash(child)
        child.state = DomainState.SEALED
        return {"dom": child.id, "register_hash": child.register_hash.hex()}

    # ------------------------------------------------------------------
    # switch, interrupts
    # ------------------------------------------------------------------

    def switch(self, caller: int, core: int, handle: Optional[int] = None):
        self._call(ApiCall.SWITCH, "switch", caller,
                   {"caller": caller, "core": core,
                    "target": "ret" if handle is None else handle},
                   lambda dom: self._switch(dom, core, handle), core=core)

    def _switch(self, dom: DomainNode, core: int,
                handle: Optional[int]) -> dict:
        if not 0 <= core < len(self.cores):
            raise deny(ErrorCode.CORE_NOT_ALLOWED, f"core {core}")
        cs = self.cores[core]
        if cs.current != dom.id:
            raise deny(ErrorCode.NOT_RUNNING,
                       f"domain {dom.id} is not current on core {core}")

        if cs.irq is not None:
            # active routed interrupt: the only way down is resuming the chain
            if handle is None:
                raise deny(ErrorCode.IRQ_RESUME_REQUIRED,
                           "must resume the preempted chain")
            target = self._resolve_td(dom, handle)
            if target.id != cs.irq.resume[0].domain:
                raise deny(ErrorCode.IRQ_RESUME_REQUIRED,
                           "must resume the preempted chain")
            return self._resume_step(cs, dom.id, core)

        if handle is None:
            return self._switch_return(cs, dom, core)
        target = self._resolve_td(dom, handle)
        if target.state is DomainState.UNSEALED:
            raise deny(ErrorCode.NOT_SEALED, f"domain {target.id}")
        if not target.policies.cores & (1 << core):
            raise deny(ErrorCode.CORE_NOT_ALLOWED,
                       f"domain {target.id} not allowed on core {core}")
        cs.chain.append(ChainEntry(dom.id, list(dom.core_regs(core))))
        cs.current = target.id
        self._arm_quantum(core, target.id)
        self._refresh_views({core})
        return {"to": target.id}

    def _switch_return(self, cs: CoreState, dom: DomainNode, core: int) -> dict:
        if cs.chain:
            entry = cs.chain.pop()
            parent = self.domains[entry.domain]
            parent.regs[core] = list(entry.saved_regs)
            cs.current = parent.id
        elif dom.parent is not None and self.domains[dom.parent].live:
            cs.current = dom.parent
        else:
            raise deny(ErrorCode.NO_PARENT, "nowhere to return")
        self._deliver_payload(cs, core, PayloadCode.RETURNED, dom.id)
        self._clear_quantum(core)
        self._refresh_views({core})
        return {"to": cs.current, "payload": "returned"}

    def _resume_step(self, cs: CoreState, caller: int, core: int) -> dict:
        vector = cs.irq.vector
        cs.chain.append(ChainEntry(
            caller, list(self.domains[caller].core_regs(core))))
        while True:
            entry = cs.irq.resume.pop(0)
            if not cs.irq.resume:
                # the preempted domain resumes at its snapshot, no payload
                self.domains[entry.domain].regs[core] = list(entry.saved_regs)
                cs.current = entry.domain
                cs.irq = None
                cs.last_payload = None
                self._refresh_views({core})
                self._route_deferred(core)
                return {"to": entry.domain, "payload": "resumed"}
            if entry.pending_observation:
                self.domains[entry.domain].regs[core] = list(entry.saved_regs)
                cs.current = entry.domain
                self._deliver_payload(cs, core, PayloadCode.INTERRUPT, vector)
                self._refresh_views({core})
                return {"to": entry.domain, "payload": f"interrupt:{vector}"}
            # Not-report domains are skipped silently and stay suspended
            cs.chain.append(entry)

    def _deliver_payload(self, cs: CoreState, core: int,
                         code: PayloadCode, detail: int):
        regs = self.domains[cs.current].core_regs(core)
        regs[0] = int(code)
        regs[1] = detail
        cs.last_payload = (int(code), detail)

    def route_interrupt(self, core: int, vector: int) -> int:
        with self.platform.engine_lock:
            return self._record("irq", core, {"vector": vector},
                                lambda: self._route_interrupt(core, vector)
                                )["handler"]

    def _route_interrupt(self, core: int, vector: int) -> dict:
        if not 0 <= vector < NUM_VECTORS:
            raise deny(ErrorCode.BAD_HANDLE, f"vector {vector}")
        cs = self.cores[core]
        current = cs.current
        handler = self._handler_of(current, vector)
        if handler == current:
            # delivered in place, no preemption
            return {"handler": current, "delivered": "inplace"}
        if cs.irq is not None:
            # nested routing is deferred until the active chain resumes
            cs.deferred_vectors.append(vector)
            return {"handler": -1, "deferred": 1}
        assert handler is not None, \
            "td0 delivers every vector, so a handler always exists"
        below = []      # the path from under the handler down to current
        walker = current
        while walker != handler:
            below.append(walker)
            walker = self.domains[walker].parent
        below.reverse()

        chain_map = {e.domain: e for e in cs.chain}
        resume = []
        for dom_id in below:
            # current is never on its own core's chain
            entry = chain_map.get(dom_id) or ChainEntry(
                dom_id, list(self.domains[dom_id].core_regs(core)))
            policy = self.domains[dom_id].policies.interrupt(vector)
            entry.pending_observation = policy.visibility is Visibility.REPORT
            resume.append(entry)
        # the chain is the core's path above current: keep what is above
        # the handler
        handler_entry = chain_map.get(handler)
        dropped = set(below) | {handler}
        cs.chain = [e for e in cs.chain if e.domain not in dropped]
        if handler_entry is not None:
            self.domains[handler].regs[core] = list(handler_entry.saved_regs)
        cs.current = handler
        cs.irq = IrqFrame(vector, resume)
        self._deliver_payload(cs, core, PayloadCode.INTERRUPT, vector)
        self._clear_quantum(core)
        self._refresh_views({core})
        return {"handler": handler}

    def _route_deferred(self, core: int):
        cs = self.cores[core]
        while cs.deferred_vectors and cs.irq is None:
            vector = cs.deferred_vectors.pop(0)
            self._record("irq", core, {"vector": vector, "deferred": 1},
                         lambda v=vector: self._route_interrupt(core, v))

    def route_device_interrupt(self, vector: int) -> Optional[int]:
        """Route a device interrupt on the lowest core the handler may use."""
        with self.platform.engine_lock:
            for cs in self.cores:
                handler = self._handler_of(cs.current, vector)
                if not self.domains[handler].policies.cores & (1 << cs.id):
                    continue
                if self.platform.cores[cs.id].run_state == CoreRunState.PARKED:
                    self.platform.enqueue_update(cs.id, Update(
                        UpdateKind.INTERRUPT_ROUTED, vector=vector))
                    return None
                return self._record(
                    "irq", cs.id, {"vector": vector, "device": 1},
                    lambda c=cs.id: self._route_interrupt(c, vector)
                )["handler"]
            raise AssertionError("td0 runs everywhere and delivers everything")

    def _policies_rootward(self, dom: DomainNode):
        """The policies of dom and each of its ancestors, dom's first."""
        while True:
            yield dom.policies
            if dom.parent is None:
                return
            dom = self.domains[dom.parent]

    def _handler_of(self, dom_id: Optional[int], vector: int) -> Optional[int]:
        """The nearest domain at or above dom_id that delivers the vector."""
        while dom_id is not None:
            dom = self.domains[dom_id]
            if dom.policies.interrupt(vector).visibility is Visibility.DELIVER:
                return dom_id
            dom_id = dom.parent
        return None

    # -- switch quantum (experimental) ----------------------------------

    def set_quantum(self, steps: Optional[int]):
        self.quantum = steps

    def _arm_quantum(self, core: int, dom_id: int):
        if self.quantum:
            self._quantum_deadlines[core] = (self.platform.now + self.quantum,
                                             dom_id)

    def _clear_quantum(self, core: int):
        self._quantum_deadlines.pop(core, None)

    def check_quanta(self):
        due = [(core, dom) for core, (deadline, dom)
               in self._quantum_deadlines.items()
               if deadline <= self.platform.now]
        for core, dom in due:
            self._clear_quantum(core)
            if self.cores[core].current == dom:
                self._record("irq", core,
                             {"vector": TIMER_VECTOR, "quantum": 1},
                             lambda c=core: self._route_interrupt(
                                 c, TIMER_VECTOR))

    # ------------------------------------------------------------------
    # channels, enumerate, attest
    # ------------------------------------------------------------------

    def getchan(self, caller: int, handle: Optional[int] = None) -> int:
        return self._call(
            ApiCall.GETCHAN, "getchan", caller,
            {"caller": caller, "from": "self" if handle is None else handle},
            lambda dom: self._getchan(dom, handle))["handle"]

    def _getchan(self, dom: DomainNode, handle: Optional[int]) -> dict:
        if handle is None:
            # self-channel: documented extension, lets a domain hand out
            # attestation references to itself
            target = dom
        else:
            target = self._resolve_td(dom, handle, allow_channel=True)
        new_handle = dom.owned.insert(CapEntry(CapKind.CHANNEL, target.id))
        target.children.append((ChildKind.CHANNEL, self._mint_channel()))
        return {"handle": new_handle, "to": target.id}

    def enumerate(self, caller: int, cursor: int):
        out: dict = {}

        def run(dom):
            desc, nxt = self._enumerate(dom, cursor)
            out["desc"] = desc
            out["next"] = nxt
            return {"next": nxt,
                    "entry": desc.render().replace(" ", "~") if desc else "end"}

        self._call(ApiCall.ENUMERATE, "enumerate", caller,
                   {"caller": caller, "cursor": cursor}, run)
        return out["desc"], out["next"]

    def _enumerate(self, dom: DomainNode, cursor: int):
        if cursor < 0 or cursor > len(dom.owned.slots):
            raise deny(ErrorCode.BAD_CURSOR, f"cursor {cursor}")
        for index in range(cursor, len(dom.owned.slots)):
            entry = dom.owned.slots[index]
            if entry is None:
                continue
            return self._describe(entry), index + 1
        return None, len(dom.owned.slots)

    def _describe(self, entry: CapEntry) -> CapDescription:
        if entry.kind is CapKind.REGION:
            node = self.tree.get(entry.ref)
            children = []
            for n, cid in enumerate(node.children):
                child = self.tree.nodes[cid]
                children.append((f"c{n}", child.kind.value,
                                 child.initial_range.start,
                                 child.initial_range.end,
                                 child.rights.render()))
            return CapDescription(
                kind="region", status=node.status.value,
                start=node.initial_range.start, end=node.initial_range.end,
                rights=node.rights.render(),
                attributes=node.attributes.flags.render(),
                children=children)
        state = self.domains[entry.ref].state.value
        kind = "domain" if entry.kind is CapKind.DOMAIN else "channel"
        return CapDescription(kind=kind, state=state)

    def attest(self, caller: int, handle: Optional[int] = None,
               verifier_key: Optional[bytes] = None,
               nonce: Optional[bytes] = None,
               domain_key: Optional[bytes] = None):
        out: dict = {}

        def run(dom):
            if handle is None:
                subject = dom
            else:
                subject = self._resolve_td(dom, handle, allow_channel=True)
            out["report"] = attest_mod.build_report(
                self, subject.id, verifier_key=verifier_key, nonce=nonce,
                domain_key=domain_key)
            return {"subject": subject.id}

        self._call(ApiCall.ATTEST, "attest", caller,
                   {"caller": caller,
                    "subject": "self" if handle is None else handle}, run)
        return out["report"]

    # ------------------------------------------------------------------
    # revocation
    # ------------------------------------------------------------------

    def revoke_region(self, caller: int, handle: int, child_index: int):
        self._call(ApiCall.REVOKE, "revoke_region", caller,
                   {"caller": caller, "handle": handle, "child": child_index},
                   lambda dom: self._revoke_region(dom, handle, child_index))

    def _revoke_region(self, dom: DomainNode, handle: int,
                       child_index: int) -> dict:
        entry = self._resolve(dom, handle)
        if entry.kind is not CapKind.REGION:
            raise deny(ErrorCode.BAD_HANDLE, "expected a region capability")
        parent = self.tree.get(entry.ref)
        if not 0 <= child_index < len(parent.children):
            raise deny(ErrorCode.NOT_A_CHILD, f"child index {child_index}")
        child_id = parent.children[child_index]
        self.tree.check_revoke(dom.id, parent.id, child_id)
        regions, dom_ids = self._closure({child_id}, set())
        self._execute_destruction(regions, dom_ids, dom.id,
                                  f"revoke_region:{child_id}")
        return {"parent": parent.id, "child": child_id,
                "regions": len(regions), "domains": len(dom_ids)}

    def revoke_domain(self, caller: int, handle: int):
        self._call(ApiCall.REVOKE, "revoke_domain", caller,
                   {"caller": caller, "handle": handle},
                   lambda dom: self._revoke_domain(dom, handle))

    def _revoke_domain(self, dom: DomainNode, handle: int) -> dict:
        child = self._resolve_td(dom, handle)
        regions, dom_ids = self._closure(set(), {child.id})
        self._execute_destruction(regions, dom_ids, dom.id,
                                  f"revoke_domain:{child.id}")
        return {"dom": child.id, "regions": len(regions),
                "domains": len(dom_ids)}

    def _closure(self, seed_regions: set[int],
                 seed_domains: set[int]) -> tuple[list[int], set[int]]:
        """Fixpoint of cascading revocation: subtrees, owned regions, vital.

        Regions come back children first: each is added by a bottom-up
        subtree walk, and a walk that reaches a region added earlier has
        already added that region's whole subtree.
        """
        regions: dict[int, None] = {}  # an ordered set
        doms: set[int] = set()
        region_work = list(seed_regions)
        dom_work = list(seed_domains)
        while region_work or dom_work:
            while region_work:
                rid = region_work.pop()
                if rid in regions:
                    continue
                for sub in self.tree.subtree(rid):
                    if sub in regions:
                        continue
                    regions[sub] = None
                    node = self.tree.nodes[sub]
                    if node.attributes.vital and node.owner not in doms:
                        owner = self.domains[node.owner]
                        if owner.live and owner.parent is not None:
                            dom_work.append(node.owner)
            while dom_work:
                did = dom_work.pop()
                if did in doms:
                    continue
                doms.add(did)
                node = self.domains[did]
                for kind, child_id in node.children:
                    if kind is ChildKind.TD and child_id not in doms:
                        dom_work.append(child_id)
                for _, entry in node.owned.entries():
                    if entry.kind is CapKind.REGION and \
                            entry.ref not in regions:
                        region_work.append(entry.ref)
        return list(regions), doms

    def _execute_destruction(self, ordered: list[int], dom_ids: set[int],
                             caller: int, tag: str):
        # the root region is never destroyed: a machine always has exactly
        # one; if its owner goes away, ownership climbs to a live ancestor
        root_heir = None
        if self.root_region in ordered:
            ordered = [rid for rid in ordered if rid != self.root_region]
            walker = self.tree.nodes[self.root_region].owner
            while walker in dom_ids:
                walker = self.domains[walker].parent
            root_heir = walker
        regions = set(ordered)
        owners = {self.tree.nodes[r].owner for r in regions}
        reclaimers = {self.tree.nodes[self.tree.nodes[r].parent].owner
                      for r in regions
                      if self.tree.nodes[r].parent is not None
                      and self.tree.nodes[r].parent not in regions}
        affected_doms = owners | reclaimers | dom_ids
        if root_heir is not None:
            affected_doms.add(root_heir)
        affected = {cs.id for cs in self.cores
                    if cs.current in affected_doms
                    or any(d in dom_ids for d in cs.path_domains())}

        def publish():
            # 1. all access removed: capability entries disappear
            for dom in self.domains.values():
                for idx, entry in dom.owned.entries():
                    if entry.kind is CapKind.REGION and entry.ref in regions:
                        dom.owned.remove(idx)
                    elif entry.kind is CapKind.DOMAIN and entry.ref in dom_ids:
                        dom.owned.remove(idx)
            # 2. clean ranges zeroed before parents regain access
            for rid in ordered:
                node = self.tree.nodes[rid]
                if node.attributes.clean:
                    self.platform.zero_range(node.initial_range)
            # 3. nodes leave the tree; carve parents regain their sub-ranges
            self.tree.destroy(ordered)
            # 4. domains become terminally revoked and leave their live
            # parents' children; undrained outputs are dropped
            for did in dom_ids:
                node = self.domains[did]
                node.state = DomainState.REVOKED
                node.owned = type(node.owned)()
                node.regs.clear()
                if node.parent is not None and node.parent not in dom_ids:
                    self.domains[node.parent].children.remove(
                        (ChildKind.TD, did))
            for token in [t for t, (owner, _, _) in self._buffers.items()
                          if owner in dom_ids]:
                del self._buffers[token]
            if root_heir is not None:
                self.tree.nodes[self.root_region].owner = root_heir
                self.domains[root_heir].owned.insert(
                    CapEntry(CapKind.REGION, self.root_region))
            # 5. per-core effects
            for cs in self.cores:
                if cs.id not in affected:
                    continue
                unwind = self._plan_unwind(cs, dom_ids)
                if unwind is not None:
                    self.platform.enqueue_update(cs.id, Update(
                        UpdateKind.DOMAIN_REVOKED, domain=unwind["revoked"],
                        unwind=unwind))
                else:
                    self._push_views({cs.id})
            # 6. records are freed; one a core path still names is held
            # until that core's unwind drains
            self.domains.reclaim(dom_ids, self._named_domains())

        self.platform.barrier_update(self._core_of(caller), affected,
                                     publish, tag)

    def _named_domains(self) -> set[int]:
        return {d for cs in self.cores for d in cs.path_domains()}

    def _plan_unwind(self, cs: CoreState, dom_ids: set[int]) -> Optional[dict]:
        path = cs.path_domains()
        cut = None
        for i, dom_id in enumerate(path):
            if dom_id in dom_ids:
                cut = i
                break
        if cut is None:
            return None
        assert cut >= 1, "td0 is never revoked"
        entries: list[ChainEntry] = list(cs.chain)
        current_entry = ChainEntry(
            cs.current, list(self.domains[cs.current].core_regs(cs.id))
            if self.domains[cs.current].regs.get(cs.id) else zero_registers())
        entries.append(current_entry)
        if cs.irq is not None:
            entries.extend(cs.irq.resume)
        new_current = entries[cut - 1]
        was_executing = (cut - 1) == len(cs.chain) and cs.irq is None
        return {
            "revoked": path[cut],
            "new_current": new_current.domain,
            "new_chain": [(e.domain, list(e.saved_regs))
                          for e in entries[:cut - 1]],
            "restore_regs": list(new_current.saved_regs),
            "deliver_payload": not was_executing,
            "view": self.view_cache_for(new_current.domain),
        }

    # ------------------------------------------------------------------
    # per-core update drain
    # ------------------------------------------------------------------

    def process_updates(self, core: int):
        """Apply pending updates to a core's local state (drain point)."""
        cs = self.cores[core]
        while True:
            update = self.platform.pop_update(core)
            if update is None:
                break
            if update.kind is UpdateKind.ACCESS_CHANGED:
                if cs.current == update.domain and update.view is not None:
                    self.platform.cores[core].local_view = update.view
            elif update.kind is UpdateKind.DOMAIN_REVOKED:
                self._apply_unwind(cs, update.unwind)
            elif update.kind is UpdateKind.INTERRUPT_ROUTED:
                cs.deferred_vectors.append(update.vector)
        if cs.irq is None and cs.deferred_vectors:
            self._route_deferred(core)

    def _apply_unwind(self, cs: CoreState, unwind: dict):
        cs.chain = [ChainEntry(dom, regs) for dom, regs in unwind["new_chain"]]
        cs.current = unwind["new_current"]
        cs.irq = None
        self.domains[cs.current].regs[cs.id] = list(unwind["restore_regs"])
        if unwind["deliver_payload"]:
            self._deliver_payload(cs, cs.id, PayloadCode.REVOKED_CHILD,
                                  unwind["revoked"])
        self.platform.cores[cs.id].local_view = unwind["view"]
        self._clear_quantum(cs.id)
        if self.domains.held:
            self.domains.release(self._named_domains())

    # ------------------------------------------------------------------
    # register ABI
    # ------------------------------------------------------------------

    def monitor_call(self, core: int, user: bool = False):
        """Dispatch one call from the current domain's registers.

        Call id sits in register 0, arguments in 1..6; results land in
        registers 0..3 with register 0 holding 0 for success or the error
        code.  Large outputs are consumed via a continuation token.  The
        whole call, register decoding included, holds the engine lock.  A
        call rejected before any monitor call traced it is traced as `abi`.
        """
        with self.platform.engine_lock:
            self.process_updates(core)
            caller_id = self.cores[core].current
            caller = self.domains[caller_id]
            regs = caller.core_regs(core)
            call_id, args = regs[0], regs[1:7]
            traced = len(self.trace.records)
            try:
                if user and not caller.policies.user_calls:
                    raise deny(ErrorCode.POLICY_DENIED, "user calls not allowed")
                results = self._dispatch(caller_id, core, call_id, args)
            except MonitorError as exc:
                if len(self.trace.records) == traced:
                    self.trace.record(OpRecord(
                        self.platform.now, core, "abi",
                        {"caller": caller_id, "call": call_id}, False,
                        exc.code.name))
                regs = self.domains[self.cores[core].current].core_regs(core)
                regs[0] = int(exc.code)
                return
            # a switch transfers control; its results reach the caller on
            # resume
            if ApiCall(call_id) is not ApiCall.SWITCH:
                regs[0] = 0
                for i, value in enumerate(results[:3]):
                    regs[1 + i] = value

    def _dispatch(self, caller: int, core: int, call_id: int,
                  args: list[int]) -> list[int]:
        try:
            call = ApiCall(call_id)
        except ValueError:
            raise deny(ErrorCode.BAD_HANDLE, f"unknown call {call_id}")
        if call is ApiCall.CREATE:
            return [self.create(caller)]
        if call is ApiCall.SET_GET:
            return self._dispatch_set_get(caller, args)
        if call is ApiCall.SEND:
            self.send(caller, args[0], args[1], AttrFlags(args[2]))
            return []
        if call is ApiCall.SEAL:
            self.seal(caller, args[0])
            return []
        if call is ApiCall.ATTEST or call is ApiCall.ENUMERATE:
            if args[1] != 0:
                return self._consume_buffer(caller, args[1])
            held = sum(1 for owner, _, _ in self._buffers.values()
                       if owner == caller)
            if held >= MAX_UNDRAINED:
                raise deny(ErrorCode.OUT_OF_METADATA,
                           f"{held} outputs left undrained")
            if call is ApiCall.ATTEST:
                return self._dispatch_attest(caller, args[0])
            return self._dispatch_enumerate(caller, args[0])
        if call is ApiCall.SWITCH:
            self.switch(caller, core, None if args[0] == 0 else args[0] - 1)
            return []
        if call is ApiCall.ALIAS:
            rng = PhysRange(args[1], args[2])
            handle = self.tree_alias(caller, args[0], rng, Rights(args[3]))
            return [handle]
        if call is ApiCall.CARVE:
            rng = PhysRange(args[1], args[2])
            handle = self.tree_carve(caller, args[0], rng, Rights(args[3]))
            return [handle]
        if call is ApiCall.REVOKE:
            # resolved without raising, so that every rejection, a bad
            # handle included, happens gated and traced inside the call
            entry = self.domains[caller].owned.get(args[0])
            if entry is not None and entry.kind is CapKind.REGION:
                self.revoke_region(caller, args[0], args[1])
            else:
                self.revoke_domain(caller, args[0])
            return []
        if call is ApiCall.GETCHAN:
            return [self.getchan(caller, None if args[0] == 0 else args[0] - 1)]
        raise deny(ErrorCode.BAD_HANDLE, f"unhandled call {call_id}")

    def _dispatch_set_get(self, caller: int, args: list[int]) -> list[int]:
        sub = args[0]
        if sub == 0:
            self.set_register(caller, args[1], args[2], args[3], args[4])
            return []
        if sub == 1:
            return [self.get_register(caller, args[1], args[2], args[3])]
        if sub == 2:
            fname = _by_id(POLICY_FIELDS, args[2], "policy field")
            self.set_policy(caller, args[1], fname, args[3])
            return []
        if sub == 3:
            fname = _by_id(POLICY_FIELDS, args[2], "policy field")
            return [self.get_policy(caller, args[1], fname)]
        if sub == 4:
            vis = _by_id(Visibility, args[3], "visibility")
            self.set_interrupt_policy(caller, args[1], args[2], vis, args[4])
            return []
        raise deny(ErrorCode.BAD_HANDLE, f"set/get sub-op {sub}")

    def _dispatch_attest(self, caller: int, subject: int) -> list[int]:
        report = self.attest(caller, None if subject == 0 else subject - 1)
        blob = report.to_bytes()
        return [len(blob), self._issue_buffer(caller, blob)]

    def _dispatch_enumerate(self, caller: int, cursor: int) -> list[int]:
        desc, nxt = self.enumerate(caller, cursor)
        if desc is None:
            return [nxt, 0, 0]
        blob = desc.render().encode()
        return [nxt, self._issue_buffer(caller, blob), len(blob)]

    def _issue_buffer(self, caller: int, blob: bytes) -> int:
        token = self._next_token
        self._next_token += 1
        self._buffers[token] = (caller, blob, 0)
        return token

    def _consume_buffer(self, caller: int, token: int) -> list[int]:
        # a token drains only for the domain whose call produced the output
        entry = self._buffers.get(token)
        if entry is None or entry[0] != caller:
            raise deny(ErrorCode.BAD_CURSOR, f"token {token}")
        owner, blob, offset = entry
        chunk = blob[offset:offset + 16]
        offset += len(chunk)
        if offset >= len(blob):
            del self._buffers[token]
        else:
            self._buffers[token] = (owner, blob, offset)
        padded = chunk.ljust(16, b"\0")
        return [len(chunk),
                int.from_bytes(padded[:8], "little"),
                int.from_bytes(padded[8:], "little")]

    # ------------------------------------------------------------------
    # region derivations (engine-level wrappers)
    # ------------------------------------------------------------------

    def tree_alias(self, caller: int, handle: int, rng: PhysRange,
                   rights: Rights) -> int:
        return self._call(
            ApiCall.ALIAS, "alias", caller,
            {"caller": caller, "handle": handle, "start": rng.start,
             "end": rng.end, "rights": rights.render()},
            lambda dom: self._derive(dom, handle, rng, rights, carve=False)
        )["handle"]

    def tree_carve(self, caller: int, handle: int, rng: PhysRange,
                   rights: Rights) -> int:
        return self._call(
            ApiCall.CARVE, "carve", caller,
            {"caller": caller, "handle": handle, "start": rng.start,
             "end": rng.end, "rights": rights.render()},
            lambda dom: self._derive(dom, handle, rng, rights, carve=True)
        )["handle"]

    def _derive(self, dom: DomainNode, handle: int, rng: PhysRange,
                rights: Rights, carve: bool) -> dict:
        entry = self._resolve(dom, handle)
        if entry.kind is not CapKind.REGION:
            raise deny(ErrorCode.BAD_HANDLE, "expected a region capability")
        if carve:
            new_id = self.tree.carve(dom.id, entry.ref, rng, rights)
        else:
            new_id = self.tree.alias(dom.id, entry.ref, rng, rights)
        new_handle = dom.owned.insert(CapEntry(CapKind.REGION, new_id))
        affected = self._cores_running({dom.id})
        self.platform.barrier_update(
            self._core_of(dom.id), affected,
            lambda: self._push_views(affected),
            f"{'carve' if carve else 'alias'}:{new_id}")
        return {"region": new_id, "handle": new_handle,
                "parent": entry.ref,
                "status": self.tree.nodes[new_id].status.value}


def _by_id(table, ident: int, what: str):
    """The entry of an ordered table (dict keys or enum members) at a
    register-ABI id."""
    entries = list(table)
    if not 0 <= ident < len(entries):
        raise deny(ErrorCode.BAD_HANDLE, f"{what} {ident}")
    return entries[ident]
