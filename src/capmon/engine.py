"""The capability engine: one logical state machine for the whole machine.

Owns both derivation trees (memory regions and trust domains), validates and
executes the eleven monitor calls, and routes interrupts over the domain
tree.  A call with cross-core effects publishes them in a two-barrier round
while the affected cores are parked, and installs their new tables itself.
A core's drain (`process_updates`) then reads only the engine's state, as a
TLB shootdown's responder re-reads the tables: it is due exactly when the
core's path names a held (revoked) record, and it unwinds past the first
such domain, installs the table of the domain the core then runs and
routes its deferred vectors.  `Engine` takes no lock: in step mode one
context runs everything.  In concurrent mode `ConcurrentEngine` runs each
entry point under the platform's IPI-aware engine lock, so operations
execute one at a time.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Optional

from . import attest as attest_mod
from .domains import (
    ALL_CALLS_MASK, POLICY_FIELD_IDS, POLICY_FIELDS, REG_MASK, NUM_REGS,
    NUM_VECTORS, VISIBILITY_IDS, ApiCall, CapEntry, CapKind, ChainEntry,
    CoreState, DomainNode, DomainState, DomainTable, InterruptPolicy,
    IrqFrame, PayloadCode, Policies, RevokedDomain, Visibility,
    undeliverable_vectors, zero_registers,
)
from .errors import ErrorCode, MonitorError, deny
from .machine import FAULT_VECTOR, TIMER_VECTOR, view_allows
from .regions import (
    CLEAN_BIT, HASH_BIT, PAGE, VITAL_BIT, AttrFlags, PhysRange,
    RegionAttributes, RegionStatus, RegionTree, Rights,
)
from .trace import OpRecord, TraceLog

# continuation buffers one domain may leave undrained; a further ATTEST or
# ENUMERATE through the register ABI is denied OUT_OF_METADATA
MAX_UNDRAINED = 8
# capabilities one domain's table may hold; a call that would add one more
# is denied OUT_OF_METADATA (see Engine._check_room)
CAP_SLOT_QUOTA = 256
# the width of a register word
_WORD_MASK = (1 << 64) - 1
# a drained 16-byte chunk as the two register words it fills
_CHUNK = struct.Struct("<QQ")
# the call ids whose register 2, when nonzero, names a token to drain
_DRAIN_CALLS = frozenset({int(ApiCall.ATTEST), int(ApiCall.ENUMERATE)})
# members the call gate and the fault path test, read as module names: on
# CPython 3.11 reading an enum member off its class costs about 0.15 us
_REVOKED = DomainState.REVOKED
_DELIVER = Visibility.DELIVER
_REPORT = Visibility.REPORT


class Engine:
    def __init__(self, platform, measurement: attest_mod.BootMeasurement,
                 seed: int = 0):
        self.platform = platform
        self.seed = seed
        self.measurement = measurement
        self.tree = RegionTree()
        self.domains = DomainTable()
        self.cores = [CoreState(i) for i in range(platform.ncores)]
        self.trace = TraceLog()
        self.root_region: Optional[int] = None
        self.quantum: Optional[int] = None
        self._quantum_deadlines: dict[int, tuple[int, int]] = {}
        # continuation token -> [issuing domain, issuing call, output bytes,
        # bytes drained]; a drain moves only the last
        self._buffers: dict[int, list] = {}
        self._next_token = 1

    # ------------------------------------------------------------------
    # serialization of operations
    # ------------------------------------------------------------------

    def _call(self, call: ApiCall, op: str, caller: int, args: dict, body,
              core: Optional[int] = None) -> dict:
        """Run one monitor call, gated and traced by `_record`.  The trace's
        arguments are the caller, then `args`.  It names `core`, or else the
        core whose worker makes the call, or else the lowest core the caller
        runs on (-1 if none), read inside the call (in concurrent mode,
        under the engine lock: see `ConcurrentEngine`).
        """
        if core is None:
            core = self.platform.worker_core()
        if core is None:
            core = self._core_of(caller)
        return self._record(op, core, {"caller": caller, **args}, body,
                            caller, call)

    def _record(self, op: str, core: int, args: dict, fn,
                caller: Optional[int] = None,
                call: Optional[ApiCall] = None):
        """Run `fn` and trace it as `op` on `core`, accepted or rejected.

        Given a caller, the call is gated first: the caller must be a live
        domain whose policy allows `call`, and `fn` then runs with the
        caller's node.
        """
        try:
            if caller is None:
                results = fn()
            else:
                dom = self.domain(caller)
                if dom.state is _REVOKED:
                    raise deny(ErrorCode.DOMAIN_REVOKED, f"caller {caller}")
                if not dom.policies.mon_api >> call & 1:
                    raise deny(ErrorCode.POLICY_DENIED,
                               f"{call.name} bit clear")
                results = fn(dom)
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
            self.trace.record(OpRecord(0, -1, "devboot", {
                "dev": dev.id, "name": dev_cfg.name, "vector": dev_cfg.vector,
                "mmio_carve": carve_id, "mmio_start": dev_cfg.mmio.start,
                "mmio_end": dev_cfg.mmio.end, "ram_alias": alias_id,
                "ram_start": ram.start, "ram_end": ram.end,
            }, True, "", {}))

        for core in self.cores:
            core.current = td0.id
        self._build_views()
        return td0.id

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

    def _resolve_region(self, dom: DomainNode, handle: int) -> int:
        """The id of the region a handle names; any other kind is denied."""
        entry = self._resolve(dom, handle)
        if entry.kind is not CapKind.REGION:
            raise deny(ErrorCode.BAD_HANDLE, "expected a region capability")
        return entry.ref

    def _resolve_td(self, dom: DomainNode, handle: int,
                    allow_channel: bool = False) -> DomainNode:
        entry = self._resolve(dom, handle)
        if entry.kind is CapKind.REGION:
            raise deny(ErrorCode.BAD_HANDLE, "expected a domain capability")
        if entry.kind is CapKind.CHANNEL and not allow_channel:
            raise deny(ErrorCode.CHANNEL_NO_CONTROL,
                       "channels cannot schedule, configure, or revoke")
        target = self.domain(entry.ref)
        if target.state is _REVOKED:
            raise deny(ErrorCode.DOMAIN_REVOKED, f"domain {target.id}")
        return target

    def _unsealed_child(self, dom: DomainNode, handle: int) -> DomainNode:
        """A child still open to configuration: it resolves and is unsealed."""
        child = self._resolve_td(dom, handle)
        if child.state is not DomainState.UNSEALED:
            raise deny(ErrorCode.SEALED, "configuration frozen after seal")
        return child

    def _check_register(self, core: int, index: int):
        """A register address names a core of the machine and a register."""
        if not 0 <= core < self.platform.ncores:
            raise deny(ErrorCode.CORE_NOT_ALLOWED, f"core {core}")
        if not 0 <= index < NUM_REGS:
            raise deny(ErrorCode.BAD_HANDLE, f"register index {index}")

    def _check_room(self, dom: DomainNode):
        """The one bound on a capability table: a call that would add a
        capability to a table already holding CAP_SLOT_QUOTA is denied
        before it changes anything."""
        if len(dom.owned) >= CAP_SLOT_QUOTA:
            raise deny(ErrorCode.OUT_OF_METADATA,
                       f"domain {dom.id} holds {CAP_SLOT_QUOTA} capabilities")

    def _core_of(self, dom_id: int) -> int:
        """The lowest core running dom_id, or -1 if none."""
        for core in self.cores:
            if core.current == dom_id:
                return core.id
        return -1

    def _cores_running(self, dom_ids: set[int]) -> set[int]:
        return {c.id for c in self.cores if c.current in dom_ids}

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    def _patch_view(self, dom: DomainNode, start: int = 0,
                    end: Optional[int] = None):
        """Recompute dom's table on the pages of [start, end), all of it by
        default, as the OR of its regions' views clipped to them, and hand
        the table a new bytes object only if it changed.  Trailing pages
        that grant nothing are trimmed, so the table ends at the domain's
        last granted page.  In concurrent mode callers hold the engine
        lock."""
        if end is None:
            end = self.platform.config.address_top
        lo, hi = start // PAGE, end // PAGE
        region, nodes = CapKind.REGION, self.tree.nodes
        # the window as one little-endian int, page lo in its lowest byte,
        # so each region's bytes OR in at once
        patch = 0
        for entry in dom.owned.slots:
            if entry is None or entry.kind is not region:
                continue
            node = nodes[entry.ref]
            base = node.initial_range.start // PAGE
            first = max(base, lo)
            last = min(node.initial_range.end // PAGE, hi)
            if first < last:
                patch |= int.from_bytes(
                    node._view[first - base:last - base],
                    "little") << (first - lo) * 8
        patch = patch.to_bytes(hi - lo, "little")
        old = dom.owned.view
        if old[lo:hi].ljust(hi - lo, b"\0") != patch:
            dom.owned.view = (old[:lo].ljust(lo, b"\0") + patch +
                              old[hi:]).rstrip(b"\0")

    def view_cache_for(self, dom_id: int) -> bytes:
        """The view the interposer checks a domain's accesses against: the
        domain's table, one byte per page in the format of a region's view,
        from page 0 to its last granted page, so at most address_top // PAGE
        bytes; a page's byte is the OR of the bytes of the regions granting
        it.  Every call that changes the table patches it, and it is shared
        as immutable bytes; a domain that does not exist sees b"", which
        grants nothing."""
        dom = self.domains.get(dom_id)
        return b"" if dom is None else dom.owned.view

    def _build_views(self):
        """Sweep every region's view, build every live domain's table from
        scratch and install each core's view (at boot and on a reload)."""
        self.tree.sweep_all()
        for dom in self.domains.values():
            self._patch_view(dom)
        self._refresh_views({cs.id for cs in self.cores})

    def _refresh_views(self, cores: set[int]):
        for core in cores:
            self.platform.cores[core].local_view = \
                self.view_cache_for(self.cores[core].current)

    def domain_may_access(self, dom_id: int, addr: int, kind: str) -> bool:
        return view_allows(self.view_cache_for(dom_id), addr, kind)

    def page_access_map(self) -> dict[int, bytes]:
        """Each live domain's view (for the oracle diff): the very bytes
        each core running the domain checks its accesses against."""
        return {dom_id: self.view_cache_for(dom_id)
                for dom_id in self.domains}

    # ------------------------------------------------------------------
    # domain-facing memory access (used by the scenario runner)
    # ------------------------------------------------------------------

    def domain_read(self, core: int, addr: int) -> tuple[bool, int]:
        result = self.platform.read_mem(core, addr)
        if not result[0]:
            self.route_interrupt(core, FAULT_VECTOR)
        return result

    def domain_write(self, core: int, addr: int, value: int) -> bool:
        ok = self.platform.write_mem(core, addr, value)
        if not ok:
            self.route_interrupt(core, FAULT_VECTOR)
        return ok

    # ------------------------------------------------------------------
    # monitor calls
    # ------------------------------------------------------------------

    def create(self, caller: int) -> int:
        def body(dom):
            if dom.state is not DomainState.SEALED or self._core_of(dom.id) < 0:
                raise deny(ErrorCode.NOT_RUNNING,
                           "caller must be sealed and running")
            if len(self.domains) >= self.platform.config.metadata_pool:
                raise deny(ErrorCode.OUT_OF_METADATA, "domain pool exhausted")
            self._check_room(dom)
            child = self.domains.new(parent=dom.id)
            handle = dom.owned.insert(CapEntry(CapKind.DOMAIN, child.id))
            return {"dom": child.id, "handle": handle}

        return self._call(ApiCall.CREATE, "create", caller, {}, body)["handle"]

    def set_register(self, caller: int, handle: int, core: int,
                     index: int, value: int):
        def body(dom):
            child = self._unsealed_child(dom, handle)
            self._check_register(core, index)
            child.core_regs(core)[index] = value & _WORD_MASK
            return {"dom": child.id}

        self._call(ApiCall.SET_GET, "set_reg", caller,
                   {"handle": handle, "core": core, "index": index,
                    "value": value}, body)

    def get_register(self, caller: int, handle: int, core: int,
                     index: int) -> int:
        def body(dom):
            child = self._resolve_td(dom, handle)
            self._check_register(core, index)
            if child.state is DomainState.UNSEALED:
                # a read creates no register file: a missing one reads as 0
                regs = child.regs.get(core)
                return {"value": 0 if regs is None else regs[index]}
            # post-seal reads only for the active handler/observer, gated by
            # the child's readable-registers bitmap for the routed vector
            irq = self.cores[core].irq
            if irq is None or self.cores[core].current != dom.id or \
                    not irq.resume or irq.resume[0].domain != child.id:
                raise deny(ErrorCode.REGISTER_HIDDEN,
                           "no routed interrupt grants access")
            policy = child.policies.interrupt(irq.vector)
            if not policy.readable_regs & (1 << index):
                raise deny(ErrorCode.REGISTER_HIDDEN,
                           f"register {index} hidden for vector {irq.vector}")
            return {"value": irq.resume[0].saved_regs[index]}

        return self._call(ApiCall.SET_GET, "get_reg", caller,
                          {"handle": handle, "core": core, "index": index},
                          body)["value"]

    def set_policy(self, caller: int, handle: int, fname: str, value: int):
        def body(dom):
            child = self._unsealed_child(dom, handle)
            kind = POLICY_FIELDS.get(fname)
            if kind is None:
                raise deny(ErrorCode.BAD_HANDLE, f"policy field {fname}")
            # a child holds a subset of its parent's bits; td0 holds every
            # call bit and no more, so mon_api also stays within ALL_CALLS_MASK
            bits = kind(value)
            if bits & ~getattr(dom.policies, fname):
                raise deny(ErrorCode.POLICY_ESCALATION,
                           f"{fname} beyond parent")
            setattr(child.policies, fname, bits)
            return {"dom": child.id}

        self._call(ApiCall.SET_GET, "set_policy", caller,
                   {"handle": handle, "field": fname, "value": value}, body)

    def get_policy(self, caller: int, handle: int, fname: str) -> int:
        def body(dom):
            child = self._resolve_td(dom, handle)
            if fname not in POLICY_FIELDS:
                raise deny(ErrorCode.BAD_HANDLE, f"policy field {fname}")
            return {"value": int(getattr(child.policies, fname))}

        return self._call(ApiCall.SET_GET, "get_policy", caller,
                          {"handle": handle, "field": fname}, body)["value"]

    def set_interrupt_policy(self, caller: int, handle: int, vector: int,
                             visibility: Visibility, readable_regs: int = 0):
        def body(dom):
            child = self._unsealed_child(dom, handle)
            if not 0 <= vector < NUM_VECTORS:
                raise deny(ErrorCode.BAD_HANDLE, f"vector {vector}")
            if readable_regs & ~REG_MASK:
                raise deny(ErrorCode.POLICY_ESCALATION,
                           "readable regs beyond file")
            # a child may deliver a vector only if its parent ultimately can
            own = dom.policies.interrupt(vector).visibility
            if visibility is Visibility.DELIVER and dom.parent is not None \
                    and own is not Visibility.DELIVER:
                raise deny(ErrorCode.POLICY_ESCALATION,
                           f"vector {vector} not deliverable by parent")
            child.policies.interrupts[vector] = InterruptPolicy(
                visibility, readable_regs)
            return {"dom": child.id}

        self._call(ApiCall.SET_GET, "set_intr", caller,
                   {"handle": handle, "vector": vector,
                    "vis": visibility.value, "regs": readable_regs}, body)

    def send(self, caller: int, handle: int, dest_handle: int,
             attrs: AttrFlags = AttrFlags.NONE):
        bits = int(attrs)

        def body(dom):
            entry = self._resolve(dom, handle)
            if entry.kind is CapKind.DOMAIN:
                raise deny(ErrorCode.UNTRANSFERABLE_TD,
                           "td capabilities cannot be transferred")
            dest = self._resolve_td(dom, dest_handle, allow_channel=True)
            if dest.state is DomainState.SEALED and not dest.policies.receive:
                raise deny(ErrorCode.RECEIVE_DENIED, f"domain {dest.id} !RECEIVE")
            if bits:
                if entry.kind is CapKind.CHANNEL:
                    raise deny(ErrorCode.ATTRIBUTES_ON_CHANNEL,
                               "attributes apply to regions")
                if dest.state is not DomainState.UNSEALED:
                    raise deny(ErrorCode.ATTRIBUTES_ON_SEALED,
                               "attributes need an unsealed receiver")
            if dest is not dom:
                self._check_room(dest)
            if entry.kind is CapKind.CHANNEL:
                dom.owned.remove(handle)
                dest.owned.insert(CapEntry(CapKind.CHANNEL, entry.ref))
                return {"chan_to": entry.ref, "to": dest.id}
            node = self.tree.get(entry.ref)
            digest = None
            if bits & HASH_BIT:
                if node.status is not RegionStatus.EXCLUSIVE:
                    raise deny(ErrorCode.HASH_ON_ALIASED,
                               "hash needs an exclusive region")
                self._check_unmapped(node.initial_range, exclude=node.id)
                digest = hashlib.sha256(
                    self.platform.read_bytes(node.initial_range)).digest()

            def publish():
                dom.owned.remove(handle)
                node.owner = dest.id
                node.attributes = RegionAttributes(
                    hash_digest=digest,
                    clean=bool(bits & CLEAN_BIT),
                    vital=bool(bits & VITAL_BIT))
                dest.owned.insert(CapEntry(CapKind.REGION, node.id))
                rng = node.initial_range
                self._patch_view(dom, rng.start, rng.end)
                if dest is not dom:
                    self._patch_view(dest, rng.start, rng.end)
                self._refresh_views(affected)

            affected = self._cores_running({dom.id, dest.id})
            self.platform.barrier_update(self._core_of(dom.id), affected,
                                         publish, f"send:{node.id}")
            hashed = {} if digest is None else {"digest": digest.hex()}
            return {**hashed, "region": node.id, "to": dest.id}

        self._call(ApiCall.SEND, "send", caller,
                   {"handle": handle, "dest": dest_handle, "attrs": bits},
                   body)

    def _check_unmapped(self, rng: PhysRange, exclude: int):
        # each live region is held by exactly one capability, its owner's
        for rid, node in self.tree.nodes.items():
            lo, hi = node._pages(rng)
            if rid != exclude and lo < hi and any(node._view[lo:hi]):
                raise deny(ErrorCode.STILL_ACCESSIBLE,
                           f"{rng} reachable via region {rid}")

    def seal(self, caller: int, handle: int):
        def body(dom):
            child = self._resolve_td(dom, handle)
            if child.state is not DomainState.UNSEALED:
                raise deny(ErrorCode.ALREADY_SEALED, f"domain {child.id}")
            undeliverable = undeliverable_vectors(
                self._policies_from_root(child))
            if undeliverable:
                raise deny(ErrorCode.UNDELIVERABLE_VECTOR,
                           f"vector {min(undeliverable)}")
            child.register_hash = self._register_hash(child)
            child.state = DomainState.SEALED
            return {"dom": child.id,
                    "register_hash": child.register_hash.hex()}

        self._call(ApiCall.SEAL, "seal", caller, {"handle": handle}, body)

    # ------------------------------------------------------------------
    # switch, interrupts
    # ------------------------------------------------------------------

    def switch(self, caller: int, core: int, handle: Optional[int] = None):
        def body(dom):
            if not 0 <= core < len(self.cores):
                raise deny(ErrorCode.CORE_NOT_ALLOWED, f"core {core}")
            cs = self.cores[core]
            if cs.current != dom.id:
                raise deny(ErrorCode.NOT_RUNNING,
                           f"domain {dom.id} is not current on core {core}")
            if cs.irq is not None:
                # active routed interrupt: the only way down is resuming the
                # chain
                if handle is None or self._resolve_td(dom, handle).id != \
                        cs.irq.resume[0].domain:
                    raise deny(ErrorCode.IRQ_RESUME_REQUIRED,
                               "must resume the preempted chain")
                return self._resume_step(cs, dom)
            if handle is None:
                # a core's path starts at td0, so only td0 has an empty chain
                if not cs.chain:
                    raise deny(ErrorCode.NO_PARENT, "nowhere to return")
                self._transfer(cs, cs.chain.pop(), PayloadCode.RETURNED,
                               dom.id)
                return {"to": cs.current, "payload": "returned"}
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

        self._call(ApiCall.SWITCH, "switch", caller,
                   {"core": core, "target": "ret" if handle is None else handle},
                   body, core=core)

    def _resume_step(self, cs: CoreState, dom: DomainNode) -> dict:
        """One step down an interrupted chain by its handler or an observer,
        `dom`: it and each entry that does not observe the vector are
        suspended on the chain until one that does runs with the vector as
        its payload, or the preempted domain resumes with no payload."""
        core, irq = cs.id, cs.irq
        cs.chain.append(ChainEntry(dom.id, list(dom.core_regs(core))))
        while True:
            entry = irq.resume.pop(0)
            if not irq.resume:
                cs.irq = None
                self._transfer(cs, entry)
                if cs.deferred_vectors:
                    self._route_deferred(core)
                return {"to": entry.domain, "payload": "resumed"}
            if entry.pending_observation:
                self._transfer(cs, entry, PayloadCode.INTERRUPT, irq.vector)
                return {"to": entry.domain,
                        "payload": f"interrupt:{irq.vector}"}
            cs.chain.append(entry)

    def _transfer(self, cs: CoreState, entry: ChainEntry,
                  code: Optional[PayloadCode] = None, detail: int = 0):
        """The one control transfer to a suspended domain: `entry`'s domain
        runs again at the registers it was suspended with, is made current,
        gets `code` and `detail` in registers 0 and 1 as its payload (or
        none), and the core installs its table.  It ends the core's switch
        quantum, which only a switch down to a new domain arms."""
        core = cs.id
        dom = self.domains[entry.domain]
        regs = dom.regs[core] = list(entry.saved_regs)
        cs.current = entry.domain
        if code is None:
            cs.last_payload = None
        else:
            regs[0] = code = int(code)
            regs[1] = detail
            cs.last_payload = (code, detail)
        self._quantum_deadlines.pop(core, None)
        self.platform.cores[core].local_view = dom.owned.view

    def route_interrupt(self, core: int, vector: int) -> int:
        # the core may still run a revoked domain: drain it first, as a
        # monitor call does; `_irq` denies a core outside the machine
        if 0 <= core < len(self.cores):
            self.process_updates(core)
        return self._irq(core, vector)["handler"]

    def _irq(self, core: int, vector: int, **flags) -> dict:
        """Route a vector on a core and trace it as `irq`; `flags` name how
        it came (deferred, device or quantum)."""
        def body():
            if not 0 <= core < len(self.cores):
                raise deny(ErrorCode.CORE_NOT_ALLOWED, f"core {core}")
            if not 0 <= vector < NUM_VECTORS:
                raise deny(ErrorCode.BAD_HANDLE, f"vector {vector}")
            cs = self.cores[core]
            walk = self._handler_of(cs.current, vector)
            handler = walk[-1][0].id
            if len(walk) == 1:
                # delivered in place, no preemption
                return {"handler": handler, "delivered": "inplace"}
            if cs.irq is not None:
                # nested routing is deferred until the active chain resumes
                cs.deferred_vectors.append(vector)
                return {"handler": -1, "deferred": 1}
            # the core's path is a parent chain from td0: the walk's domains
            # above current are the chain's last entries, the handler's
            # first; those under it, current last, wait to resume
            cut = len(cs.chain) + 1 - len(walk)
            handler_entry, resume = cs.chain[cut], cs.chain[cut + 1:]
            assert handler_entry.domain == handler
            current = walk[0][0]
            resume.append(ChainEntry(current.id,
                                     list(current.core_regs(core))))
            for entry, (_, visibility) in zip(reversed(resume), walk):
                entry.pending_observation = visibility is _REPORT
            del cs.chain[cut:]
            cs.irq = IrqFrame(vector, resume)
            self._transfer(cs, handler_entry, PayloadCode.INTERRUPT, vector)
            return {"handler": handler}

        return self._record("irq", core, {"vector": vector, **flags}, body)

    def _route_deferred(self, core: int):
        cs = self.cores[core]
        while cs.deferred_vectors and cs.irq is None:
            self._irq(core, cs.deferred_vectors.pop(0), deferred=1)

    def route_device_interrupt(self, vector: int) -> Optional[int]:
        """Route a device interrupt on core 0.  Every domain on a core's
        path may run on that core (a child's cores are a subset of its
        parent's, and a switch checks the core), so the first core's
        handler always may take it."""
        cs = self.cores[0]
        if self._held_cut(cs) is not None:
            # the core may still run a revoked domain: its drain routes
            # the vector once the core's path is current
            cs.deferred_vectors.append(vector)
            return None
        return self._irq(0, vector, device=1)["handler"]

    def _policies_from_root(self, dom: DomainNode) -> list[Policies]:
        """The policies of dom and each of its ancestors, td0's first: td0's
        all-Deliver default usually settles the seal check at once."""
        path = [dom.policies]
        while dom.parent is not None:
            dom = self.domains[dom.parent]
            path.append(dom.policies)
        return path[::-1]

    def _handler_of(self, dom_id: int, vector: int) -> list:
        """The one handler walk: each domain from dom_id up to the nearest
        one that delivers the vector, dom_id's first and that handler's
        last, as (node, its visibility for the vector)."""
        walk = []
        while True:
            dom = self.domains[dom_id]
            visibility = dom.policies.interrupt(vector).visibility
            walk.append((dom, visibility))
            if visibility is _DELIVER:
                return walk
            dom_id = dom.parent
            assert dom_id is not None, \
                "td0 delivers every vector, so a handler always exists"

    # -- switch quantum (experimental) ----------------------------------

    def set_quantum(self, steps: Optional[int]):
        self.quantum = steps

    def _arm_quantum(self, core: int, dom_id: int):
        if self.quantum:
            self._quantum_deadlines[core] = (self.platform.now + self.quantum,
                                             dom_id)

    def check_quanta(self):
        # a core whose drain is due may still run a revoked domain; its
        # deadline waits for the drain, and an unwind clears it
        due = [(core, dom) for core, (deadline, dom)
               in self._quantum_deadlines.items()
               if deadline <= self.platform.now
               and self._held_cut(self.cores[core]) is None]
        for core, dom in due:
            del self._quantum_deadlines[core]
            if self.cores[core].current == dom:
                self._irq(core, TIMER_VECTOR, quantum=1)

    # ------------------------------------------------------------------
    # channels, enumerate, attest
    # ------------------------------------------------------------------

    def getchan(self, caller: int, handle: Optional[int] = None) -> int:
        def body(dom):
            # handle None asks for a self-channel: a documented extension that
            # lets a domain hand out attestation references to itself
            target = dom if handle is None else \
                self._resolve_td(dom, handle, allow_channel=True)
            self._check_room(dom)
            new_handle = dom.owned.insert(CapEntry(CapKind.CHANNEL, target.id))
            return {"handle": new_handle, "to": target.id}

        return self._call(ApiCall.GETCHAN, "getchan", caller,
                          {"from": "self" if handle is None else handle},
                          body)["handle"]

    def enumerate(self, caller: int, cursor: int):
        """The line describing the first capability at or after `cursor`, and
        the cursor after it; (None, end) when there is none."""
        out: dict = {}

        def body(dom):
            slots = dom.owned.slots
            if cursor < 0 or cursor > len(slots):
                raise deny(ErrorCode.BAD_CURSOR, f"cursor {cursor}")
            line, nxt = None, len(slots)
            for index in range(cursor, len(slots)):
                if slots[index] is not None:
                    line, nxt = self._describe(slots[index]), index + 1
                    break
            out["result"] = line, nxt
            return {"next": nxt,
                    "entry": "end" if line is None else line.replace(" ", "~")}

        self._call(ApiCall.ENUMERATE, "enumerate", caller, {"cursor": cursor},
                   body)
        return out["result"]

    def _describe(self, entry: CapEntry) -> str:
        """ENUMERATE's line for one capability: a region's status, range,
        rights, attributes and children, or a domain's or channel's state."""
        if entry.kind is not CapKind.REGION:
            kind = "domain" if entry.kind is CapKind.DOMAIN else "channel"
            return f"{kind} {self.domains[entry.ref].state.value}"
        node = self.tree.get(entry.ref)
        rng = node.initial_range
        line = f"region {node.status.value} {rng.start:#x} {rng.end:#x} " \
            f"{node.rights.render()}"
        attributes = node.attributes.flags.render()
        if attributes:
            line += f" {attributes}"
        for n, cid in enumerate(node.children):
            child = self.tree.nodes[cid]
            rng = child.initial_range
            line += f" | {child.kind.value} {rng.start:#x} {rng.end:#x} " \
                f"c{n} {child.rights.render()}"
        return line

    def attest(self, caller: int, handle: Optional[int] = None,
               verifier_key: Optional[bytes] = None,
               nonce: Optional[bytes] = None,
               domain_key: Optional[bytes] = None):
        return self._attest(caller, handle, verifier_key, nonce,
                            domain_key)[0]

    def _attest(self, caller: int, handle: Optional[int],
                verifier_key: Optional[bytes] = None,
                nonce: Optional[bytes] = None,
                domain_key: Optional[bytes] = None):
        """The report and its bytes, serialised and signed once."""
        out: dict = {}

        def body(dom):
            subject = dom if handle is None else \
                self._resolve_td(dom, handle, allow_channel=True)
            out["signed"] = attest_mod.build_signed_report(
                self, subject.id, verifier_key=verifier_key, nonce=nonce,
                domain_key=domain_key)
            return {"subject": subject.id}

        self._call(ApiCall.ATTEST, "attest", caller,
                   {"subject": "self" if handle is None else handle}, body)
        return out["signed"]

    # ------------------------------------------------------------------
    # revocation
    # ------------------------------------------------------------------

    def revoke_region(self, caller: int, handle: int, child_index: int):
        def body(dom):
            parent = self.tree.get(self._resolve_region(dom, handle))
            if not 0 <= child_index < len(parent.children):
                raise deny(ErrorCode.NOT_A_CHILD, f"child index {child_index}")
            child_id = parent.children[child_index]
            self.tree.check_revoke(dom.id, parent.id, child_id)
            regions, dom_ids = self._closure({child_id}, set())
            self._execute_destruction(regions, dom_ids, dom.id,
                                      f"revoke_region:{child_id}")
            return {"parent": parent.id, "child": child_id,
                    "regions": len(regions), "domains": len(dom_ids)}

        self._call(ApiCall.REVOKE, "revoke_region", caller,
                   {"handle": handle, "child": child_index}, body)

    def revoke_domain(self, caller: int, handle: int):
        def body(dom):
            child = self._resolve_td(dom, handle)
            regions, dom_ids = self._closure(set(), {child.id})
            self._execute_destruction(regions, dom_ids, dom.id,
                                      f"revoke_domain:{child.id}")
            return {"dom": child.id, "regions": len(regions),
                    "domains": len(dom_ids)}

        self._call(ApiCall.REVOKE, "revoke_domain", caller,
                   {"handle": handle}, body)

    def _closure(self, seed_regions: set[int],
                 seed_domains: set[int]) -> tuple[list[int], set[int]]:
        """Fixpoint of cascading revocation: subtrees, owned regions, vital.

        A domain's children are the domains its DOMAIN capabilities name:
        such a capability cannot be sent, so it stays in its creator's table.
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
                for _, entry in self.domains[did].owned.entries():
                    if entry.kind is CapKind.REGION:
                        if entry.ref not in regions:
                            region_work.append(entry.ref)
                    elif entry.kind is CapKind.DOMAIN and \
                            entry.ref not in doms:
                        dom_work.append(entry.ref)
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
            # 4. domains become terminally revoked (step 1 removed their
            # DOMAIN capabilities); undrained outputs are dropped
            for did in dom_ids:
                node = self.domains[did]
                node.state = DomainState.REVOKED
                node.owned = type(node.owned)()
                node.regs.clear()
            for token in [t for t, (owner, *_) in self._buffers.items()
                          if owner in dom_ids]:
                del self._buffers[token]
            if root_heir is not None:
                self.tree.nodes[self.root_region].owner = root_heir
                self.domains[root_heir].owned.insert(
                    CapEntry(CapKind.REGION, self.root_region))
            # 5. the live domains that lost or regained pages get their
            # tables rebuilt; the revoked ones have empty tables
            for did in affected_doms - dom_ids:
                self._patch_view(self.domains[did])
            # 6. each affected core gets its new table, an empty one while
            # it still runs a revoked domain, which its drain unwinds
            self._refresh_views(affected)
            # 7. records are freed; one a core path still names is held,
            # and that core's drain is due until it unwinds
            self.domains.reclaim(dom_ids, self._named_domains())

        self.platform.barrier_update(self._core_of(caller), affected,
                                     publish, tag)

    def _named_domains(self) -> set[int]:
        return {d for cs in self.cores for d in cs.path_domains()}

    # ------------------------------------------------------------------
    # per-core drain
    # ------------------------------------------------------------------

    def process_updates(self, core: int) -> bool:
        """The drain point.  A publish installs the new tables of the cores
        it affects; a core's drain is due when its path names a held record
        (`_held_cut`), and then it unwinds past the first such domain,
        installs the table of the domain it then runs and returns True.  A
        core not in an interrupt then routes its deferred vectors."""
        cs = self.cores[core]
        cut = self._held_cut(cs) if self.domains.held else None
        if cut is not None:
            self._unwind(cs, cut)
        if cs.irq is None and cs.deferred_vectors:
            self._route_deferred(core)
        return cut is not None

    def _held_cut(self, cs: CoreState) -> Optional[int]:
        """Where the core's path first names a held record, or None.  A
        revoked domain is held exactly while a core path names it, so the
        core's drain is due exactly when there is a cut."""
        held = self.domains.held
        if held:
            for index, dom_id in enumerate(cs.path_domains()):
                if dom_id in held:
                    return index
        return None

    def _unwind(self, cs: CoreState, cut: int):
        """Cut the core's path at `cut`, its first held domain.  The domain
        above the cut runs again at the registers it was suspended with and
        is told which child was revoked; its chain is what lies above it."""
        assert cut >= 1, "td0 is never revoked"
        regs = self.domains[cs.current].regs.get(cs.id)
        entries = cs.chain + [
            ChainEntry(cs.current, list(regs or zero_registers()))]
        if cs.irq is not None:
            entries += cs.irq.resume
        revoked, resumed = entries[cut].domain, entries[cut - 1]
        cs.chain = [ChainEntry(e.domain, list(e.saved_regs))
                    for e in entries[:cut - 1]]
        cs.irq = None
        self._transfer(cs, resumed, PayloadCode.REVOKED_CHILD, revoked)
        self.domains.release(self._named_domains())

    # ------------------------------------------------------------------
    # register ABI
    # ------------------------------------------------------------------

    def monitor_call(self, core: int, user: bool = False):
        """Dispatch one call from the current domain's registers.

        Call id sits in register 0, arguments in 1..6; results land in
        registers 0..3 with register 0 holding 0 for success or the error
        code.  In concurrent mode the whole call, register decoding
        included, holds the engine lock (see `ConcurrentEngine`).  A call
        rejected before any monitor call traced it is traced as `abi`.  A
        core outside the machine has no registers to answer in, so its call
        is traced and raised.  A core whose drain unwinds it makes no call,
        as its registers then hold a REVOKED_CHILD payload.

        Large outputs are consumed via a continuation token.  ATTEST or
        ENUMERATE with a nonzero token in register 2 is a drain, decided
        and answered here, after the `user_calls` gate and before the
        handler table: the token must name an output of the caller issued
        by the same call id, or the drain is denied `BAD_CURSOR`.  It
        answers the next 16 bytes as two words, a short last chunk padded
        with zero bytes, drops the token after its last chunk, and traces
        nothing.  The handlers of both calls only issue.
        """
        if not 0 <= core < len(self.cores):
            self.trace.record(OpRecord(
                self.platform.now, core, "abi", {}, False,
                ErrorCode.CORE_NOT_ALLOWED.name))
            raise deny(ErrorCode.CORE_NOT_ALLOWED, f"core {core}")
        if self.process_updates(core):
            return
        caller_id = self.cores[core].current
        caller = self.domains[caller_id]
        regs = caller.core_regs(core)
        call_id = regs[0]
        traced = len(self.trace.records)
        try:
            if user and not caller.policies.user_calls:
                raise deny(ErrorCode.POLICY_DENIED, "user calls not allowed")
            token = regs[2]
            if token and call_id in _DRAIN_CALLS:
                # a drain: the token drains only for the domain whose
                # call produced the output, and only through that call
                entry = self._buffers.get(token)
                if entry is None or entry[0] != caller_id or \
                        entry[1] != call_id:
                    raise deny(ErrorCode.BAD_CURSOR, f"token {token}")
                blob, offset = entry[2], entry[3]
                end = offset + 16
                regs[0] = 0
                if end < len(blob):
                    entry[3] = end
                    regs[1] = 16
                    regs[2], regs[3] = _CHUNK.unpack_from(blob, offset)
                else:
                    del self._buffers[token]
                    chunk = blob[offset:]
                    regs[1] = len(chunk)
                    regs[2], regs[3] = _CHUNK.unpack(
                        chunk.ljust(16, b"\0"))
                return
            # checked here, so that a negative id cannot index the
            # table from its end
            if not 0 <= call_id < len(_ABI_HANDLERS):
                raise deny(ErrorCode.BAD_HANDLE, f"unknown call {call_id}")
            results = _ABI_HANDLERS[call_id](self, caller_id, core,
                                             regs[1:7])
        except MonitorError as exc:
            if len(self.trace.records) == traced:
                self.trace.record(OpRecord(
                    self.platform.now, core, "abi",
                    {"caller": caller_id, "call": call_id}, False,
                    exc.code.name))
            regs = self.domains[self.cores[core].current].core_regs(core)
            regs[0] = int(exc.code)
            return
        # a switch transfers control and returns None; its results reach
        # the caller on resume
        if results is not None:
            regs[0] = 0
            regs[1:1 + len(results)] = results

    # -- one handler per call: (caller, core, argument registers) -> at most
    # three result words, or None when control moved; ATTEST's and
    # ENUMERATE's only issue, as monitor_call answers their drains

    def _abi_create(self, caller: int, core: int, args: list[int]):
        return [self.create(caller)]

    def _abi_set_get(self, caller: int, core: int, args: list[int]):
        sub = args[0]
        if sub == 0:
            self.set_register(caller, args[1], args[2], args[3], args[4])
            return []
        if sub == 1:
            return [self.get_register(caller, args[1], args[2], args[3])]
        if sub == 2:
            fname = _by_id(POLICY_FIELD_IDS, args[2], "policy field")
            self.set_policy(caller, args[1], fname, args[3])
            return []
        if sub == 3:
            fname = _by_id(POLICY_FIELD_IDS, args[2], "policy field")
            return [self.get_policy(caller, args[1], fname)]
        if sub == 4:
            vis = _by_id(VISIBILITY_IDS, args[3], "visibility")
            self.set_interrupt_policy(caller, args[1], args[2], vis, args[4])
            return []
        raise deny(ErrorCode.BAD_HANDLE, f"set/get sub-op {sub}")

    def _abi_send(self, caller: int, core: int, args: list[int]):
        self.send(caller, args[0], args[1], AttrFlags(args[2]))
        return []

    def _abi_seal(self, caller: int, core: int, args: list[int]):
        self.seal(caller, args[0])
        return []

    def _abi_attest(self, caller: int, core: int, args: list[int]):
        self._check_undrained(caller)
        _, blob = self._attest(caller, _optional(args[0]))
        return [len(blob), self._issue_buffer(caller, ApiCall.ATTEST, blob)]

    def _abi_enumerate(self, caller: int, core: int, args: list[int]):
        self._check_undrained(caller)
        line, nxt = self.enumerate(caller, args[0])
        if line is None:
            return [nxt, 0, 0]
        blob = line.encode()
        return [nxt, self._issue_buffer(caller, ApiCall.ENUMERATE, blob),
                len(blob)]

    def _abi_switch(self, caller: int, core: int, args: list[int]):
        self.switch(caller, core, _optional(args[0]))
        return None

    def _abi_alias(self, caller: int, core: int, args: list[int]):
        rng = PhysRange(args[1], args[2])
        return [self.tree_alias(caller, args[0], rng, Rights(args[3]))]

    def _abi_carve(self, caller: int, core: int, args: list[int]):
        rng = PhysRange(args[1], args[2])
        return [self.tree_carve(caller, args[0], rng, Rights(args[3]))]

    def _abi_revoke(self, caller: int, core: int, args: list[int]):
        # resolved without raising, so that every rejection, a bad handle
        # included, happens gated and traced inside the call
        entry = self.domains[caller].owned.get(args[0])
        if entry is not None and entry.kind is CapKind.REGION:
            self.revoke_region(caller, args[0], args[1])
        else:
            self.revoke_domain(caller, args[0])
        return []

    def _abi_getchan(self, caller: int, core: int, args: list[int]):
        return [self.getchan(caller, _optional(args[0]))]

    # -- continuation buffers

    def _check_undrained(self, caller: int):
        held = sum(1 for owner, *_ in self._buffers.values()
                   if owner == caller)
        if held >= MAX_UNDRAINED:
            raise deny(ErrorCode.OUT_OF_METADATA,
                       f"{held} outputs left undrained")

    def _issue_buffer(self, caller: int, call: ApiCall, blob: bytes) -> int:
        token = self._next_token
        self._next_token += 1
        self._buffers[token] = [caller, call, blob, 0]
        return token

    # ------------------------------------------------------------------
    # region derivations (engine-level wrappers)
    # ------------------------------------------------------------------

    def tree_alias(self, caller: int, handle: int, rng: PhysRange,
                   rights: Rights) -> int:
        return self._derive("alias", caller, handle, rng, rights)

    def tree_carve(self, caller: int, handle: int, rng: PhysRange,
                   rights: Rights) -> int:
        return self._derive("carve", caller, handle, rng, rights)

    def _derive(self, op: str, caller: int, handle: int, rng: PhysRange,
                rights: Rights) -> int:
        """ALIAS or CARVE, as `op` names: the call and the tree method."""
        def body(dom):
            parent_id = self._resolve_region(dom, handle)
            self._check_room(dom)
            new_id = getattr(self.tree, op)(dom.id, parent_id, rng, rights)
            new_handle = dom.owned.insert(CapEntry(CapKind.REGION, new_id))
            affected = self._cores_running({dom.id})

            def publish():
                # the parent is the caller's, so only the caller's table
                # changes, and only on rng
                self._patch_view(dom, rng.start, rng.end)
                self._refresh_views(affected)

            self.platform.barrier_update(self._core_of(dom.id), affected,
                                         publish, f"{op}:{new_id}")
            return {"region": new_id, "handle": new_handle,
                    "parent": parent_id,
                    "status": self.tree.nodes[new_id].status.value}

        return self._call(ApiCall[op.upper()], op, caller,
                          {"handle": handle, "start": rng.start,
                           "end": rng.end, "rights": rights.render()},
                          body)["handle"]


def _optional(word: int) -> Optional[int]:
    """A register word naming a handle or none: 0 is none, else handle + 1."""
    return None if word == 0 else word - 1


def _by_id(ids: tuple, ident: int, what: str):
    """The entry of a register-ABI id table at an id."""
    if not 0 <= ident < len(ids):
        raise deny(ErrorCode.BAD_HANDLE, f"{what} {ident}")
    return ids[ident]


# the register ABI's handlers, indexed by call id
_ABI_HANDLERS = tuple({
    ApiCall.CREATE: Engine._abi_create,
    ApiCall.SET_GET: Engine._abi_set_get,
    ApiCall.SEND: Engine._abi_send,
    ApiCall.SEAL: Engine._abi_seal,
    ApiCall.ATTEST: Engine._abi_attest,
    ApiCall.ENUMERATE: Engine._abi_enumerate,
    ApiCall.SWITCH: Engine._abi_switch,
    ApiCall.ALIAS: Engine._abi_alias,
    ApiCall.CARVE: Engine._abi_carve,
    ApiCall.REVOKE: Engine._abi_revoke,
    ApiCall.GETCHAN: Engine._abi_getchan,
}[call] for call in ApiCall)


class ConcurrentEngine(Engine):
    """The engine a concurrent platform runs: each entry point that a
    worker, the platform's clock or the oracle reaches holds the platform's
    engine lock, and these overrides are all the engine's lock scope.  The
    lock is reentrant, so one entry point may call another.
    """

    def _call(self, call: ApiCall, op: str, caller: int, args: dict, body,
              core: Optional[int] = None) -> dict:
        # the core is read once the lock is held
        with self.platform.engine_lock:
            return super()._call(call, op, caller, args, body, core)

    def monitor_call(self, core: int, user: bool = False):
        with self.platform.engine_lock:
            return super().monitor_call(core, user)

    def route_interrupt(self, core: int, vector: int) -> int:
        with self.platform.engine_lock:
            return super().route_interrupt(core, vector)

    def route_device_interrupt(self, vector: int) -> Optional[int]:
        with self.platform.engine_lock:
            return super().route_device_interrupt(vector)

    def domain_may_access(self, dom_id: int, addr: int, kind: str) -> bool:
        with self.platform.engine_lock:
            return super().domain_may_access(dom_id, addr, kind)

    def page_access_map(self) -> dict[int, bytes]:
        with self.platform.engine_lock:
            return super().page_access_map()
