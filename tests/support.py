"""Shared helpers for the test suite: machine builders, the randomized
operation driver checked against the oracle, random domain-tree builders
for interrupt routing, and a trace replayer for linearizability checks."""

from __future__ import annotations

import os
import random
import sys
from typing import Optional

import pytest

import capmon
from capmon import (
    AttrFlags,
    Engine,
    MachineConfig,
    MonitorError,
    Oracle,
    PhysRange,
    Rights,
    Visibility,
    boot,
)
from capmon.domains import ALL_CALLS_MASK, CapKind, DomainState
from capmon.regions import PAGE, DerivationKind, RegionStatus, RegionTree
from capmon.state import dump_state

_VISES = (Visibility.DELIVER, Visibility.REPORT, Visibility.NOT_REPORT)


def small_config(pages: int = 32, cores: int = 2,
                 pool: int = 48, devices=()) -> MachineConfig:
    return MachineConfig(
        memory_size=pages * PAGE, cores=cores,
        monitor_reserved=PhysRange(0, PAGE),
        devices=tuple(devices), metadata_pool=pool)


def small_engine(pages: int = 32, cores: int = 2, **kw):
    engine, td0, measurement = boot(small_config(pages, cores, **kw))
    return engine, td0


def expect_code(code, fn, *args, **kw):
    """Run fn(*args, **kw), which must be denied with `code`; returns the
    MonitorError."""
    with pytest.raises(MonitorError) as err:
        fn(*args, **kw)
    assert err.value.code is code, f"{err.value.code.name} != {code.name}"
    return err.value


def frames_entered(fn, *args, capmon_only: bool = False):
    """fn(*args)'s result and the names of the frames entered while it ran,
    in order: every Python frame, or with `capmon_only` only those from
    capmon's own sources."""
    package = os.path.dirname(capmon.__file__) + os.sep
    names = []

    def profile(frame, event, arg):
        if event == "call" and (not capmon_only or
                                frame.f_code.co_filename.startswith(package)):
            names.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, names


def make_child(engine: Engine, parent: int, cores: int = None,
               mon_api: int = ALL_CALLS_MASK, receive: bool = True,
               seal: bool = True, interrupts=()) -> tuple[int, int]:
    """Create, configure, and optionally seal a child; returns (dom, handle)."""
    handle = engine.create(parent)
    dom = engine.domains[parent].owned.get(handle).ref
    if cores is None:
        cores = engine.domains[parent].policies.cores
    engine.set_policy(parent, handle, "cores", cores)
    engine.set_policy(parent, handle, "mon_api", mon_api)
    if receive:
        engine.set_policy(parent, handle, "receive", 1)
    for vector, vis, readable in interrupts:
        engine.set_interrupt_policy(parent, handle, vector, vis, readable)
    if seal:
        engine.seal(parent, handle)
    return dom, handle


def delivered_in_place(engine: Engine) -> list[tuple[int, int, int]]:
    """(core, vector, handler) of each vector the trace shows delivered in
    place, in order."""
    return [(r.core, r.args["vector"], r.results["handler"])
            for r in engine.trace.records
            if r.ok and r.op == "irq"
            and r.results.get("delivered") == "inplace"]


def hold_drains(engine: Engine):
    """Make each later barrier round publish without parking or draining:
    as between a round's release and a core's drain, a core may then still
    run a revoked domain, whose record is held."""
    engine.platform.barrier_update = \
        lambda initiator, affected, publish, tag: publish()


def carve_to(engine: Engine, owner: int, dest_handle: int, rng: PhysRange,
             rights: Rights = Rights.RWX,
             attrs: AttrFlags = AttrFlags.NONE) -> int:
    """Carve from the owner's root-region handle and send to dest; returns id."""
    root_handle = engine.domains[owner].owned.find(CapKind.REGION,
                                                   engine.root_region)
    handle = engine.tree_carve(owner, root_handle, rng, rights)
    region = engine.domains[owner].owned.get(handle).ref
    engine.send(owner, handle, dest_handle, attrs)
    return region


# ---------------------------------------------------------------------------
# randomized operation driver, diffed against the oracle after every step
# ---------------------------------------------------------------------------

class FuzzDriver:
    REGION_BUDGET = 48

    def __init__(self, seed: int, pages: int = 16, cores: int = 2,
                 devices=()):
        self.rng = random.Random(seed)
        self.engine, self.td0 = small_engine(pages=pages, cores=cores,
                                             pool=24, devices=devices)
        self.oracle = Oracle()
        self._replay_pos = 0
        self.accepted = 0
        self.rejected = 0
        self.steps = 0
        self._sync()

    def _sync(self):
        records = self.engine.trace.records
        while self._replay_pos < len(records):
            self.oracle.apply(records[self._replay_pos])
            self._replay_pos += 1

    # -- random pickers --------------------------------------------------

    def _pick_caller(self) -> int:
        choices = list(self.engine.domains)  # the live domains
        currents = [cs.current for cs in self.engine.cores]
        # bias toward running domains so policy-gated calls mostly land
        pool = currents * 3 + choices
        return self.rng.choice(pool)

    def _pick_handle(self, caller: int, kind: Optional[CapKind] = None,
                     predicate=None) -> Optional[int]:
        entries = [
            (h, e) for h, e in self.engine.domains[caller].owned.entries()
            if (kind is None or e.kind is kind)
            and (predicate is None or predicate(e))]
        if not entries:
            return None
        return self.rng.choice(entries)[0]

    def _random_subrange(self, rng: PhysRange) -> PhysRange:
        pages = (rng.end - rng.start) // PAGE
        lo = self.rng.randrange(pages)
        hi = self.rng.randrange(lo, pages) + 1
        if self.rng.random() < 0.06:
            hi += self.rng.randrange(1, 3)  # sometimes escape the parent
        return PhysRange(rng.start + lo * PAGE, rng.start + hi * PAGE)

    def _random_rights(self, parent_rights: Rights) -> Rights:
        if self.rng.random() < 0.1:
            return Rights(self.rng.randrange(8))  # may escalate or be empty
        value = Rights(0)
        for bit in (Rights.R, Rights.W, Rights.X):
            if parent_rights & bit and self.rng.random() < 0.8:
                value |= bit
        return value if value else parent_rights

    # -- op generators -----------------------------------------------------

    def _op_derive(self):
        carve = self.rng.random() < 0.5
        caller = self._pick_caller()
        if len(self.engine.tree.nodes) > self.REGION_BUDGET:
            return self._op_revoke_region()
        handle = self._pick_handle(caller, CapKind.REGION)
        if handle is None:
            handle = self.rng.randrange(8)
            rng = PhysRange(0, PAGE)
            rights = Rights.RWX
        else:
            node = self.engine.tree.get(
                self.engine.domains[caller].owned.get(handle).ref)
            rng = self._random_subrange(node.initial_range)
            rights = self._random_rights(node.rights)
        if carve:
            self.engine.tree_carve(caller, handle, rng, rights)
        else:
            self.engine.tree_alias(caller, handle, rng, rights)

    def _op_send(self):
        caller = self._pick_caller()
        handle = self._pick_handle(caller)
        dest = self._pick_handle(caller, predicate=lambda e:
                                 e.kind is not CapKind.REGION)
        if handle is None or dest is None:
            raise _Skip()
        attrs = self.rng.choice(
            [AttrFlags.NONE] * 5 + [AttrFlags.CLEAN, AttrFlags.VITAL,
                                    AttrFlags.CLEAN | AttrFlags.VITAL,
                                    AttrFlags.HASH,
                                    AttrFlags.HASH | AttrFlags.CLEAN |
                                    AttrFlags.VITAL])
        self.engine.send(caller, handle, dest, attrs)

    def _op_revoke_region(self):
        caller = self._pick_caller()
        handle = self._pick_handle(
            caller, CapKind.REGION,
            lambda e: bool(self.engine.tree.nodes[e.ref].children))
        if handle is None:
            handle = self._pick_handle(caller, CapKind.REGION)
        if handle is None:
            raise _Skip()
        entry = self.engine.domains[caller].owned.get(handle)
        nchildren = len(self.engine.tree.nodes[entry.ref].children)
        index = self.rng.randrange(max(nchildren, 1) + 1)
        self.engine.revoke_region(caller, handle, index)

    def _op_revoke_domain(self):
        caller = self._pick_caller()
        handle = self._pick_handle(caller, CapKind.DOMAIN)
        if handle is None:
            raise _Skip()
        self.engine.revoke_domain(caller, handle)

    def _op_create(self):
        caller = self._pick_caller()
        self.engine.create(caller)

    def _op_set(self):
        caller = self._pick_caller()
        handle = self._pick_handle(caller, CapKind.DOMAIN)
        if handle is None:
            raise _Skip()
        field = self.rng.choice(("cores", "mon_api", "receive", "intr", "reg"))
        parent_policies = self.engine.domains[caller].policies
        if field == "cores":
            mask = parent_policies.cores if self.rng.random() < 0.7 else 0xF
            self.engine.set_policy(caller, handle, "cores",
                                   self.rng.randrange(mask + 1)
                                   if self.rng.random() < 0.9 else mask * 2 + 1)
        elif field == "mon_api":
            value = self.rng.randrange(ALL_CALLS_MASK + 1)
            self.engine.set_policy(caller, handle, "mon_api", value)
        elif field == "receive":
            self.engine.set_policy(caller, handle, "receive",
                                   self.rng.randrange(2))
        elif field == "intr":
            vector = self.rng.choice((0, 5, 14, 33, 200))
            vis = self.rng.choice(_VISES)
            self.engine.set_interrupt_policy(caller, handle, vector, vis,
                                             self.rng.randrange(4))
        else:
            self.engine.set_register(caller, handle,
                                     self.rng.randrange(2),
                                     self.rng.randrange(18),
                                     self.rng.randrange(1 << 16))

    def _op_seal(self):
        caller = self._pick_caller()
        handle = self._pick_handle(
            caller, CapKind.DOMAIN,
            lambda e: self.engine.domains[e.ref].state
            is DomainState.UNSEALED)
        if handle is None:
            raise _Skip()
        self.engine.seal(caller, handle)

    def _op_switch(self):
        core = self.rng.randrange(len(self.engine.cores))
        caller = self.engine.current_domain(core)
        cs = self.engine.cores[core]
        if cs.irq is not None and self.rng.random() < 0.8:
            head = cs.irq.resume[0].domain
            handle = self.engine.domains[caller].owned.find(CapKind.DOMAIN,
                                                            head)
            if handle is None:
                raise _Skip()
            self.engine.switch(caller, core, handle)
            return
        if self.rng.random() < 0.5:
            self.engine.switch(caller, core, None)
        else:
            handle = self._pick_handle(caller, CapKind.DOMAIN)
            if handle is None:
                raise _Skip()
            self.engine.switch(caller, core, handle)

    def _op_irq(self):
        core = self.rng.randrange(len(self.engine.cores))
        vector = self.rng.choice((0, 5, 14, 33, 200))
        self.engine.route_interrupt(core, vector)

    _WEIGHTS = (
        ("derive", 40), ("send", 20), ("revoke_region", 10),
        ("revoke_domain", 5), ("create", 6), ("set", 5), ("seal", 4),
        ("switch", 6), ("irq", 4),
    )

    def step(self):
        self.steps += 1
        roll = self.rng.randrange(sum(w for _, w in self._WEIGHTS))
        for name, weight in self._WEIGHTS:
            if roll < weight:
                op = name
                break
            roll -= weight
        before = dump_state(self.engine)
        try:
            getattr(self, "_op_" + op)()
        except _Skip:
            return
        except MonitorError:
            self.rejected += 1
            assert dump_state(self.engine) == before, \
                f"rejected {op} changed engine state (seed step {self.steps})"
        else:
            self.accepted += 1
        self._sync()
        problems = self.oracle.diff(self.engine)
        assert not problems, \
            f"oracle diff after {op} (step {self.steps}): {problems[:4]}"
        check_core_paths(self.engine)
        check_capability_holders(self.engine)
        swept: dict = {}  # each node is swept once for both checks
        check_views(self.engine, swept)
        check_invariants(self.engine.tree, swept)

    def run(self, n: int):
        for _ in range(n):
            self.step()


class _Skip(Exception):
    """The generator could not build a candidate operation; not a failure."""


def check_core_paths(engine: Engine):
    """The chain plus current plus any pending resume is always a simple
    root-ward path of live domains from td0, each of which may run on the
    core, and no core's drain is due (its path names no held record):
    every barrier round ends with its drains."""
    for cs in engine.cores:
        assert engine._held_cut(cs) is None, f"core {cs.id}: drain is due"
        path = cs.path_domains()
        assert engine.domains[path[0]].parent is None, \
            f"core {cs.id}: {path} does not start at td0"
        assert len(set(path)) == len(path), f"core {cs.id}: cycle in {path}"
        for upper, lower in zip(path, path[1:]):
            node = engine.domains[lower]
            assert node.parent == upper, \
                f"core {cs.id}: {lower} is not a child of {upper}"
        for dom in path:
            assert engine.domains[dom].live, \
                f"core {cs.id}: revoked domain {dom} on the path"
            assert engine.domains[dom].policies.cores >> cs.id & 1, \
                f"core {cs.id}: domain {dom} may not run on it"


def check_capability_holders(engine: Engine):
    """Each live region is named by exactly one REGION capability, held by
    the region's owner, and each live domain but td0 and the devices by
    exactly one DOMAIN capability, held by its parent."""
    holders: dict = {CapKind.REGION: {}, CapKind.DOMAIN: {}}
    for dom in engine.domains.values():
        for entry in dom.owned.slots:
            if entry is not None and entry.kind is not CapKind.CHANNEL:
                holders[entry.kind].setdefault(entry.ref, []).append(dom.id)
    assert holders[CapKind.REGION] == {
        rid: [node.owner] for rid, node in engine.tree.nodes.items()}
    assert holders[CapKind.DOMAIN] == {
        dom.id: [dom.parent] for dom in engine.domains.values()
        if dom.parent is not None and not dom.is_device}


def fresh_sweep(tree: RegionTree, swept: dict, region: int) -> bytes:
    """region's view swept from the tree, bypassing the node's own; `swept`
    keeps the sweeps for reuse within one check."""
    view = swept.get(region)
    if view is None:
        view = swept[region] = tree._sweep(tree.nodes[region])
    return view


def page_table(segments) -> bytes:
    """A table from (start, end, bits) page-aligned segments, page by page:
    one byte per page from page 0 to the last page any segment covers,
    OR'ing the bits of the segments that overlap on a page."""
    table = bytearray()
    for start, end, bits in segments:
        if end // PAGE > len(table):
            table += bytes(end // PAGE - len(table))
        for page in range(start // PAGE, end // PAGE):
            table[page] |= bits
    return bytes(table)


def fresh_view(engine: Engine, dom, swept: Optional[dict] = None) -> bytes:
    """dom's table built from scratch: each region is swept from the tree,
    bypassing both the region views and the domain's table, and each page
    it grants goes into the table as one segment."""
    swept = {} if swept is None else swept
    segments = []
    for _, entry in dom.owned.entries():
        if entry.kind is not CapKind.REGION:
            continue
        start = engine.tree.nodes[entry.ref].initial_range.start
        segments += [(start + k * PAGE, start + (k + 1) * PAGE, byte)
                     for k, byte in enumerate(
                         fresh_sweep(engine.tree, swept, entry.ref)) if byte]
    return page_table(segments)


def check_views(engine: Engine, swept: Optional[dict] = None):
    """Every live domain's table is what a build from scratch gives, and
    each core checks accesses against its current domain's table as built
    from scratch."""
    swept = {} if swept is None else swept
    fresh = {dom.id: fresh_view(engine, dom, swept)
             for dom in engine.domains.values()}
    for dom_id, view in fresh.items():
        assert engine.view_cache_for(dom_id) == view, \
            f"domain {dom_id}: stale view"
    for cs in engine.cores:
        assert engine.platform.cores[cs.id].local_view == \
            fresh.get(cs.current, b""), \
            f"core {cs.id}: stale view of domain {cs.current}"


def expected_statuses(tree: RegionTree) -> dict[int, RegionStatus]:
    """Each node's status from its derivation path, in one pass from the
    root: exclusive iff every edge from the root is a carve."""
    # enum members held in locals: a class attribute read costs more than
    # the rest of a loop turn
    alias, aliased = DerivationKind.ALIAS, RegionStatus.ALIASED
    nodes = tree.nodes
    work = [(node.id, RegionStatus.EXCLUSIVE) for node in nodes.values()
            if node.kind is DerivationKind.ROOT]
    out: dict[int, RegionStatus] = {}
    while work:
        nid, status = work.pop()
        out[nid] = status
        for cid in nodes[nid].children:
            work.append((cid, aliased if nodes[cid].kind is alias
                         else status))
    return out


def exclusivity_by_path_walk(tree: RegionTree, region: int) -> RegionStatus:
    """Independent check: exclusive iff every edge from the root is a carve."""
    node = tree.get(region)
    while node.kind is not DerivationKind.ROOT:
        if node.kind is DerivationKind.ALIAS:
            return RegionStatus.ALIASED
        node = tree.nodes[node.parent]
    return RegionStatus.EXCLUSIVE


def check_invariants(tree: RegionTree, swept: Optional[dict] = None):
    """Every region's view is a fresh sweep, every status agrees with its
    derivation path, rights and ranges only narrow from parent to child,
    and no two carves of one node overlap."""
    swept = {} if swept is None else swept
    statuses = expected_statuses(tree)
    nodes = tree.nodes
    carve = DerivationKind.CARVE
    for node in nodes.values():
        assert node._view == fresh_sweep(tree, swept, node.id), \
            f"view differs from a fresh sweep at region {node.id}"
        assert node.status is statuses.get(node.id), \
            f"exclusivity chain broken at region {node.id}"
        if node.parent is not None:
            parent = nodes[node.parent]
            assert not (int(node.rights) & ~int(parent.rights)), \
                f"rights escalation at region {node.id}"
            assert parent.initial_range.contains(node.initial_range), \
                f"range escape at region {node.id}"
        carves = sorted(
            (nodes[c].initial_range for c in node.children
             if nodes[c].kind is carve),
            key=lambda rng: rng.start)
        for a, b in zip(carves, carves[1:]):
            assert not a.overlaps(b), \
                f"overlapping carves under region {node.id}"


# ---------------------------------------------------------------------------
# random trees for interrupt-routing equivalence
# ---------------------------------------------------------------------------

def goto_domain(engine: Engine, handles: dict[int, tuple[int, int]],
                target: int, core: int = 0):
    """Navigate core's switch chain so target becomes current."""
    while engine.cores[core].chain:
        engine.switch(engine.current_domain(core), core, None)
    path = []
    walker = target
    while engine.domains[walker].parent is not None:
        path.append(walker)
        walker = engine.domains[walker].parent
    for hop in reversed(path):
        engine.switch(engine.current_domain(core), core, handles[hop][1])


def build_policy_tree(seed: int, vectors=(5, 33), max_domains: int = 6):
    """Random domain chain/tree with random interrupt policies, plus a
    random switch stack on core 0.  Returns (engine, oracle, preempted)."""
    rng = random.Random(seed)
    engine, td0 = small_engine(pages=8, cores=1)
    domains = [td0]
    handles: dict[int, tuple[int, int]] = {}
    for _ in range(rng.randrange(1, max_domains)):
        parent = rng.choice(domains)
        interrupts = []
        for vector in vectors:
            parent_vis = engine.domains[parent].policies.interrupt(
                vector).visibility
            options = list(_VISES) if parent_vis is Visibility.DELIVER \
                else [Visibility.REPORT, Visibility.NOT_REPORT]
            interrupts.append((vector, rng.choice(options),
                               rng.randrange(4)))
        goto_domain(engine, handles, parent)
        dom, handle = make_child(engine, parent, interrupts=interrupts)
        handles[dom] = (parent, handle)
        domains.append(dom)
    goto_domain(engine, handles, td0)

    # walk a random path downward from td0 on core 0
    current = td0
    while True:
        children = [d for d in domains
                    if engine.domains[d].parent == current]
        if not children or rng.random() < 0.35:
            break
        nxt = rng.choice(children)
        engine.switch(current, 0, handles[nxt][1])
        current = nxt

    oracle = Oracle().replay(engine.trace.records)
    return engine, oracle, current, handles


def resume_step(engine: Engine, core: int):
    """After a routed interrupt, switch one step back down: the running
    handler or observer resumes the head of the core's resume entries."""
    cs = engine.cores[core]
    controller = cs.current
    head = cs.irq.resume[0].domain
    handle = engine.domains[controller].owned.find(CapKind.DOMAIN, head)
    assert handle is not None, "controller must own its chain child"
    engine.switch(controller, core, handle)


def drive_resume(engine: Engine, core: int) -> list[int]:
    """After a routed interrupt, switch back down; returns the domains that
    observed the interrupt payload, in visit order."""
    observers = []
    while engine.cores[core].irq is not None:
        resume_step(engine, core)
        if engine.cores[core].irq is not None:
            observers.append(engine.cores[core].current)
    return observers


# ---------------------------------------------------------------------------
# trace replay (linearizability reference)
# ---------------------------------------------------------------------------

_REPLAYABLE = {
    "create", "set_reg", "set_policy", "set_intr", "seal", "send", "alias",
    "carve", "revoke_region", "revoke_domain", "switch", "getchan",
}


def replay_trace(records, config: MachineConfig, seed: int = 0) -> Engine:
    """Re-execute the accepted operations of a trace on a fresh deterministic
    machine; identifiers regenerate identically because allocation order is
    the commit order."""
    engine, td0, _ = boot(config, seed=seed)
    for rec in records:
        if not rec.ok or rec.op not in _REPLAYABLE:
            continue
        args = rec.args
        if rec.op == "create":
            engine.create(args["caller"])
        elif rec.op == "set_reg":
            engine.set_register(args["caller"], args["handle"], args["core"],
                                args["index"], args["value"])
        elif rec.op == "set_policy":
            engine.set_policy(args["caller"], args["handle"], args["field"],
                              args["value"])
        elif rec.op == "set_intr":
            engine.set_interrupt_policy(
                args["caller"], args["handle"], args["vector"],
                Visibility(args["vis"]), args["regs"])
        elif rec.op == "seal":
            engine.seal(args["caller"], args["handle"])
        elif rec.op == "send":
            engine.send(args["caller"], args["handle"], args["dest"],
                        AttrFlags(args["attrs"]))
        elif rec.op == "alias":
            engine.tree_alias(args["caller"], args["handle"],
                              PhysRange(args["start"], args["end"]),
                              Rights.parse(str(args["rights"])))
        elif rec.op == "carve":
            engine.tree_carve(args["caller"], args["handle"],
                              PhysRange(args["start"], args["end"]),
                              Rights.parse(str(args["rights"])))
        elif rec.op == "revoke_region":
            engine.revoke_region(args["caller"], args["handle"],
                                 args["child"])
        elif rec.op == "revoke_domain":
            engine.revoke_domain(args["caller"], args["handle"])
        elif rec.op == "switch":
            target = args["target"]
            engine.switch(args["caller"], args["core"],
                          None if target == "ret" else target)
        elif rec.op == "getchan":
            source = args["from"]
            engine.getchan(args["caller"],
                           None if source == "self" else source)
    return engine
