"""Shared helpers for the test suite: machine builders, the randomized
operation driver checked against the oracle, random domain-tree builders
for interrupt routing, and a trace replayer for linearizability checks."""

from __future__ import annotations

import random
from typing import Optional

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
from capmon.regions import PAGE
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
                 check_every: int = 1, devices=()):
        self.rng = random.Random(seed)
        self.engine, self.td0 = small_engine(pages=pages, cores=cores,
                                             pool=24, devices=devices)
        self.oracle = Oracle()
        self._replay_pos = 0
        self.check_every = check_every
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

    def _live_domains(self) -> list[int]:
        return [d.id for d in self.engine.domains.values() if d.live]

    def _pick_caller(self) -> int:
        choices = self._live_domains()
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
        if self.steps % self.check_every == 0:
            problems = self.oracle.diff(self.engine)
            assert not problems, \
                f"oracle diff after {op} (step {self.steps}): {problems[:4]}"
            check_core_paths(self.engine)
            self.engine.tree.check_invariants()

    def run(self, n: int):
        for _ in range(n):
            self.step()


class _Skip(Exception):
    """The generator could not build a candidate operation; not a failure."""


def check_core_paths(engine: Engine):
    """The chain plus current plus any pending resume is always a simple
    root-ward path of live domains."""
    for cs in engine.cores:
        path = cs.path_domains()
        assert len(set(path)) == len(path), f"core {cs.id}: cycle in {path}"
        for upper, lower in zip(path, path[1:]):
            node = engine.domains[lower]
            assert node.parent == upper, \
                f"core {cs.id}: {lower} is not a child of {upper}"
        for dom in path:
            assert engine.domains[dom].live, \
                f"core {cs.id}: revoked domain {dom} on the path"


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


def drive_resume(engine: Engine, core: int) -> list[int]:
    """After a routed interrupt, switch back down; returns the domains that
    observed the interrupt payload, in visit order."""
    observers = []
    while engine.cores[core].irq is not None:
        cs = engine.cores[core]
        controller = cs.current
        head = cs.irq.resume[0].domain
        handle = engine.domains[controller].owned.find(CapKind.DOMAIN, head)
        assert handle is not None, "controller must own its chain child"
        engine.switch(controller, core, handle)
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
