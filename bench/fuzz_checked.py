"""Workload `fuzz_checked`: the acceptance gate's randomized operation loop.

Criterion 4's machine (16 pages, 2 cores, a metadata pool of 24) and its
operation mix, with every operation checked the way the gate checks it:
`dump_state` before the call, a second `dump_state` after a rejected call
that must equal the first, then `Oracle.apply` on the new trace records and
an `Oracle.diff` that must be empty.  That whole unit is one timed
operation; the generator's picking of arguments is not timed.

The generator is written here rather than imported from the test suite, so
the benchmark does not move when the tests do.
"""

from __future__ import annotations

import random

from capmon import AttrFlags, MonitorError, Oracle, PhysRange, Rights, Visibility
from capmon import state as state_mod
from capmon.domains import ALL_CALLS_MASK, CapKind, DomainState
from capmon.machine import MachineConfig, boot
from capmon.regions import PAGE
from harness import engine_counts

PAGES = 16
CORES = 2
POOL = 24
REGION_BUDGET = 48
WEIGHTS = (
    ("derive", 40), ("send", 20), ("revoke_region", 10),
    ("revoke_domain", 5), ("create", 6), ("set", 5), ("seal", 4),
    ("switch", 6), ("irq", 4),
)
_VISES = (Visibility.DELIVER, Visibility.REPORT, Visibility.NOT_REPORT)
_VECTORS = (0, 5, 14, 33, 200)


class Skip(Exception):
    """The generator found no candidate for the chosen operation."""


class FuzzState:
    def __init__(self, engine, oracle):
        self.engine = engine
        self.oracle = oracle
        self.synced = 0
        self.accepted = 0
        self.rejected = 0


class FuzzChecked:
    """One round: `segments` fresh machines, each driven for `steps`
    generator steps from its own seed derived from the benchmark seed.

    Many short segments rather than one long one: the cost of an operation
    grows with the machine's state, and how fast the state grows differs a
    lot from one generator seed to the next, so a round averages over many
    of them.
    """

    name = "fuzz_checked"

    def __init__(self, seed: int, segments: int = 60, steps: int = 100):
        self.seed = seed
        self.steps = steps
        self._specs = [f"fuzz_checked/{seed}/{k}" for k in range(segments)]

    def segments(self) -> list[str]:
        return self._specs

    def setup(self, spec) -> FuzzState:
        config = MachineConfig(memory_size=PAGES * PAGE, cores=CORES,
                               monitor_reserved=PhysRange(0, PAGE),
                               metadata_pool=POOL)
        engine, _, _ = boot(config)
        st = FuzzState(engine, Oracle())
        _sync(st)
        return st

    def operations(self, spec, st: FuzzState):
        rng = random.Random(spec)
        gen = _Generator(rng, st.engine)
        for kind in _schedule(rng, self.steps):
            try:
                name, call = gen.plan(kind)
            except Skip:
                continue
            yield (lambda call=call: _checked_unit(st, call),
                   lambda result, name=name: _check(st, name, result))

    def counts(self, st: FuzzState) -> dict:
        # accepted/rejected count operations here, not trace records
        return dict(engine_counts(st.engine), accepted=st.accepted,
                    rejected=st.rejected)


def _schedule(rng: random.Random, steps: int) -> list[str]:
    """The operation kinds of one segment: the mix holds exactly over the
    segment and within one kind of each quarter, in a seeded order, so the
    last quarter (late_ops_per_s) has the same make-up as the others."""
    kinds = [name for name, weight in WEIGHTS
             for _ in range(weight * steps // 100)]
    quarters = [kinds[q::4] for q in range(4)]
    for quarter in quarters:
        rng.shuffle(quarter)
    return [kind for quarter in quarters for kind in quarter]


def _sync(st: FuzzState):
    records = st.engine.trace.records
    while st.synced < len(records):
        st.oracle.apply(records[st.synced])
        st.synced += 1


def _checked_unit(st: FuzzState, call):
    """The timed unit: snapshot, call, rejection check, oracle replay, diff."""
    before = state_mod.dump_state(st.engine)
    after = None
    try:
        call()
        ok = True
    except MonitorError:
        ok = False
        after = state_mod.dump_state(st.engine)
    _sync(st)
    return ok, before, after, st.oracle.diff(st.engine)


def _check(st: FuzzState, name: str, result) -> str | None:
    ok, before, after, problems = result
    if ok:
        st.accepted += 1
    else:
        st.rejected += 1
        if after != before:
            return f"rejected {name} changed the engine state"
    if problems:
        return f"oracle diff after {name}: {problems[:2]}"
    return core_path_problem(st.engine)


def core_path_problem(engine) -> str | None:
    """Each core's chain, current and pending resume is a simple root-ward
    path of live domains."""
    for cs in engine.cores:
        path = cs.path_domains()
        if len(set(path)) != len(path):
            return f"core {cs.id}: cycle in {path}"
        for upper, lower in zip(path, path[1:]):
            if engine.domains[lower].parent != upper:
                return f"core {cs.id}: {lower} is not a child of {upper}"
        for dom in path:
            if not engine.domains[dom].live:
                return f"core {cs.id}: revoked domain {dom} on the path"
    return None


class _Generator:
    """Picks one operation and its arguments from the engine's current state.

    `plan` returns (name, call) for an operation of the given kind, where
    `call` takes no arguments; picking reads engine state but never
    changes it.
    """

    def __init__(self, rng: random.Random, engine):
        self.rng = rng
        self.engine = engine

    def plan(self, kind: str):
        return getattr(self, "_" + kind)()

    # -- pickers ---------------------------------------------------------------

    def _caller(self) -> int:
        live = [d.id for d in self.engine.domains.values() if d.live]
        currents = [cs.current for cs in self.engine.cores]
        # running domains three times over, so gated calls mostly land
        return self.rng.choice(currents * 3 + live)

    def _handle(self, caller: int, kind=None, predicate=None):
        entries = [h for h, e in self.engine.domains[caller].owned.entries()
                   if (kind is None or e.kind is kind)
                   and (predicate is None or predicate(e))]
        return self.rng.choice(entries) if entries else None

    def _subrange(self, rng: PhysRange) -> PhysRange:
        pages = (rng.end - rng.start) // PAGE
        lo = self.rng.randrange(pages)
        hi = self.rng.randrange(lo, pages) + 1
        if self.rng.random() < 0.06:
            hi += self.rng.randrange(1, 3)      # may escape the parent
        return PhysRange(rng.start + lo * PAGE, rng.start + hi * PAGE)

    def _rights(self, parent: Rights) -> Rights:
        if self.rng.random() < 0.1:
            return Rights(self.rng.randrange(8))  # may escalate or be empty
        value = Rights(0)
        for bit in (Rights.R, Rights.W, Rights.X):
            if parent & bit and self.rng.random() < 0.8:
                value |= bit
        return value if value else parent

    # -- operations --------------------------------------------------------------

    def _derive(self):
        e = self.engine
        carve = self.rng.random() < 0.5
        caller = self._caller()
        if len(e.tree.nodes) > REGION_BUDGET:
            return self._revoke_region()
        handle = self._handle(caller, CapKind.REGION)
        if handle is None:
            handle = self.rng.randrange(8)
            rng, rights = PhysRange(0, PAGE), Rights.RWX
        else:
            node = e.tree.get(e.domains[caller].owned.get(handle).ref)
            rng = self._subrange(node.initial_range)
            rights = self._rights(node.rights)
        fn = e.tree_carve if carve else e.tree_alias
        return ("derive", lambda: fn(caller, handle, rng, rights))

    def _send(self):
        e = self.engine
        caller = self._caller()
        handle = self._handle(caller)
        dest = self._handle(caller, predicate=lambda x:
                            x.kind is not CapKind.REGION)
        if handle is None or dest is None:
            raise Skip
        attrs = self.rng.choice(
            [AttrFlags.NONE] * 5 + [AttrFlags.CLEAN, AttrFlags.VITAL,
                                    AttrFlags.CLEAN | AttrFlags.VITAL,
                                    AttrFlags.HASH,
                                    AttrFlags.HASH | AttrFlags.CLEAN |
                                    AttrFlags.VITAL])
        return ("send", lambda: e.send(caller, handle, dest, attrs))

    def _revoke_region(self):
        e = self.engine
        caller = self._caller()
        handle = self._handle(caller, CapKind.REGION,
                              lambda x: bool(e.tree.nodes[x.ref].children))
        if handle is None:
            handle = self._handle(caller, CapKind.REGION)
        if handle is None:
            raise Skip
        ref = e.domains[caller].owned.get(handle).ref
        index = self.rng.randrange(max(len(e.tree.nodes[ref].children), 1) + 1)
        return ("revoke_region",
                lambda: e.revoke_region(caller, handle, index))

    def _revoke_domain(self):
        e = self.engine
        caller = self._caller()
        handle = self._handle(caller, CapKind.DOMAIN)
        if handle is None:
            raise Skip
        return ("revoke_domain", lambda: e.revoke_domain(caller, handle))

    def _create(self):
        caller = self._caller()
        return ("create", lambda: self.engine.create(caller))

    def _set(self):
        e = self.engine
        caller = self._caller()
        handle = self._handle(caller, CapKind.DOMAIN)
        if handle is None:
            raise Skip
        field = self.rng.choice(("cores", "mon_api", "receive", "intr", "reg"))
        parent = e.domains[caller].policies
        if field == "cores":
            mask = parent.cores if self.rng.random() < 0.7 else 0xF
            value = self.rng.randrange(mask + 1) \
                if self.rng.random() < 0.9 else mask * 2 + 1
            return ("set", lambda: e.set_policy(caller, handle, "cores", value))
        if field == "mon_api":
            value = self.rng.randrange(ALL_CALLS_MASK + 1)
            return ("set", lambda: e.set_policy(caller, handle, "mon_api",
                                                value))
        if field == "receive":
            value = self.rng.randrange(2)
            return ("set", lambda: e.set_policy(caller, handle, "receive",
                                                value))
        if field == "intr":
            vector = self.rng.choice(_VECTORS)
            vis = self.rng.choice(_VISES)
            regs = self.rng.randrange(4)
            return ("set", lambda: e.set_interrupt_policy(
                caller, handle, vector, vis, regs))
        core = self.rng.randrange(2)
        index = self.rng.randrange(18)
        value = self.rng.randrange(1 << 16)
        return ("set", lambda: e.set_register(caller, handle, core, index,
                                              value))

    def _seal(self):
        e = self.engine
        caller = self._caller()
        handle = self._handle(
            caller, CapKind.DOMAIN,
            lambda x: e.domains[x.ref].state is DomainState.UNSEALED)
        if handle is None:
            raise Skip
        return ("seal", lambda: e.seal(caller, handle))

    def _switch(self):
        e = self.engine
        core = self.rng.randrange(len(e.cores))
        caller = e.current_domain(core)
        cs = e.cores[core]
        if cs.irq is not None and self.rng.random() < 0.8:
            head = cs.irq.resume[0].domain
            handle = e.domains[caller].owned.find(CapKind.DOMAIN, head)
            if handle is None:
                raise Skip
        elif self.rng.random() < 0.5:
            handle = None
        else:
            handle = self._handle(caller, CapKind.DOMAIN)
            if handle is None:
                raise Skip
        return ("switch", lambda: e.switch(caller, core, handle))

    def _irq(self):
        core = self.rng.randrange(len(self.engine.cores))
        vector = self.rng.choice(_VECTORS)
        return ("irq", lambda: self.engine.route_interrupt(core, vector))
