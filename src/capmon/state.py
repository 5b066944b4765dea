"""Engine state dumps: the engine's one snapshot, as JSON tooling can reload.

A dump captures the full logical state of the engine (trees, tables,
policies, cores, id counters, continuation buffers and quantum deadlines)
but not memory content; reloading installs each core's view and is enough
to attest and inspect, not to keep executing scenarios.  Domain records
are the live ones and the revoked ones a core path still names; any other
id below `next_domain` was revoked and reclaimed.  Two dumps compare equal
exactly when the engine states do, which is how the tests prove that a
rejected call changed nothing.
"""

from __future__ import annotations

import json

from .attest import BootMeasurement
from .domains import (
    POLICY_FIELDS, ApiCall, CapEntry, CapKind, CapTable, ChainEntry,
    DomainNode, DomainState, InterruptPolicy, IrqFrame, Visibility,
)
from .engine import Engine
from .machine import DeviceConfig, MachineConfig, Platform
from .regions import (
    DerivationKind, PhysRange, RegionAttributes, RegionNode, RegionStatus,
    Rights,
)

# a dump of another version has other keys, so load_state refuses it
DUMP_VERSION = 8


def dump_state(engine: Engine) -> dict:
    # One frame per dump: every list and dict is built by a plain loop in
    # this body, with no comprehension and no per-record helper.  CPython
    # 3.11 runs each comprehension as a frame of its own (PEP 709 inlines
    # them only from 3.12), and most of a dump's lists hold 0 to 2 items.
    # Enum fields are read as `_value_`: the same value as `.value`, without
    # the cost of that property.  A table that is often empty is tested
    # before it is sorted, as sorting an empty one costs more than the test.
    config = engine.platform.config
    devices = []
    for d in config.devices:
        devices.append([d.name, d.mmio.start, d.mmio.end, d.vector])
    boot = engine.measurement
    events = []
    for name, digest in boot.event_log:
        events.append([name, digest.hex()])
    buffers = []
    if engine._buffers:
        for token, (owner, call, blob, offset) in sorted(
                engine._buffers.items()):
            buffers.append([token, owner, int(call), blob.hex(), offset])
    deadlines = []
    if engine._quantum_deadlines:
        for core, (deadline, dom) in sorted(
                engine._quantum_deadlines.items()):
            deadlines.append([core, deadline, dom])

    regions = []
    nodes = engine.tree.nodes
    for key in sorted(nodes):
        node = nodes[key]
        rng, attributes = node.initial_range, node.attributes
        digest = attributes.hash_digest
        regions.append({
            "id": node.id,
            "owner": node.owner,
            "range": [rng.start, rng.end],
            "rights": node.rights._value_,
            "status": node.status._value_,
            "kind": node.kind._value_,
            "parent": node.parent,
            "children": list(node.children),
            "attributes": {
                "hash": digest.hex() if digest else None,
                "clean": attributes.clean,
                "vital": attributes.vital,
            },
        })

    domains = []
    # the held records are iterated as items: indexing the table by a held
    # id would enter DomainTable.__missing__
    for _, dom in sorted([*engine.domains.items(),
                          *engine.domains.held.items()]):
        policies = dom.policies
        interrupts = []
        if policies.interrupts:
            for v, p in sorted(policies.interrupts.items()):
                interrupts.append([v, p.visibility._value_, p.readable_regs])
        default = policies.interrupt_default
        regs = {}
        if dom.regs:
            for core, words in sorted(dom.regs.items()):
                regs[str(core)] = list(words)
        owned = []
        for e in dom.owned.slots:
            owned.append(None if e is None else [e.kind._value_, e.ref])
        digest = dom.register_hash
        domains.append({
            "id": dom.id,
            "state": dom.state._value_,
            "parent": dom.parent,
            # the scalar fields in POLICY_FIELDS order, which load_state
            # reads back by name
            "policies": {
                "cores": policies.cores,
                "mon_api": policies.mon_api,
                "user_calls": policies.user_calls,
                "receive": policies.receive,
                "interrupts": interrupts,
                "interrupt_default": [default.visibility._value_,
                                      default.readable_regs],
            },
            "regs": regs,
            "owned": owned,
            "is_device": dom.is_device,
            "device_vector": dom.device_vector,
            "register_hash": digest.hex() if digest else None,
        })

    cores = []
    for cs in engine.cores:
        chain = []
        for e in cs.chain:
            chain.append([e.domain, list(e.saved_regs), e.pending_observation])
        irq = cs.irq
        if irq is not None:
            resume = []
            for e in irq.resume:
                resume.append([e.domain, list(e.saved_regs),
                               e.pending_observation])
            irq = {"vector": irq.vector, "resume": resume}
        cores.append({
            "id": cs.id,
            "current": cs.current,
            "chain": chain,
            "irq": irq,
            "deferred": list(cs.deferred_vectors),
        })

    return {
        "version": DUMP_VERSION,
        "seed": engine.seed,
        "step": engine.platform.now,
        "config": {
            "memory": config.memory_size,
            "cores": config.cores,
            "monitor_reserved": [config.monitor_reserved.start,
                                 config.monitor_reserved.end],
            "devices": devices,
            "pool": config.metadata_pool,
        },
        "measurement": {"pcr": boot.pcr.hex(), "events": events},
        "root_region": engine.root_region,
        "next_domain": engine.domains.next_id,
        "next_region": engine.tree._next_id,
        "next_token": engine._next_token,
        "buffers": buffers,
        "quantum": engine.quantum,
        "quantum_deadlines": deadlines,
        "regions": regions,
        "domains": domains,
        "cores": cores,
    }


def load_state(dump: dict) -> Engine:
    if not isinstance(dump, dict):
        raise ValueError("a dump is a JSON object")
    if dump.get("version") != DUMP_VERSION:
        raise ValueError(f"unsupported dump version {dump.get('version')}")
    config = MachineConfig(
        memory_size=dump["config"]["memory"],
        cores=dump["config"]["cores"],
        monitor_reserved=PhysRange(*dump["config"]["monitor_reserved"]),
        devices=tuple(DeviceConfig(n, PhysRange(s, e), v)
                      for n, s, e, v in dump["config"]["devices"]),
        metadata_pool=dump["config"]["pool"])
    platform = Platform(config)
    measurement = BootMeasurement(
        pcr=bytes.fromhex(dump["measurement"]["pcr"]),
        event_log=[(n, bytes.fromhex(d))
                   for n, d in dump["measurement"]["events"]])
    engine = Engine(platform, seed=dump["seed"], measurement=measurement)
    platform.attach_engine(engine)
    platform.now = dump["step"]
    engine.root_region = dump["root_region"]
    engine.domains.next_id = dump["next_domain"]
    engine.tree._next_id = dump["next_region"]
    engine._next_token = dump["next_token"]
    engine._buffers = {
        token: [owner, ApiCall(call), bytes.fromhex(blob), offset]
        for token, owner, call, blob, offset in dump["buffers"]}
    engine.quantum = dump["quantum"]
    engine._quantum_deadlines = {core: (deadline, dom) for core, deadline, dom
                                 in dump["quantum_deadlines"]}

    for rec in dump["regions"]:
        node = RegionNode(
            id=rec["id"], owner=rec["owner"],
            initial_range=PhysRange(*rec["range"]),
            rights=Rights(rec["rights"]),
            status=RegionStatus(rec["status"]),
            kind=DerivationKind(rec["kind"]),
            parent=rec["parent"], children=tuple(rec["children"]),
            attributes=RegionAttributes(
                hash_digest=bytes.fromhex(rec["attributes"]["hash"])
                            if rec["attributes"]["hash"] else None,
                clean=rec["attributes"]["clean"],
                vital=rec["attributes"]["vital"]))
        engine.tree.nodes[node.id] = node

    for rec in dump["domains"]:
        dom = DomainNode(id=rec["id"])
        dom.state = DomainState(rec["state"])
        dom.parent = rec["parent"]
        for name in POLICY_FIELDS:
            setattr(dom.policies, name, rec["policies"][name])
        dom.policies.interrupts = {
            v: InterruptPolicy(Visibility(vis), regs)
            for v, vis, regs in rec["policies"]["interrupts"]}
        vis, regs = rec["policies"]["interrupt_default"]
        dom.policies.interrupt_default = InterruptPolicy(Visibility(vis), regs)
        dom.regs = {int(core): list(regs)
                    for core, regs in rec["regs"].items()}
        dom.owned = CapTable(
            None if e is None else CapEntry(CapKind(e[0]), e[1])
            for e in rec["owned"])
        dom.is_device = rec["is_device"]
        dom.device_vector = rec["device_vector"]
        dom.register_hash = bytes.fromhex(rec["register_hash"]) \
            if rec["register_hash"] else None
        if dom.live:
            engine.domains[dom.id] = dom
        else:
            engine.domains.held[dom.id] = dom

    # a region's owner and a live domain's parent are live records; a held
    # record's parent may be gone
    for node in engine.tree.nodes.values():
        if node.owner not in engine.domains:
            raise ValueError(f"region {node.id} names no live owner")
    for dom in engine.domains.values():
        if dom.parent is not None and dom.parent not in engine.domains:
            raise ValueError(f"domain {dom.id} names no live parent")

    # one record per core, each a path from td0 down the domain tree,
    # naming only domains that have a record and may run on the core: a
    # core's path decides the view it is given and where its vectors go
    if sorted(rec["id"] for rec in dump["cores"]) != list(range(config.cores)):
        raise ValueError(f"core records must be 0..{config.cores - 1}, "
                         "once each")
    recorded = engine.domains.keys() | engine.domains.held.keys()
    for rec in dump["cores"]:
        cs = engine.cores[rec["id"]]
        cs.current = rec["current"]
        cs.chain = [ChainEntry(d, list(r), p) for d, r, p in rec["chain"]]
        if rec["irq"]:
            cs.irq = IrqFrame(rec["irq"]["vector"],
                              [ChainEntry(d, list(r), p)
                               for d, r, p in rec["irq"]["resume"]])
        cs.deferred_vectors = list(rec["deferred"])
        path = cs.path_domains()
        if not recorded.issuperset(path):
            raise ValueError(f"core {cs.id} names a domain with no record")
        root = engine.domains.get(path[0])
        if root is None or root.parent is not None:
            raise ValueError(f"core {cs.id}'s path does not start at td0")
        for upper, lower in zip(path, path[1:]):
            if engine.domains[lower].parent != upper:
                raise ValueError(f"core {cs.id}'s path leaves the domain "
                                 f"tree at {lower}")
        for dom_id in path:
            if not engine.domains[dom_id].policies.cores >> cs.id & 1:
                raise ValueError(f"core {cs.id} runs domain {dom_id}, "
                                 "which may not run on it")
    engine._build_views()
    return engine


def write_dump(engine: Engine, path: str):
    with open(path, "w") as fh:
        json.dump(dump_state(engine), fh, indent=1, sort_keys=True)


def read_dump(path: str) -> Engine:
    with open(path) as fh:
        return load_state(json.load(fh))
