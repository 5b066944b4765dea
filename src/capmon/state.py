"""Engine state dumps: the engine's one snapshot, as JSON tooling can reload.

A dump captures the full logical state of the engine (trees, tables,
policies, cores, id counters, continuation buffers and quantum deadlines)
but not memory content; reloading is enough to attest and inspect, not to
keep executing scenarios.  Two dumps compare equal exactly when the engine
states do, which is how the tests prove that a rejected call changed
nothing.
"""

from __future__ import annotations

import json

from .attest import BootMeasurement
from .domains import (
    POLICY_FIELDS, CapEntry, CapKind, ChainEntry, ChildKind, DomainNode,
    DomainState, InterruptPolicy, IrqFrame, Visibility,
)
from .engine import Engine
from .machine import DeviceConfig, MachineConfig, Platform
from .regions import (
    DerivationKind, PhysRange, RegionAttributes, RegionNode, RegionStatus,
    Rights,
)

# a dump of another version has other keys, so load_state refuses it
DUMP_VERSION = 4


def dump_state(engine: Engine) -> dict:
    config = engine.platform.config
    return {
        "version": DUMP_VERSION,
        "seed": engine.seed,
        "step": engine.platform.now,
        "config": {
            "memory": config.memory_size,
            "cores": config.cores,
            "monitor_reserved": [config.monitor_reserved.start,
                                 config.monitor_reserved.end],
            "devices": [[d.name, d.mmio.start, d.mmio.end, d.vector]
                        for d in config.devices],
            "pool": config.metadata_pool,
        },
        "measurement": {
            "pcr": engine.measurement.pcr.hex(),
            "events": [[name, digest.hex()]
                       for name, digest in engine.measurement.event_log],
        } if engine.measurement else None,
        "root_region": engine.root_region,
        "next_domain": engine._next_domain,
        "next_region": engine.tree._next_id,
        "next_channel": engine._next_channel,
        "next_token": engine._next_token,
        "buffers": [[token, owner, blob.hex(), offset] for token,
                    (owner, blob, offset) in sorted(engine._buffers.items())],
        "quantum": engine.quantum,
        "quantum_deadlines": [[core, deadline, dom] for core, (deadline, dom)
                              in sorted(engine._quantum_deadlines.items())],
        "regions": [_dump_region(node) for _, node
                    in sorted(engine.tree.nodes.items())],
        "domains": [_dump_domain(dom) for _, dom
                    in sorted(engine.domains.items())],
        "cores": [_dump_core(cs) for cs in engine.cores],
    }


def _dump_region(node: RegionNode) -> dict:
    return {
        "id": node.id,
        "owner": node.owner,
        "range": [node.initial_range.start, node.initial_range.end],
        "rights": int(node.rights),
        "status": node.status.value,
        "kind": node.kind.value,
        "parent": node.parent,
        "children": list(node.children),
        "attributes": {
            "hash": node.attributes.hash_digest.hex()
                    if node.attributes.hash_digest else None,
            "clean": node.attributes.clean,
            "vital": node.attributes.vital,
        },
    }


def _dump_domain(dom) -> dict:
    policies = dom.policies
    return {
        "id": dom.id,
        "state": dom.state.value,
        "parent": dom.parent,
        "children": [[kind.value, ref] for kind, ref in dom.children],
        "policies": {
            **{name: getattr(policies, name) for name in POLICY_FIELDS},
            "interrupts": [[v, p.visibility.value, p.readable_regs]
                           for v, p in sorted(policies.interrupts.items())],
            "interrupt_default": [policies.interrupt_default.visibility.value,
                                  policies.interrupt_default.readable_regs],
        },
        "regs": {str(core): list(regs)
                 for core, regs in sorted(dom.regs.items())},
        "owned": [None if e is None else [e.kind.value, e.ref]
                  for e in dom.owned.slots],
        "is_device": dom.is_device,
        "device_vector": dom.device_vector,
        "mmio": [dom.mmio.start, dom.mmio.end] if dom.mmio else None,
        "register_hash": dom.register_hash.hex() if dom.register_hash else None,
    }


def _dump_core(cs) -> dict:
    return {
        "id": cs.id,
        "current": cs.current,
        "chain": [[e.domain, list(e.saved_regs), e.pending_observation]
                  for e in cs.chain],
        "irq": None if cs.irq is None else {
            "vector": cs.irq.vector,
            "resume": [[e.domain, list(e.saved_regs), e.pending_observation]
                       for e in cs.irq.resume],
        },
        "deferred": list(cs.deferred_vectors),
    }


def load_state(dump: dict) -> Engine:
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
    measurement = None
    if dump["measurement"]:
        measurement = BootMeasurement(
            pcr=bytes.fromhex(dump["measurement"]["pcr"]),
            event_log=[(n, bytes.fromhex(d))
                       for n, d in dump["measurement"]["events"]])
    engine = Engine(platform, seed=dump["seed"], measurement=measurement)
    platform.attach_engine(engine)
    platform.now = dump["step"]
    engine.root_region = dump["root_region"]
    engine._next_domain = dump["next_domain"]
    engine.tree._next_id = dump["next_region"]
    engine._next_channel = dump["next_channel"]
    engine._next_token = dump["next_token"]
    engine._buffers = {token: (owner, bytes.fromhex(blob), offset)
                       for token, owner, blob, offset in dump["buffers"]}
    engine.quantum = dump["quantum"]
    engine._quantum_deadlines = {core: (deadline, dom) for core, deadline, dom
                                 in dump["quantum_deadlines"]}
    if engine.root_region is not None:
        engine.tree._root_id = engine.root_region

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
        dom.children = [(ChildKind(kind), ref)
                        for kind, ref in rec["children"]]
        for name in POLICY_FIELDS:
            setattr(dom.policies, name, rec["policies"][name])
        dom.policies.interrupts = {
            v: InterruptPolicy(Visibility(vis), regs)
            for v, vis, regs in rec["policies"]["interrupts"]}
        vis, regs = rec["policies"]["interrupt_default"]
        dom.policies.interrupt_default = InterruptPolicy(Visibility(vis), regs)
        dom.regs = {int(core): list(regs)
                    for core, regs in rec["regs"].items()}
        dom.owned.slots = [
            None if e is None else CapEntry(CapKind(e[0]), e[1])
            for e in rec["owned"]]
        dom.is_device = rec["is_device"]
        dom.device_vector = rec["device_vector"]
        dom.mmio = PhysRange(*rec["mmio"]) if rec["mmio"] else None
        dom.register_hash = bytes.fromhex(rec["register_hash"]) \
            if rec["register_hash"] else None
        engine.domains[dom.id] = dom

    for rec in dump["cores"]:
        cs = engine.cores[rec["id"]]
        cs.current = rec["current"]
        cs.chain = [ChainEntry(d, list(r), p) for d, r, p in rec["chain"]]
        if rec["irq"]:
            cs.irq = IrqFrame(rec["irq"]["vector"],
                              [ChainEntry(d, list(r), p)
                               for d, r, p in rec["irq"]["resume"]])
        cs.deferred_vectors = list(rec["deferred"])
    return engine


def write_dump(engine: Engine, path: str):
    with open(path, "w") as fh:
        json.dump(dump_state(engine), fh, indent=1, sort_keys=True)


def read_dump(path: str) -> Engine:
    with open(path) as fh:
        return load_state(json.load(fh))
