"""Independent reference model recomputed from the operation log.

Deliberately shares no code paths with the region tree: access is tracked as
literal per-page grant sets.  An alias copies access, a carve moves it, a
send retargets the owner, a revoke restores the parent's pages.  A page is
exclusive exactly when a single live grant covers it.  Correctness over
speed: everything here is O(pages x ops).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import ErrorCode, deny
from .trace import OpRecord

_PAGE = 4096
_RIGHT_BITS = {"R": 4, "W": 2, "X": 1}


def _pages(start: int, end: int) -> set[int]:
    return set(range(start // _PAGE, end // _PAGE))


def _rights_value(text) -> int:
    if isinstance(text, int):
        return text
    value = 0
    for ch in str(text):
        value |= _RIGHT_BITS.get(ch, 0)
    return value


@dataclass
class OracleCap:
    id: int
    owner: int
    kind: str                  # root | alias | carve
    parent: Optional[int]
    start: int
    end: int
    rights: int
    pages: set[int] = field(default_factory=set)
    children: list[int] = field(default_factory=list)
    vital: bool = False


@dataclass
class OracleDomain:
    id: int
    parent: Optional[int]
    children: list[int] = field(default_factory=list)
    sealed: bool = False
    revoked: bool = False
    interrupts: dict[int, str] = field(default_factory=dict)
    deliver_all: bool = False

    def visibility(self, vector: int) -> str:
        if vector in self.interrupts:
            return self.interrupts[vector]
        return "deliver" if self.deliver_all else "noreport"


class Oracle:
    def __init__(self):
        self.caps: dict[int, OracleCap] = {}
        self.domains: dict[int, OracleDomain] = {}
        self.current: dict[int, int] = {}

    # -- replay ------------------------------------------------------------

    def replay(self, records: list[OpRecord]) -> "Oracle":
        for record in records:
            self.apply(record)
        return self

    def apply(self, record: OpRecord):
        if not record.ok:
            return
        handler = getattr(self, f"_op_{record.op}", None)
        if handler is None:
            if record.op in _READ_ONLY_OPS:
                return
            raise deny(ErrorCode.MALFORMED_LOG, f"unknown op {record.op}")
        handler(record)

    def _op_boot(self, rec: OpRecord):
        td0 = rec.args["td0"]
        self.domains[td0] = OracleDomain(td0, None, deliver_all=True)
        root = rec.args["root"]
        start, end = rec.args["reserved_end"], rec.args["top"]
        self.caps[root] = OracleCap(root, td0, "root", None, start, end,
                                    7, _pages(start, end))
        for core in range(rec.args["cores"]):
            self.current[core] = td0

    def _op_devboot(self, rec: OpRecord):
        dev = rec.args["dev"]
        td0 = min(self.domains)
        self.domains[dev] = OracleDomain(dev, td0)
        self.domains[td0].children.append(dev)
        self._new_cap(rec.args["mmio_carve"], dev, "carve",
                      self._root_id(), rec.args["mmio_start"],
                      rec.args["mmio_end"], 6)
        self._new_cap(rec.args["ram_alias"], dev, "alias",
                      self._root_id(), rec.args["ram_start"],
                      rec.args["ram_end"], 6)

    def _root_id(self) -> int:
        for cap in self.caps.values():
            if cap.kind == "root":
                return cap.id
        raise deny(ErrorCode.MALFORMED_LOG, "no boot record")

    def _new_cap(self, cap_id: int, owner: int, kind: str, parent: int,
                 start: int, end: int, rights: int):
        pages = _pages(start, end)
        cap = OracleCap(cap_id, owner, kind, parent, start, end, rights,
                        set(pages))
        self.caps[cap_id] = cap
        self.caps[parent].children.append(cap_id)
        if kind == "carve":
            # a carve moves access out of the parent
            self.caps[parent].pages -= pages

    def _op_create(self, rec: OpRecord):
        caller = rec.args["caller"]
        child = rec.results["dom"]
        self.domains[child] = OracleDomain(child, caller)
        self.domains[caller].children.append(child)

    def _op_alias(self, rec: OpRecord):
        self._new_cap(rec.results["region"], rec.args["caller"], "alias",
                      rec.results["parent"], rec.args["start"],
                      rec.args["end"], _rights_value(rec.args["rights"]))

    def _op_carve(self, rec: OpRecord):
        self._new_cap(rec.results["region"], rec.args["caller"], "carve",
                      rec.results["parent"], rec.args["start"],
                      rec.args["end"], _rights_value(rec.args["rights"]))

    def _op_send(self, rec: OpRecord):
        if "region" not in rec.results:
            return  # channel transfer: no effect on the page map
        cap = self.caps[rec.results["region"]]
        cap.owner = rec.results["to"]
        cap.vital = bool(rec.args.get("attrs", 0) & 4)

    def _op_seal(self, rec: OpRecord):
        self.domains[rec.results["dom"]].sealed = True

    def _op_set_intr(self, rec: OpRecord):
        dom = self.domains[rec.results["dom"]]
        dom.interrupts[rec.args["vector"]] = rec.args["vis"]

    def _op_switch(self, rec: OpRecord):
        if "to" in rec.results and rec.core >= 0:
            self.current[rec.core] = rec.results["to"]

    def _op_revoke_region(self, rec: OpRecord):
        self._destroy_closure({rec.results["child"]}, set())

    def _op_revoke_domain(self, rec: OpRecord):
        self._destroy_closure(set(), {rec.results["dom"]})

    # -- cascading destruction (independent of the engine's walk) ----------

    def _subtree(self, cap_id: int) -> list[int]:
        out = []

        def walk(cid: int):
            for child in self.caps[cid].children:
                walk(child)
            out.append(cid)

        walk(cap_id)
        return out

    def _destroy_closure(self, cap_seeds: set[int], dom_seeds: set[int]):
        caps: set[int] = set()
        doms: set[int] = set()
        cap_work = list(cap_seeds)
        dom_work = list(dom_seeds)
        while cap_work or dom_work:
            while cap_work:
                cid = cap_work.pop()
                if cid in caps:
                    continue
                for sub in self._subtree(cid):
                    if sub in caps:
                        continue
                    caps.add(sub)
                    cap = self.caps[sub]
                    if cap.vital and cap.owner not in doms:
                        owner = self.domains[cap.owner]
                        if not owner.revoked and owner.parent is not None:
                            dom_work.append(cap.owner)
            while dom_work:
                did = dom_work.pop()
                if did in doms:
                    continue
                doms.add(did)
                for child in self.domains[did].children:
                    if child not in doms:
                        dom_work.append(child)
                for cap in self.caps.values():
                    if cap.owner == did and cap.id not in caps:
                        cap_work.append(cap.id)

        # the root node survives any cascade; ownership climbs to the
        # nearest live ancestor while its subtree is destroyed normally
        root = self._root_id()
        if root in caps:
            caps.discard(root)
            heir = self.caps[root].owner
            while heir in doms:
                heir = self.domains[heir].parent
            self.caps[root].owner = heir

        # bottom-up: restore each carve to its parent, then drop the node
        ordered: list[int] = []
        seen: set[int] = set()
        for cid in caps:
            if self.caps[cid].parent in caps:
                continue
            for sub in self._subtree(cid):
                if sub not in seen:
                    seen.add(sub)
                    ordered.append(sub)
        for cid in ordered:
            cap = self.caps[cid]
            if cap.kind == "carve" and cap.parent in self.caps:
                self.caps[cap.parent].pages |= _pages(cap.start, cap.end)
            del self.caps[cid]
            if cap.parent in self.caps:
                self.caps[cap.parent].children.remove(cid)
        for did in doms:
            self.domains[did].revoked = True

    # -- the per-page truth -------------------------------------------------

    def address_map(self) -> dict[int, dict[int, tuple[int, bool]]]:
        cover: dict[int, int] = {}
        for cap in self.caps.values():
            for page in cap.pages:
                cover[page] = cover.get(page, 0) + 1
        out: dict[int, dict[int, tuple[int, bool]]] = {}
        for dom in self.domains.values():
            if dom.revoked:
                continue
            pages: dict[int, tuple[int, bool]] = {}
            for cap in self.caps.values():
                if cap.owner != dom.id:
                    continue
                for page in cap.pages:
                    rights, _ = pages.get(page, (0, False))
                    pages[page] = (rights | cap.rights, cover[page] == 1)
            out[dom.id] = pages
        return out

    def handler_of(self, running: int, vector: int) -> int:
        """Literal root-ward scan for the first Deliver policy."""
        walker: Optional[int] = running
        while walker is not None:
            if self.domains[walker].visibility(vector) == "deliver":
                return walker
            walker = self.domains[walker].parent
        raise AssertionError("no handler up to the root")

    def diff(self, engine) -> list[str]:
        """Empty iff the engine's effective views agree with this model."""
        mine = self.address_map()
        theirs = engine.page_access_map()
        problems: list[str] = []
        for dom_id in sorted(set(mine) | set(theirs)):
            a = mine.get(dom_id)
            b = theirs.get(dom_id)
            if a is None or b is None:
                problems.append(f"domain {dom_id}: liveness mismatch "
                                f"(oracle={a is not None}, engine={b is not None})")
                continue
            for page in sorted(set(a) | set(b)):
                pa = a.get(page)
                pb = b.get(page)
                if pa != pb:
                    problems.append(
                        f"domain {dom_id} page {page:#x}: "
                        f"oracle={pa} engine={pb}")
        return problems


_READ_ONLY_OPS = {
    "set_reg", "get_reg", "set_policy", "get_policy", "getchan",
    "attest", "enumerate", "irq",
}
