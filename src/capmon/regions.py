"""Memory-region capabilities organized as a derivation tree.

Every region capability is derived from an existing one by either *alias*
(shared child, parent keeps access) or *carve* (child takes the sub-range
away from the parent).  A region stays exclusive exactly while it sits on an
unbroken chain of carves from the root, which is what lets confidential
memory be claimed from a purely local record: a node's accessible view is a
function of its own range, status, rights, and direct children only.

This module holds the tree and its local computations.  Ownership checks use
plain domain identifiers; cross-domain effects of revocation (zeroing,
vital-triggered domain revocation, update fan-out) are driven by the engine.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .errors import ErrorCode, MonitorError, deny

PAGE = 4096


class Rights(enum.IntFlag):
    """Access rights carried by a region capability."""

    X = 1
    W = 2
    R = 4
    RW = R | W
    RX = R | X
    RWX = R | W | X

    def render(self) -> str:
        return ("R" if self & Rights.R else "_") + \
               ("W" if self & Rights.W else "_") + \
               ("X" if self & Rights.X else "_")

    @staticmethod
    def parse(text: str) -> "Rights":
        value = Rights(0)
        for ch in text.upper():
            if ch == "R":
                value |= Rights.R
            elif ch == "W":
                value |= Rights.W
            elif ch == "X":
                value |= Rights.X
            elif ch != "_":
                raise ValueError(f"bad rights token: {text!r}")
        return value


class RegionStatus(enum.Enum):
    EXCLUSIVE = "exclusive"
    ALIASED = "aliased"


class DerivationKind(enum.Enum):
    ROOT = "root"
    ALIAS = "alias"
    CARVE = "carve"


class AttrFlags(enum.IntFlag):
    """Attribute requests attached to a send."""

    NONE = 0
    HASH = 1
    CLEAN = 2
    VITAL = 4

    def render(self) -> str:
        parts = []
        if self & AttrFlags.HASH:
            parts.append("HASH")
        if self & AttrFlags.CLEAN:
            parts.append("CLEAN")
        if self & AttrFlags.VITAL:
            parts.append("VITAL")
        return "|".join(parts)

    @staticmethod
    def parse(text: str) -> "AttrFlags":
        value = AttrFlags.NONE
        for tok in text.split("|"):
            tok = tok.strip().upper()
            if not tok:
                continue
            if tok not in ("HASH", "CLEAN", "VITAL"):
                raise ValueError(f"bad attribute token: {tok!r}")
            value |= AttrFlags[tok]
        return value


@dataclass(frozen=True)
class PhysRange:
    """Half-open physical address range, page aligned."""

    start: int
    end: int

    def __post_init__(self):
        if self.start >= self.end:
            raise MonitorError(ErrorCode.INVALID_RANGE,
                               f"empty range [{self.start:#x}, {self.end:#x})")
        if self.start % PAGE or self.end % PAGE:
            raise MonitorError(ErrorCode.INVALID_RANGE,
                               f"range [{self.start:#x}, {self.end:#x}) not page aligned")

    def contains(self, other: "PhysRange") -> bool:
        return self.start <= other.start and other.end <= self.end

    def overlaps(self, other: "PhysRange") -> bool:
        return self.start < other.end and other.start < self.end

    def pages(self) -> Iterator[int]:
        return iter(range(self.start // PAGE, self.end // PAGE))

    def __repr__(self) -> str:
        return f"[{self.start:#x},{self.end:#x})"


@dataclass
class RegionAttributes:
    """Guarantees bound to ownership at send time; never inherited."""

    hash_digest: Optional[bytes] = None
    clean: bool = False
    vital: bool = False

    @property
    def flags(self) -> AttrFlags:
        value = AttrFlags.NONE
        if self.hash_digest is not None:
            value |= AttrFlags.HASH
        if self.clean:
            value |= AttrFlags.CLEAN
        if self.vital:
            value |= AttrFlags.VITAL
        return value


@dataclass(frozen=True)
class ViewSegment:
    range: PhysRange
    rights: Rights
    status: RegionStatus


@dataclass
class RegionNode:
    id: int
    owner: int
    initial_range: PhysRange
    rights: Rights
    status: RegionStatus
    kind: DerivationKind
    parent: Optional[int] = None
    # a tuple, so a new child is a write to this node and drops its memo
    children: tuple[int, ...] = ()
    attributes: RegionAttributes = field(default_factory=RegionAttributes)
    # memo of RegionTree.effective_view; a cache, never part of the state
    _view: Optional[list[ViewSegment]] = field(
        default=None, init=False, repr=False, compare=False)

    def __setattr__(self, name, value):
        # any write may change what the view is computed from
        object.__setattr__(self, "_view", None)
        object.__setattr__(self, name, value)


class RegionTree:
    """The region capability derivation tree for one machine."""

    def __init__(self):
        self.nodes: dict[int, RegionNode] = {}
        self._next_id = 0
        self._root_id: Optional[int] = None

    # -- construction ----------------------------------------------------

    def _fresh_id(self) -> int:
        # engine-global, monotone, never reused
        nid = self._next_id
        self._next_id += 1
        return nid

    def create_root(self, owner: int, rng: PhysRange, rights: Rights) -> int:
        assert self._root_id is None, "root region already exists"
        nid = self._fresh_id()
        self.nodes[nid] = RegionNode(
            id=nid, owner=owner, initial_range=rng, rights=rights,
            status=RegionStatus.EXCLUSIVE, kind=DerivationKind.ROOT)
        self._root_id = nid
        return nid

    # -- lookups ---------------------------------------------------------

    def get(self, region_id: int) -> RegionNode:
        node = self.nodes.get(region_id)
        if node is None:
            raise deny(ErrorCode.UNKNOWN_REGION, f"region {region_id}")
        return node

    # -- effective view (local computation) -------------------------------

    def effective_view(self, region_id: int) -> list[ViewSegment]:
        """Accessible sub-ranges of a region, from its record alone.

        Sub-ranges taken by carve children are absent; sub-ranges covered by
        at least one alias child report Aliased regardless of the node's own
        status.  Segments are disjoint, sorted, and merged when adjacent with
        identical status.  The list is the node's memo: callers must not
        mutate it.
        """
        node = self.get(region_id)
        if node._view is None:
            node._view = self._sweep(node)
        return node._view

    def _sweep(self, node: RegionNode) -> list[ViewSegment]:
        lo, hi = node.initial_range.start, node.initial_range.end
        # (address, carve delta, alias delta) at each clipped child boundary
        events = [(lo, 0, 0)]
        for cid in node.children:
            child = self.nodes[cid]
            start = max(child.initial_range.start, lo)
            end = min(child.initial_range.end, hi)
            if start >= end:
                continue
            if child.kind is DerivationKind.CARVE:
                events += ((start, 1, 0), (end, -1, 0))
            else:
                events += ((start, 0, 1), (end, 0, -1))
        events.sort()
        events.append((hi, 0, 0))

        always_aliased = node.status is RegionStatus.ALIASED
        pieces: list[list] = []  # [start, end, aliased], merged as emitted
        carves = aliases = 0
        for (at, d_carve, d_alias), (upto, _, _) in zip(events, events[1:]):
            carves += d_carve
            aliases += d_alias
            if at == upto or carves:
                continue
            aliased = always_aliased or aliases > 0
            if pieces and pieces[-1][1] == at and pieces[-1][2] == aliased:
                pieces[-1][1] = upto
            else:
                pieces.append([at, upto, aliased])
        return [ViewSegment(PhysRange(start, end), node.rights,
                            RegionStatus.ALIASED if aliased
                            else RegionStatus.EXCLUSIVE)
                for start, end, aliased in pieces]

    def accessible_ranges(self, region_id: int) -> list[PhysRange]:
        return [seg.range for seg in self.effective_view(region_id)]

    def _covers(self, ranges: list[PhysRange], sub: PhysRange) -> bool:
        # ranges are sorted and disjoint
        pos = sub.start
        for rng in ranges:
            if rng.end <= pos:
                continue
            if rng.start > pos:
                return False
            pos = rng.end
            if pos >= sub.end:
                return True
        return pos >= sub.end

    # -- derivation -------------------------------------------------------

    def _check_derivation(self, caller: int, parent_id: int,
                          sub: PhysRange, rights: Rights) -> RegionNode:
        parent = self.get(parent_id)
        if parent.owner != caller:
            raise deny(ErrorCode.NOT_OWNER,
                       f"region {parent_id} owned by domain {parent.owner}")
        if rights == Rights(0):
            raise deny(ErrorCode.NO_RIGHTS, "capability must grant some right")
        return parent

    def alias(self, caller: int, parent_id: int,
              sub: PhysRange, rights: Rights) -> int:
        parent = self._check_derivation(caller, parent_id, sub, rights)
        if not self._covers(self.accessible_ranges(parent_id), sub):
            raise deny(ErrorCode.OUT_OF_RANGE,
                       f"{sub} not accessible in region {parent_id}")
        if rights & ~parent.rights:
            raise deny(ErrorCode.RIGHTS_ESCALATION,
                       f"{rights.render()} exceeds {parent.rights.render()}")
        nid = self._fresh_id()
        self.nodes[nid] = RegionNode(
            id=nid, owner=caller, initial_range=sub, rights=rights,
            status=RegionStatus.ALIASED, kind=DerivationKind.ALIAS,
            parent=parent_id)
        parent.children += (nid,)
        return nid

    def carve(self, caller: int, parent_id: int,
              sub: PhysRange, rights: Rights) -> int:
        parent = self._check_derivation(caller, parent_id, sub, rights)
        if not parent.initial_range.contains(sub):
            raise deny(ErrorCode.OUT_OF_RANGE,
                       f"{sub} outside region {parent_id} {parent.initial_range}")
        for cid in parent.children:
            child = self.nodes[cid]
            if child.initial_range.overlaps(sub):
                if child.kind is DerivationKind.CARVE:
                    raise deny(ErrorCode.OVERLAPS_CARVE,
                               f"{sub} overlaps carve {cid}")
                # carving under a live alias would silently revoke shared access
                raise deny(ErrorCode.OVERLAPS_ALIAS,
                           f"{sub} overlaps alias {cid}")
        if rights & ~parent.rights:
            raise deny(ErrorCode.RIGHTS_ESCALATION,
                       f"{rights.render()} exceeds {parent.rights.render()}")

        # project the parent's per-address status onto sub: exclusive only if
        # every address of sub is exclusive in the parent's view
        view = self.effective_view(parent_id)
        exclusive = all(
            seg.status is RegionStatus.EXCLUSIVE
            for seg in view if seg.range.overlaps(sub))
        status = RegionStatus.EXCLUSIVE if exclusive else RegionStatus.ALIASED

        nid = self._fresh_id()
        self.nodes[nid] = RegionNode(
            id=nid, owner=caller, initial_range=sub, rights=rights,
            status=status, kind=DerivationKind.CARVE, parent=parent_id)
        parent.children += (nid,)
        return nid

    # -- revocation support ------------------------------------------------

    def subtree(self, region_id: int) -> list[int]:
        """Node ids of the subtree rooted at region_id, bottom-up."""
        out: list[int] = []

        def walk(nid: int):
            for cid in self.nodes[nid].children:
                walk(cid)
            out.append(nid)

        walk(region_id)
        return out

    def check_revoke(self, caller: int, parent_id: int, child_id: int):
        parent = self.get(parent_id)
        if parent.owner != caller:
            raise deny(ErrorCode.NOT_OWNER,
                       f"region {parent_id} owned by domain {parent.owner}")
        if child_id not in parent.children:
            raise deny(ErrorCode.NOT_A_CHILD,
                       f"region {child_id} is not a child of {parent_id}")

    def destroy(self, region_ids: list[int]):
        """Remove nodes (bottom-up order expected) and detach from parents."""
        doomed = set(region_ids)
        for rid in region_ids:
            node = self.nodes.pop(rid)
            if node.parent is not None and node.parent not in doomed:
                parent = self.nodes[node.parent]
                parent.children = tuple(c for c in parent.children
                                        if c != rid)

    # -- invariants (debug / property tests) -------------------------------

    def exclusivity_by_path_walk(self, region_id: int) -> RegionStatus:
        """Independent check: exclusive iff every edge from the root is a carve."""
        node = self.get(region_id)
        while node.kind is not DerivationKind.ROOT:
            if node.kind is DerivationKind.ALIAS:
                return RegionStatus.ALIASED
            node = self.nodes[node.parent]
        return RegionStatus.EXCLUSIVE

    def check_invariants(self):
        for node in self.nodes.values():
            assert node._view is None or node._view == self._sweep(node), \
                f"stale view memo at region {node.id}"
            assert node.status is self.exclusivity_by_path_walk(node.id), \
                f"exclusivity chain broken at region {node.id}"
            if node.parent is not None:
                parent = self.nodes[node.parent]
                assert not (node.rights & ~parent.rights), \
                    f"rights escalation at region {node.id}"
                assert parent.initial_range.contains(node.initial_range), \
                    f"range escape at region {node.id}"
            carve_ranges = [
                self.nodes[c].initial_range for c in node.children
                if self.nodes[c].kind is DerivationKind.CARVE]
            for i, a in enumerate(carve_ranges):
                for b in carve_ranges[i + 1:]:
                    assert not a.overlaps(b), \
                        f"overlapping carves under region {node.id}"
