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
        return _RIGHTS_TEXT[self._value_ & 7]

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
        return _ATTR_TEXT[self._value_ & 7]

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


# The flags' bits as plain ints, and `render` of every combination of them
# by value: IntFlag's own operators cost about a microsecond each, and
# these run on every traced derivation and every send.
HASH_BIT, CLEAN_BIT, VITAL_BIT = (
    AttrFlags.HASH._value_, AttrFlags.CLEAN._value_, AttrFlags.VITAL._value_)
_RIGHTS_TEXT = tuple(("R" if v & Rights.R._value_ else "_") +
                     ("W" if v & Rights.W._value_ else "_") +
                     ("X" if v & Rights.X._value_ else "_") for v in range(8))
_ATTR_TEXT = tuple("|".join(name for name, bit in (
    ("HASH", HASH_BIT), ("CLEAN", CLEAN_BIT), ("VITAL", VITAL_BIT))
    if v & bit) for v in range(8))


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
        return AttrFlags((HASH_BIT if self.hash_digest is not None else 0) |
                         (CLEAN_BIT if self.clean else 0) |
                         (VITAL_BIT if self.vital else 0))


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
    # a tuple: only the tree's own writes change it, and each patches the
    # view
    children: tuple[int, ...] = ()
    attributes: RegionAttributes = field(default_factory=RegionAttributes)
    # RegionTree.effective_view, patched by every write the tree makes and
    # swept from scratch only by RegionTree.sweep_all; a cache, never part
    # of the state
    _view: Optional[list[ViewSegment]] = field(
        default=None, init=False, repr=False, compare=False)


def _repaint(view: list[ViewSegment], sub: PhysRange, rights: Rights,
             segments: list[ViewSegment]) -> list[ViewSegment]:
    """A node's view (each segment carries the node's rights) with its
    pieces on sub replaced by `segments`, which lie in sub, merged as
    RegionTree._sweep merges: adjacent pieces of one status become one
    segment.  Only the segments on or next to sub are rebuilt."""
    first = 0
    while first < len(view) and view[first].range.end < sub.start:
        first += 1
    last = first
    while last < len(view) and view[last].range.start <= sub.end:
        last += 1
    near = view[first:last]
    pieces: list[list] = []  # [start, end, status]
    for start, end, piece in (
            [(seg.range.start, min(seg.range.end, sub.start), seg.status)
             for seg in near] +
            [(seg.range.start, seg.range.end, seg.status)
             for seg in segments] +
            [(max(seg.range.start, sub.end), seg.range.end, seg.status)
             for seg in near]):
        if start >= end:
            continue
        if pieces and pieces[-1][1] == start and pieces[-1][2] is piece:
            pieces[-1][1] = end
        else:
            pieces.append([start, end, piece])
    return view[:first] + [
        ViewSegment(PhysRange(start, end), rights, piece)
        for start, end, piece in pieces] + view[last:]


class RegionTree:
    """The region capability derivation tree for one machine."""

    def __init__(self):
        self.nodes: dict[int, RegionNode] = {}
        self._next_id = 0

    # -- construction ----------------------------------------------------

    def _fresh_id(self) -> int:
        # engine-global, monotone, never reused
        nid = self._next_id
        self._next_id += 1
        return nid

    def create_root(self, owner: int, rng: PhysRange, rights: Rights) -> int:
        assert not self.nodes, "root region already exists"
        return self._add(owner, rng, rights, RegionStatus.EXCLUSIVE,
                         DerivationKind.ROOT, None)

    def _add(self, owner: int, rng: PhysRange, rights: Rights,
             status: RegionStatus, kind: DerivationKind,
             parent: Optional[int]) -> int:
        """A new node; having no children, its view is its one segment."""
        nid = self._fresh_id()
        node = self.nodes[nid] = RegionNode(
            id=nid, owner=owner, initial_range=rng, rights=rights,
            status=status, kind=kind, parent=parent)
        node._view = [ViewSegment(rng, rights, status)]
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
        identical status.  The list is the node's own view, patched by
        alias, carve and destroy: callers must not mutate it.
        """
        return self.get(region_id)._view

    def sweep_all(self):
        """Sweep every node's view from scratch: at boot, on a reload, and
        after a write made behind the tree's back."""
        for node in self.nodes.values():
            node._view = self._sweep(node)

    def _sweep(self, node: RegionNode,
               window: Optional[PhysRange] = None) -> list[ViewSegment]:
        """node's view, or the part of it in `window`."""
        lo, hi = node.initial_range.start, node.initial_range.end
        if window is not None:
            lo, hi = max(lo, window.start), min(hi, window.end)
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

    # -- derivation -------------------------------------------------------

    def _check_derivation(self, caller: int, parent_id: int,
                          rights: Rights) -> RegionNode:
        parent = self.get(parent_id)
        if parent.owner != caller:
            raise deny(ErrorCode.NOT_OWNER,
                       f"region {parent_id} owned by domain {parent.owner}")
        if rights == Rights(0):
            raise deny(ErrorCode.NO_RIGHTS, "capability must grant some right")
        return parent

    def alias(self, caller: int, parent_id: int,
              sub: PhysRange, rights: Rights) -> int:
        parent = self._check_derivation(caller, parent_id, rights)
        view = parent._view
        # the segments are disjoint, so they cover sub exactly when their
        # overlaps with it add up to all of it
        over = [seg for seg in view if seg.range.overlaps(sub)]
        if sum(min(seg.range.end, sub.end) - max(seg.range.start, sub.start)
               for seg in over) != sub.end - sub.start:
            raise deny(ErrorCode.OUT_OF_RANGE,
                       f"{sub} not accessible in region {parent_id}")
        if rights & ~parent.rights:
            raise deny(ErrorCode.RIGHTS_ESCALATION,
                       f"{rights.render()} exceeds {parent.rights.render()}")
        nid = self._add(caller, sub, rights, RegionStatus.ALIASED,
                        DerivationKind.ALIAS, parent_id)
        parent.children += (nid,)
        # sub turns aliased in the parent's view; if it is already, the
        # view stays the very same list
        if any(seg.status is RegionStatus.EXCLUSIVE for seg in over):
            parent._view = _repaint(view, sub, parent.rights, [ViewSegment(
                sub, parent.rights, RegionStatus.ALIASED)])
        return nid

    def carve(self, caller: int, parent_id: int,
              sub: PhysRange, rights: Rights) -> int:
        parent = self._check_derivation(caller, parent_id, rights)
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
        view = parent._view
        exclusive = all(
            seg.status is RegionStatus.EXCLUSIVE
            for seg in view if seg.range.overlaps(sub))
        status = RegionStatus.EXCLUSIVE if exclusive else RegionStatus.ALIASED

        nid = self._add(caller, sub, rights, status, DerivationKind.CARVE,
                        parent_id)
        parent.children += (nid,)
        # no child overlaps sub, so all of it is in the view: cut it out
        parent._view = _repaint(view, sub, parent.rights, [])
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
        """Remove nodes (bottom-up order expected) and detach from parents;
        a surviving parent's view is patched on the range the child
        leaves, with that range swept afresh."""
        doomed = set(region_ids)
        for rid in region_ids:
            node = self.nodes.pop(rid)
            if node.parent is not None and node.parent not in doomed:
                parent = self.nodes[node.parent]
                parent.children = tuple(c for c in parent.children
                                        if c != rid)
                sub = node.initial_range
                parent._view = _repaint(parent._view, sub, parent.rights,
                                        self._sweep(parent, sub))
