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
import re
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


# A view is one byte per page: the rights in bits 0-2, and EXCLUSIVE_BIT
# where the page is granted exclusively; 0 grants nothing.  A region's view
# covers its initial range, a domain's table pages 0 and up; both are bytes.
EXCLUSIVE_BIT = 8
# _SHARED maps each view byte to itself without EXCLUSIVE_BIT, for
# bytes.translate
_SHARED = bytes(b & ~EXCLUSIVE_BIT for b in range(256))
# a run of one nonzero byte value: one segment of effective_view
_RUNS = re.compile(rb"([^\x00])\1*", re.DOTALL)


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
    # one byte per page of initial_range: the node's rights, plus
    # EXCLUSIVE_BIT where the node is exclusive and no alias child covers
    # the page, and 0 where a carve child took it.  Patched by every write
    # the tree makes and swept from scratch only by RegionTree.sweep_all; a
    # cache, never part of the state
    _view: bytes = field(default=b"", init=False, repr=False, compare=False)

    def _byte(self) -> int:
        """The view's byte on a page no child of the node covers."""
        return int(self.rights) | (
            EXCLUSIVE_BIT if self.status is RegionStatus.EXCLUSIVE else 0)

    def _pages(self, rng: PhysRange) -> tuple[int, int]:
        """rng's pages as offsets into the view, clipped to it; empty
        (lo >= hi) where rng misses the region."""
        base = self.initial_range.start
        return (max(rng.start - base, 0) // PAGE,
                (min(rng.end, self.initial_range.end) - base) // PAGE)


def _check_rights(parent: RegionNode, rights: Rights):
    """A child may hold only rights its parent holds.  The check compares
    ints: `~` on an IntFlag complements only the defined bits, so a word
    with a bit above R|W|X would pass."""
    if int(rights) & ~int(parent.rights):
        raise deny(ErrorCode.RIGHTS_ESCALATION,
                   f"{rights.render()} exceeds {parent.rights.render()}")


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
        """A new node; having no children, it grants each of its pages."""
        nid = self._fresh_id()
        node = self.nodes[nid] = RegionNode(
            id=nid, owner=owner, initial_range=rng, rights=rights,
            status=status, kind=kind, parent=parent)
        node._view = bytes([node._byte()]) * ((rng.end - rng.start) // PAGE)
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
        identical status: the runs of the node's view.
        """
        node = self.get(region_id)
        base, rights = node.initial_range.start, node.rights
        return [ViewSegment(PhysRange(base + run.start() * PAGE,
                                      base + run.end() * PAGE), rights,
                            RegionStatus.EXCLUSIVE
                            if run.group()[0] & EXCLUSIVE_BIT
                            else RegionStatus.ALIASED)
                for run in _RUNS.finditer(node._view)]

    def sweep_all(self):
        """Sweep every node's view from scratch: at boot, on a reload, and
        after a write made behind the tree's back."""
        for node in self.nodes.values():
            node._view = self._sweep(node)

    def _sweep(self, node: RegionNode,
               window: Optional[PhysRange] = None) -> bytes:
        """node's view, or the part of it on `window`, from its record."""
        lo, hi = node.initial_range.start, node.initial_range.end
        if window is not None:
            lo, hi = max(lo, window.start), min(hi, window.end)
        view = bytearray([node._byte()]) * ((hi - lo) // PAGE)
        for cid in node.children:
            child = self.nodes[cid]
            start = (max(child.initial_range.start, lo) - lo) // PAGE
            end = (min(child.initial_range.end, hi) - lo) // PAGE
            if start >= end:
                continue
            if child.kind is DerivationKind.CARVE:
                view[start:end] = bytes(end - start)
            else:
                view[start:end] = view[start:end].translate(_SHARED)
        return bytes(view)

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
        lo, hi = parent._pages(sub)
        view = parent._view
        if not parent.initial_range.contains(sub) or \
                view.find(0, lo, hi) >= 0:
            raise deny(ErrorCode.OUT_OF_RANGE,
                       f"{sub} not accessible in region {parent_id}")
        _check_rights(parent, rights)
        nid = self._add(caller, sub, rights, RegionStatus.ALIASED,
                        DerivationKind.ALIAS, parent_id)
        parent.children += (nid,)
        # sub turns aliased in the parent's view; if it is already, the
        # view stays the very same bytes
        piece = view[lo:hi]
        shared = piece.translate(_SHARED)
        if shared != piece:
            parent._view = view[:lo] + shared + view[hi:]
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
        _check_rights(parent, rights)

        # no child overlaps sub, so each of its pages carries the parent's
        # own status
        nid = self._add(caller, sub, rights, parent.status,
                        DerivationKind.CARVE, parent_id)
        parent.children += (nid,)
        lo, hi = parent._pages(sub)
        parent._view = parent._view[:lo] + bytes(hi - lo) + parent._view[hi:]
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
                lo, hi = parent._pages(node.initial_range)
                parent._view = (parent._view[:lo] +
                                self._sweep(parent, node.initial_range) +
                                parent._view[hi:])
