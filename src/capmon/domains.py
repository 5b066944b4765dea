"""Trust-domain state: policies, register files, capability tables.

Data definitions only; the state machine that mutates them lives in
:mod:`capmon.engine`.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .regions import PhysRange

NUM_VECTORS = 256
REG_PC = 16
REG_SW = 17
NUM_REGS = 18
REG_MASK = (1 << NUM_REGS) - 1


class ApiCall(enum.IntEnum):
    """Monitor calls; the value is both the call id and the policy bit."""

    CREATE = 0
    SET_GET = 1
    SEND = 2
    SEAL = 3
    ATTEST = 4
    ENUMERATE = 5
    SWITCH = 6
    ALIAS = 7
    CARVE = 8
    REVOKE = 9
    GETCHAN = 10


ALL_CALLS_MASK = (1 << len(ApiCall)) - 1


class Visibility(enum.Enum):
    """How a domain treats a vector routed over it.

    The value is the name scripts, traces and dumps use.  The position in
    declaration order is the code: the register ABI's visibility id and the
    byte an attestation report carries.
    """

    DELIVER = "deliver"
    REPORT = "report"
    NOT_REPORT = "noreport"

    def render(self) -> str:
        return {"deliver": "Deliver", "report": "Report",
                "noreport": "Not report"}[self.value]


# a visibility's register-ABI id and report code is its position here
VISIBILITY_IDS = tuple(Visibility)


@dataclass(frozen=True)
class InterruptPolicy:
    visibility: Visibility = Visibility.NOT_REPORT
    readable_regs: int = 0

    @functools.cached_property
    def row(self) -> tuple[int, int]:
        """(visibility code, readable registers): the policy's row in a
        report's interrupt table, derived once, as the policy never
        changes."""
        return VISIBILITY_IDS.index(self.visibility), self.readable_regs


DEFAULT_INTERRUPT_POLICY = InterruptPolicy()


# the scalar policy fields, by name, with their value types; a field's
# position is its id in the register ABI
POLICY_FIELDS = {"cores": int, "mon_api": int, "user_calls": bool,
                 "receive": bool}
# the fields by register-ABI id
POLICY_FIELD_IDS = tuple(POLICY_FIELDS)


@dataclass
class Policies:
    """Per-domain permission set; monotonic along the domain tree."""

    cores: int = 0
    mon_api: int = 0
    user_calls: bool = False
    receive: bool = False  # may receive capabilities after seal
    interrupts: dict[int, InterruptPolicy] = field(default_factory=dict)
    # the policy of every vector without an entry in `interrupts`
    interrupt_default: InterruptPolicy = DEFAULT_INTERRUPT_POLICY

    def interrupt(self, vector: int) -> InterruptPolicy:
        return self.interrupts.get(vector, self.interrupt_default)

    def allows(self, call: ApiCall) -> bool:
        return bool(self.mon_api & (1 << call))


def undeliverable_vectors(rootward: Iterable[Policies]) -> set[int]:
    """The vectors that no policy on a root-ward path delivers.

    `rootward` yields a domain's policies, then its parent's, and so on up;
    a vector is deliverable when one of them has Deliver for it.
    """
    missing = set(range(NUM_VECTORS))
    for policies in rootward:
        if policies.interrupt_default.visibility is Visibility.DELIVER:
            # only the vectors with an entry other than Deliver stay missing
            missing &= {v for v, p in policies.interrupts.items()
                        if p.visibility is not Visibility.DELIVER}
        else:
            missing -= {v for v, p in policies.interrupts.items()
                        if p.visibility is Visibility.DELIVER}
        if not missing:
            break
    return missing


def zero_registers() -> list[int]:
    return [0] * NUM_REGS


class DomainState(enum.Enum):
    UNSEALED = "unsealed"
    SEALED = "sealed"
    REVOKED = "revoked"


class CapKind(enum.Enum):
    REGION = "region"
    DOMAIN = "domain"
    CHANNEL = "channel"


@dataclass(frozen=True)
class CapEntry:
    kind: CapKind
    ref: int  # region id for REGION, domain id otherwise


class CapTable:
    """Per-domain capability table; indices reuse the lowest free slot."""

    def __init__(self):
        self.slots: list[Optional[CapEntry]] = []

    def insert(self, entry: CapEntry) -> int:
        for i, slot in enumerate(self.slots):
            if slot is None:
                self.slots[i] = entry
                return i
        self.slots.append(entry)
        return len(self.slots) - 1

    def get(self, index: int) -> Optional[CapEntry]:
        if 0 <= index < len(self.slots):
            return self.slots[index]
        return None

    def remove(self, index: int) -> CapEntry:
        entry = self.slots[index]
        assert entry is not None
        self.slots[index] = None
        return entry

    def find(self, kind: CapKind, ref: int) -> Optional[int]:
        for i, slot in enumerate(self.slots):
            if slot is not None and slot.kind is kind and slot.ref == ref:
                return i
        return None

    def entries(self) -> list[tuple[int, CapEntry]]:
        return [(i, e) for i, e in enumerate(self.slots) if e is not None]

    def __len__(self) -> int:
        return sum(1 for e in self.slots if e is not None)


class ChildKind(enum.Enum):
    TD = "td"
    CHANNEL = "channel"


@dataclass
class DomainNode:
    id: int
    state: DomainState = DomainState.UNSEALED
    parent: Optional[int] = None
    children: list[tuple[ChildKind, int]] = field(default_factory=list)
    policies: Policies = field(default_factory=Policies)
    regs: dict[int, list[int]] = field(default_factory=dict)
    owned: CapTable = field(default_factory=CapTable)
    is_device: bool = False
    device_vector: Optional[int] = None
    mmio: Optional[PhysRange] = None
    register_hash: Optional[bytes] = None

    def core_regs(self, core: int) -> list[int]:
        if core not in self.regs:
            self.regs[core] = zero_registers()
        return self.regs[core]

    @property
    def live(self) -> bool:
        return self.state is not DomainState.REVOKED


@dataclass(frozen=True)
class RevokedDomain:
    """What a reclaimed domain id reads as: its record is gone, and only the
    id and the terminal state remain.  Writing to it raises."""

    id: int
    state: DomainState = DomainState.REVOKED
    live = False


class DomainTable(dict):
    """Live domain records by id.

    Iteration, `len`, `in` and `get` see live records only.  Ids are never
    reused, so an id below `next_id` without a live record was revoked.
    Indexing such an id returns its revoked record while some core path
    still names it (`held`), and a `RevokedDomain` once the record is freed.
    Any other id raises `KeyError`.
    """

    def __init__(self):
        super().__init__()
        self.next_id = 0
        self.held: dict[int, DomainNode] = {}

    def __missing__(self, dom_id: int):
        held = self.held.get(dom_id)
        if held is not None:
            return held
        if 0 <= dom_id < self.next_id:
            return RevokedDomain(dom_id)
        raise KeyError(dom_id)

    def new(self, parent: Optional[int]) -> DomainNode:
        dom = DomainNode(id=self.next_id, parent=parent)
        self.next_id += 1
        self[dom.id] = dom
        return dom

    def reclaim(self, dom_ids, named: set[int]):
        """Drop revoked records; those a core path names wait in `held`."""
        for dom_id in dom_ids:
            dom = self.pop(dom_id)
            if dom_id in named:
                self.held[dom_id] = dom

    def release(self, named: set[int]):
        """Free the held records no core path names any more."""
        for dom_id in [d for d in self.held if d not in named]:
            del self.held[dom_id]


class UpdateKind(enum.Enum):
    ACCESS_CHANGED = "access_changed"
    DOMAIN_REVOKED = "domain_revoked"
    INTERRUPT_ROUTED = "interrupt_routed"


@dataclass
class Update:
    """Per-core state-change notice, drained under the two-barrier protocol."""

    kind: UpdateKind
    domain: Optional[int] = None
    vector: Optional[int] = None
    # precomputed view cache for ACCESS_CHANGED so draining needs no engine lock
    view: Optional[list[tuple[int, int, int]]] = None
    # precomputed unwind for DOMAIN_REVOKED
    unwind: Optional[dict] = None


class PayloadCode(enum.IntEnum):
    """Switch return payloads, carried in the simulated ABI's result registers."""

    RETURNED = 0
    INTERRUPT = 1
    REVOKED_CHILD = 2


@dataclass
class ChainEntry:
    """A suspended domain on a core's call path."""

    domain: int
    saved_regs: list[int]
    pending_observation: bool = False


@dataclass
class IrqFrame:
    """Active routed interrupt on a core: suspended suffix below the handler."""

    vector: int
    resume: list[ChainEntry]


@dataclass
class CoreState:
    id: int
    current: int = -1
    chain: list[ChainEntry] = field(default_factory=list)
    irq: Optional[IrqFrame] = None
    deferred_vectors: list[int] = field(default_factory=list)
    last_payload: Optional[tuple[int, int]] = None

    def path_domains(self) -> list[int]:
        """Root-ward path of domains this core is executing, outermost first."""
        path = [e.domain for e in self.chain] + [self.current]
        if self.irq is not None:
            path.extend(e.domain for e in self.irq.resume)
        return path
