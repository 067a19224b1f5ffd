"""Raw memory request primitives.

A *raw request* is the unit of work emitted by a core towards the memory
subsystem: a single load/store of up to one FLIT (16 B) of data, a memory
fence, or an atomic operation.  Raw requests carry *target information*
(thread id, transaction tag, FLIT id) that the MAC preserves through
coalescing so the response router can satisfy each originating instruction
(paper section 3.3 and 4.1.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional


class RequestType(enum.IntEnum):
    """Kind of raw memory operation entering the MAC.

    The ``T`` bit in the ARQ distinguishes only loads (0) from stores (1);
    fences and atomics are handled specially (fences drain the ARQ, atomics
    bypass coalescing entirely, paper section 4.1.2).
    """

    LOAD = 0
    STORE = 1
    FENCE = 2
    ATOMIC = 3

    @property
    def t_bit(self) -> int:
        """The T (type) address-extension bit: 0 for loads, 1 for stores."""
        if self is RequestType.LOAD:
            return 0
        if self is RequestType.STORE:
            return 1
        raise ValueError(f"{self.name} requests carry no T bit")

    @property
    def coalescable(self) -> bool:
        """Whether this request kind may be merged in the ARQ."""
        return self in (RequestType.LOAD, RequestType.STORE)


# Field widths from paper section 4.1.1: TID and tag are 2 B each (64 K
# threads, 64 K transactions per thread); the FLIT id needs 4 bits for
# the 256 B HMC row.  The model admits up to 64 FLITs per row (6 bits)
# so the section-4.3 HBM geometry (1 KB rows) works unchanged; the
# TARGET_BYTES accounting below keeps the paper's 4.5 B figure for its
# 256 B configuration.
TID_BITS = 16
TAG_BITS = 16
FLIT_ID_BITS = 6
MAX_TID = (1 << TID_BITS) - 1
MAX_TAG = (1 << TAG_BITS) - 1

#: Bytes of target bookkeeping per merged request: 2 B TID + 2 B tag +
#: 4-bit FLIT id, rounded as in the paper to 4.5 B.
TARGET_BYTES = 4.5


@dataclass(frozen=True, slots=True)
class Target:
    """Target information of one raw request merged into an ARQ entry.

    Stored in the target segment of the FLIT map (Fig. 6) and used by the
    response router to deliver data back to the originating thread.
    """

    tid: int
    tag: int
    flit_id: int

    def __post_init__(self) -> None:
        if not 0 <= self.tid <= MAX_TID:
            raise ValueError(f"tid {self.tid} outside {TID_BITS}-bit range")
        if not 0 <= self.tag <= MAX_TAG:
            raise ValueError(f"tag {self.tag} outside {TAG_BITS}-bit range")
        if not 0 <= self.flit_id < (1 << FLIT_ID_BITS):
            raise ValueError(
                f"flit_id {self.flit_id} outside {FLIT_ID_BITS}-bit range"
            )


@dataclass(slots=True)
class MemoryRequest:
    """One raw memory operation travelling towards the 3D-stacked memory.

    Attributes:
        addr: 64-bit physical byte address of the access.
        rtype: load / store / fence / atomic.
        tid: issuing hardware thread id (16 bit).
        tag: per-thread transaction tag (16 bit).
        size: access size in bytes (word accesses are <= one 16 B FLIT).
        core: index of the issuing core (bookkeeping only).
        node: index of the issuing node; used by the request router to
            classify local vs. remote traffic.
        issue_cycle: cycle at which the request entered the memory
            subsystem; used for latency accounting.
    """

    addr: int
    rtype: RequestType
    tid: int = 0
    tag: int = 0
    size: int = 8
    core: int = 0
    node: int = 0
    issue_cycle: int = 0
    # Filled in by the response path for latency accounting.
    complete_cycle: int = field(default=-1, compare=False)
    #: Set by the response router when the satisfying response carried
    #: poisoned (invalid) data; the consumer must not trust the value.
    poisoned: bool = field(default=False, compare=False)
    #: Boundary-crossing cycle stamps written by an
    #: :class:`repro.obs.attribution.AttributionCollector` (``mark ->
    #: absolute cycle``); ``None`` whenever attribution is disabled.
    marks: Optional[Dict[str, int]] = field(
        default=None, compare=False, repr=False
    )

    @property
    def is_fence(self) -> bool:
        return self.rtype is RequestType.FENCE

    @property
    def is_atomic(self) -> bool:
        return self.rtype is RequestType.ATOMIC

    @property
    def latency(self) -> int:
        """Observed request latency in cycles (-1 until completed)."""
        if self.complete_cycle < 0:
            return -1
        return self.complete_cycle - self.issue_cycle
