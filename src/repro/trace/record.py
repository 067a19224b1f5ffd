"""Memory trace records — the output format of the memory tracer.

The paper's tracer captures every memory operation of the Spike-simulated
multiprocessor together with its originating thread and core
(section 5.1).  :class:`TraceRecord` is that capture unit; a *trace* is
any iterable of records.  Records convert 1:1 into
:class:`repro.core.request.MemoryRequest` objects via :func:`to_request`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.core.request import MemoryRequest, RequestType

#: Trace op mnemonics (text trace format, column 1).
OP_NAMES = {
    RequestType.LOAD: "LD",
    RequestType.STORE: "ST",
    RequestType.FENCE: "FENCE",
    RequestType.ATOMIC: "AMO",
}
OP_BY_NAME = {v: k for k, v in OP_NAMES.items()}


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One traced memory operation.

    Attributes:
        op: operation kind.
        addr: physical byte address (0 for fences).
        size: access size in bytes.
        tid: hardware thread id.
        core: issuing core index.
        cycle: issue cycle in the traced execution.
    """

    op: RequestType
    addr: int
    size: int = 8
    tid: int = 0
    core: int = 0
    cycle: int = 0

    def to_request(self, tag: int = 0, node: int = 0) -> MemoryRequest:
        """Convert into the MAC's raw-request type."""
        return MemoryRequest(
            addr=self.addr,
            rtype=self.op,
            tid=self.tid,
            tag=tag,
            size=self.size,
            core=self.core,
            node=node,
            issue_cycle=self.cycle,
        )


def to_requests(records: Iterable[TraceRecord], node: int = 0) -> Iterator[MemoryRequest]:
    """Convert a trace into raw requests, assigning per-thread tags.

    Tags are sequential per thread modulo the 16-bit tag space, matching
    the paper's 64 K transactions per thread (section 4.1.1).  Each
    request equals ``rec.to_request(tag=tag, node=node)``; it is built
    with positional arguments, in :class:`MemoryRequest` field order,
    because keyword passing costs measurably at trace scale.
    """
    next_tag: dict[int, int] = {}
    get_tag = next_tag.get
    for rec in records:
        tid = rec.tid
        tag = get_tag(tid, 0)
        next_tag[tid] = (tag + 1) & 0xFFFF
        yield MemoryRequest(
            rec.addr, rec.op, tid, tag, rec.size, rec.core, node, rec.cycle
        )
