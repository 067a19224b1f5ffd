"""Memory trace records — the output format of the memory tracer.

The paper's tracer captures every memory operation of the Spike-simulated
multiprocessor together with its originating thread and core
(section 5.1).  :class:`TraceRecord` is that capture unit; a *trace* is
any iterable of records.  Records convert 1:1 into
:class:`repro.core.request.MemoryRequest` objects via :func:`to_request`.
"""

from __future__ import annotations

from itertools import count
from typing import Iterable, Iterator, NamedTuple

from repro.core.request import MemoryRequest, RequestType, check_tid

#: Trace op mnemonics (text trace format, column 1).
OP_NAMES = {
    RequestType.LOAD: "LD",
    RequestType.STORE: "ST",
    RequestType.FENCE: "FENCE",
    RequestType.ATOMIC: "AMO",
}
OP_BY_NAME = {v: k for k, v in OP_NAMES.items()}


class TraceRecord(NamedTuple):
    """One traced memory operation (an immutable tuple).

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
        """Convert into the MAC's raw-request type (TID range checked)."""
        op, addr, size, tid, core, cycle = self
        return MemoryRequest(addr, op, check_tid(tid), tag, size, core, node, cycle)


def to_requests(records: Iterable[TraceRecord], node: int = 0) -> Iterator[MemoryRequest]:
    """Convert a trace into raw requests, assigning per-thread tags.

    Tags are sequential per thread modulo the 16-bit tag space, matching
    the paper's 64 K transactions per thread (section 4.1.1): one counter
    per thread, whose TID is range checked at its first request.  Each
    request equals ``rec.to_request(tag=tag, node=node)``; records are
    unpacked and requests built positionally, in field order, because
    attribute reads and keyword passing cost measurably at trace scale.
    """
    tags: dict[int, Iterator[int]] = {}
    get_tags = tags.get
    for op, addr, size, tid, core, cycle in records:
        thread_tags = get_tags(tid)
        if thread_tags is None:
            thread_tags = tags[check_tid(tid)] = count()
        yield MemoryRequest(
            addr, op, tid, next(thread_tags) & 0xFFFF, size, core, node, cycle
        )
