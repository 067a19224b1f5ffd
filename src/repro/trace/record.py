"""Memory trace records — the output format of the memory tracer.

The paper's tracer captures every memory operation of the Spike-simulated
multiprocessor together with its originating thread and core
(section 5.1).  :class:`TraceRecord` is that capture unit; a *trace* is
any iterable of records.  Records convert 1:1 into
:class:`repro.core.request.MemoryRequest` objects via :func:`to_request`.
:class:`PackedTrace` stores a whole trace as one flat int64 array, the
form the evaluation layer keeps its traces in.
"""

from __future__ import annotations

from array import array
from itertools import chain, count
from typing import Iterable, Iterator, NamedTuple, Tuple

from repro.core.request import MemoryRequest, RequestType, check_tid

#: Trace op mnemonics (text trace format, column 1).
OP_NAMES = {
    RequestType.LOAD: "LD",
    RequestType.STORE: "ST",
    RequestType.FENCE: "FENCE",
    RequestType.ATOMIC: "AMO",
}
OP_BY_NAME = {v: k for k, v in OP_NAMES.items()}

#: ``RequestType`` members by value: maps a packed ``op`` back to its member.
_OPS = tuple(RequestType)


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


#: Ints per packed record: the six ``TraceRecord`` fields.
_FIELDS = len(TraceRecord._fields)


class PackedTrace:
    """An immutable trace stored as one flat ``array('q')``.

    Each record takes six consecutive int64 slots in ``TraceRecord``
    field order, ``op`` as its ``RequestType`` value: 48 B per record,
    and the whole trace is one array instead of one tuple per record
    (each of which the cyclic garbage collector would track and scan).
    A field outside int64 raises ``OverflowError`` while packing.

    Iterating yields plain ``(op, addr, size, tid, core, cycle)`` int
    tuples, so readers unpack records positionally and compare ``op``
    with ``RequestType`` members (an ``IntEnum``) by value.
    """

    __slots__ = ("_data",)

    def __init__(self, records: Iterable[Tuple[int, ...]]) -> None:
        # From a list, the array allocates its exact size in one step.
        data = array("q", list(chain.from_iterable(records)))
        if len(data) % _FIELDS:
            raise ValueError(f"packed records need {_FIELDS} fields each")
        self._data = data

    def __len__(self) -> int:
        return len(self._data) // _FIELDS

    def __iter__(self) -> Iterator[Tuple[int, int, int, int, int, int]]:
        it = iter(self._data)
        return zip(it, it, it, it, it, it)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedTrace):
            return NotImplemented
        return self._data == other._data


def to_requests(
    records: Iterable[Tuple[int, ...]], node: int = 0
) -> Iterator[MemoryRequest]:
    """Convert a trace into raw requests, assigning per-thread tags.

    Tags are sequential per thread modulo the 16-bit tag space, matching
    the paper's 64 K transactions per thread (section 4.1.1): one counter
    per thread, whose TID is range checked at its first request.  Each
    request equals ``rec.to_request(tag=tag, node=node)``; records are
    unpacked and requests built positionally, in field order, because
    attribute reads and keyword passing cost measurably at trace scale.
    ``records`` may hold ``TraceRecord`` tuples or be a :class:`PackedTrace`:
    ``op`` is looked up by value, so both yield ``RequestType`` members.
    """
    tags: dict[int, Iterator[int]] = {}
    get_tags = tags.get
    ops = _OPS
    for op, addr, size, tid, core, cycle in records:
        thread_tags = get_tags(tid)
        if thread_tags is None:
            thread_tags = tags[check_tid(tid)] = count()
        yield MemoryRequest(
            addr, ops[op], tid, next(thread_tags) & 0xFFFF, size, core, node, cycle
        )
