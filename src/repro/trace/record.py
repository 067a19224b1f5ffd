"""Memory trace records — the output format of the memory tracer.

The paper's tracer captures every memory operation of the Spike-simulated
multiprocessor together with its originating thread and core
(section 5.1).  :class:`TraceRecord` is that capture unit; a *trace* is
any iterable of records.  Records convert 1:1 into
:class:`repro.core.request.MemoryRequest` objects via :func:`to_request`.
:class:`PackedTrace` stores a whole trace as one flat int64 array: the
form :meth:`repro.workloads.base.Workload.generate` returns, the
evaluation layer caches and the window and raw engines read.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from itertools import chain, count
from typing import Callable, Iterable, Iterator, List, NamedTuple, Sequence, Tuple

from repro.core.request import MAX_TID, MemoryRequest, RequestType, check_tid

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
    :meth:`records` is the ``TraceRecord`` view for readers of fields.
    """

    __slots__ = ("_data",)

    def __init__(self, records: Iterable[Tuple[int, ...]]) -> None:
        # From a list, the array allocates its exact size in one step.
        self._data = self._checked(array("q", list(chain.from_iterable(records))))

    @classmethod
    def from_array(cls, data: array) -> "PackedTrace":
        """Wrap ``data``, already packed six slots per record, without a copy."""
        trace = cls.__new__(cls)
        trace._data = cls._checked(data)
        return trace

    @staticmethod
    def _checked(data: array) -> array:
        if data.typecode != "q":
            raise ValueError("packed records are int64 ('q') slots")
        if len(data) % _FIELDS:
            raise ValueError(f"packed records need {_FIELDS} fields each")
        return data

    def __len__(self) -> int:
        return len(self._data) // _FIELDS

    def __iter__(self) -> Iterator[Tuple[int, int, int, int, int, int]]:
        it = iter(self._data)
        return zip(it, it, it, it, it, it)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedTrace):
            return NotImplemented
        return self._data == other._data

    def records(self) -> Iterator[TraceRecord]:
        """The records as ``TraceRecord`` tuples, ``op`` a ``RequestType``."""
        ops = _OPS
        for op, addr, size, tid, core, cycle in self:
            yield TraceRecord(ops[op], addr, size, tid, core, cycle)

    def request_columns(
        self,
    ) -> Tuple[Sequence[int], Sequence[int], Callable[[Iterable[int]], List[MemoryRequest]]]:
        """``(ops, addrs, build)``: the input of the window and raw engines.

        ``ops`` and ``addrs`` are the op and address columns;
        ``build(indices)`` makes the ``MemoryRequest`` of each record
        index, tagged exactly as :func:`to_requests` tags it (node 0).
        The TIDs are range checked here, so a bad one raises the error
        :func:`to_requests` raises before any request is built.
        """
        data = self._data
        tids = data[3::_FIELDS]
        # One pass over the column: a trace holds few distinct TIDs.
        distinct = set(tids)
        if distinct and not (0 <= min(distinct) and max(distinct) <= MAX_TID):
            check_tid(next(t for t in tids if not 0 <= t <= MAX_TID))
        tags = None

        def build(indices: Iterable[int]) -> List[MemoryRequest]:
            nonlocal tags
            if tags is None:
                tags = _thread_tags(data[3::_FIELDS])
            tag, ops = tags, _OPS
            out = []
            for i in indices:
                j = i * _FIELDS
                op, addr, size, tid, core, cycle = data[j : j + _FIELDS]
                out.append(MemoryRequest(addr, ops[op], tid, tag[i], size, core, 0, cycle))
            return out

        return data[0::_FIELDS].tolist(), data[1::_FIELDS].tolist(), build


def _thread_tags(tids: Iterable[int]) -> array:
    """Per-record tags: sequential per thread, modulo the 16-bit tag space."""
    counters: defaultdict = defaultdict(count)
    return array("H", [next(counters[tid]) & 0xFFFF for tid in tids])


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
