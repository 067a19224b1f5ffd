"""Coalesced transaction emitted by the MAC towards the 3D-stacked memory.

A :class:`CoalescedRequest` corresponds to one HMC request packet: a
contiguous byte range inside one DRAM row plus the raw requests it
satisfies (each carries its own TID, tag and FLIT id, the paper's
target word).  The HMC device model (:mod:`repro.hmc`) consumes these
and produces :class:`CoalescedResponse` objects carrying the same
requests back.  The window and raw engines, which read a whole trace,
hold each packet's requests as :class:`Targets`, built when first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, List, Sequence, Tuple

from .request import MemoryRequest, RequestType

if TYPE_CHECKING:
    from .address import AddressCodec

#: Control overhead per HMC access: one 16 B header/tail FLIT on the
#: request packet and one on the response packet (paper section 2.2.2).
CONTROL_BYTES_PER_PACKET = 16
CONTROL_BYTES_PER_ACCESS = 32


@dataclass(slots=True)
class CoalescedRequest:
    """One packetized transaction bound for the 3D-stacked memory.

    Attributes:
        addr: byte address of the first byte of the transaction (FLIT
            aligned; chunk aligned for builder-emitted packets).
        size: payload size in bytes (16..256 for HMC 2.1).
        rtype: LOAD or STORE (atomics travel as ATOMIC bypass packets).
        requests: the satisfied raw requests; their TID/tag/FLIT id are
            the packet's targets (:class:`Targets` from the window and
            raw engines).
        bypassed: True when the packet skipped the request builder via the
            B bit (single-request rows, fences excluded).
        issue_cycle: cycle the MAC dispatched the packet.
    """

    addr: int
    size: int
    rtype: RequestType
    requests: List[MemoryRequest] = field(default_factory=list)
    bypassed: bool = False
    issue_cycle: int = 0
    #: Identity assigned by the response router when fault injection is
    #: on; used for timeout tracking and duplicate-response suppression.
    #: -1 = untracked (the fault-free fast path).
    packet_id: int = -1

    @property
    def end(self) -> int:
        """One past the last byte addressed by the transaction."""
        return self.addr + self.size

    @property
    def targets(self) -> List[MemoryRequest]:
        """The satisfied raw requests, read as targets (``tid``/``tag``)."""
        return self.requests

    @property
    def raw_count(self) -> int:
        """How many raw requests this packet satisfies."""
        return len(self.requests)

    @property
    def is_write(self) -> bool:
        return self.rtype is RequestType.STORE

    @property
    def wire_bytes(self) -> int:
        """Total link bytes for the access: payload + 32 B control.

        Reads carry payload on the response, writes on the request; either
        way one access moves ``size`` payload bytes plus one header/tail
        pair per packet of the request/response exchange.
        """
        return self.size + CONTROL_BYTES_PER_ACCESS


@dataclass(slots=True)
class CoalescedResponse:
    """Response returned by the memory device for one coalesced request."""

    request: CoalescedRequest
    complete_cycle: int
    #: Cycles the device spent serving the transaction (queueing + DRAM).
    service_cycles: int = 0
    #: True when the device could not produce valid data (uncorrectable
    #: vault error or an injected poison fault); the response router
    #: propagates the mark to every satisfied raw request.
    poisoned: bool = False

    @property
    def latency(self) -> int:
        return self.complete_cycle - self.request.issue_cycle


#: ``build(indices)``: the requests of those input indices, in order.
Builder = Callable[[Iterable[int]], List[MemoryRequest]]


class Targets(list):
    """A packet's satisfied requests, built from input indices on first read.

    Until an element is read the list holds indices into the engine's
    input; the first read replaces them, in place, with the requests
    ``_build`` makes, so every later read returns the same objects (the
    attribution marks a device stamps on them stick).  ``len`` and truth
    count the indices and build nothing.  A copy or a pickle is a plain
    list of the built requests.
    """

    __slots__ = ("_build",)

    def _resolve(self) -> None:
        build, self._build = self._build, None
        list.__setitem__(self, slice(None), build(list.__iter__(self)))

    def __reduce_ex__(self, protocol):
        return list, (list(self),)


def _built_first(name: str):
    method = getattr(list, name)

    def read(self, *args):
        if self._build is not None:
            self._resolve()
        return method(self, *args)

    read.__name__ = name
    return read


# Every list method that reads or writes elements builds them first.
for _name in (
    "__iter__", "__reversed__", "__getitem__", "__contains__", "__repr__",
    "__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__",
    "__add__", "__mul__", "__rmul__", "__iadd__", "__imul__",
    "__setitem__", "__delitem__", "append", "extend", "insert", "pop",
    "remove", "index", "count", "copy", "sort", "reverse", "clear",
):
    setattr(Targets, _name, _built_first(_name))


def request_columns(
    requests: Iterable[MemoryRequest], codec: "AddressCodec"
) -> Tuple[Sequence[int], Sequence[int], Builder]:
    """``(ops, addrs, build)`` of an engine input: op and address columns.

    A :class:`repro.trace.record.PackedTrace` answers from its own
    columns (its ``request_columns``, which checks the TIDs); any other
    input is a sequence of requests, and ``build`` returns the input's
    own objects.  Every non-fence address is range checked here, before
    the engine's loop: the first one outside the address space raises
    through ``codec.check``, the error a decode raises.
    """
    columns = getattr(requests, "request_columns", None)
    if columns is not None:
        ops, addrs, build = columns()
    else:
        reqs = requests if type(requests) is list else list(requests)
        ops, addrs = [r.rtype for r in reqs], [r.addr for r in reqs]

        def build(indices: Iterable[int]) -> List[MemoryRequest]:
            return list(map(reqs.__getitem__, indices))

    limit = codec.addr_limit
    if addrs and not (0 <= min(addrs) and max(addrs) < limit):
        fence = RequestType.FENCE
        for op, addr in zip(ops, addrs):
            if op != fence and not 0 <= addr < limit:
                codec.check(addr)
    return ops, addrs, build
