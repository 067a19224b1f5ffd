"""Coalesced transaction emitted by the MAC towards the 3D-stacked memory.

A :class:`CoalescedRequest` corresponds to one HMC request packet: a
contiguous byte range inside one DRAM row plus the raw requests it
satisfies (each carries its own TID, tag and FLIT id, the paper's
target word).  The HMC device model (:mod:`repro.hmc`) consumes these
and produces :class:`CoalescedResponse` objects carrying the same
requests back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from .request import MemoryRequest, RequestType

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
            the packet's targets.
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

    def covers(self, addr: int) -> bool:
        """Whether a byte address falls inside this transaction."""
        return self.addr <= addr < self.end


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

