"""MSHR-style fixed-line coalescer (paper section 2.3 baseline).

Coalesces like a conventional miss-handling architecture: the first
request to a 64 B line dispatches a 64 B transaction immediately; later
requests to the same line merge while the fill is outstanding (one
memory-latency window), regardless of how little of the line they use.
The emitted transaction size is always exactly one line — the
inflexibility the MAC removes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.core.address import AddressCodec
from repro.core.config import MACConfig
from repro.core.packet import CoalescedRequest
from repro.core.request import MemoryRequest, RequestType
from repro.core.stats import MACStats


def dispatch_mshr(
    requests: Iterable[MemoryRequest],
    config: Optional[MACConfig] = None,
    stats: Optional[MACStats] = None,
    line_bytes: int = 64,
    mshr_entries: int = 16,
    fill_latency: int = 307,
    requests_per_cycle: float = 1.0,
) -> List[CoalescedRequest]:
    """Coalesce a trace through an MSHR file; returns 64 B line packets.

    Requests are assumed to arrive at ``requests_per_cycle``; each line
    transaction dispatches at its first miss and merges subsequent
    same-line requests for ``fill_latency`` cycles.
    """
    if line_bytes & (line_bytes - 1):
        raise ValueError("line size must be a power of two")
    cfg = config or MACConfig()
    codec = AddressCodec(cfg)
    st = stats if stats is not None else MACStats()
    shift = line_bytes.bit_length() - 1
    out: List[CoalescedRequest] = []
    # line -> (packet, fill_cycle); packets are finalized lazily.
    pending: Dict[int, tuple] = {}

    def retire_due(cycle: float) -> None:
        done = [line for line, (_, fill) in pending.items() if fill <= cycle]
        for line in done:
            pkt, _ = pending.pop(line)
            st.record_packet(pkt)
            out.append(pkt)

    k = 0
    for req in requests:
        cycle = k / requests_per_cycle
        k += 1
        st.record_raw(req.rtype)
        if req.is_fence:
            retire_due(float("inf"))
            continue
        retire_due(cycle)
        line = req.addr >> shift
        codec.flit_id(req.addr)  # raises on an address outside the space
        hit = pending.get(line)
        if hit is not None:
            if req.rtype is hit[0].rtype:
                hit[0].requests.append(req)
                continue
            # Same line, different type: the write forces the pending
            # read (or vice versa) to memory before a fresh allocation.
            pkt, _ = pending.pop(line)
            st.record_packet(pkt)
            out.append(pkt)
        if len(pending) >= mshr_entries:
            # File full: oldest entry's fill completes first; retire it.
            oldest = min(pending, key=lambda line: pending[line][1])
            pkt, _ = pending.pop(oldest)
            st.record_packet(pkt)
            out.append(pkt)
        rtype = (
            req.rtype
            if req.rtype in (RequestType.LOAD, RequestType.STORE)
            else RequestType.LOAD
        )
        pkt = CoalescedRequest(
            addr=(line << shift),
            size=line_bytes,
            rtype=rtype,
            requests=[req],
            issue_cycle=int(cycle),
        )
        pending[line] = (pkt, cycle + fill_latency)
    retire_due(float("inf"))
    return out
