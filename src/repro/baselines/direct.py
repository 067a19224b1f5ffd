"""Direct dispatch — the paper's "without MAC" comparator.

Every raw load/store ships to the device as an individual 16 B (one
FLIT) packet in arrival order; fences are local barriers with no memory
packet; atomics ship as 16 B atomic packets.  This is the traffic the
MAC's coalescing efficiency (Eq. 3) and speedup (Fig. 17) are measured
against.
"""

from __future__ import annotations

from itertools import count
from typing import Iterable, List, Optional

from repro.core.address import AddressCodec
from repro.core.config import MACConfig
from repro.core.packet import CoalescedRequest, Targets, request_columns
from repro.core.request import MemoryRequest, RequestType
from repro.core.stats import MACStats


def dispatch_raw(
    requests: Iterable[MemoryRequest],
    config: Optional[MACConfig] = None,
    stats: Optional[MACStats] = None,
) -> List[CoalescedRequest]:
    """One FLIT-sized packet per raw request, no aggregation.

    Each packet is the single-FLIT B-bit packet of
    :func:`repro.core.builder.bypass_packet`, made in place.
    ``requests`` is a :class:`repro.trace.record.PackedTrace` or a
    sequence of requests, read from its op and address columns (range
    checked before the loop) as the window engine reads it
    (:func:`repro.core.mac.coalesce_trace_fast`); each packet's target
    is built when first read.
    """
    cfg = config or MACConfig()
    codec = AddressCodec(cfg)
    st = stats if stats is not None else MACStats()
    ops, addrs, build = request_columns(requests, codec)
    fb = cfg.flit_bytes
    flit_align = -fb
    rtypes = tuple(RequestType)
    FENCE = int(RequestType.FENCE)
    out: List[CoalescedRequest] = []
    emit = out.append
    for i, op, addr in zip(count(), ops, addrs):
        if op == FENCE:
            continue
        targets = Targets((i,))
        targets._build = build
        emit(CoalescedRequest(addr & flit_align, fb, rtypes[op], targets, True))
    st.record_stream(ops, out)
    return out
