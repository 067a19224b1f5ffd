"""Direct dispatch — the paper's "without MAC" comparator.

Every raw load/store ships to the device as an individual 16 B (one
FLIT) packet in arrival order; fences are local barriers with no memory
packet; atomics ship as 16 B atomic packets.  This is the traffic the
MAC's coalescing efficiency (Eq. 3) and speedup (Fig. 17) are measured
against.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.core.address import AddressCodec
from repro.core.builder import bypass_packet
from repro.core.config import MACConfig
from repro.core.packet import CoalescedRequest
from repro.core.request import MemoryRequest
from repro.core.stats import MACStats


def dispatch_raw(
    requests: Iterable[MemoryRequest],
    config: Optional[MACConfig] = None,
    stats: Optional[MACStats] = None,
) -> List[CoalescedRequest]:
    """One FLIT-sized packet per raw request, no aggregation.

    Each packet is the single-FLIT B-bit packet of
    :func:`repro.core.builder.bypass_packet`, made after one range check
    of the request's address.
    """
    cfg = config or MACConfig()
    codec = AddressCodec(cfg)
    addr_limit, check = codec.addr_limit, codec.check
    st = stats if stats is not None else MACStats()
    out: List[CoalescedRequest] = []
    for req in requests:
        st.record_raw(req.rtype)
        if req.is_fence:
            continue
        if not 0 <= req.addr < addr_limit:
            check(req.addr)
        pkt = bypass_packet([req], cfg)
        st.record_packet(pkt)
        out.append(pkt)
    return out
