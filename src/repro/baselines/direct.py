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
from repro.core.config import MACConfig
from repro.core.packet import CoalescedRequest
from repro.core.request import MemoryRequest
from repro.core.stats import MACStats


def dispatch_raw(
    requests: Iterable[MemoryRequest],
    config: Optional[MACConfig] = None,
    stats: Optional[MACStats] = None,
) -> List[CoalescedRequest]:
    """One FLIT-sized packet per raw request, no aggregation."""
    cfg = config or MACConfig()
    codec = AddressCodec(cfg)
    st = stats if stats is not None else MACStats()
    out: List[CoalescedRequest] = []
    for req in requests:
        st.record_raw(req.rtype)
        if req.is_fence:
            continue
        flit = codec.flit_id(req.addr)
        pkt = CoalescedRequest(
            addr=codec.row_base(req.addr) + flit * cfg.flit_bytes,
            size=cfg.flit_bytes,
            rtype=req.rtype,
            requests=[req],
            bypassed=True,
        )
        st.record_packet(pkt)
        out.append(pkt)
    return out
