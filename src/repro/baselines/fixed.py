"""Fixed-256 B coalescer — the "just enlarge the cache line" strawman.

Section 2.3.2 argues that forcing every transaction to the HMC's maximum
size wastes up to 94.44 % of the data bandwidth for single-word irregular
accesses.  This baseline quantifies that: it aggregates with the same
row-window semantics as the MAC but always emits full-row (256 B)
packets, so its bandwidth efficiency *metric* looks ideal while its
useful-data fraction collapses.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, List, Optional

from repro.core.address import AddressCodec
from repro.core.config import MACConfig
from repro.core.packet import CoalescedRequest
from repro.core.request import MemoryRequest
from repro.core.stats import MACStats


def dispatch_fixed(
    requests: Iterable[MemoryRequest],
    config: Optional[MACConfig] = None,
    stats: Optional[MACStats] = None,
) -> List[CoalescedRequest]:
    """Row-window aggregation that always emits max-size packets."""
    cfg = config or MACConfig()
    codec = AddressCodec(cfg)
    st = stats if stats is not None else MACStats()
    window: "OrderedDict[int, CoalescedRequest]" = OrderedDict()
    out: List[CoalescedRequest] = []
    cap = cfg.target_capacity

    def emit(pkt: CoalescedRequest) -> None:
        st.record_packet(pkt)
        out.append(pkt)

    for req in requests:
        st.record_raw(req.rtype)
        if req.is_fence:
            while window:
                _, pkt = window.popitem(last=False)
                emit(pkt)
            continue
        key = codec.arq_key(req) if req.rtype.coalescable else -1
        pkt = window.get(key) if key >= 0 else None
        if pkt is not None and len(pkt.requests) < cap:
            pkt.requests.append(req)
            continue
        if pkt is not None:
            window.pop(key)
            emit(pkt)
        elif len(window) >= cfg.arq_entries:
            _, oldest = window.popitem(last=False)
            emit(oldest)
        fresh = CoalescedRequest(
            addr=codec.row_base(req.addr),
            size=cfg.row_bytes,  # always the full row
            rtype=req.rtype,
            requests=[req],
        )
        if key >= 0:
            window[key] = fresh
        else:
            emit(fresh)
    while window:
        _, pkt = window.popitem(last=False)
        emit(pkt)
    return out


def useful_data_fraction(packets: List[CoalescedRequest], flit_bytes: int = 16) -> float:
    """Demanded FLIT bytes / transferred payload bytes.

    1.0 means no overfetch; the section-2.3.2 worst case (one 64-bit word
    per 256 B packet) approaches 16/256 = 6.25 % at FLIT granularity.
    """
    payload = sum(p.size for p in packets)
    if payload == 0:
        return 0.0
    useful = 0
    for p in packets:
        distinct = {r.addr // flit_bytes for r in p.requests}
        useful += len(distinct) * flit_bytes
    return useful / payload
