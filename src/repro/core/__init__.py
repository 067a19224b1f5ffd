"""The MAC core: the paper's primary contribution (sections 3-4).

Public surface:

* :class:`MACConfig`, :class:`SystemConfig` — configuration (Table 1).
* :class:`MemoryRequest`, :class:`RequestType` — raw request primitives
  (a request's TID, tag and address FLIT id are its target word).
* :class:`AddressCodec` — physical address layout (Fig. 5).
* :class:`FlitTablePolicy` — how the FLIT table sizes packets (Fig. 8).
* :class:`AggregatedRequestQueue`, :class:`ARQEntry` — the ARQ.
* :class:`RawRequestAggregator` — cycle model of the intake stage.
* :class:`RequestBuilder` — the two-stage pipelined builder.
* :class:`RequestRouter`, :class:`ResponseRouter`, :class:`FIFOQueue` —
  node front-end routing (sections 3.1/3.3).
* :class:`MAC` — the fully wired coalescer (cycle engine).
* :func:`coalesce_trace_fast` — steady-state window engine for sweeps.
* :class:`CoalescedRequest`, :class:`CoalescedResponse` — device-side
  transaction types.
* :class:`MACStats` — evaluation counters.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    address=("AddressCodec",),
    aggregator=("RawRequestAggregator",),
    arq=("AggregatedRequestQueue", "ARQEntry"),
    builder=("RequestBuilder", "bypass_packet"),
    config=("MACConfig", "PAPER_CONFIG", "PAPER_SYSTEM", "SystemConfig"),
    flit_table=("FlitTablePolicy",),
    mac=("MAC", "coalesce_trace_fast"),
    packet=(
        "CONTROL_BYTES_PER_ACCESS", "CONTROL_BYTES_PER_PACKET", "CoalescedRequest",
        "CoalescedResponse",
    ),
    request=("MemoryRequest", "RequestType", "TARGET_BYTES"),
    router=("FIFOQueue", "RequestRouter", "ResponseRouter"),
    stats=("MACStats",),
)

__all__ = [
    "AddressCodec",
    "AggregatedRequestQueue",
    "ARQEntry",
    "CONTROL_BYTES_PER_ACCESS",
    "CONTROL_BYTES_PER_PACKET",
    "CoalescedRequest",
    "CoalescedResponse",
    "FIFOQueue",
    "FlitTablePolicy",
    "MAC",
    "MACConfig",
    "MACStats",
    "MemoryRequest",
    "PAPER_CONFIG",
    "PAPER_SYSTEM",
    "RawRequestAggregator",
    "RequestBuilder",
    "RequestRouter",
    "RequestType",
    "ResponseRouter",
    "SystemConfig",
    "TARGET_BYTES",
    "bypass_packet",
    "coalesce_trace_fast",
]
