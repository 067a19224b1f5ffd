"""repro — reproduction of "MAC: Memory Access Coalescer for 3D-Stacked
Memory" (Wang et al., ICPP 2019).

Subpackages:

* :mod:`repro.core`      — the MAC itself (ARQ, FLIT table, builder,
  routers) plus the fast window engine.
* :mod:`repro.hmc`       — cycle-level Hybrid Memory Cube device model
  (the HMCSim-3.0 stand-in).
* :mod:`repro.node`      — cache-less multicore node and NUMA system.
* :mod:`repro.trace`     — memory tracing, efficiency predictor,
  execution stats.
* :mod:`repro.workloads` — the 12-benchmark synthetic evaluation suite.
* :mod:`repro.cache`     — cache hierarchy for the miss-rate study
  (Fig. 1).
* :mod:`repro.baselines` — comparator dispatch policies.
* :mod:`repro.eval`      — metrics, area model and per-figure drivers.

Quickstart::

    from repro import MAC, MACConfig, MemoryRequest, RequestType

    mac = MAC(MACConfig())
    mac.submit(MemoryRequest(addr=0x1000, rtype=RequestType.LOAD))
    packets = mac.run()
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    core=(
        "MAC", "AddressCodec", "CoalescedRequest", "CoalescedResponse",
        "FlitTablePolicy", "MACConfig", "MACStats", "MemoryRequest", "RequestType",
        "SystemConfig", "coalesce_trace_fast",
    ),
    hmc=("HMCConfig", "HMCDevice", "HMCTiming"),
    node=("Node", "NUMASystem", "ScratchpadMemory"),
)

__version__ = "1.0.0"

__all__ = [
    "AddressCodec",
    "CoalescedRequest",
    "CoalescedResponse",
    "FlitTablePolicy",
    "HMCConfig",
    "HMCDevice",
    "HMCTiming",
    "MAC",
    "MACConfig",
    "MACStats",
    "MemoryRequest",
    "NUMASystem",
    "Node",
    "RequestType",
    "ScratchpadMemory",
    "SystemConfig",
    "coalesce_trace_fast",
    "__version__",
]
