"""Conventional DDR4 substrate (paper section 2.2's comparison point).

Open-page banks, an FR-FCFS row-hit-harvesting controller (section
2.2.1's conventional approach) and a 64 B-granularity channel device —
used to quantify why DDR-side aggregation cannot replace processor-side
coalescing for irregular traffic, and why it is unavailable on the
closed-page HMC at all.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    bank=("AccessKind", "DDRBank"),
    controller=("ControllerStats", "FRFCFSController", "QueuedRequest"),
    device=("DDRConfig", "DDRDevice", "DDRStats"),
    timing=("DDRTiming",),
)

__all__ = [
    "AccessKind",
    "ControllerStats",
    "DDRBank",
    "DDRConfig",
    "DDRDevice",
    "DDRStats",
    "DDRTiming",
    "FRFCFSController",
    "QueuedRequest",
]
