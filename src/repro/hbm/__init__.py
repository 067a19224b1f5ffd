"""HBM substrate — the section-4.3 applicability target of the MAC.

Same closed-page 3D stack concept as the HMC, different interface:
burst-train transfers on per-pseudo-channel DDR-style buses with a
separate command/address path instead of packetized FLITs.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    config=("HBMConfig",),
    device=("HBMDevice", "HBMStats"),
    timing=("HBMTiming",),
)

__all__ = ["HBMConfig", "HBMDevice", "HBMStats", "HBMTiming"]
