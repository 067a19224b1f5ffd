"""Comparator dispatch policies (paper sections 2.3 and 5.3)."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    direct=("dispatch_raw",),
    fixed=("dispatch_fixed", "useful_data_fraction"),
)

__all__ = ["dispatch_fixed", "dispatch_raw", "useful_data_fraction"]
