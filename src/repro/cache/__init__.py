"""Cache substrate for the motivation study and MSHR baseline (Fig. 1, section 2.3)."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    cache=("CacheStats", "SetAssociativeCache"),
    hierarchy=("CacheHierarchy", "HierarchyStats"),
    mshr=("MSHREntry", "MSHRFile", "MSHRStats"),
)

__all__ = [
    "CacheHierarchy",
    "CacheStats",
    "HierarchyStats",
    "MSHREntry",
    "MSHRFile",
    "MSHRStats",
    "SetAssociativeCache",
]
