"""Cache substrate for the motivation study (Fig. 1)."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    cache=("CacheStats", "SetAssociativeCache"),
    hierarchy=("CacheHierarchy", "HierarchyStats"),
)

__all__ = [
    "CacheHierarchy",
    "CacheStats",
    "HierarchyStats",
    "SetAssociativeCache",
]
