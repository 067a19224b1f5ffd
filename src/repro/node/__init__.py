"""Cache-less multicore node and NUMA system models (paper section 3)."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    core=("CoreStats", "InOrderCore"),
    interconnect=("Interconnect",),
    lsq=("LoadStoreQueue",),
    mt_core=("MTCoreStats", "MultithreadedCore"),
    node=("Node", "NodeStats"),
    spm=("ScratchpadMemory",),
    system=("NUMASystem", "SystemStats", "interleaved_home"),
)

__all__ = [
    "CoreStats",
    "InOrderCore",
    "Interconnect",
    "LoadStoreQueue",
    "MTCoreStats",
    "MultithreadedCore",
    "NUMASystem",
    "Node",
    "NodeStats",
    "ScratchpadMemory",
    "SystemStats",
    "interleaved_home",
]
