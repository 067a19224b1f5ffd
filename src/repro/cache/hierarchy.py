"""Two-level cache hierarchy used for the Fig. 1 miss-rate analysis.

Models the conventional cache-based processor the paper contrasts with:
a private L1 per core and a shared LLC, both LRU; the L1 runs a
next-line prefetcher (sequential streams hit; random gathers do not).
The reported *miss rate* is the fraction of processor accesses that
reach main memory (miss in every level), matching Fig. 1's framing that
a miss "requires both accessing the main memory and handling the cache
miss itself".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from repro.core.request import RequestType
from repro.obs.protocol import StatsMixin

from .cache import SetAssociativeCache


@dataclass
class HierarchyStats(StatsMixin):
    SNAPSHOT_DERIVED = ("miss_rate", "l1_miss_rate")

    accesses: int = 0
    l1_misses: int = 0
    llc_misses: int = 0

    @property
    def miss_rate(self) -> float:
        """Fraction of accesses that reach main memory."""
        return self.llc_misses / self.accesses if self.accesses else 0.0

    @property
    def l1_miss_rate(self) -> float:
        return self.l1_misses / self.accesses if self.accesses else 0.0


class CacheHierarchy:
    """Private L1s + shared LLC for a multicore trace."""

    def __init__(
        self,
        cores: int = 8,
        l1_bytes: int = 32 << 10,
        llc_bytes: int = 8 << 20,
        line_bytes: int = 64,
        l1_ways: int = 8,
        llc_ways: int = 16,
        prefetch: bool = True,
    ) -> None:
        self.l1s: List[SetAssociativeCache] = [
            SetAssociativeCache(
                l1_bytes, line_bytes, l1_ways, prefetch_next_line=prefetch, name=f"L1.{c}"
            )
            for c in range(cores)
        ]
        self.llc = SetAssociativeCache(
            llc_bytes, line_bytes, llc_ways, prefetch_next_line=False, name="LLC"
        )
        self.stats = HierarchyStats()

    def access(self, core: int, addr: int) -> bool:
        """One demand access; returns True when served by some cache level."""
        self.stats.accesses += 1
        l1 = self.l1s[core % len(self.l1s)]
        if l1.access(addr):
            return True
        self.stats.l1_misses += 1
        if self.llc.access(addr):
            return True
        self.stats.llc_misses += 1
        return False

    def run_trace(self, records: Iterable[Tuple[int, ...]]) -> HierarchyStats:
        """Replay every load/store of a trace (``TraceRecord`` tuples or
        a packed trace's int tuples) through the hierarchy."""
        data_ops = (RequestType.LOAD, RequestType.STORE)
        for op, addr, _size, _tid, core, _cycle in records:
            if op in data_ops:
                self.access(core, addr)
        return self.stats
