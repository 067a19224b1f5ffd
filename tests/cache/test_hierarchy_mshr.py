"""Cache hierarchy tests."""

from repro.cache.hierarchy import CacheHierarchy
from repro.core.request import RequestType
from repro.trace.record import TraceRecord


class TestHierarchy:
    def test_llc_catches_l1_misses(self):
        h = CacheHierarchy(cores=2, l1_bytes=512, llc_bytes=4096, prefetch=False)
        h.access(0, 0x1000)  # cold: misses both
        # Evict from the single-set L1 (8 ways) with 10 conflicting
        # lines; the 16-way LLC set still holds all 11, so the re-access
        # hits in the LLC only.
        for i in range(1, 11):
            h.access(0, 0x1000 + i * 512)
        h.access(0, 0x1000)
        assert h.stats.llc_misses < h.stats.l1_misses

    def test_miss_rate_definition(self):
        h = CacheHierarchy(cores=1, prefetch=False)
        h.access(0, 0x100)
        h.access(0, 0x100)
        assert h.stats.miss_rate == 0.5  # 1 of 2 reached memory

    def test_run_trace_skips_fences(self):
        h = CacheHierarchy(cores=1, prefetch=False)
        trace = [
            TraceRecord(RequestType.LOAD, 0x100),
            TraceRecord(RequestType.FENCE, 0),
            TraceRecord(RequestType.STORE, 0x100),
        ]
        h.run_trace(trace)
        assert h.stats.accesses == 2

    def test_cores_have_private_l1(self):
        h = CacheHierarchy(cores=2, prefetch=False)
        h.access(0, 0x100)
        h.access(1, 0x100)  # other core's L1 misses, LLC hits
        assert h.stats.l1_misses == 2
        assert h.stats.llc_misses == 1
