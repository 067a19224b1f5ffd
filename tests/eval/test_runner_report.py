"""Runner machinery and report formatting tests."""

import pytest

from repro.core.mac import MAC
from repro.core.stats import MACStats
from repro.eval.report import format_comparison, format_table, human_bytes, pct
from repro.eval.runner import (
    TraceCache,
    cached_trace,
    clear_trace_cache,
    compare_policies,
    dispatch,
    replay_on_device,
    set_trace_cache_limit,
    trace_cache_info,
    warm_trace_cache,
)
from repro.workloads import graphs
from repro.workloads.grappolo import _community_graph


class TestCachedTrace:
    def test_is_cached(self):
        a = cached_trace("SG", 2, 200)
        b = cached_trace("SG", 2, 200)
        assert a is b

    def test_distinct_keys(self):
        assert cached_trace("SG", 2, 200) is not cached_trace("SG", 2, 201)

    def test_clear_forces_regeneration(self):
        a = cached_trace("SG", 2, 200)
        clear_trace_cache()
        b = cached_trace("SG", 2, 200)
        assert a is not b
        assert a == b  # same seed, same trace — only the object is new

    def test_clear_drops_memoized_graphs(self):
        cached_trace("BFS", 2, 50)
        cached_trace("GRAPPOLO", 2, 50)
        assert graphs._rmat_csr.cache_info().currsize >= 1
        clear_trace_cache()
        assert graphs._rmat_csr.cache_info().currsize == 0
        assert _community_graph.cache_info().currsize == 0

    def test_warm_then_hit(self):
        clear_trace_cache()
        warm_trace_cache([("SG", 2, 200, 2019)])
        before = trace_cache_info()["hits"]
        cached_trace("SG", 2, 200, 2019)
        assert trace_cache_info()["hits"] == before + 1

    def test_info_reports_occupancy(self):
        clear_trace_cache()
        cached_trace("SG", 2, 200)
        info = trace_cache_info()
        assert info["size"] == 1
        assert info["maxsize"] >= 1

    def test_limit_evicts_oldest(self):
        clear_trace_cache()
        try:
            set_trace_cache_limit(1)
            a = cached_trace("SG", 2, 200)
            cached_trace("IS", 2, 200)  # evicts the SG trace
            assert trace_cache_info()["size"] == 1
            assert cached_trace("SG", 2, 200) is not a
        finally:
            set_trace_cache_limit(32)
            clear_trace_cache()


class TestTraceCache:
    def test_lru_eviction_order(self):
        cache = TraceCache(maxsize=2)
        cache.get("a", lambda: (1,))
        cache.get("b", lambda: (2,))
        cache.get("a", lambda: (1,))  # refresh "a"; "b" is now oldest
        cache.get("c", lambda: (3,))  # evicts "b"
        assert cache.get("a", lambda: ("regen",)) == (1,)
        assert cache.get("b", lambda: ("regen",)) == ("regen",)

    def test_hit_miss_counters(self):
        cache = TraceCache(maxsize=4)
        cache.get("k", lambda: (1,))
        cache.get("k", lambda: (1,))
        assert cache.info() == {"size": 1, "maxsize": 4, "hits": 1, "misses": 1}

    def test_resize_shrinks(self):
        cache = TraceCache(maxsize=4)
        for k in "abcd":
            cache.get(k, lambda: (k,))
        cache.resize(2)
        assert len(cache) == 2

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            TraceCache(maxsize=0)
        with pytest.raises(ValueError):
            TraceCache(maxsize=4).resize(0)


class TestDispatch:
    def test_mac_policy(self):
        res = dispatch("SG", "mac", threads=2, ops_per_thread=300)
        assert res.stats.coalescing_efficiency > 0
        assert res.packets

    def test_raw_policy_no_coalescing(self):
        res = dispatch("SG", "raw", threads=2, ops_per_thread=300)
        assert res.stats.coalescing_efficiency == 0.0
        assert all(p.size == 16 for p in res.packets)

    def test_cycle_policy_agrees_roughly(self):
        fast = dispatch("SG", "mac", threads=2, ops_per_thread=300)
        cyc = dispatch("SG", "mac-cycle", threads=2, ops_per_thread=300)
        assert (
            abs(
                fast.stats.coalescing_efficiency
                - cyc.stats.coalescing_efficiency
            )
            < 0.25
        )

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            dispatch("SG", "nope")

    def test_attach_stats_rebinds_every_component(self):
        # Regression: dispatch used to rewire mac.stats and the
        # aggregator's stats by hand; a component missed by that piecemeal
        # rewiring would record into an orphaned MACStats.
        mac = MAC()
        stats = MACStats()
        mac.attach_stats(stats)
        assert mac.stats is stats
        assert mac.aggregator.stats is stats

    def test_engines_agree_on_raw_request_count(self):
        # Window engine and cycle engine must see the identical request
        # stream; if the cycle engine recorded into an orphaned stats
        # object this count would read zero.
        fast = dispatch("SG", "mac", threads=2, ops_per_thread=300)
        cyc = dispatch("SG", "mac-cycle", threads=2, ops_per_thread=300)
        assert cyc.stats.raw_requests == fast.stats.raw_requests > 0
        assert cyc.stats.memory_raw_requests == fast.stats.memory_raw_requests


class TestReplay:
    def test_raw_vs_mac(self):
        res = compare_policies("SG", threads=2, ops_per_thread=400)
        assert res["raw"].bank_conflicts >= res["mac"].bank_conflicts
        assert res["raw"].wire_bytes > res["mac"].wire_bytes

    def test_negative_cadence_rejected(self):
        with pytest.raises(ValueError):
            replay_on_device([], cycles_per_packet=-1)


class TestReport:
    def test_format_table(self):
        text = format_table(["a", "bee"], [[1, 2.34567], ["x", "y"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bee" in lines[1]
        assert "2.346" in text

    def test_format_comparison_with_paper(self):
        text = format_comparison("t", {"SG": 0.6}, paper={"SG": 0.62})
        assert "0.62" in text and "0.6" in text

    def test_pct(self):
        assert pct(0.5286) == "52.86%"

    def test_human_bytes(self):
        assert human_bytes(512) == "512 B"
        assert human_bytes(2048) == "2.00 KiB"
        assert "GiB" in human_bytes(22.76 * (1 << 30))
