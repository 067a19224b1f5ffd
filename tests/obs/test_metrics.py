"""Unit tests for the histogram primitive and the registry."""

import pickle
from dataclasses import dataclass

import pytest

from repro.obs import Histogram, MetricsRegistry, StatsMixin, flatten

pytestmark = pytest.mark.obs


@dataclass
class _Hits(StatsMixin):
    value: int = 0


class TestHistogram:
    def test_exact_quantiles_match_sorted_interpolation(self):
        h = Histogram()
        for v in (10, 20, 30, 40, 100):
            h.add(v)
        assert h.exact
        assert h.quantile(0.0) == 10
        assert h.quantile(0.25) == 20
        assert h.quantile(0.5) == 30
        assert h.quantile(1.0) == 100

    def test_quantile_range_check(self):
        with pytest.raises(ValueError):
            Histogram().quantile(1.5)

    def test_empty(self):
        h = Histogram()
        assert h.quantile(0.5) == 0.0
        assert h.mean == 0.0
        assert h.count == 0

    def test_bounded_memory_beyond_sample_limit(self):
        h = Histogram(sample_limit=16)
        for v in range(1000):
            h.add(v)
        assert h.count == 1000
        assert len(h.samples) == 16
        assert not h.exact
        assert h.min == 0 and h.max == 999

    def test_bucket_quantile_monotone_and_in_range(self):
        h = Histogram(sample_limit=4)
        for v in range(1, 501):
            h.add(v)
        last = 0.0
        for q in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
            val = h.quantile(q)
            assert h.min <= val <= h.max
            assert val >= last
            last = val

    def test_pickle_roundtrip(self):
        h = Histogram()
        h.add(42)
        assert pickle.loads(pickle.dumps(h)) == h

    def test_snapshot_keys(self):
        h = Histogram()
        h.add(3)
        snap = h.snapshot()
        assert set(snap) == {
            "count", "total", "dropped", "min", "max", "mean", "p50", "p99",
            "buckets",
        }
        assert snap["buckets"] == {"4": 1}
        assert snap["dropped"] == 0

    def test_dropped_counts_overflow_beyond_sample_limit(self):
        h = Histogram(sample_limit=4)
        for v in range(10):
            h.add(v)
        assert len(h.samples) == 4
        assert h.dropped == 6
        assert not h.exact
        assert h.snapshot()["dropped"] == 6
        # The prefix is arrival-ordered, not a reservoir.
        assert h.samples == [0, 1, 2, 3]

    def test_dropped_tracks_bulk_adds(self):
        h = Histogram(sample_limit=3)
        h.add(5, n=10)
        assert h.dropped == 7
        h.add(7, n=2)
        assert h.count == 12
        assert h.dropped == 9  # a full sample prefix does not grow
        assert h.samples == [5, 5, 5]


class TestRegistry:
    def test_flatten(self):
        assert flatten({"a": {"b": 1}, "c": 2}) == {"a.b": 1, "c": 2}

    def test_collect_namespaces_and_sources(self):
        reg = MetricsRegistry()
        reg.register("ctr", _Hits(3))
        reg.register("fn", lambda: {"x": {"y": 1}})
        reg.register("raw", {"z": 9})
        out = reg.collect()
        assert out == {"ctr.value": 3, "fn.x.y": 1, "raw.z": 9}

    def test_rejects_dots_and_duplicates(self):
        reg = MetricsRegistry()
        reg.register("a", _Hits())
        with pytest.raises(ValueError):
            reg.register("a", _Hits())
        with pytest.raises(ValueError):
            reg.register("a.b", _Hits())

    def test_bad_source(self):
        reg = MetricsRegistry()
        reg.register("bad", 42)
        with pytest.raises(TypeError):
            reg.collect()
