"""HMCStats accounting tests."""

import pytest

from repro.hmc.stats import HMCStats


class TestRecording:
    def test_basic_accumulation(self):
        st = HMCStats()
        st.record(arrival=10, completion=110, size=64, conflicts_delta=1)
        st.record(arrival=20, completion=90, size=16, conflicts_delta=0)
        assert st.requests == 2
        assert st.payload_bytes == 80
        assert st.bank_conflicts == 1
        assert st.mean_latency == pytest.approx((100 + 70) / 2)
        assert st.makespan == 110 - 10

    def test_empty(self):
        st = HMCStats()
        assert st.mean_latency == 0.0
        assert st.makespan == 0
        assert st.p50_latency == 0.0


class TestPercentiles:
    def _filled(self):
        st = HMCStats()
        for lat in (10, 20, 30, 40, 100):
            st.record(0, lat, 16, 0)
        return st

    def test_median(self):
        assert self._filled().p50_latency == 30

    def test_extremes(self):
        st = self._filled()
        assert st.latency_percentile(0.0) == 10
        assert st.latency_percentile(1.0) == 100

    def test_interpolation(self):
        st = self._filled()
        assert st.latency_percentile(0.25) == 20

    def test_p99_near_max(self):
        st = self._filled()
        assert 40 < st.p99_latency <= 100

    def test_invalid_quantile(self):
        with pytest.raises(ValueError):
            self._filled().latency_percentile(1.5)


class TestBoundedLatencies:
    def test_latencies_compat_view(self):
        st = HMCStats()
        for lat in (10, 20, 30):
            st.record(0, lat, 16, 0)
        assert st.latencies == [10, 20, 30]

    def test_memory_stays_bounded(self):
        # Regression: ``latencies`` used to be an unbounded list — one
        # int per request forever.  The histogram keeps only a fixed
        # exact-sample prefix while every aggregate stays exact.
        st = HMCStats()
        n = st.latency_hist.sample_limit + 500
        for i in range(n):
            st.record(i, i + 100, 16, 0)
        assert st.requests == n
        assert st.latency_hist.count == n
        assert len(st.latencies) == st.latency_hist.sample_limit
        assert st.mean_latency == pytest.approx(100.0)
        assert st.makespan == (n - 1 + 100) - 0
        # Percentiles remain available (bucket-approximated past the
        # sample limit) and in range.
        assert 0 < st.p50_latency <= n + 100
