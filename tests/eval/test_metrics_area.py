"""Metric (Eqs. 1-3) and area-model tests against the paper's anchors."""

import pytest
from hypothesis import given, strategies as st

from repro.core.config import MACConfig
from repro.eval import metrics
from repro.eval.area import arq_bytes, builder_bytes, mac_area


class TestEq1BandwidthEfficiency:
    def test_paper_anchors(self):
        """Fig. 3's endpoints: 33.33 % at 16 B, 88.89 % at 256 B."""
        assert metrics.bandwidth_efficiency(16) == pytest.approx(1 / 3)
        assert metrics.bandwidth_efficiency(256) == pytest.approx(0.8889, abs=1e-4)
        assert metrics.control_overhead_fraction(16) == pytest.approx(2 / 3)
        assert metrics.control_overhead_fraction(256) == pytest.approx(0.1111, abs=1e-4)

    def test_improvement_factor_2_67(self):
        """Section 2.2.2: 256 B improves on 16 B by a factor of 2.67."""
        ratio = metrics.bandwidth_efficiency(256) / metrics.bandwidth_efficiency(16)
        assert ratio == pytest.approx(2.67, abs=0.01)

    @given(size=st.integers(1, 4096))
    def test_monotone_in_size(self, size):
        assert metrics.bandwidth_efficiency(size + 1) > metrics.bandwidth_efficiency(size)

    def test_validation(self):
        with pytest.raises(ValueError):
            metrics.bandwidth_efficiency(0)
        with pytest.raises(ValueError):
            metrics.bandwidth_efficiency(16, overhead_bytes=-1)


class TestEq2RPC:
    def test_formula(self):
        assert metrics.requests_per_cycle(1.0, 0.5, 8, 0.5) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            metrics.requests_per_cycle(0, 0.5, 8, 0.5)
        with pytest.raises(ValueError):
            metrics.requests_per_cycle(1, 0.5, 0, 0.5)


class TestSpeedup:
    def test_definition(self):
        assert metrics.speedup(100, 40) == pytest.approx(0.6)
        assert metrics.speedup(100, 100) == 0.0
        assert metrics.speedup(100, 150) == pytest.approx(-0.5)
        with pytest.raises(ValueError):
            metrics.speedup(0, 10)


class TestAreaModel:
    def test_fig16_endpoints(self):
        assert arq_bytes(8) == 512
        assert arq_bytes(256) == 16 << 10

    def test_builder_is_14_bytes(self):
        """Section 5.3.3: FLIT-map latch (2 B) + FLIT table (12 B)."""
        assert builder_bytes() == 14

    def test_total_2062_bytes(self):
        """Section 5.3.3: 32-entry MAC = 2048 + 14 = 2062 B."""
        report = mac_area()
        assert report.total_bytes == 2062
        assert report.comparators == 32
        assert report.or_gates == 4

    def test_scales_with_entries(self):
        r = mac_area(MACConfig(arq_entries=128))
        assert r.arq_bytes == 8192
        assert r.comparators == 128

    def test_invalid(self):
        with pytest.raises(ValueError):
            arq_bytes(0)
