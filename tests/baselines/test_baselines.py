"""Tests for the comparator dispatch policies."""

import pytest

from repro.baselines.direct import dispatch_raw
from repro.baselines.fixed import dispatch_fixed, useful_data_fraction
from repro.core.request import MemoryRequest, RequestType
from repro.core.stats import MACStats


def load(addr, tag=0):
    return MemoryRequest(addr=addr, rtype=RequestType.LOAD, tag=tag)


class TestDirectDispatch:
    def test_one_packet_per_request(self):
        reqs = [load(0xA00 + 16 * i, tag=i) for i in range(8)]
        pkts = dispatch_raw(reqs)
        assert len(pkts) == 8
        assert all(p.size == 16 for p in pkts)
        assert all(p.bypassed for p in pkts)

    def test_flit_alignment(self):
        pkts = dispatch_raw([load(0xA07)])
        assert pkts[0].addr == 0xA00

    def test_fences_skipped(self):
        st = MACStats()
        pkts = dispatch_raw(
            [load(0x100), MemoryRequest(addr=0, rtype=RequestType.FENCE)], stats=st
        )
        assert len(pkts) == 1
        assert st.raw_fences == 1

    def test_efficiency_is_exactly_one_third(self):
        """The Fig. 13 raw baseline: 16/(16+32) = 33.33 %."""
        st = MACStats()
        dispatch_raw([load(16 * i) for i in range(100)], stats=st)
        assert st.coalesced_bandwidth_efficiency == pytest.approx(1 / 3)
        assert st.coalescing_efficiency == 0.0


class TestFixed256:
    def test_always_full_row(self):
        pkts = dispatch_fixed([load(0xA10)])
        assert pkts[0].size == 256
        assert pkts[0].addr == 0xA00

    def test_useful_fraction_collapses_for_single_words(self):
        """Section 2.3.2: single-FLIT packets waste up to 93.75 % at
        FLIT granularity (15/16 of the row unused)."""
        pkts = dispatch_fixed([load(0xA10)])
        assert useful_data_fraction(pkts) == pytest.approx(16 / 256)

    def test_bandwidth_metric_looks_great_anyway(self):
        st = MACStats()
        dispatch_fixed([load(0xA10)], stats=st)
        assert st.coalesced_bandwidth_efficiency == pytest.approx(256 / 288)

    def test_conservation(self):
        reqs = [load((i % 40) << 8 | (i % 16) << 4, tag=i) for i in range(400)]
        pkts = dispatch_fixed(reqs)
        assert sum(p.raw_count for p in pkts) == 400

    def test_fully_used_row_fraction_is_one(self):
        reqs = [load(0xA00 | (f << 4), tag=f) for f in range(12)]
        pkts = dispatch_fixed(reqs)
        assert useful_data_fraction(pkts) == pytest.approx(12 * 16 / 256)

    def test_empty(self):
        assert useful_data_fraction([]) == 0.0
