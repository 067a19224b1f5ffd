"""Cross-subsystem consistency checks tying the whole library together."""

import pytest

from repro.core.config import MACConfig
from repro.eval.energy import energy_saving
from repro.eval.runner import cached_trace, compare_policies, dispatch
from repro.trace.predictor import predict_efficiency


class TestMetricConsistency:
    """Independent computations of the same quantity must agree."""

    @pytest.mark.parametrize("name", ["SG", "MG", "IS"])
    def test_predictor_analyzer_engine_triangle(self, name):
        """The closed-form window predictor is the engine's exact oracle."""
        trace = cached_trace(name, 4, 800)
        cfg = MACConfig()
        engine = dispatch(name, "mac", 4, 800).stats.coalescing_efficiency
        predicted = predict_efficiency(trace, cfg).predicted_efficiency
        assert predicted == pytest.approx(engine, abs=1e-12)

    def test_wire_accounting_closes(self):
        """MAC-side wire-byte accounting equals device-side FLIT count."""
        res = dispatch("SG", "mac", 2, 500)
        from repro.eval.runner import replay_on_device

        replay = replay_on_device(res.packets)
        assert replay.wire_bytes == res.stats.coalesced_wire_bytes

    def test_targets_vs_efficiency_identity(self):
        """avg targets/packet == raw/packets == 1/(1-efficiency)."""
        st = dispatch("GRAPPOLO", "mac", 4, 800).stats
        assert st.avg_targets_per_packet == pytest.approx(
            st.memory_raw_requests / st.coalesced_packets
        )
        assert st.avg_targets_per_packet == pytest.approx(
            1 / (1 - st.coalescing_efficiency)
        )

    def test_energy_conflict_latency_all_point_the_same_way(self):
        """On a coalescable workload, every axis improves together."""
        res = compare_policies("MG", 2, 600)
        raw_pkts = dispatch("MG", "raw", 2, 600).packets
        mac_pkts = dispatch("MG", "mac", 2, 600).packets
        assert res["mac"].bank_conflicts < res["raw"].bank_conflicts
        assert res["mac"].wire_bytes < res["raw"].wire_bytes
        assert res["mac"].mean_latency < res["raw"].mean_latency
        assert energy_saving(raw_pkts, mac_pkts) > 0


class TestScaleInvariance:
    """Ratio metrics must be stable across trace lengths (DESIGN.md
    substitution 3's premise)."""

    def test_efficiency_stable_under_2x_trace(self):
        short = dispatch("SP", "mac", 4, 800).stats.coalescing_efficiency
        long_ = dispatch("SP", "mac", 4, 1600).stats.coalescing_efficiency
        assert abs(short - long_) < 0.05

    def test_bandwidth_efficiency_stable(self):
        a = dispatch("SORT", "mac", 4, 700).stats.coalesced_bandwidth_efficiency
        b = dispatch("SORT", "mac", 4, 1400).stats.coalesced_bandwidth_efficiency
        assert abs(a - b) < 0.05


class TestSeedSensitivity:
    def test_different_seeds_same_regime(self):
        """Efficiency is a property of the pattern, not the seed."""
        effs = []
        for seed in (1, 2019, 77777):
            trace = dispatch("BFS", "mac", 4, 800, seed=seed)
            effs.append(trace.stats.coalescing_efficiency)
        assert max(effs) - min(effs) < 0.12
