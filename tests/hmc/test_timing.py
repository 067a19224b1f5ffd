"""Timing-model arithmetic and validation tests."""

import pytest

from repro.hmc.timing import TIMING_FIELDS, HMCTiming


class TestTiming:
    def test_defaults_positive(self):
        t = HMCTiming()
        assert t.t_activate > 0 and t.t_column > 0 and t.t_precharge > 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            HMCTiming(t_activate=-1)

    @pytest.mark.parametrize("name", TIMING_FIELDS)
    def test_every_field_rejects_negative(self, name):
        with pytest.raises(ValueError, match=name):
            HMCTiming(**{name: -1})

    @pytest.mark.parametrize("name", TIMING_FIELDS)
    def test_every_field_rejects_non_integer(self, name):
        with pytest.raises(ValueError, match="integer cycle count"):
            HMCTiming(**{name: 1.5})

    @pytest.mark.parametrize("name", TIMING_FIELDS)
    def test_zero_is_legal(self, name):
        # A zero-cycle stage is well defined: nothing divides by a timing.
        assert getattr(HMCTiming(**{name: 0}), name) == 0

    def test_timing_fields_cover_every_dataclass_field(self):
        assert set(TIMING_FIELDS) == set(HMCTiming.__dataclass_fields__)

    def test_burst_scaling(self):
        t = HMCTiming()
        assert t.burst_cycles(8) == 8 * t.cycles_per_column

    def test_bank_occupancy_composition(self):
        t = HMCTiming()
        assert t.bank_occupancy(2) == (
            t.t_activate + t.t_column + 2 * t.cycles_per_column + t.t_precharge
        )

    def test_unloaded_latency_composition(self):
        t = HMCTiming()
        lat = t.unloaded_read_latency(request_flits=1, response_flits=2, columns=1)
        expected = (
            1 * t.cycles_per_flit
            + t.link_latency
            + t.crossbar_latency
            + t.vault_processing
            + t.t_activate
            + t.t_column
            + t.cycles_per_column
            + t.crossbar_latency
            + t.link_latency
            + 2 * t.cycles_per_flit
        )
        assert lat == expected

    def test_custom_timing_frozen(self):
        t = HMCTiming()
        with pytest.raises(AttributeError):
            t.link_latency = 5
