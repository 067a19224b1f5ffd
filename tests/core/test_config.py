"""Unit tests for MACConfig / SystemConfig."""

import pytest

from repro.core.config import MACConfig, PAPER_CONFIG, PAPER_SYSTEM


class TestMACConfigDefaults:
    """The defaults must reproduce Table 1 and sections 4.1-4.4."""

    def test_table1_values(self):
        cfg = PAPER_CONFIG
        assert cfg.arq_entries == 32
        assert cfg.arq_entry_bytes == 64
        assert cfg.row_bytes == 256
        assert cfg.flit_bytes == 16

    def test_flits_per_row(self):
        assert PAPER_CONFIG.flits_per_row == 16

    def test_groups(self):
        # Builder stage 1 partitions 16 FLITs into 4 groups of 4.
        assert PAPER_CONFIG.groups_per_row == 4
        assert PAPER_CONFIG.flits_per_group == 4

    def test_offset_bits(self):
        # Fig. 5: bits 0..3 FLIT offset, bits 4..7 FLIT number.
        assert PAPER_CONFIG.flit_offset_bits == 4
        assert PAPER_CONFIG.row_offset_bits == 8

    def test_target_capacity_is_12(self):
        # Section 5.3.3: (64 - 10) / 4.5 = 12 targets per entry.
        assert PAPER_CONFIG.target_capacity == 12

    def test_bypass_threshold_is_half(self):
        assert PAPER_CONFIG.bypass_threshold == 16

    def test_issue_rate(self):
        # Section 4.4: 0.5 requests per cycle.
        assert PAPER_CONFIG.pop_interval == 2
        assert PAPER_CONFIG.accepts_per_cycle == 1


class TestMACConfigValidation:
    def test_zero_entries_rejected(self):
        with pytest.raises(ValueError):
            MACConfig(arq_entries=0)

    def test_row_not_flit_multiple_rejected(self):
        with pytest.raises(ValueError):
            MACConfig(row_bytes=250)

    def test_request_bigger_than_row_rejected(self):
        with pytest.raises(ValueError):
            MACConfig(max_request_bytes=512, row_bytes=256)

    def test_wide_flit_map_rejected(self):
        with pytest.raises(ValueError):
            MACConfig(row_bytes=2048, flit_bytes=16)  # 128 > 64 bits

    def test_zero_pop_interval_rejected(self):
        with pytest.raises(ValueError):
            MACConfig(pop_interval=0)

    def test_misaligned_min_request_rejected(self):
        with pytest.raises(ValueError):
            MACConfig(min_request_bytes=60)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            MACConfig().arq_entries = 64

    @pytest.mark.parametrize(
        "field,value,extra",
        [
            # 192 B rows would decode address 64 to FLIT 0 and address
            # 192 to row 0: the codec masks with row_bytes - 1.
            ("row_bytes", 192, {"max_request_bytes": 192}),
            ("flit_bytes", 12, {}),
            ("min_request_bytes", 48, {}),
        ],
    )
    def test_non_power_of_two_geometry_rejected(self, field, value, extra):
        with pytest.raises(ValueError, match=f"{field} must be a power of two, got {value}"):
            MACConfig(**{field: value, **extra})

    @pytest.mark.parametrize("value", [32, 96])
    def test_max_request_must_be_power_of_two_chunks(self, value):
        with pytest.raises(ValueError, match=f"max_request_bytes .* got {value}"):
            MACConfig(max_request_bytes=value)

    def test_entry_without_target_room_rejected(self):
        with pytest.raises(ValueError, match="arq_entry_bytes=12 .*target_capacity=0"):
            MACConfig(arq_entry_bytes=12)

    @pytest.mark.parametrize("field", ["accepts_per_cycle", "builder_stage1_cycles"])
    @pytest.mark.parametrize("value", [0, 2])
    def test_inert_fields_only_take_the_modelled_value(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be 1 .*got {value}"):
            MACConfig(**{field: value})



class TestAlternativeGeometries:
    def test_hbm_row(self):
        # Section 4.3: HBM's 1 KB rows just enlarge the FLIT map/table.
        cfg = MACConfig(row_bytes=1024, max_request_bytes=256)
        assert cfg.flits_per_row == 64
        assert cfg.groups_per_row == 16
        assert cfg.row_offset_bits == 10

    def test_small_arq(self):
        cfg = MACConfig(arq_entries=8)
        assert cfg.bypass_threshold == 4

    def test_capacity_scales_with_entry_bytes(self):
        big = MACConfig(arq_entry_bytes=128)
        assert big.target_capacity == (128 - 10) * 2 // 9


class TestSystemConfig:
    def test_table1(self):
        s = PAPER_SYSTEM
        assert s.cores == 8
        assert s.cpu_freq_ghz == 3.3
        assert s.spm_bytes == 1 << 20
        assert s.hmc_links == 4
        assert s.hmc_capacity_gb == 8

    def test_latency_conversion(self):
        s = PAPER_SYSTEM
        # 93 ns at 3.3 GHz ~ 307 cycles; 1 ns SPM ~ 3 cycles.
        assert s.hmc_latency_cycles == round(93 * 3.3)
        assert s.spm_latency_cycles == 3
