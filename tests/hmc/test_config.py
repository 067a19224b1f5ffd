"""Unit tests for HMC geometry/protocol configuration."""

import pytest

from repro.faults import FaultConfig
from repro.hmc.config import HMCConfig, PAPER_HMC


class TestGeometry:
    def test_paper_cube(self):
        # Section 2.2.1: an 8 GB HMC has 512 banks; Table 1: 4 links.
        assert PAPER_HMC.capacity_bytes == 8 << 30
        assert PAPER_HMC.total_banks == 512
        assert PAPER_HMC.links == 4
        assert PAPER_HMC.vaults == 32
        assert PAPER_HMC.banks_per_vault == 16
        assert PAPER_HMC.row_bytes == 256

    def test_validation(self):
        with pytest.raises(ValueError):
            HMCConfig(vaults=33)
        with pytest.raises(ValueError):
            HMCConfig(banks_per_vault=3)
        with pytest.raises(ValueError):
            HMCConfig(row_bytes=300)
        with pytest.raises(ValueError):
            HMCConfig(max_request_bytes=512)
        with pytest.raises(ValueError):
            HMCConfig(links=0)

    @pytest.mark.parametrize(
        "faults,bad",
        [
            (dict(dead_links=(4,)), 4),
            (dict(dead_links=(0, 7)), 7),
            (dict(degraded_links=((5, 2.0),)), 5),
        ],
        ids=["dead-4", "dead-7", "degraded-5"],
    )
    def test_out_of_range_link_fault_rejected(self, faults, bad):
        with pytest.raises(ValueError, match=rf"link {bad}\b.*4 links"):
            HMCConfig(faults=FaultConfig.simple(**faults))

    def test_link_fault_on_last_link_accepted(self):
        cfg = HMCConfig(faults=FaultConfig.simple(dead_links=(3,)))
        assert cfg.links == 4
        with pytest.raises(ValueError, match=r"link 3\b.*2 links"):
            HMCConfig(links=2, faults=FaultConfig.simple(dead_links=(3,)))


class TestAddressMapping:
    def test_vault_and_bank_in_range(self):
        for addr in range(0, 1 << 20, 4093):
            assert 0 <= PAPER_HMC.vault_of(addr) < 32
            assert 0 <= PAPER_HMC.bank_of(addr) < 16

    def test_same_row_same_bank(self):
        """Every byte of one 256 B row maps to the same vault+bank."""
        base = 0xABCD00
        v, b = PAPER_HMC.vault_of(base), PAPER_HMC.bank_of(base)
        for off in range(0, 256, 16):
            assert PAPER_HMC.vault_of(base + off) == v
            assert PAPER_HMC.bank_of(base + off) == b

    def test_consecutive_rows_spread_vaults(self):
        """Row-interleaving: consecutive rows land on distinct vaults."""
        vaults = {PAPER_HMC.vault_of(r << 8) for r in range(32)}
        assert len(vaults) == 32

    def test_power_of_two_strides_do_not_alias(self):
        """The XOR fold spreads 8 KB-strided streams (tiled matrices)."""
        vaults = {PAPER_HMC.vault_of(i * 8192) for i in range(64)}
        assert len(vaults) > 8


class TestFlitArithmetic:
    def test_data_flits(self):
        assert PAPER_HMC.data_flits(16) == 1
        assert PAPER_HMC.data_flits(17) == 2
        assert PAPER_HMC.data_flits(256) == 16

    def test_read_flits(self):
        # Read: 1-FLIT request, (data + 1) response.
        assert PAPER_HMC.request_flits(64, is_write=False) == 1
        assert PAPER_HMC.response_flits(64, is_write=False) == 5

    def test_write_flits(self):
        # Write: (data + 1) request, 1-FLIT response.
        assert PAPER_HMC.request_flits(64, is_write=True) == 5
        assert PAPER_HMC.response_flits(64, is_write=True) == 1

    def test_control_overhead_is_32B_per_access(self):
        """Section 2.2.2: 32 B control per access, read or write."""
        for size in (16, 64, 256):
            for w in (True, False):
                total = PAPER_HMC.request_flits(size, w) + PAPER_HMC.response_flits(
                    size, w
                )
                assert total * 16 - size == 32

    def test_columns(self):
        assert PAPER_HMC.columns(16) == 1
        assert PAPER_HMC.columns(64) == 2
        assert PAPER_HMC.columns(256) == 8

    def test_data_flits_invalid(self):
        with pytest.raises(ValueError):
            PAPER_HMC.data_flits(0)
