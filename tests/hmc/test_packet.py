"""Wire-level packet encoding tests."""

import pytest

from repro.core.builder import RequestBuilder
from repro.core.config import MACConfig
from repro.core.flit_table import FlitTablePolicy
from repro.core.packet import CoalescedRequest
from repro.core.request import RequestType
from repro.hmc.config import HMCConfig
from repro.hmc.packet import AddressMap, HMCCommand, encode

CFG = HMCConfig()


def mac_shapes():
    """Every (size, type) the MAC emits: FLIT-table plans under each
    policy and bypass packets for loads and stores, 16 B atomics."""
    mac = MACConfig()
    sizes = {mac.flit_bytes}
    for policy in FlitTablePolicy:
        for plan in RequestBuilder(mac, policy=policy).segments:
            sizes.update(size for _, size, _, _ in plan)
    shapes = [(size, rtype) for size in sorted(sizes)
              for rtype in (RequestType.LOAD, RequestType.STORE)]
    return shapes + [(mac.flit_bytes, RequestType.ATOMIC)]


def pkt(addr=0x1000, size=64, rtype=RequestType.LOAD):
    return CoalescedRequest(addr=addr, size=size, rtype=rtype)


class TestEncode:
    def test_read_flit_counts(self):
        w = encode(pkt(size=64), CFG)
        assert w.command is HMCCommand.RD
        assert w.request_flits == 1
        assert w.response_flits == 5
        assert w.payload_bytes == 64
        assert w.control_bytes == 32

    def test_write_flit_counts(self):
        w = encode(pkt(size=64, rtype=RequestType.STORE), CFG)
        assert w.command is HMCCommand.WR
        assert w.request_flits == 5
        assert w.response_flits == 1

    def test_atomic(self):
        w = encode(pkt(size=16, rtype=RequestType.ATOMIC), CFG)
        assert w.command is HMCCommand.ATOMIC

    def test_vault_bank_row_extracted(self):
        w = encode(pkt(addr=0xABCD00), CFG)
        assert w.vault == CFG.vault_of(0xABCD00)
        assert w.bank == CFG.bank_of(0xABCD00)
        assert w.dram_row == CFG.dram_row_of(0xABCD00)

    def test_wire_bytes(self):
        w = encode(pkt(size=256), CFG)
        assert w.wire_bytes == 288  # section 2.2.2 example

    def test_validation(self):
        with pytest.raises(ValueError):
            encode(pkt(size=512), CFG)
        with pytest.raises(ValueError):
            encode(pkt(addr=0x4, size=16), CFG)
        with pytest.raises(ValueError):
            encode(pkt(addr=0x1080, size=256), CFG)  # crosses row


class TestShapeCache:
    @pytest.mark.parametrize("size,rtype", mac_shapes())
    def test_matches_config_reference(self, size, rtype):
        amap = AddressMap.of(CFG)
        is_write = rtype is RequestType.STORE
        for _ in range(2):  # cold, then from the cache
            w = encode(pkt(addr=0x2000, size=size, rtype=rtype), CFG, amap)
            assert (w.request_flits, w.response_flits, w.columns) == (
                CFG.request_flits(size, is_write),
                CFG.response_flits(size, is_write),
                CFG.columns(size),
            )
            assert w.payload_bytes == size
        assert (size, rtype) in amap.shapes

    @pytest.mark.parametrize("size,message", [
        (8, "unsupported request size 8"),
        (512, "request of 512 B exceeds protocol max 256 B"),
    ])
    def test_bad_size_is_never_cached(self, size, message):
        amap = AddressMap.of(CFG)
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                encode(pkt(size=size), CFG, amap)
        assert amap.shapes == {}

    def test_address_checks_run_on_cached_shapes(self):
        amap = AddressMap.of(CFG)
        encode(pkt(addr=0x1000, size=16), CFG, amap)
        encode(pkt(addr=0x1000, size=128), CFG, amap)
        assert {(16, RequestType.LOAD), (128, RequestType.LOAD)} <= set(amap.shapes)
        with pytest.raises(ValueError, match="requests must be FLIT aligned"):
            encode(pkt(addr=0x1004, size=16), CFG, amap)
        with pytest.raises(ValueError, match="request crosses a DRAM row boundary"):
            encode(pkt(addr=0x1000 - 64, size=128), CFG, amap)

    def test_wire_packet_is_immutable(self):
        w = encode(pkt(), CFG)
        with pytest.raises(AttributeError):
            w.vault = 3
        assert w == tuple(w)
