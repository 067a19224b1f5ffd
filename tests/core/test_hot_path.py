"""The frozen hot-path constants decode exactly like the reference methods.

``AddressCodec.locate`` (one decode per raw request) must agree with
``arq_key``/``flit_id``, and the device's frozen :class:`AddressMap` must
agree with ``HMCConfig.vault_of``/``bank_of``/``dram_row_of``, on every
geometry; every range and packet check must still raise.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.direct import dispatch_raw
from repro.core.address import AddressCodec
from repro.core.config import MACConfig
from repro.core.mac import coalesce_trace_fast
from repro.core.packet import CoalescedRequest
from repro.core.request import MemoryRequest, RequestType
from repro.hmc.config import HMCConfig
from repro.hmc.device import HMCDevice
from repro.hmc.packet import AddressMap, encode

#: (name, MAC config, cube config): the paper HMC, HBM-like 1 KB rows with
#: 1 KB requests, and a small 128 B-row cube with 8 vaults of 4 banks.
GEOMETRIES = [
    ("paper-hmc", MACConfig(), HMCConfig()),
    (
        "hbm-1k",
        MACConfig(row_bytes=1024, max_request_bytes=1024),
        HMCConfig(row_bytes=1024, max_request_bytes=1024),
    ),
    (
        "cube-128",
        MACConfig(row_bytes=128, max_request_bytes=128),
        HMCConfig(row_bytes=128, max_request_bytes=128, vaults=8, banks_per_vault=4),
    ),
]
IDS = [name for name, _, _ in GEOMETRIES]

addrs = st.integers(min_value=0, max_value=(1 << 52) - 1)
coalescable = st.sampled_from([RequestType.LOAD, RequestType.STORE])


@pytest.mark.parametrize("name,mac,hmc", GEOMETRIES, ids=IDS)
class TestLocate:
    @settings(max_examples=200, deadline=None)
    @given(addr=addrs, rtype=coalescable)
    def test_matches_arq_key_and_flit_id(self, name, mac, hmc, addr, rtype):
        codec = AddressCodec(mac)
        req = MemoryRequest(addr=addr, rtype=rtype)
        assert codec.locate(addr, rtype) == (codec.arq_key(req), codec.flit_id(addr))

    @settings(max_examples=50, deadline=None)
    @given(addr=addrs)
    def test_atomic_has_no_key(self, name, mac, hmc, addr):
        codec = AddressCodec(mac)
        assert codec.locate(addr, RequestType.ATOMIC) == (-1, codec.flit_id(addr))

    def test_fence_has_no_address(self, name, mac, hmc):
        with pytest.raises(ValueError, match="fences carry no address"):
            AddressCodec(mac).locate(0, RequestType.FENCE)

    @pytest.mark.parametrize("rtype", list(RequestType))
    def test_out_of_range_raises_the_range_error(self, name, mac, hmc, rtype):
        codec = AddressCodec(mac)
        with pytest.raises(ValueError, match=r"^negative address -0x40$"):
            codec.locate(-64, rtype)
        with pytest.raises(
            ValueError, match=r"exceeds 52-bit physical address space$"
        ):
            codec.locate(1 << 52, rtype)


@pytest.mark.parametrize("name,mac,hmc", GEOMETRIES, ids=IDS)
@pytest.mark.parametrize("engine", [coalesce_trace_fast, dispatch_raw])
@pytest.mark.parametrize(
    "rtype", [RequestType.LOAD, RequestType.STORE, RequestType.ATOMIC]
)
def test_engines_raise_the_range_error(name, mac, hmc, engine, rtype):
    """The window engine and direct dispatch range-check inline, without
    ``locate``, but must raise the codec's exact range errors."""
    with pytest.raises(ValueError, match=r"^negative address -0x40$"):
        engine([MemoryRequest(addr=-64, rtype=rtype)], mac)
    with pytest.raises(ValueError, match=r"exceeds 52-bit physical address space$"):
        engine([MemoryRequest(addr=1 << 52, rtype=rtype)], mac)


@pytest.mark.parametrize("name,mac,hmc", GEOMETRIES, ids=IDS)
class TestFrozenAddressMap:
    @settings(max_examples=200, deadline=None)
    @given(addr=st.integers(min_value=0, max_value=(1 << 40) - 1))
    def test_matches_config_reference(self, name, mac, hmc, addr):
        addr -= addr % hmc.flit_bytes
        dev = HMCDevice(hmc)
        pkt = CoalescedRequest(addr=addr, size=16, rtype=RequestType.LOAD)
        wire = encode(pkt, hmc, dev.address_map)
        assert (wire.vault, wire.bank, wire.dram_row) == (
            hmc.vault_of(addr),
            hmc.bank_of(addr),
            hmc.dram_row_of(addr),
        )

    def test_device_builds_one_map(self, name, mac, hmc):
        dev = HMCDevice(hmc)
        assert dev.address_map == AddressMap.of(hmc)

    @pytest.mark.parametrize(
        "addr,size,message",
        [
            (0x1000, 8, "unsupported request size 8"),
            (0x1000, 2048, "request of 2048 B exceeds protocol max"),
            (0x1004, 16, "requests must be FLIT aligned"),
            (0x1000 - 64, 128, "request crosses a DRAM row boundary"),
        ],
    )
    def test_bad_packets_still_raise(self, name, mac, hmc, addr, size, message):
        pkt = CoalescedRequest(addr=addr, size=size, rtype=RequestType.LOAD)
        for amap in (None, HMCDevice(hmc).address_map):
            with pytest.raises(ValueError, match=message):
                encode(pkt, hmc, amap)
