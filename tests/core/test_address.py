"""Unit + property tests for the physical address codec (Fig. 5)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.address import AddressCodec
from repro.core.config import MACConfig
from repro.core.request import MemoryRequest, RequestType

CODEC = AddressCodec(MACConfig())

addr_strategy = st.integers(min_value=0, max_value=(1 << 52) - 1)


class TestFieldExtraction:
    def test_paper_layout_example(self):
        # Fig. 5: bits 0-3 FLIT offset, 4-7 FLIT number, 8+ row number.
        addr = (0xABC << 8) | (5 << 4) | 0x3
        assert CODEC.row_number(addr) == 0xABC
        assert CODEC.flit_id(addr) == 5

    def test_row_base(self):
        assert CODEC.row_base(0x12345) == 0x12300

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CODEC.row_number(-1)

    def test_address_beyond_52_bits_rejected(self):
        with pytest.raises(ValueError):
            CODEC.row_number(1 << 52)

    def test_52_bit_max_accepted(self):
        CODEC.row_number((1 << 52) - 1)

    @given(addr=addr_strategy)
    def test_fields_cover_every_bit(self, addr):
        row, flit, offset = CODEC.row_number(addr), CODEC.flit_id(addr), addr & 0xF
        assert (row << CODEC.row_shift) | (flit << CODEC.flit_shift) | offset == addr


class TestARQKey:
    def test_t_bit_separates_loads_and_stores(self):
        # Section 4.1.2: same row, different type -> different key.
        load = MemoryRequest(addr=0xA00, rtype=RequestType.LOAD)
        store = MemoryRequest(addr=0xA00, rtype=RequestType.STORE)
        assert CODEC.arq_key(load) != CODEC.arq_key(store)

    def test_t_bit_is_msb(self):
        # The store key is the load key with bit 44 (52-8) set.
        load = MemoryRequest(addr=0xA00, rtype=RequestType.LOAD)
        store = MemoryRequest(addr=0xA00, rtype=RequestType.STORE)
        assert CODEC.arq_key(store) - CODEC.arq_key(load) == 1 << 44

    def test_same_row_same_key(self):
        a = MemoryRequest(addr=0xA10, rtype=RequestType.LOAD)
        b = MemoryRequest(addr=0xAF0, rtype=RequestType.LOAD)
        assert CODEC.arq_key(a) == CODEC.arq_key(b)

    def test_fence_has_no_key(self):
        with pytest.raises(ValueError):
            CODEC.arq_key(MemoryRequest(addr=0, rtype=RequestType.FENCE))

    @given(addr=addr_strategy, is_store=st.booleans())
    def test_key_roundtrip(self, addr, is_store):
        rtype = RequestType.STORE if is_store else RequestType.LOAD
        key = CODEC.arq_key(MemoryRequest(addr=addr, rtype=rtype))
        assert key & (CODEC.store_bit - 1) == CODEC.row_number(addr)
        assert bool(key & CODEC.store_bit) is is_store


class TestAlternativeGeometry:
    def test_1kb_rows(self):
        codec = AddressCodec(MACConfig(row_bytes=1024, max_request_bytes=256))
        addr = (3 << 10) | (63 << 4)
        assert codec.row_number(addr) == 3
        assert codec.flit_id(addr) == 63
