"""Unit tests for raw request primitives."""

import pytest

from repro.core.address import AddressCodec
from repro.core.config import MACConfig
from repro.core.request import (
    FLIT_ID_BITS,
    MAX_TAG,
    MAX_TID,
    MemoryRequest,
    RequestType,
    TARGET_BYTES,
    check_tid,
)
from repro.trace.record import TraceRecord, to_requests


class TestRequestType:
    def test_t_bit_load(self):
        assert RequestType.LOAD.t_bit == 0

    def test_t_bit_store(self):
        assert RequestType.STORE.t_bit == 1

    def test_t_bit_fence_raises(self):
        with pytest.raises(ValueError):
            RequestType.FENCE.t_bit

    def test_t_bit_atomic_raises(self):
        with pytest.raises(ValueError):
            RequestType.ATOMIC.t_bit

    def test_coalescable(self):
        assert RequestType.LOAD.coalescable
        assert RequestType.STORE.coalescable
        assert not RequestType.FENCE.coalescable
        assert not RequestType.ATOMIC.coalescable

    def test_values_are_stable(self):
        # The binary trace format depends on these.
        assert RequestType.LOAD.value == 0
        assert RequestType.STORE.value == 1
        assert RequestType.FENCE.value == 2
        assert RequestType.ATOMIC.value == 3


class TestTarget:
    """The paper's target word {TID, tag, FLIT id} as a request carries it:
    TID and tag are fields, the FLIT id is address bits, and the 16-bit
    ranges are checked where requests are made from traces."""

    def test_valid(self):
        r = MemoryRequest(0xA50, RequestType.LOAD, tid=100, tag=200)
        assert (r.tid, r.tag, AddressCodec(MACConfig()).flit_id(r.addr)) == (
            100, 200, 5
        )

    def test_field_widths_match_paper(self):
        # Section 4.1.1: 2 B TID, 2 B tag, 4-bit FLIT id = 4.5 B.
        assert MAX_TID == 0xFFFF
        assert MAX_TAG == 0xFFFF
        assert TARGET_BYTES == 4.5

    def test_tid_bounds(self):
        assert check_tid(MAX_TID) == MAX_TID
        for tid in (MAX_TID + 1, -1):
            with pytest.raises(ValueError, match=rf"tid {tid} outside 16-bit range"):
                TraceRecord(RequestType.LOAD, 0x100, tid=tid).to_request()
            with pytest.raises(ValueError, match=rf"tid {tid} outside 16-bit range"):
                list(to_requests([TraceRecord(RequestType.LOAD, 0x100, tid=tid)]))

    def test_tag_bounds(self):
        # Tags wrap within 16 bits instead of leaving the field.
        recs = [TraceRecord(RequestType.LOAD, 0x100)] * (MAX_TAG + 2)
        tags = [r.tag for r in to_requests(recs)]
        assert tags[MAX_TAG] == MAX_TAG and tags[MAX_TAG + 1] == 0

    def test_flit_bounds(self):
        assert AddressCodec(MACConfig()).flit_id(0xAF0) == 15  # 256 B rows
        # 1 KB HBM rows (section 4.3) use FLIT ids 0..63.
        assert AddressCodec(MACConfig(row_bytes=1024)).flit_id(0x3F0) == 63

    def test_flit_error_names_the_field_width(self):
        assert FLIT_ID_BITS == 6
        MACConfig(row_bytes=1024)
        with pytest.raises(ValueError, match="FLIT map wider than 64 bits"):
            MACConfig(row_bytes=2048)

    def test_frozen(self):
        rec = TraceRecord(RequestType.LOAD, 0x100, tid=1)
        with pytest.raises(AttributeError):
            rec.tid = 9


class TestMemoryRequest:
    def test_defaults(self):
        r = MemoryRequest(addr=0x100, rtype=RequestType.LOAD)
        assert r.size == 8
        assert r.complete_cycle == -1
        assert r.latency == -1

    def test_is_fence(self):
        assert MemoryRequest(addr=0, rtype=RequestType.FENCE).is_fence
        assert not MemoryRequest(addr=0, rtype=RequestType.LOAD).is_fence

    def test_is_atomic(self):
        assert MemoryRequest(addr=0, rtype=RequestType.ATOMIC).is_atomic

    def test_latency_after_completion(self):
        r = MemoryRequest(addr=0, rtype=RequestType.LOAD, issue_cycle=10)
        r.complete_cycle = 110
        assert r.latency == 100
