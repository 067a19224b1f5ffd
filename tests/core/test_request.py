"""Unit tests for raw request primitives."""

import pytest

from repro.core.request import (
    FLIT_ID_BITS,
    MAX_TAG,
    MAX_TID,
    MemoryRequest,
    RequestType,
    TARGET_BYTES,
    Target,
)


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
    def test_valid(self):
        t = Target(tid=100, tag=200, flit_id=5)
        assert (t.tid, t.tag, t.flit_id) == (100, 200, 5)

    def test_field_widths_match_paper(self):
        # Section 4.1.1: 2 B TID, 2 B tag, 4-bit FLIT id = 4.5 B.
        assert MAX_TID == 0xFFFF
        assert MAX_TAG == 0xFFFF
        assert TARGET_BYTES == 4.5

    def test_tid_bounds(self):
        Target(tid=MAX_TID, tag=0, flit_id=0)
        with pytest.raises(ValueError):
            Target(tid=MAX_TID + 1, tag=0, flit_id=0)
        with pytest.raises(ValueError):
            Target(tid=-1, tag=0, flit_id=0)

    def test_tag_bounds(self):
        with pytest.raises(ValueError):
            Target(tid=0, tag=MAX_TAG + 1, flit_id=0)

    def test_flit_bounds(self):
        Target(tid=0, tag=0, flit_id=15)   # paper's 256 B rows use 0..15
        Target(tid=0, tag=0, flit_id=63)   # 1 KB HBM rows (section 4.3)
        with pytest.raises(ValueError):
            Target(tid=0, tag=0, flit_id=64)

    def test_flit_error_names_the_field_width(self):
        assert FLIT_ID_BITS == 6
        Target(tid=0, tag=0, flit_id=63)
        with pytest.raises(ValueError, match=r"flit_id 64 outside 6-bit range"):
            Target(tid=0, tag=0, flit_id=64)
        with pytest.raises(ValueError, match=r"flit_id -1 outside 6-bit range"):
            Target(tid=0, tag=0, flit_id=-1)

    def test_frozen(self):
        t = Target(1, 2, 3)
        with pytest.raises(AttributeError):
            t.tid = 9


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
