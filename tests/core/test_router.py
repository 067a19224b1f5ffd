"""Unit tests for request/response routers (sections 3.1, 3.3)."""

import pytest

from repro.core.packet import CoalescedRequest, CoalescedResponse
from repro.core.request import MemoryRequest, RequestType
from repro.core.router import FIFOQueue, RequestRouter, ResponseRouter


def req(addr, node=0, **kw):
    return MemoryRequest(addr=addr, rtype=RequestType.LOAD, node=node, **kw)


class TestFIFOQueue:
    def test_fifo_order(self):
        q = FIFOQueue(4)
        a, b = req(1), req(2)
        q.push(a)
        q.push(b)
        assert q.pop() is a
        assert q.pop() is b
        assert q.pop() is None

    def test_capacity(self):
        q = FIFOQueue(2)
        assert q.push(req(1)) and q.push(req(2))
        assert not q.push(req(3))
        assert q.rejected == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            FIFOQueue(0)

    def test_peek_leaves_queue_intact(self):
        q = FIFOQueue(4)
        q.push(req(1))
        assert q.peek() is q.peek()
        assert len(q) == 1

    def test_drops_alias_and_count(self):
        q = FIFOQueue(1)
        q.push(req(1))
        assert not q.push(req(2)) and not q.push(req(3))
        assert q.drops == q.rejected == 2

    def test_high_water_tracks_peak_occupancy(self):
        q = FIFOQueue(8)
        for i in range(3):
            q.push(req(i))
        q.pop()
        q.pop()
        q.push(req(9))
        assert q.high_water == 3  # peak, not current (which is 2)
        assert len(q) == 2

    def test_high_water_starts_at_zero(self):
        assert FIFOQueue(4).high_water == 0

    def test_rejected_push_does_not_raise_high_water(self):
        q = FIFOQueue(2)
        q.push(req(1))
        q.push(req(2))
        q.push(req(3))  # rejected
        assert q.high_water == 2


class TestRequestRouter:
    def test_default_everything_local(self):
        r = RequestRouter(node_id=0)
        r.route(req(0x12345))
        assert len(r.local_queue) == 1
        assert r.stats.local == 1

    def test_home_function_splits_traffic(self):
        # Even rows home at node 0, odd at node 1.
        r = RequestRouter(node_id=0, home_fn=lambda a: (a >> 8) & 1)
        r.route(req(0x000))
        r.route(req(0x100))
        assert len(r.local_queue) == 1
        assert len(r.global_queue) == 1
        assert r.stats.outbound_remote == 1

    def test_fence_always_local(self):
        r = RequestRouter(node_id=0, home_fn=lambda a: 1)
        fence = MemoryRequest(addr=0, rtype=RequestType.FENCE)
        r.route(fence)
        assert len(r.local_queue) == 1

    def test_remote_arrivals(self):
        r = RequestRouter(node_id=0)
        r.receive_remote(req(0x100, node=1))
        assert len(r.remote_queue) == 1
        assert r.stats.inbound_remote == 1

    def test_local_priority_over_remote(self):
        r = RequestRouter(node_id=0)
        remote = req(0x100, node=1)
        local = req(0x200, node=0)
        r.receive_remote(remote)
        r.route(local)
        assert r.next_for_mac() is local
        assert r.next_for_mac() is remote

    def test_next_outbound(self):
        r = RequestRouter(node_id=0, home_fn=lambda a: 1)
        rq = req(0x100)
        r.route(rq)
        assert r.next_outbound() is rq
        assert r.next_outbound() is None


class TestResponseRouter:
    def _response(self, raws, complete=500):
        pkt = CoalescedRequest(
            addr=0x100,
            size=64,
            rtype=RequestType.LOAD,
            requests=list(raws),
        )
        return CoalescedResponse(request=pkt, complete_cycle=complete)

    def test_local_delivery(self):
        rr = ResponseRouter(node_id=0)
        raws = [req(0x100, tid=1, tag=7)]
        rr.receive(self._response(raws))
        local, remote = rr.drain()
        assert len(local) == 1 and not remote
        assert raws[0].complete_cycle == 500
        assert rr.completed[(1, 7)] == 500

    def test_remote_split(self):
        rr = ResponseRouter(node_id=0)
        raws = [req(0x100, node=0, tag=1), req(0x110, node=2, tag=2)]
        rr.receive(self._response(raws))
        local, remote = rr.drain()
        assert len(local) == 1 and len(remote) == 1
        assert remote[0].node == 2

    def test_buffer_overflow_raises(self):
        rr = ResponseRouter(node_id=0, buffer_capacity=1)
        rr.receive(self._response([req(0x100)]))
        with pytest.raises(RuntimeError):
            rr.receive(self._response([req(0x200)]))

    def test_drain_empties_buffer(self):
        rr = ResponseRouter()
        rr.receive(self._response([req(0x100)]))
        rr.drain()
        assert rr.buffered == 0
        assert rr.drain() == ([], [])
