"""Node-side loss recovery: timeouts, re-issue, duplicates, poison."""


from repro.core.packet import CoalescedRequest, CoalescedResponse
from repro.core.request import MemoryRequest, RequestType
from repro.core.router import ResponseRouter


def packet(addr=0x100, tids=(1,)):
    raws = [
        MemoryRequest(addr=addr + 16 * i, rtype=RequestType.LOAD, tid=tid, tag=i)
        for i, tid in enumerate(tids)
    ]
    return CoalescedRequest(
        addr=addr,
        size=16 * len(raws),
        rtype=RequestType.LOAD,
        requests=raws,
    )


def response(pkt, complete=500, poisoned=False):
    return CoalescedResponse(request=pkt, complete_cycle=complete, poisoned=poisoned)


class TestDispatchTracking:
    def test_register_assigns_monotonic_ids(self):
        rr = ResponseRouter()
        a, b = packet(0x100), packet(0x200)
        assert rr.register_dispatch(a, 0) == 0
        assert rr.register_dispatch(b, 10) == 1
        assert a.packet_id == 0 and b.packet_id == 1
        assert set(rr.outstanding) == {0, 1}

    def test_reregister_keeps_original_id(self):
        rr = ResponseRouter()
        pkt = packet()
        rr.register_dispatch(pkt, 0)
        assert rr.register_dispatch(pkt, 5000) == pkt.packet_id == 0
        assert len(rr.outstanding) == 1
        assert rr.outstanding[0][1] == 5000

    def test_response_retires_outstanding(self):
        rr = ResponseRouter()
        pkt = packet()
        rr.register_dispatch(pkt, 0)
        rr.receive(response(pkt))
        assert not rr.outstanding


class TestTimeouts:
    def test_expired_packets_returned_for_reissue(self):
        rr = ResponseRouter()
        old, young = packet(0x100), packet(0x200)
        rr.register_dispatch(old, 0)
        rr.register_dispatch(young, 3000)
        expired = rr.check_timeouts(now=5000, timeout_cycles=4096)
        assert expired == [old]
        assert rr.timeouts == 1 and rr.reissues == 1
        # The young packet is still tracked, the old one handed back.
        assert list(rr.outstanding) == [young.packet_id]

    def test_scan_stops_at_first_young_entry(self):
        rr = ResponseRouter()
        pkts = [packet(0x100 * (i + 1)) for i in range(4)]
        for i, p in enumerate(pkts):
            rr.register_dispatch(p, i * 1000)
        expired = rr.check_timeouts(now=5100, timeout_cycles=4096)
        assert expired == [pkts[0], pkts[1]]  # dispatched at 0 and 1000

    def test_nothing_expires_before_timeout(self):
        rr = ResponseRouter()
        rr.register_dispatch(packet(), 100)
        assert rr.check_timeouts(now=4195, timeout_cycles=4096) == []
        assert rr.timeouts == 0


class TestDuplicateSuppression:
    def test_late_original_after_reissue_is_suppressed(self):
        rr = ResponseRouter()
        pkt = packet()
        rr.register_dispatch(pkt, 0)
        (reissue,) = rr.check_timeouts(now=5000, timeout_cycles=4096)
        rr.register_dispatch(reissue, 5000)
        # The re-issued copy's response arrives first...
        rr.receive(response(pkt, complete=5600))
        # ...then the delayed original limps in and must be discarded.
        rr.receive(response(pkt, complete=6000))
        assert rr.duplicates_suppressed == 1
        assert rr.buffered == 1
        local, _ = rr.drain()
        assert len(local) == 1

    def test_untracked_responses_never_suppressed(self):
        # Fault-free path: packet_id stays -1 and dedup must not engage.
        rr = ResponseRouter()
        rr.receive(response(packet(0x100)))
        rr.receive(response(packet(0x100)))
        assert rr.duplicates_suppressed == 0
        assert rr.buffered == 2


class TestPoisonPropagation:
    def test_poison_marks_every_raw_request(self):
        rr = ResponseRouter()
        pkt = packet(tids=(1, 2, 3))
        rr.receive(response(pkt, poisoned=True))
        local, _ = rr.drain()
        assert len(local) == 3
        assert all(raw.poisoned for raw in local)
        assert rr.poisoned_deliveries == 3

    def test_clean_responses_stay_clean(self):
        rr = ResponseRouter()
        pkt = packet(tids=(1, 2))
        rr.receive(response(pkt))
        local, _ = rr.drain()
        assert not any(raw.poisoned for raw in local)
        assert rr.poisoned_deliveries == 0

    def test_poisoned_delivery_still_completes_lsq_entry(self):
        # Poison marks data invalid but must not wedge the core: the
        # completion is still delivered (with the mark) so the pipeline
        # can trap instead of deadlocking.
        rr = ResponseRouter()
        pkt = packet(tids=(7,))
        rr.receive(response(pkt, complete=900, poisoned=True))
        local, _ = rr.drain()
        (raw,) = local
        assert raw.complete_cycle == 900
        assert rr.completed[(7, 0)] == 900
