"""Cycle-level tests for the Raw Request Aggregator (sections 4.1/4.4)."""


from repro.core.aggregator import RawRequestAggregator
from repro.core.config import MACConfig
from repro.core.request import MemoryRequest, RequestType

CFG = MACConfig(latency_hiding=False)


def req(addr, rtype=RequestType.LOAD, tag=0):
    return MemoryRequest(addr=addr, rtype=rtype, tag=tag)


def feed_and_drain(agg, requests):
    out = []
    it = iter(requests)
    pending = next(it, None)
    guard = 0
    while pending is not None:
        out.extend(agg.tick(pending))
        if agg.accepted():
            pending = next(it, None)
        guard += 1
        assert guard < 100_000
    out.extend(agg.drain())
    return out


class TestConservation:
    def test_every_request_in_exactly_one_packet(self):
        agg = RawRequestAggregator(CFG)
        reqs = [req((i % 50) << 8 | ((i % 16) << 4), tag=i) for i in range(400)]
        pkts = feed_and_drain(agg, reqs)
        assert sum(p.raw_count for p in pkts) == 400
        tags = sorted(r.tag for p in pkts for r in p.requests)
        assert tags == sorted(r.tag for r in reqs)

    def test_fences_produce_no_packets(self):
        agg = RawRequestAggregator(CFG)
        reqs = [
            req(0x100, tag=1),
            MemoryRequest(addr=0, rtype=RequestType.FENCE),
            req(0x110, tag=2),
        ]
        pkts = feed_and_drain(agg, reqs)
        assert sum(p.raw_count for p in pkts) == 2

    def test_fence_prevents_cross_fence_merge(self):
        agg = RawRequestAggregator(CFG)
        reqs = [
            req(0x100, tag=1),
            MemoryRequest(addr=0, rtype=RequestType.FENCE),
            req(0x110, tag=2),
        ]
        pkts = feed_and_drain(agg, reqs)
        assert len(pkts) == 2  # same row, but split by the fence


class TestCadence:
    def test_builder_bound_issue_rate(self):
        """Non-bypass entries leave at 0.5 packets/cycle (section 4.4)."""
        agg = RawRequestAggregator(CFG)
        # Two-target rows -> all builder-bound.
        reqs = []
        for i in range(40):
            reqs.append(req((i << 8) | 0x00, tag=2 * i))
            reqs.append(req((i << 8) | 0x10, tag=2 * i + 1))
        pkts = feed_and_drain(agg, reqs)
        assert len(pkts) == 40
        gaps = [
            b.issue_cycle - a.issue_cycle
            for a, b in zip(pkts[5:-5], pkts[6:-4])  # steady state
        ]
        assert all(g >= 2 for g in gaps)

    def test_bypass_entries_share_the_pop_cadence(self):
        """B-bit entries skip the builder pipeline but not the 2-cycle
        pop cadence — the fixed cadence is what gives queue residency."""
        agg = RawRequestAggregator(CFG)
        reqs = [req(i << 8, tag=i) for i in range(40)]  # all single-target
        pkts = feed_and_drain(agg, reqs)
        assert all(p.bypassed for p in pkts)
        gaps = [
            b.issue_cycle - a.issue_cycle for a, b in zip(pkts[5:-5], pkts[6:-4])
        ]
        assert all(g == 2 for g in gaps)

    def test_bypass_skips_builder_latency(self):
        """A lone B-bit entry reaches the device without the 3-cycle
        builder pipeline; a built entry pays it."""
        lone = RawRequestAggregator(CFG)
        pkts = feed_and_drain(lone, [req(0x100)])
        bypass_cycle = pkts[0].issue_cycle
        built = RawRequestAggregator(CFG)
        pkts2 = feed_and_drain(built, [req(0x100, tag=1), req(0x110, tag=2)])
        assert pkts2[0].issue_cycle >= bypass_cycle + 2

    def test_accepts_one_per_cycle(self):
        agg = RawRequestAggregator(CFG)
        agg.tick(req(0x100))
        assert agg.accepted()
        assert agg.cycle == 1

    def test_full_arq_rejects_input(self):
        cfg = MACConfig(arq_entries=2, latency_hiding=False)
        agg = RawRequestAggregator(cfg)
        # Pin the queue full faster than it drains (2 allocations, first
        # pop cannot have happened before cycle 0/1).
        agg.tick(req(0x100))
        agg.tick(req(0x200))
        agg.tick(req(0x300))
        # Whether the third was accepted depends on pops; push until a
        # rejection is observed with an always-full queue.
        rejected = False
        for i in range(4, 50):
            agg.tick(req(i << 8))
            if not agg.accepted():
                rejected = True
                break
        assert rejected


class TestDrain:
    def test_drain_empties_everything(self):
        agg = RawRequestAggregator(CFG)
        for i in range(10):
            agg.tick(req(i << 8, tag=i))
        agg.drain()
        assert agg.idle()

    def test_drain_on_idle_is_noop(self):
        agg = RawRequestAggregator(CFG)
        assert agg.drain() == []


class TestStats:
    def test_stats_counters(self):
        agg = RawRequestAggregator(CFG)
        reqs = [req(0x100, tag=1), req(0x110, tag=2), req(0x500, tag=3)]
        pkts = feed_and_drain(agg, reqs)
        st = agg.stats
        assert st.raw_requests == 3
        assert st.coalesced_packets == len(pkts) == 2
        assert 0 < st.coalescing_efficiency < 1
