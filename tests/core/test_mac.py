"""MAC engine tests: cycle engine, window engine, and their agreement."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import MACConfig
from repro.core.mac import MAC, coalesce_trace_fast
from repro.core.request import MemoryRequest, RequestType
from repro.core.stats import MACStats


def load(addr, tag=0, tid=0):
    return MemoryRequest(addr=addr, rtype=RequestType.LOAD, tag=tag, tid=tid)


def random_trace(n, rows, seed, store_frac=0.3, fence_frac=0.0):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        if fence_frac and rng.random() < fence_frac:
            out.append(MemoryRequest(addr=0, rtype=RequestType.FENCE))
            continue
        rtype = RequestType.STORE if rng.random() < store_frac else RequestType.LOAD
        addr = (rng.randrange(rows) << 8) | (rng.randrange(16) << 4)
        out.append(MemoryRequest(addr=addr, rtype=rtype, tid=i % 8, tag=i % 65536))
    return out


class TestCycleEngine:
    def test_conservation(self):
        mac = MAC()
        trace = random_trace(1000, 60, seed=1)
        pkts = mac.process(trace)
        n_mem = sum(1 for r in trace if not r.is_fence)
        assert sum(p.raw_count for p in pkts) == n_mem

    def test_idle_after_run(self):
        mac = MAC()
        for i in range(10):
            mac.submit(load(i << 8, tag=i))
        mac.run()
        assert mac.idle()

    def test_coalesces_same_row_bursts(self):
        mac = MAC(MACConfig(latency_hiding=False))
        trace = [load(0xA00 | (f << 4), tag=f) for f in range(8)]
        pkts = mac.process(trace)
        assert len(pkts) < 8
        assert mac.stats.coalescing_efficiency > 0

    def test_latency_hiding_boot_burst_fills_without_merging(self):
        """Section 4.1: at boot the free counter exceeds half the ARQ, so
        the following requests fill entries directly (no comparison) —
        the mechanism that keeps I/O-bound phases and program boot from
        stalling behind the comparators."""
        mac = MAC()  # latency hiding on by default
        trace = [load(0xA00 | (f << 4), tag=f) for f in range(8)]
        pkts = mac.process(trace)
        assert len(pkts) == 8
        assert mac.aggregator.arq.bypass_fills == 8

    def test_submit_full_queue_returns_false(self):
        mac = MAC(queue_capacity=2)
        assert mac.submit(load(0x100))
        assert mac.submit(load(0x200))
        assert not mac.submit(load(0x300))

    def test_atomics_emitted_as_16b(self):
        mac = MAC()
        mac.submit(MemoryRequest(addr=0xA00, rtype=RequestType.ATOMIC))
        pkts = mac.run()
        assert len(pkts) == 1
        assert pkts[0].size == 16
        assert pkts[0].rtype is RequestType.ATOMIC

    def test_fences_partition_packets(self):
        mac = MAC()
        trace = [load(0xA00, tag=1),
                 MemoryRequest(addr=0, rtype=RequestType.FENCE),
                 load(0xA10, tag=2)]
        pkts = mac.process(trace)
        assert len(pkts) == 2


class TestWindowEngine:
    def test_conservation(self):
        trace = random_trace(2000, 80, seed=2, fence_frac=0.01)
        st_ = MACStats()
        pkts = coalesce_trace_fast(trace, stats=st_)
        n_mem = sum(1 for r in trace if not r.is_fence)
        assert sum(p.raw_count for p in pkts) == n_mem
        assert st_.coalesced_packets == len(pkts)

    def test_perfect_burst_hits_target_cap(self):
        # 12 same-row requests (the entry capacity) -> one packet.
        trace = [load(0xA00 | ((f % 16) << 4), tag=f) for f in range(12)]
        pkts = coalesce_trace_fast(trace)
        assert len(pkts) == 1
        assert pkts[0].raw_count == 12

    def test_capacity_split(self):
        trace = [load(0xA00 | ((f % 16) << 4), tag=f) for f in range(13)]
        pkts = coalesce_trace_fast(trace)
        assert len(pkts) == 2
        assert sorted(p.raw_count for p in pkts) == [1, 12]

    def test_window_eviction(self):
        cfg = MACConfig(arq_entries=2, latency_hiding=False)
        # Rows A, B, C then A again: A evicted before its reuse.
        trace = [load(0xA00, tag=1), load(0xB00, tag=2),
                 load(0xC00, tag=3), load(0xA10, tag=4)]
        pkts = coalesce_trace_fast(trace, cfg)
        assert len(pkts) == 4

    def test_types_never_mix(self):
        trace = random_trace(1500, 20, seed=3, store_frac=0.5)
        for pkt in coalesce_trace_fast(trace):
            kinds = {r.rtype for r in pkt.requests}
            assert len(kinds) == 1

    def test_packet_covers_all_its_targets(self):
        trace = random_trace(1500, 30, seed=4)
        for pkt in coalesce_trace_fast(trace):
            for t in pkt.targets:
                flit_addr = (pkt.addr & ~0xFF) + t.flit_id * 16
                assert pkt.covers(flit_addr)

    def test_fence_drains_window(self):
        trace = [load(0xA00, tag=1),
                 MemoryRequest(addr=0, rtype=RequestType.FENCE),
                 load(0xA10, tag=2)]
        pkts = coalesce_trace_fast(trace)
        assert len(pkts) == 2


class TestEngineAgreement:
    """The window engine is the steady-state semantics of the cycle engine."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_both_conserve_requests(self, seed):
        trace = random_trace(300, 25, seed=seed, store_frac=0.4, fence_frac=0.02)
        n_mem = sum(1 for r in trace if not r.is_fence)
        fast = coalesce_trace_fast([
            MemoryRequest(addr=r.addr, rtype=r.rtype, tid=r.tid, tag=r.tag)
            for r in trace
        ])
        mac = MAC()
        cyc = mac.process([
            MemoryRequest(addr=r.addr, rtype=r.rtype, tid=r.tid, tag=r.tag)
            for r in trace
        ])
        assert sum(p.raw_count for p in fast) == n_mem
        assert sum(p.raw_count for p in cyc) == n_mem

    def test_efficiencies_close_on_hot_trace(self):
        trace = random_trace(4000, 40, seed=9)
        st_fast = MACStats()
        coalesce_trace_fast(
            [MemoryRequest(addr=r.addr, rtype=r.rtype, tag=r.tag) for r in trace],
            stats=st_fast,
        )
        mac = MAC()
        mac.process([MemoryRequest(addr=r.addr, rtype=r.rtype, tag=r.tag) for r in trace])
        # The cycle engine pays a warm-up/bypass transient; the two must
        # still land in the same regime.
        assert abs(st_fast.coalescing_efficiency - mac.stats.coalescing_efficiency) < 0.15


class TestMaxRequestBytes:
    """``MACConfig.max_request_bytes`` caps the packets of both engines."""

    @pytest.mark.parametrize("cap", [64, 128])
    def test_no_packet_exceeds_the_cap(self, cap):
        cfg = MACConfig(max_request_bytes=cap)
        trace = random_trace(3000, 30, seed=5, store_frac=0.3, fence_frac=0.01)
        n_mem = sum(1 for r in trace if not r.is_fence)

        def fresh():
            return [
                MemoryRequest(addr=r.addr, rtype=r.rtype, tid=r.tid, tag=r.tag)
                for r in trace
            ]

        for pkts in (coalesce_trace_fast(fresh(), cfg), MAC(cfg).process(fresh())):
            assert max(p.size for p in pkts) == cap
            assert sum(p.raw_count for p in pkts) == n_mem

    def test_dispatch_honours_the_cap(self):
        from repro.eval.runner import dispatch

        for policy in ("mac", "mac-cycle"):
            res = dispatch("SG", policy, 8, 500, MACConfig(max_request_bytes=64))
            assert {p.size for p in res.packets} <= {16, 64}
            assert sum(p.raw_count for p in res.packets) == res.stats.memory_raw_requests


class TestResponsePath:
    def test_responses_complete_requests(self):
        from repro.hmc.device import HMCDevice

        mac = MAC()
        trace = [load(0xA00 | (f << 4), tag=f, tid=1) for f in range(6)]
        pkts = mac.process(trace)
        dev = HMCDevice()
        for p in pkts:
            mac.receive_response(dev.submit(p, p.issue_cycle))
        local, remote = mac.deliver_responses()
        assert len(local) == 6 and not remote
        assert all(r.complete_cycle > 0 for _, r in local)
