"""End-to-end integration tests across all subsystems."""

import pytest

from repro.baselines.direct import dispatch_raw
from repro.core.config import MACConfig
from repro.core.mac import MAC, coalesce_trace_fast
from repro.core.request import MemoryRequest, RequestType
from repro.core.stats import MACStats
from repro.eval.runner import replay_on_device
from repro.hmc.device import HMCDevice
from repro.node.node import Node
from repro.trace.record import to_requests
from repro.workloads.registry import make


class TestTraceToDevicePipeline:
    """Workload -> trace -> MAC -> HMC -> responses, fully wired."""

    @pytest.fixture(scope="class")
    def sg_trace(self):
        return make("SG").generate(threads=4, ops_per_thread=500)

    def test_full_pipeline_conserves_requests(self, sg_trace):
        requests = list(to_requests(sg_trace))
        st = MACStats()
        packets = coalesce_trace_fast(requests, stats=st)
        dev = HMCDevice()
        t = 0
        responses = []
        for p in packets:
            responses.append(dev.submit(p, t))
            t += 2
        delivered = sum(len(r.request.requests) for r in responses)
        assert delivered == len(requests)

    def test_mac_beats_raw_on_every_axis(self, sg_trace):
        requests = list(to_requests(sg_trace))
        raw_pkts = dispatch_raw(
            [MemoryRequest(r.addr, r.rtype, r.tid, r.tag) for r in requests]
        )
        mac_pkts = coalesce_trace_fast(
            [MemoryRequest(r.addr, r.rtype, r.tid, r.tag) for r in requests]
        )
        raw = replay_on_device(raw_pkts, cycles_per_packet=1.0)
        mac = replay_on_device(mac_pkts)
        assert len(mac_pkts) < len(raw_pkts)
        assert mac.bank_conflicts < raw.bank_conflicts
        assert mac.wire_bytes < raw.wire_bytes
        assert mac.mean_latency < raw.mean_latency

    def test_response_targets_match_request_tags(self, sg_trace):
        requests = list(to_requests(sg_trace))[:200]
        mac = MAC(MACConfig(latency_hiding=False))
        packets = mac.process(requests)
        dev = HMCDevice()
        for p in packets:
            mac.receive_response(dev.submit(p, p.issue_cycle))
        local, _ = mac.deliver_responses()
        tags = sorted((r.tid, r.tag) for r in local)
        assert tags == sorted((r.tid, r.tag) for r in requests)


class TestClosedLoopNode:
    def test_benchmark_through_node(self):
        """A real workload drives the closed-loop node to completion."""
        trace = make("SPARSELU").generate(threads=4, ops_per_thread=250)
        per_core = {c: [] for c in range(4)}
        for rec in trace.records():
            per_core[rec.core % 4].append(rec.to_request(tag=len(per_core[rec.core % 4]) & 0xFFFF))
        node = Node([iter(v) for v in per_core.values()])
        st = node.run()
        assert st.responses_delivered == st.requests_issued == len(trace)
        assert st.coalescing_efficiency > 0

    def test_node_mac_vs_raw_conflicts(self):
        trace = make("MG").generate(threads=4, ops_per_thread=250)

        def streams():
            per_core = {c: [] for c in range(4)}
            for rec in trace.records():
                per_core[rec.core % 4].append(
                    rec.to_request(tag=len(per_core[rec.core % 4]) & 0xFFFF)
                )
            return [iter(v) for v in per_core.values()]

        with_mac = Node(streams()).run()
        without = Node(streams(), coalescing_enabled=False).run()
        assert with_mac.bank_conflicts < without.bank_conflicts


class TestHBMApplicability:
    """Section 4.3: the same MAC logic drives a 1 KB-row HBM stack."""

    def test_hbm_geometry_mac(self):
        cfg = MACConfig(row_bytes=1024, max_request_bytes=1024)
        trace = [
            MemoryRequest(addr=(3 << 10) | (f << 4), rtype=RequestType.LOAD, tag=f)
            for f in range(12)
        ]
        st = MACStats()
        pkts = coalesce_trace_fast(trace, cfg, stats=st)
        assert len(pkts) == 1
        assert sum(p.raw_count for p in pkts) == 12

    def test_hbm_device_end_to_end(self):
        from repro.hmc.config import HMCConfig

        hbm = HMCConfig(
            row_bytes=1024,
            max_request_bytes=1024,
            column_bytes=32,  # BL4 x 64-bit bus (section 4.3)
            vaults=16,  # HBM: 8-16 pseudo-channels
            banks_per_vault=16,
        )
        cfg = MACConfig(row_bytes=1024, max_request_bytes=1024)
        trace = [
            MemoryRequest(addr=(v << 14) | (f << 4), rtype=RequestType.LOAD, tag=v * 16 + f)
            for v in range(8)
            for f in range(10)
        ]
        pkts = coalesce_trace_fast(trace, cfg)
        dev = HMCDevice(hbm)
        t = 0
        for p in pkts:
            dev.submit(p, t)
            t += 2
        assert dev.stats.requests == len(pkts)
        assert dev.bank_conflicts == 0  # one coalesced access per row


class TestFencesEndToEnd:
    def test_fence_ordering_through_node(self):
        reqs = [
            MemoryRequest(addr=0x100, rtype=RequestType.LOAD, tag=0),
            MemoryRequest(addr=0, rtype=RequestType.FENCE, tag=1),
            MemoryRequest(addr=0x110, rtype=RequestType.STORE, tag=2),
        ]
        node = Node([iter(reqs)])
        node.run()
        load, store = reqs[0], reqs[2]
        assert 0 < load.complete_cycle
        # The store could not issue before the fence saw the load done.
        assert store.issue_cycle > load.complete_cycle - 1
