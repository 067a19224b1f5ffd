"""Zero-fault runs must stay bit-identical to the pre-fault-injection model.

The golden values below were captured from the model *before* the fault
and retry machinery was added.  Every fault branch is gated on the
injector being absent, so with ``faults=None`` (the default everywhere)
all three engines — closed-loop node, fast coalescing engine, open-loop
device replay — must reproduce these numbers cycle for cycle and byte
for byte.  Any drift here means the fault-free path was disturbed.

(Closed-loop constants re-captured once when the ARQ comparator's
tie-break was fixed to oldest-wins — a deliberate merge-choice change,
verified bit-identical across the lockstep and skip engines.)
"""

import hashlib

from repro.core.config import MACConfig
from repro.core.flit_table import FlitTablePolicy
from repro.core.mac import coalesce_trace_fast
from repro.core.stats import MACStats
from repro.hmc.device import HMCDevice
from repro.node.node import Node
from repro.trace.record import to_requests
from repro.workloads.registry import make


def golden_requests():
    records = make("is", seed=7).generate(threads=4, ops_per_thread=200)
    return list(to_requests(records))


def packet_digest(packets):
    h = hashlib.sha256()
    for p in packets:
        h.update(
            f"{p.addr}:{p.size}:{p.rtype}:{len(p.requests)}:{p.bypassed}".encode()
        )
    return h.hexdigest()


class TestClosedLoopNode:
    def test_node_run_is_bit_identical(self):
        requests = golden_requests()
        by_tid = {}
        for r in requests:
            by_tid.setdefault(r.tid, []).append(r)
        node = Node([iter(v) for _, v in sorted(by_tid.items())], node_id=0)
        stats = node.run()

        assert stats.cycles == 4799
        assert stats.requests_issued == 804
        assert stats.responses_delivered == 804
        assert round(stats.coalescing_efficiency, 12) == 0.144278606965
        assert stats.bank_conflicts == 427
        assert round(stats.mean_memory_latency, 12) == 1146.370639534884

        dev = node.device.stats
        assert dev.requests == 688
        assert dev.wire_flits == 2272
        assert dev.payload_bytes == 14336
        assert dev.total_latency_cycles == 788703
        assert dev.last_completion == 4798
        assert dev.first_arrival == 2
        assert (dev.reads, dev.writes) == (421, 267)
        assert node.device.activations == 688

        # And none of the fault machinery left fingerprints.
        assert node.device.injector is None
        assert node.device.fault_stats is None
        assert dev.fault_events == {}
        assert stats.poisoned_responses == 0
        assert stats.response_timeouts == 0
        assert stats.link_retries == 0
        assert stats.failed_links == 0


class TestFastEngine:
    def test_packet_stream_digest_is_stable(self):
        requests = golden_requests()
        stats = MACStats()
        packets = coalesce_trace_fast(
            requests, MACConfig(), FlitTablePolicy.SPAN, stats
        )
        assert stats.memory_raw_requests == 804
        assert stats.coalesced_packets == len(packets) == 604
        assert (
            packet_digest(packets)
            == "9ccdff9db5d747708bea6a245af317404f160590241b1ecbe326d8a4887d32f1"
        )


class TestOpenLoopDevice:
    def test_device_replay_is_bit_identical(self):
        requests = golden_requests()
        packets = coalesce_trace_fast(
            requests, MACConfig(), FlitTablePolicy.SPAN, MACStats()
        )
        dev = HMCDevice()
        t = 0.0
        for p in packets:
            dev.submit(p, int(t))
            t += 2.0
        assert dev.stats.requests == 604
        assert dev.stats.wire_flits == 2016
        assert dev.stats.total_latency_cycles == 394075
        assert dev.stats.last_completion == 2169
        assert dev.bank_conflicts == 362
