"""Unit tests for the two-stage pipelined Request Builder (section 4.2)."""

import pytest

from repro.core.address import AddressCodec
from repro.core.arq import AggregatedRequestQueue
from repro.core.builder import RequestBuilder, bypass_packet, emit_row
from repro.core.config import MACConfig
from repro.core.flit_table import FlitTablePolicy
from repro.core.request import MemoryRequest, RequestType

CFG = MACConfig(latency_hiding=False)

# FLIT-table plans of the paper row: (byte offset, bytes, FLIT lo, FLIT hi).
ROW = ((0, 256, 0, 16),)
HALVES = ((0, 128, 0, 8), (128, 128, 8, 16))
QUARTERS = tuple((64 * g, 64, 4 * g, 4 * g + 4) for g in range(4))
ENDS = ((0, 64, 0, 4), (192, 64, 12, 16))
MID = ((64, 128, 4, 12),)
MID_SPLIT = ((64, 64, 4, 8), (128, 64, 8, 12))


def entry_for(addrs, rtype=RequestType.LOAD):
    arq = AggregatedRequestQueue(CFG)
    for i, a in enumerate(addrs):
        assert arq.push(MemoryRequest(addr=a, rtype=rtype, tid=0, tag=i))
    assert len(arq) == 1
    return arq.pop()


class TestFunctionalBuild:
    def test_paper_fig8_example(self):
        """FLITs 6,8,9 -> pattern 0110 -> one 128 B packet at offset 64."""
        entry = entry_for([0xA60, 0xA80, 0xA90])
        builder = RequestBuilder(CFG)
        pkts = builder.build(entry)
        assert len(pkts) == 1
        pkt = pkts[0]
        assert pkt.size == 128
        assert pkt.addr == 0xA00 + 64
        assert pkt.raw_count == 3
        assert pkt.rtype is RequestType.LOAD

    def test_single_flit_builds_64(self):
        entry = entry_for([0xA00])
        pkts = RequestBuilder(CFG).build(entry)
        assert pkts[0].size == 64
        assert pkts[0].addr == 0xA00

    def test_full_row_builds_256(self):
        entry = entry_for([0xA00 | (f << 4) for f in range(12)])  # 12-target cap
        pkts = RequestBuilder(CFG).build(entry)
        assert pkts[0].size == 256
        assert pkts[0].addr == 0xA00

    def test_store_entry_builds_store_packet(self):
        entry = entry_for([0xB00, 0xB10], rtype=RequestType.STORE)
        pkt = RequestBuilder(CFG).build(entry)[0]
        assert pkt.rtype is RequestType.STORE
        assert pkt.is_write

    def test_targets_partition_across_exact_segments(self):
        """EXACT policy splits sparse rows; targets follow their chunk."""
        entry = entry_for([0xA00, 0xAF0])  # chunks 0 and 3
        builder = RequestBuilder(CFG, policy=FlitTablePolicy.EXACT)
        pkts = builder.build(entry)
        assert len(pkts) == 2
        assert [p.raw_count for p in pkts] == [1, 1]
        assert pkts[0].addr <= 0xA00 < pkts[0].end
        assert pkts[1].addr <= 0xAF0 < pkts[1].end

    def test_every_target_covered(self):
        entry = entry_for([0xA00 | (f << 4) for f in (1, 5, 9, 13)])
        for policy in FlitTablePolicy:
            pkts = RequestBuilder(CFG, policy=policy).build(entry)
            for raw in entry.requests:
                flit_addr = 0xA00 + AddressCodec(CFG).flit_id(raw.addr) * 16
                assert any(p.addr <= flit_addr < p.end for p in pkts)


class TestSharedRowEmit:
    """``emit_row`` is the one packet-assembly routine."""

    def test_stage1_masks_follow_the_row_geometry(self):
        assert RequestBuilder(CFG).group_masks == (
            (1, 0xF), (2, 0xF0), (4, 0xF00), (8, 0xF000)
        )
        masks = RequestBuilder(MACConfig(row_bytes=1024)).group_masks
        assert masks == tuple((1 << g, 0xF << 4 * g) for g in range(16))

    @pytest.mark.parametrize(
        "policy,max_bytes,plans",
        [
            # Plans of patterns 1111, 1001 and 0110 (FLIT-table rows).
            (FlitTablePolicy.SPAN, 256, [ROW, ROW, MID]),
            (FlitTablePolicy.SPAN, 128, [HALVES, HALVES, MID]),
            (FlitTablePolicy.SPAN, 64, [QUARTERS, ENDS, MID_SPLIT]),
            (FlitTablePolicy.POPCOUNT, 256, [ROW, ROW, MID]),
            (FlitTablePolicy.POPCOUNT, 128, [HALVES, HALVES, MID]),
            (FlitTablePolicy.POPCOUNT, 64, [QUARTERS, ENDS, MID_SPLIT]),
            (FlitTablePolicy.EXACT, 256, [ROW, ENDS, MID]),
            (FlitTablePolicy.EXACT, 128, [HALVES, ENDS, MID]),
            (FlitTablePolicy.EXACT, 64, [QUARTERS, ENDS, MID_SPLIT]),
        ],
        ids=[f"{p}-{b}" for p in ("span", "popcount", "exact") for b in (256, 128, 64)],
    )
    def test_plans_follow_policy_and_max_request_bytes(self, policy, max_bytes, plans):
        builder = RequestBuilder(MACConfig(max_request_bytes=max_bytes), policy=policy)
        assert len(builder.segments) == 16
        assert [builder.segments[p] for p in (0b1111, 0b1001, 0b0110)] == plans

    def test_single_packet_takes_the_row_lists(self):
        entry = entry_for([0xA60, 0xA80, 0xA90])
        (pkt,) = RequestBuilder(CFG).build(entry)
        assert pkt.targets is pkt.requests
        assert pkt.requests is entry.requests

    def test_split_row_partitions_targets(self):
        codec = AddressCodec(CFG)
        entry = entry_for([0xA00, 0xAF0, 0xA10])
        plan = ((0, 64, 0, 4), (192, 64, 12, 16))
        pkts = emit_row(codec, entry.key, plan, entry.requests, 5)
        assert [(p.addr, p.size, p.issue_cycle) for p in pkts] == [
            (0xA00, 64, 5), (0xAC0, 64, 5)
        ]
        assert [[codec.flit_id(r.addr) for r in p.requests] for p in pkts] == [
            [0, 1], [15]
        ]
        assert [[r.addr for r in p.requests] for p in pkts] == [
            [0xA00, 0xA10], [0xAF0]
        ]


class TestPipelineTiming:
    def test_issue_rate_is_half(self):
        """Section 4.4: the builder issues 0.5 packets per cycle."""
        builder = RequestBuilder(CFG)
        cycle = 0
        emitted = []
        for i in range(10):
            while not builder.can_accept():
                emitted.extend(builder.tick(cycle))
                cycle += 1
            builder.accept(entry_for([0x100 * (i + 1)]))
            emitted.extend(builder.tick(cycle))
            cycle += 1
        while builder.busy:
            emitted.extend(builder.tick(cycle))
            cycle += 1
        assert len(emitted) == 10
        # Steady-state spacing between completions is pop_interval = 2.
        gaps = [
            b.issue_cycle - a.issue_cycle for a, b in zip(emitted[1:-1], emitted[2:])
        ]
        assert all(g == 2 for g in gaps)

    def test_first_packet_latency_is_three_cycles(self):
        """Stage 1 (1 cycle) + stage 2 (2 cycles) = 3 cycles end to end.

        With 0-indexed ticks the packet emerges on the third tick, i.e.
        issue_cycle == 2 after occupying cycles 0, 1 and 2.
        """
        builder = RequestBuilder(CFG)
        builder.accept(entry_for([0x100]))
        out = []
        ticks = 0
        for cycle in range(5):
            out.extend(builder.tick(cycle))
            ticks += 1
            if out:
                break
        assert ticks == 3
        assert out[0].issue_cycle == 2

    def test_accept_when_busy_raises(self):
        builder = RequestBuilder(CFG)
        builder.accept(entry_for([0x100]))
        with pytest.raises(RuntimeError):
            builder.accept(entry_for([0x200]))

    def test_fence_rejected(self):
        builder = RequestBuilder(CFG)
        arq = AggregatedRequestQueue(CFG)
        arq.push(MemoryRequest(addr=0, rtype=RequestType.FENCE))
        with pytest.raises(ValueError):
            builder.accept(arq.pop())

    def test_flush_drains_both_stages(self):
        builder = RequestBuilder(CFG)
        builder.accept(entry_for([0x100]))
        builder.tick(0)  # moves into stage 2
        builder.accept(entry_for([0x200]))
        pkts = builder.flush(1)
        assert len(pkts) == 2
        assert not builder.busy


class TestBypassPacket:
    def test_single_flit_16b(self):
        arq = AggregatedRequestQueue(CFG)
        arq.push(MemoryRequest(addr=0xA63, rtype=RequestType.LOAD, tid=3, tag=9))
        entry = arq.pop()
        pkt = bypass_packet(entry.requests, CFG)
        assert pkt.size == 16
        assert pkt.addr == 0xA60  # FLIT aligned
        assert pkt.bypassed
        assert pkt.requests[0].tid == 3

    def test_atomic_bypass(self):
        arq = AggregatedRequestQueue(CFG)
        arq.push(MemoryRequest(addr=0xB20, rtype=RequestType.ATOMIC))
        pkt = bypass_packet(arq.pop().requests, CFG)
        assert pkt.rtype is RequestType.ATOMIC
        assert pkt.size == 16

    def test_fence_bypass_raises(self):
        arq = AggregatedRequestQueue(CFG)
        arq.push(MemoryRequest(addr=0, rtype=RequestType.FENCE))
        with pytest.raises(ValueError):
            bypass_packet(arq.pop().requests, CFG)
