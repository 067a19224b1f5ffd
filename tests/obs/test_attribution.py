"""Unit tests of the attribution collector (stage stamps + stall taxonomy)."""

import pytest

from repro.core.request import MemoryRequest, RequestType
from repro.obs.attribution import (
    MARKS,
    NULL_ATTRIBUTION,
    STAGE_OF_MARK,
    STAGES,
    AttributionCollector,
    DepthSampler,
    NodeAttribution,
    NullAttribution,
    StallCause,
)

pytestmark = pytest.mark.obs


def _req(**kw):
    return MemoryRequest(addr=0x1000, rtype=RequestType.LOAD, **kw)


class TestMarksSchema:
    def test_every_non_first_mark_has_a_stage(self):
        assert set(STAGE_OF_MARK) == set(MARKS[1:])
        assert STAGES == tuple(STAGE_OF_MARK[m] for m in MARKS[1:])

    def test_stall_causes_cover_the_issue_taxonomy(self):
        values = {c.value for c in StallCause}
        assert {
            "arq_full",
            "fence_drain",
            "link_tokens_exhausted",
            "retry_replay",
            "vault_queue_full",
            "bank_conflict",
            "response_backpressure",
        } <= values


class TestBreakdown:
    def test_full_path_telescopes_exactly(self):
        at = AttributionCollector()
        req = _req()
        for i, mark in enumerate(MARKS):
            at.mark(req, mark, 10 * i)
        at.finalize(req)
        assert at.finalized == 1
        assert all(at.stage_cycles[s] == 10 for s in STAGES)
        assert sum(at.stage_cycles.values()) == at.end_to_end.total

    def test_partial_path_skips_absent_stages_but_stays_exact(self):
        at = AttributionCollector()
        req = _req()
        at.mark(req, "submit", 5)
        at.mark(req, "dispatch", 25)
        at.mark(req, "complete", 125)
        at.finalize(req)
        crossed = {s: n for s, n in at.stage_cycles.items() if n}
        assert crossed == {"builder": 20, "link_response": 100}
        assert sum(at.stage_cycles.values()) == at.end_to_end.total == 120

    def test_restamp_overwrites_for_reissued_requests(self):
        at = AttributionCollector()
        req = _req()
        at.mark(req, "submit", 0)
        at.mark(req, "vault_arrive", 50)
        at.mark(req, "vault_arrive", 300)  # timeout re-issue
        at.finalize(req)
        assert at.end_to_end.total == 300

    def test_unmarked_request_counts_incomplete(self):
        at = AttributionCollector()
        at.finalize(_req())
        single = _req()
        at.mark(single, "submit", 3)
        at.finalize(single)
        assert at.incomplete == 2
        assert at.finalized == 0


class TestStalls:
    def test_stall_accumulates_per_site_and_cause(self):
        at = AttributionCollector()
        at.stall_span("arq", StallCause.ARQ_FULL, 0, 1)
        at.stall_span("arq", StallCause.ARQ_FULL, 1, 5)
        at.stall_span("arq", StallCause.FENCE_DRAIN, 5, 6)
        assert at.stalls["arq"] == {"arq_full": 5, "fence_drain": 1}

    def test_node_handles_own_their_sites(self):
        """A mesh node's handle prefixes its sites, so two cubes' spans
        over the same cycles both count; marks and finalize are shared."""
        at = AttributionCollector()
        node0, node1 = NodeAttribution(at, 0), NodeAttribution(at, 1)
        node0.stall_span("bank", StallCause.BANK_CONFLICT, 10, 20)
        node1.stall_span("bank", StallCause.BANK_CONFLICT, 10, 20)
        node1.sample_depth("arq", 0, 3.0)
        req = _req()
        node0.mark(req, "submit", 1)
        node1.mark(req, "arq_admit", 4)
        node1.finalize(req)
        assert at.stalls == {
            "node0.bank": {"bank_conflict": 10},
            "node1.bank": {"bank_conflict": 10},
        }
        assert at.depth.sites() == ["node1.arq"]
        assert at.finalized == 1
        assert at.stage_cycles["router_queue"] == 3

    def test_stall_span_clips_overlaps_to_their_union(self):
        at = AttributionCollector()
        at.stall_span("bank", StallCause.BANK_CONFLICT, 10, 20)
        at.stall_span("bank", StallCause.BANK_CONFLICT, 15, 30)  # overlap
        at.stall_span("bank", StallCause.BANK_CONFLICT, 0, 5)  # fully past
        at.stall_span("bank", StallCause.BANK_CONFLICT, 40, 40)  # empty
        assert at.stalls["bank"]["bank_conflict"] == 20  # |[10,30)|

    def test_stall_span_per_cycle_charging_is_idempotent(self):
        at = AttributionCollector()
        for _ in range(8):  # eight cores bouncing in one cycle
            at.stall_span("router", StallCause.INPUT_QUEUE_FULL, 7, 8)
        assert at.stalls["router"]["input_queue_full"] == 1

    def test_watermarks_are_per_site_and_cause(self):
        at = AttributionCollector()
        at.stall_span("link0_req", StallCause.LINK_BUSY, 0, 10)
        at.stall_span("link1_req", StallCause.LINK_BUSY, 0, 10)
        at.stall_span("link0_req", StallCause.RETRY_REPLAY, 0, 10)
        assert at.stalls["link0_req"] == {"link_busy": 10, "retry_replay": 10}
        assert at.stalls["link1_req"] == {"link_busy": 10}


class TestDepthSampler:
    def test_stride_keeps_every_nth(self):
        ds = DepthSampler(stride=4, capacity=64)
        for c in range(40):
            ds.sample("arq", c, c % 7)
        assert len(ds.series("arq")) == 10
        assert [c for c, _ in ds.series("arq")] == list(range(0, 40, 4))

    def test_capacity_decimates_and_doubles_stride(self):
        ds = DepthSampler(stride=1, capacity=8)
        for c in range(64):
            ds.sample("q", c, float(c))
        snap = ds.snapshot()["q"]
        assert snap["points"] < 8
        assert snap["stride"] > 1
        assert snap["offered"] == 64
        # Retained points still span the run in order.
        cycles = [c for c, _ in ds.series("q")]
        assert cycles == sorted(cycles)
        assert cycles[0] == 0

    def test_memory_stays_bounded_over_long_runs(self):
        ds = DepthSampler(stride=1, capacity=16)
        for c in range(10_000):
            ds.sample("q", c, 1.0)
        assert len(ds.series("q")) <= 16

class TestNullAttribution:
    def test_null_is_disabled_and_inert(self):
        assert isinstance(NULL_ATTRIBUTION, NullAttribution)
        assert NULL_ATTRIBUTION.enabled is False
        req = _req()
        NULL_ATTRIBUTION.mark(req, "submit", 1)
        NULL_ATTRIBUTION.finalize(req)
        NULL_ATTRIBUTION.stall_span("x", StallCause.ARQ_FULL, 0, 5)
        NULL_ATTRIBUTION.sample_depth("x", 0, 1.0)
        assert req.marks is None


class TestProtocol:
    def _filled(self, offset=0):
        at = AttributionCollector()
        req = _req()
        for i, mark in enumerate(MARKS):
            at.mark(req, mark, offset + 7 * i)
        at.finalize(req)
        at.stall_span("arq", StallCause.ARQ_FULL, offset, offset + 3)
        at.stall_span("bank", StallCause.BANK_CONFLICT, offset, offset + 9)
        at.sample_depth("arq", offset, 2.0)
        return at

    def test_snapshot_shape_round_trips_through_report(self):
        from repro.obs.analyze import build_report

        at = self._filled()
        snap = at.snapshot()
        assert snap["requests_finalized"] == 1
        assert set(snap["stages"]) == set(STAGES)
        report = build_report(at, meta={"k": "v"})
        assert report["exact"] is True
        assert report["critical_stage"] in STAGES
        assert report["top_stalls"][0][2] >= report["top_stalls"][-1][2]
