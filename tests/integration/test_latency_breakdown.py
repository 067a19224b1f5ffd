"""Exactness and soundness of the per-request latency attribution.

Two contracts from DESIGN.md §9, pinned end-to-end:

* **Exactness** — the per-stage latency sums reproduce the end-to-end
  latency cycle for cycle (the stamps telescope), on the full MAC
  pipeline *and* on the direct-mapped (uncoalesced) baseline, in both
  the closed-loop node and the open-loop dispatch/replay harness.
* **Soundness** — stall-cause counters measure wall-clock bottleneck
  time: no ``(site, cause)`` counter may exceed the elapsed cycles of
  the run, whatever the workload shape (hypothesis property).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.runner import attributed_node_run, dispatch, replay_on_device
from repro.obs import Observers
from repro.obs.attribution import MARKS, STAGES, AttributionCollector


def _assert_exact(attrib):
    stage_sum = sum(attrib.stage_cycles.values())
    end_total = attrib.end_to_end.total
    assert stage_sum == end_total, (
        f"stage sums must decompose end-to-end exactly: "
        f"{stage_sum} != {end_total}"
    )
    # The histograms' float totals mirror the pinned integer totals.
    for stage in STAGES:
        assert attrib.stages[stage].total == attrib.stage_cycles[stage]


class TestClosedLoopExactness:
    @pytest.fixture(scope="class")
    def mac_run(self):
        return attributed_node_run("SG", threads=4, ops_per_thread=400)

    @pytest.fixture(scope="class")
    def baseline_run(self):
        return attributed_node_run(
            "SG", threads=4, ops_per_thread=400, coalescing=False
        )

    def test_mac_pipeline_is_exact(self, mac_run):
        attrib, node = mac_run
        assert attrib.finalized > 0
        assert attrib.incomplete == 0
        _assert_exact(attrib)

    def test_direct_mapped_baseline_is_exact(self, baseline_run):
        attrib, node = baseline_run
        assert attrib.finalized > 0
        assert attrib.incomplete == 0
        _assert_exact(attrib)

    def test_every_stage_of_the_full_path_is_populated(self, mac_run):
        attrib, _ = mac_run
        for stage in STAGES:
            assert attrib.stages[stage].count > 0, f"stage {stage} never crossed"

    def test_stage_latencies_are_non_negative(self, mac_run):
        attrib, _ = mac_run
        for stage in STAGES:
            hist = attrib.stages[stage]
            assert hist.min is None or hist.min >= 0, stage

    def test_uncoalesced_baseline_runs_longer(self, mac_run, baseline_run):
        """The A/B the analyze CLI diffs: coalescing shortens the run."""
        _, node = mac_run
        _, base_node = baseline_run
        assert base_node.cycle > node.cycle


class TestOpenLoopExactness:
    def test_dispatch_replay_path_is_exact(self):
        attrib = AttributionCollector()
        obs = Observers(attrib=attrib)
        disp = dispatch("IS", "mac-cycle", obs=obs, threads=4, ops_per_thread=400)
        replay_on_device(disp.packets, obs=obs, use_issue_cycles=True)
        assert attrib.finalized > 0
        _assert_exact(attrib)

    def test_per_request_breakdowns_telescope(self):
        attrib = AttributionCollector()
        obs = Observers(attrib=attrib)
        disp = dispatch("SG", "mac-cycle", obs=obs, threads=2, ops_per_thread=200)
        replay_on_device(disp.packets, obs=obs, use_issue_cycles=True)
        seen = 0
        for pkt in disp.packets:
            for raw in pkt.requests:
                marks = raw.marks or {}
                if len(marks) < 2:
                    continue
                seen += 1
                # Stamps in path order never go back in time, so every
                # stage delta is non-negative and they telescope.
                cycles = [marks[m] for m in MARKS if m in marks]
                assert cycles == sorted(cycles)
        assert seen > 0


class TestStallSoundness:
    @settings(max_examples=8, deadline=None)
    @given(
        threads=st.integers(min_value=1, max_value=4),
        ops=st.integers(min_value=50, max_value=250),
        coalescing=st.booleans(),
        name=st.sampled_from(["SG", "IS", "HPCG"]),
    )
    def test_stall_counters_never_exceed_elapsed_cycles(
        self, threads, ops, coalescing, name
    ):
        attrib, node = attributed_node_run(
            name, threads=threads, ops_per_thread=ops, coalescing=coalescing
        )
        elapsed = node.cycle
        assert elapsed > 0
        for site, causes in attrib.stalls.items():
            for cause, cycles in causes.items():
                assert 0 <= cycles <= elapsed, (
                    f"{site}/{cause}: {cycles} stall cycles in a "
                    f"{elapsed}-cycle run"
                )
        _assert_exact(attrib)
