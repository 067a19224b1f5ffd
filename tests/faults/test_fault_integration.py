"""End-to-end fault injection through the closed-loop node simulation.

The acceptance scenario of the robustness work: a run with a realistic
FLIT error rate *and* a dead link must complete without deadlock, with
every request delivered exactly once and the failures visible in the
per-site counters — not silently absorbed.
"""

import pytest

from repro.faults import FaultConfig
from repro.hmc.config import HMCConfig
from repro.node.node import Node
from repro.node.system import NUMASystem
from repro.trace.record import to_requests
from repro.workloads.registry import make


def streams(threads=4, ops=120, seed=7):
    records = make("is", seed=seed).generate(threads=threads, ops_per_thread=ops)
    by_tid = {}
    for r in to_requests(records):
        by_tid.setdefault(r.tid, []).append(r)
    return [iter(v) for _, v in sorted(by_tid.items())], sum(
        len(v) for v in by_tid.values()
    )


def faulty_node(fault_kwargs, **stream_kwargs):
    core_streams, n_raw = streams(**stream_kwargs)
    cfg = HMCConfig(faults=FaultConfig.simple(**fault_kwargs))
    return Node(core_streams, hmc_config=cfg), n_raw


class TestAcceptanceScenario:
    """1e-3 FLIT errors + one dead link: complete, exactly once, counted."""

    def test_completes_exactly_once_with_visible_counters(self):
        node, n_raw = faulty_node(
            dict(flit_ber=1e-3, dead_links=(1,), seed=42, timeout_cycles=5000)
        )
        stats = node.run(max_cycles=2_000_000)

        # No deadlock, and exactly-once delivery of every raw request.
        assert stats.requests_issued == n_raw
        assert stats.responses_delivered == n_raw
        assert node.done()

        # Nothing poisoned in this scenario: data integrity held.
        assert stats.poisoned_responses == 0

        # Degraded mode is visible: one of four links dead, 25% loss.
        assert stats.failed_links == 1
        assert stats.link_bandwidth_loss == pytest.approx(0.25)
        assert node.degraded

        # Per-site counters surfaced through the stats layer.
        events = node.device.stats.fault_events
        assert events, "fault counters must be exported"
        assert node.device.fault_stats.total("link_failed") >= 1

    def test_dead_link_carries_no_traffic(self):
        node, _ = faulty_node(dict(dead_links=(2,), seed=1))
        node.run(max_cycles=2_000_000)
        dead = node.device.links[2]
        assert dead.wire_flits == 0
        live_flits = sum(link.wire_flits for link in node.device.live_links)
        assert live_flits > 0
        assert node.device.failed_links == [2]


class TestLossRecovery:
    def test_dropped_responses_are_reissued(self):
        node, n_raw = faulty_node(
            dict(drop_rate=0.05, seed=11, timeout_cycles=2000),
            ops=80,
        )
        stats = node.run(max_cycles=2_000_000)
        assert stats.responses_delivered == n_raw
        assert stats.response_timeouts > 0
        assert stats.reissued_packets == stats.response_timeouts
        assert not node.mac.response_router.outstanding

    def test_delayed_responses_exercise_duplicate_suppression(self):
        # Delays longer than the timeout force a re-issue; the delayed
        # original then arrives as a duplicate and must be suppressed.
        node, n_raw = faulty_node(
            dict(delay_rate=0.05, delay_cycles=6000, seed=13, timeout_cycles=3000),
            ops=80,
        )
        stats = node.run(max_cycles=2_000_000)
        assert stats.responses_delivered == n_raw
        assert stats.response_timeouts > 0
        assert stats.duplicate_responses > 0


class TestDataIntegrity:
    def test_uncorrectable_vault_errors_deliver_poison(self):
        node, n_raw = faulty_node(
            dict(vault_error_rate=0.5, seed=3, vault_error_limit=1),
            ops=60,
        )
        stats = node.run(max_cycles=2_000_000)
        # Poison is a *delivery*, not a loss: the run still completes.
        assert stats.responses_delivered == n_raw
        assert stats.poisoned_responses > 0
        assert node.device.fault_stats.total("poisoned") > 0
        assert node.device.fault_stats.total("reread") > 0

    def test_crc_errors_cost_retries_not_data(self):
        node, n_raw = faulty_node(dict(flit_ber=0.01, seed=17), ops=80)
        stats = node.run(max_cycles=2_000_000)
        assert stats.responses_delivered == n_raw
        assert stats.link_crc_errors > 0
        assert stats.link_retries >= stats.link_crc_errors
        assert stats.poisoned_responses == 0


class TestSystemDegradedMode:
    def test_numa_system_reports_aggregate_bandwidth_loss(self):
        records = make("is", seed=7).generate(threads=4, ops_per_thread=60)
        by_tid = {}
        for r in to_requests(records):
            # Trace raws default to node 0; stamp the issuing node so
            # remote completions find their way home.  Threads 0-1 live
            # on node 0, threads 2-3 on node 1, which keeps tid % cores
            # pointing at the issuing core on both nodes.
            r.node = r.tid // 2
            by_tid.setdefault(r.tid, []).append(r)
        groups = [v for _, v in sorted(by_tid.items())]
        per_node = [
            [iter(g) for g in groups if g[0].node == nid] for nid in (0, 1)
        ]
        cfg = HMCConfig(
            faults=FaultConfig.simple(dead_links=(0,), seed=5, timeout_cycles=5000)
        )
        system = NUMASystem(per_node, hmc_config=cfg)
        stats = system.run(max_cycles=2_000_000)
        assert stats.failed_links == 2  # one dead link per node
        assert stats.link_bandwidth_loss == pytest.approx(0.25)
        assert [n.node_id for n in system.nodes if n.degraded] == [0, 1]

    def test_fault_free_system_reports_no_degradation(self):
        core_streams, _ = streams(threads=2, ops=40)
        system = NUMASystem([core_streams])
        stats = system.run(max_cycles=2_000_000)
        assert stats.failed_links == 0
        assert stats.link_bandwidth_loss == 0.0
        assert [n.node_id for n in system.nodes if n.degraded] == []
