"""Closed-loop node and NUMA-system integration tests."""

import pytest

from repro.core.request import MemoryRequest, RequestType
from repro.node.interconnect import Interconnect
from repro.node.node import Node
from repro.node.system import NUMASystem, interleaved_home


def stream(core, n=120, rows=97, node=0):
    for i in range(n):
        row = (core * 13 + i // 8) % rows
        yield MemoryRequest(
            addr=(row << 8) | ((i % 8) << 4),
            rtype=RequestType.LOAD,
            tid=core,
            tag=i,
            core=core,
            node=node,
        )


class TestInterconnect:
    def test_latency_and_ordering(self):
        ic = Interconnect(latency_cycles=10)
        ic.send(0, dst=1, payload="a")
        ic.send(5, dst=0, payload="b")
        assert ic.deliver(9) == []
        assert ic.deliver(10) == [(1, "a")]
        assert ic.deliver(20) == [(0, "b")]
        assert ic.in_flight == 0

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            Interconnect(-1)


class TestNode:
    def test_all_requests_complete(self):
        node = Node([stream(c) for c in range(4)])
        st = node.run()
        assert st.requests_issued == 480
        assert st.responses_delivered == 480
        assert all(c.done for c in node.cores)

    def test_mac_reduces_conflicts_vs_raw(self):
        node = Node([stream(c) for c in range(4)])
        st = node.run()
        raw = Node([stream(c) for c in range(4)], coalescing_enabled=False)
        st_raw = raw.run()
        assert st.bank_conflicts < st_raw.bank_conflicts

    def test_request_stamped_with_another_node_rejected(self):
        """A single node never collects completions routed to another
        node, so a mis-stamped request would park its core for good."""
        node = Node([stream(0, n=20, node=1)])
        with pytest.raises(
            ValueError, match="node 0 issued a request stamped node=1: .* node field"
        ):
            node.run()
        assert node.pending_remote == []

    def test_requests_get_latencies(self):
        node = Node([stream(0, n=20)])
        node.run()
        # Every delivered completion stamped a positive latency.
        assert node.device.stats.requests > 0
        assert node.device.stats.mean_latency > 0


class TestInterleavedHome:
    def test_round_robin(self):
        home = interleaved_home(4, granularity=4096)
        assert home(0) == 0
        assert home(4096) == 1
        assert home(4 * 4096) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            interleaved_home(0)
        with pytest.raises(ValueError):
            interleaved_home(2, granularity=3000)

    @pytest.mark.parametrize("granularity", [0, -4096])
    def test_rejects_non_positive_granularity(self, granularity):
        # 0 & -1 == 0 once passed the power-of-two check and failed later
        # with "negative shift count" mid-simulation.
        with pytest.raises(ValueError, match="positive power of two"):
            interleaved_home(2, granularity=granularity)


class TestNUMASystem:
    def test_two_nodes_complete_remote_traffic(self):
        sys2 = NUMASystem(
            [
                [stream(0, n=60, node=0)],
                [stream(0, n=60, node=1)],
            ],
            interconnect_latency=30,
            interleave_bytes=1 << 9,  # 512 B: half the rows are remote
        )
        st = sys2.run()
        assert st.remote_requests > 0
        # Every core drained and every remote response came home.
        for node in sys2.nodes:
            assert all(c.done for c in node.cores)

    def test_single_node_system_all_local(self):
        sys1 = NUMASystem([[stream(0, n=40)]])
        st = sys1.run()
        assert st.remote_requests == 0

    def test_remote_coalescing_happens_at_home_node(self):
        """Remote requests merge in the home node's MAC with local ones."""
        sys2 = NUMASystem(
            [
                [stream(0, n=80, node=0)],
                [stream(0, n=80, node=1)],
            ],
            interleave_bytes=1 << 9,
        )
        sys2.run()
        total_merges = sum(n.mac.aggregator.arq.merges for n in sys2.nodes)
        assert total_merges > 0

    def test_empty_system_rejected(self):
        with pytest.raises(ValueError):
            NUMASystem([])

    def test_stopped_run_reports_settled_nodes(self):
        """A node ticks only when it can act and lags the mesh between its
        ticks; a run stopped mid-way still reports every node settled."""
        sys3 = NUMASystem(
            [[stream(0, n=60 if n < 2 else 4, node=n)] for n in range(3)],
            interconnect_latency=30,
            interleave_bytes=1 << 9,
        )
        with pytest.raises(RuntimeError, match="exceeded max_cycles"):
            sys3.run(max_cycles=600)
        snap = sys3.hang_snapshot()
        assert snap["cycle"] == sys3.cycle
        assert {n: s["cycle"] for n, s in snap["nodes"].items()} == {
            n: sys3.cycle for n in range(3)
        }
        metrics = sys3.metrics()
        for n in range(3):
            assert metrics[f"node{n}.mac.total_cycles"] == sys3.cycle

    def _mesh(self):
        return NUMASystem(
            [[stream(0, n=40, node=n)] for n in range(2)],
            interleave_bytes=1 << 9,
        )

    @pytest.mark.parametrize("shards", [0, 2, 4])
    def test_run_rejects_shards(self, shards):
        """Sharding was removed: only the serial count is accepted."""
        with pytest.raises(ValueError, match="sharded NUMA runs were removed"):
            self._mesh().run(shards=shards)

    def test_run_accepts_one_shard(self):
        explicit = self._mesh()
        explicit.run(shards=1)
        default = self._mesh()
        default.run()
        assert explicit.cycle == default.cycle
        assert explicit.metrics() == default.metrics()

    def test_remote_request_stamped_with_another_node_rejected(self):
        """A request carries its issuing node: the fabric sends it home by
        address and its completion back by ``node``."""
        sys2 = NUMASystem(
            [
                [stream(0, n=40, node=0)],
                [stream(0, n=40, node=0)],  # node 1's requests claim node 0
            ],
            interleave_bytes=1 << 9,
        )
        with pytest.raises(ValueError, match="node 1 issued a request stamped node=0"):
            sys2.run()


class TestRemoteResponseAccounting:
    """Satellite regressions for the suppress-and-count contract."""

    def test_bogus_duplicate_completion_dropped_exactly_once(self):
        """A completion no core is waiting for must not double-complete.

        Simulates the message-loss-recovery race: the reissued response
        already went home, then the original limps in late.
        """
        sys2 = NUMASystem(
            [
                [stream(0, n=40, node=0)],
                [stream(0, n=40, node=1)],
            ],
            interconnect_latency=10,
            interleave_bytes=1 << 9,
        )
        bogus_raw = MemoryRequest(
            addr=0, rtype=RequestType.LOAD, tid=0, tag=999, core=0, node=0
        )
        # A raw request at its own node is a completion coming home.
        sys2.fabric.send(0, dst=0, payload=bogus_raw, src=1)
        st = sys2.run()
        assert st.duplicate_remote_drops == 1
        # The duplicate neither completed a core nor counted as a response.
        assert st.responses == st.remote_requests
        for node in sys2.nodes:
            assert all(c.done for c in node.cores)

    def test_fault_injection_surfaces_recovery_counters(self):
        """Timeouts/duplicates under drop faults roll up into SystemStats."""
        from repro.faults import FaultConfig
        from repro.hmc.config import HMCConfig

        sys2 = NUMASystem(
            [
                [stream(0, n=80, node=0)],
                [stream(0, n=80, node=1)],
            ],
            interconnect_latency=10,
            interleave_bytes=1 << 9,
            hmc_config=HMCConfig(
                faults=FaultConfig.simple(
                    drop_rate=2e-2, seed=11, timeout_cycles=500
                )
            ),
        )
        st = sys2.run()
        assert st.response_timeouts > 0
        assert st.response_timeouts == sum(
            n.mac.response_router.timeouts for n in sys2.nodes
        )
        assert st.duplicate_responses == sum(
            n.mac.response_router.duplicates_suppressed for n in sys2.nodes
        )
        for node in sys2.nodes:
            assert all(c.done for c in node.cores)


class TestSettleContract:
    """The mesh's skip moves only its own cycle; a node is caught up when
    it is ticked or delivered to, and every read of node state first
    settles every node at the mesh's cycle."""

    @staticmethod
    def mesh():
        return NUMASystem(
            [[stream(0, n=60 if n < 2 else 4, node=n)] for n in range(3)],
            interconnect_latency=30,
            interleave_bytes=1 << 9,
        )

    def test_run_settles_every_node(self):
        system = self.mesh()
        system.run()
        assert [n.cycle for n in system.nodes] == [system.cycle] * 3

    @pytest.mark.parametrize("read", ["metrics", "hang_snapshot"])
    def test_reads_settle_every_node(self, read):
        system = self.mesh()
        with pytest.raises(RuntimeError, match="exceeded max_cycles"):
            system.run(max_cycles=600)
        # The stopped run leaves the lightly loaded node behind.
        assert any(n.cycle != system.cycle for n in system.nodes)
        getattr(system, read)()
        assert [n.cycle for n in system.nodes] == [system.cycle] * 3
