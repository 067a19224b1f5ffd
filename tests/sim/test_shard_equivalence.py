"""Sharded PDES ≡ serial SkipEngine: the mesh-level bit-identity contract.

``NUMASystem.run(shards=k)`` partitions the nodes over forked workers
advancing in conservative safe windows (:mod:`repro.sim.pdes`).  The
contract is *bit-identical* results — same cycle count, same full
metrics dict, same stats snapshot — for any workload, mesh geometry,
MAC config, and fault scenario; sharding may only change wall time.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import MACConfig, SystemConfig
from repro.core.request import MemoryRequest, RequestType
from repro.eval.parallel import pool_available
from repro.node.system import NUMASystem
from repro.sim.pdes import (
    CHAOS_ENV_VAR,
    SHARDS_ENV_VAR,
    ShardCrash,
    resolve_shards,
    shard_node_ids,
)

pytestmark = pytest.mark.skipif(
    not pool_available(), reason="fork-based shard workers unavailable"
)


def make_requests(spec, node, core):
    nodes, cores, n, rows, seed, fences = spec
    rng = random.Random(seed * 8191 + node * 131 + core)
    out = []
    for i in range(n):
        if fences and i and i % 13 == 0:
            out.append(
                MemoryRequest(
                    addr=0, rtype=RequestType.FENCE, tid=core, tag=i, core=core
                )
            )
            continue
        addr = (rng.randrange(rows) << 8) | (rng.randrange(16) << 4)
        rtype = RequestType.STORE if rng.random() < 0.3 else RequestType.LOAD
        out.append(
            MemoryRequest(
                addr=addr, rtype=rtype, tid=core, tag=i, core=core, node=node
            )
        )
    return out


def build_system(
    spec,
    latency=23,
    interleave=256,
    arq_entries=32,
    fault_kwargs=None,
    channel_capacity=64,
):
    nodes, cores = spec[0], spec[1]
    hmc = None
    if fault_kwargs:
        from repro.faults import FaultConfig
        from repro.hmc.config import HMCConfig

        hmc = HMCConfig(faults=FaultConfig.simple(**fault_kwargs))
    return NUMASystem(
        [
            [iter(make_requests(spec, n, c)) for c in range(cores)]
            for n in range(nodes)
        ],
        system=SystemConfig(mac=MACConfig(arq_entries=arq_entries)),
        interconnect_latency=latency,
        interleave_bytes=interleave,
        hmc_config=hmc,
        channel_capacity=channel_capacity,
    )


def outcome(system):
    return (system.cycle, system.stats.snapshot(), system.metrics())


def run_pair(spec, shards, engine="skip", **kwargs):
    serial = build_system(spec, **kwargs)
    serial.run(engine=engine, shards=1)
    assert serial.shard_report is None
    sharded = build_system(spec, **kwargs)
    sharded.run(shards=shards)
    return serial, sharded


mesh_specs = st.tuples(
    st.integers(min_value=2, max_value=4),  # nodes
    st.integers(min_value=1, max_value=2),  # cores per node
    st.integers(min_value=4, max_value=32),  # requests per core
    st.integers(min_value=1, max_value=48),  # distinct rows
    st.integers(min_value=0, max_value=2**16),  # stream seed
    st.booleans(),  # sprinkle fences
)


class TestShardEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(
        spec=mesh_specs,
        shards=st.integers(min_value=2, max_value=3),
        latency=st.sampled_from([3, 23, 120]),
        arq_entries=st.sampled_from([2, 32]),
    )
    def test_random_meshes_bit_identical(self, spec, shards, latency, arq_entries):
        serial, sharded = run_pair(
            spec, shards, latency=latency, arq_entries=arq_entries
        )
        assert sharded.shard_report is not None
        assert sharded.shard_report.shards == min(shards, spec[0])
        assert outcome(sharded) == outcome(serial)

    def test_matches_lockstep_too(self):
        spec = (3, 2, 24, 16, 7, True)
        serial, sharded = run_pair(spec, 2, engine="lockstep")
        assert outcome(sharded) == outcome(serial)

    def test_tiny_channel_capacity_backpressure(self):
        """Credit stalls and HOL blocking shard identically."""
        spec = (3, 2, 30, 8, 3, False)
        serial, sharded = run_pair(spec, 3, channel_capacity=1, latency=5)
        assert serial.stats.fabric_credit_stalls > 0
        assert outcome(sharded) == outcome(serial)

    def test_more_shards_than_nodes_clamps(self):
        spec = (2, 1, 10, 8, 1, False)
        system = build_system(spec)
        system.run(shards=8)
        assert system.shard_report.shards == 2

    @pytest.mark.parametrize(
        "fault_kwargs",
        [
            dict(flit_ber=1e-3, seed=42, timeout_cycles=5000),
            dict(dead_links=(1,), seed=7, timeout_cycles=5000),
            dict(drop_rate=5e-3, seed=11, timeout_cycles=2000),
        ],
        ids=["flit-ber", "dead-link", "drop-timeout"],
    )
    def test_fault_outcomes_shard_identically(self, fault_kwargs):
        spec = (4, 2, 24, 24, 5, False)
        serial, sharded = run_pair(spec, 2, fault_kwargs=fault_kwargs)
        assert outcome(sharded) == outcome(serial)
        # The satellite-2 accounting: loss-recovery outcomes are
        # surfaced system-wide and identically under sharding.
        assert serial.stats.reissued_packets == sharded.stats.reissued_packets
        assert serial.stats.response_timeouts == sharded.stats.response_timeouts
        assert (
            serial.stats.duplicate_responses == sharded.stats.duplicate_responses
        )


class TestShardResolution:
    def test_env_var_shards_the_run(self, monkeypatch):
        monkeypatch.setenv(SHARDS_ENV_VAR, "2")
        spec = (3, 1, 16, 16, 9, False)
        system = build_system(spec)
        system.run()
        assert system.shard_report is not None
        assert system.shard_report.shards == 2
        reference = build_system(spec)
        reference.run(shards=1)
        assert outcome(system) == outcome(reference)

    def test_resolve_shards(self, monkeypatch):
        monkeypatch.delenv(SHARDS_ENV_VAR, raising=False)
        assert resolve_shards() == 1
        assert resolve_shards(4) == 4
        monkeypatch.setenv(SHARDS_ENV_VAR, "3")
        assert resolve_shards() == 3
        assert resolve_shards(2) == 2  # explicit beats env
        import os

        assert resolve_shards(0) == (os.cpu_count() or 1)
        with pytest.raises(ValueError):
            resolve_shards(-1)

    def test_round_robin_partition(self):
        assert shard_node_ids(5, 2) == [[0, 2, 4], [1, 3]]

    def test_attribution_falls_back_to_serial(self):
        from repro.obs import AttributionCollector, Observers

        spec = (2, 1, 10, 8, 2, False)
        nodes, cores = spec[0], spec[1]
        system = NUMASystem(
            [
                [iter(make_requests(spec, n, c)) for c in range(cores)]
                for n in range(nodes)
            ],
            interleave_bytes=256,
            obs=Observers(attrib=AttributionCollector()),
        )
        assert "attribution enabled" in system.shard_blockers()
        system.run(shards=2)
        assert system.shard_report is None  # silent serial fallback
        assert all(c.done for n in system.nodes for c in n.cores)


class TestChaosRecovery:
    """SIGKILL a shard worker mid-run: supervisor-style restart, same bits."""

    def test_sigkilled_worker_restarts_and_matches_serial(self, monkeypatch):
        spec = (4, 2, 20, 16, 13, False)
        monkeypatch.setenv(CHAOS_ENV_VAR, "1:2")  # kill shard 1 at window 2
        sharded = build_system(spec)
        sharded.run(shards=2)
        monkeypatch.delenv(CHAOS_ENV_VAR)
        assert sharded.shard_report.restarts == 1
        serial = build_system(spec)
        serial.run(engine="skip", shards=1)
        assert outcome(sharded) == outcome(serial)

    def test_restarted_run_profiles_only_the_collected_attempt(self, monkeypatch):
        from repro.obs import SimProfiler

        spec = (4, 2, 20, 16, 13, False)
        counts = []
        for chaos in ("", "1:2"):
            monkeypatch.setenv(CHAOS_ENV_VAR, chaos)
            system = build_system(spec)
            prof = system.profiler = SimProfiler()
            system.run(shards=2)
            assert system.shard_report.restarts == (1 if chaos else 0)
            counts.append((prof.ticks, prof.skips, prof.skipped_cycles))
        assert counts[0][0] > 0
        assert counts[1] == counts[0]

    def test_repeated_crashes_exhaust_restarts(self, monkeypatch):
        from repro.sim import pdes

        spec = (2, 1, 8, 8, 1, False)
        system = build_system(spec)
        # Chaos normally arms only on attempt 0; force it on every
        # attempt to prove the restart budget is bounded.
        orig = pdes._run_windows
        monkeypatch.setattr(
            pdes,
            "_run_windows",
            lambda system, shards, max_cycles, chaos, restarts: orig(
                system, shards, max_cycles, (0, 0), restarts
            ),
        )
        with pytest.raises(ShardCrash):
            pdes.run_sharded(system, 1_000_000, 2, max_restarts=1)
