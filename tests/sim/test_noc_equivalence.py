"""NoC-refactor equivalence corpus (PR 10's bit-identity contract).

Three guarantees, each hypothesis- or corpus-enforced:

1. ``noc_topology="ideal"`` is bit-identical to the legacy
   :class:`repro.hmc.crossbar.Crossbar` — pinned by substituting a
   crossbar-backed adapter into the device and comparing full runs
   (cycles + metrics) across both engines and under fault injection.
2. The sharded conservative-PDES backend agrees with the serial run
   for every topology/policy, and the NoC's counters survive the shard
   merge (they ride StatsMixin now — the legacy crossbar's raw ints
   were silently dropped).
3. SkipEngine agrees with LockstepEngine for the *new* code paths too:
   arbitrated xbar, ring/mesh hop routing, open/adaptive page policies.
   The NoC and bank keep only absolute cycle stamps, so skipping must
   never change results, whatever the topology.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.request import MemoryRequest, RequestType
from repro.hmc.config import HMCConfig
from repro.hmc.crossbar import Crossbar
from repro.hmc.noc import NoCStats
from repro.node.node import Node
from repro.node.system import NUMASystem

ENGINES = ("lockstep", "skip")


def make_requests(spec, core, node=0):
    """Fresh request objects per run: runs mutate issue/complete stamps."""
    cores, n, rows, seed, fences = spec
    rng = random.Random(seed * 131 + core)
    out = []
    for i in range(n):
        if fences and i and i % 17 == 0:
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


class LegacyCrossbarAdapter:
    """The pre-refactor Crossbar behind the NoC call signature.

    The executable reference for guarantee 1: if ``ideal`` ever drifts
    from these semantics, the substitution runs below diverge.
    """

    def __init__(self, timing):
        self.legacy = Crossbar(timing)
        self.stats = NoCStats()  # device.metrics() expects a StatsMixin

    def to_vault(self, cycle, vault=0, link=0, flits=1):
        return self.legacy.to_vault(cycle)

    def to_link(self, cycle, vault=0, link=0, flits=1):
        return self.legacy.to_link(cycle)


def run_node(spec, engine, hmc_config=None, legacy=False, max_cycles=None):
    cores = spec[0]
    node = Node(
        [iter(make_requests(spec, c)) for c in range(cores)],
        hmc_config=hmc_config,
    )
    if legacy:
        node.device.noc = LegacyCrossbarAdapter(node.device.config.timing)
    kwargs = {"engine": engine}
    if max_cycles is not None:
        kwargs["max_cycles"] = max_cycles
    node.run(**kwargs)
    return node


def comparable(node):
    """(cycle, metrics) with the NoC's own counters factored out.

    The legacy crossbar never counted FLITs, so ``noc.*`` keys are the
    one legitimate difference between the adapter and the ideal NoC;
    everything else must match exactly.
    """
    metrics = {
        k: v for k, v in node.metrics().items() if "noc." not in k
    }
    return node.cycle, metrics


workload_specs = st.tuples(
    st.integers(min_value=1, max_value=4),  # cores
    st.integers(min_value=1, max_value=48),  # requests per core
    st.integers(min_value=1, max_value=64),  # distinct rows
    st.integers(min_value=0, max_value=2**16),  # stream seed
    st.booleans(),  # sprinkle fences
)


class TestIdealMatchesLegacyCrossbar:
    @settings(max_examples=25, deadline=None)
    @given(spec=workload_specs, engine=st.sampled_from(ENGINES))
    def test_substitution_is_bit_identical(self, spec, engine):
        stock = run_node(spec, engine)
        legacy = run_node(spec, engine, legacy=True)
        assert comparable(stock) == comparable(legacy)

    def test_traffic_counters_agree_with_legacy(self):
        spec = (3, 40, 24, 5, False)
        stock = run_node(spec, "lockstep")
        legacy = run_node(spec, "lockstep", legacy=True)
        assert (
            stock.device.noc.stats.forwarded
            == legacy.device.noc.legacy.forwarded
        )
        assert (
            stock.device.noc.stats.returned
            == legacy.device.noc.legacy.returned
        )

    @pytest.mark.parametrize(
        "fault_kwargs",
        [
            dict(flit_ber=1e-3, seed=42, timeout_cycles=5000),
            dict(dead_links=(1,), seed=7, timeout_cycles=5000),
            dict(drop_rate=5e-3, seed=11, timeout_cycles=2000),
        ],
        ids=["link-retry", "dead-link", "drop-timeout"],
    )
    @pytest.mark.parametrize("engine", ENGINES)
    def test_fault_injection_substitution(self, fault_kwargs, engine):
        from repro.faults import FaultConfig

        spec = (3, 40, 24, 5, False)

        def build():
            return HMCConfig(faults=FaultConfig.simple(**fault_kwargs))

        stock = run_node(spec, engine, hmc_config=build(), max_cycles=2_000_000)
        legacy = run_node(
            spec, engine, hmc_config=build(), legacy=True, max_cycles=2_000_000
        )
        assert comparable(stock) == comparable(legacy)


class TestEnginesAgreeOnNewTopologies:
    """Guarantee 3: skip == lockstep for every new code path."""

    @settings(max_examples=20, deadline=None)
    @given(
        spec=workload_specs,
        topology=st.sampled_from(["xbar", "ring", "mesh"]),
        policy=st.sampled_from(["closed", "open", "adaptive"]),
        arbitration=st.sampled_from(["fifo", "round_robin"]),
    )
    def test_topology_policy_grid(self, spec, topology, policy, arbitration):
        def cfg():
            return HMCConfig(
                noc_topology=topology,
                noc_arbitration=arbitration,
                page_policy=policy,
            )

        lock = run_node(spec, "lockstep", hmc_config=cfg())
        skip = run_node(spec, "skip", hmc_config=cfg())
        assert skip.cycle == lock.cycle
        assert skip.metrics() == lock.metrics()

    def test_shallow_buffers_backpressure_is_engine_stable(self):
        spec = (4, 48, 8, 13, False)

        def cfg():
            return HMCConfig(noc_topology="xbar", noc_buffers=1)

        lock = run_node(spec, "lockstep", hmc_config=cfg())
        skip = run_node(spec, "skip", hmc_config=cfg())
        assert skip.metrics() == lock.metrics()


class TestShardedPDES:
    """Guarantee 2: serial == sharded, and NoC counters survive merges."""

    def build_system(self, hmc_config):
        spec = (2, 40, 32, 9, True)
        return NUMASystem(
            [
                [iter(make_requests(spec, c, node=n)) for c in range(2)]
                for n in range(2)
            ],
            interleave_bytes=256,
            hmc_config=hmc_config,
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(),
            dict(noc_topology="xbar"),
            dict(noc_topology="ring", page_policy="open"),
            dict(noc_topology="mesh", page_policy="adaptive"),
        ],
        ids=["ideal", "xbar", "ring-open", "mesh-adaptive"],
    )
    def test_serial_equals_sharded(self, kwargs):
        serial = self.build_system(HMCConfig(**kwargs))
        serial.run(shards=1)
        sharded = self.build_system(HMCConfig(**kwargs))
        sharded.run(shards=2)
        assert sharded.cycle == serial.cycle
        assert sharded.metrics() == serial.metrics()

    def test_noc_counters_survive_the_shard_merge(self):
        """Satellite 1's regression: the legacy crossbar's forwarded /
        returned ints were dropped by PDES merges; NoCStats must not be."""
        serial = self.build_system(HMCConfig())
        serial.run(shards=1)
        sharded = self.build_system(HMCConfig())
        sharded.run(shards=2)
        key = "noc.forwarded"
        candidates = [k for k in serial.metrics() if k.endswith(key)]
        assert candidates, "device metrics must expose the noc.* namespace"
        for k in candidates:
            assert serial.metrics()[k] > 0
            assert sharded.metrics()[k] == serial.metrics()[k]
