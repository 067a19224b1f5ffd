"""SkipEngine ≡ LockstepEngine: the kernel's bit-identity contract.

A skip is taken only when the model proves the span is quiescent, and
``skip_to`` bulk-applies the accounting the skipped ticks would have
performed — so the two engines must agree on the final cycle count and
on the *entire* metrics dict, for any workload, MAC geometry, core
flavour, with attribution on, and under fault injection with link retry.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import MACConfig, SystemConfig
from repro.core.mac import MAC
from repro.core.request import MemoryRequest, RequestType
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


def run_node(spec, engine, lsq_capacity=None, arq_entries=32):
    cores = spec[0]
    node = Node(
        [iter(make_requests(spec, c)) for c in range(cores)],
        system=SystemConfig(mac=MACConfig(arq_entries=arq_entries)),
        lsq_capacity=lsq_capacity,
    )
    node.run(engine=engine)
    return node


workload_specs = st.tuples(
    st.integers(min_value=1, max_value=4),  # cores
    st.integers(min_value=1, max_value=48),  # requests per core
    st.integers(min_value=1, max_value=64),  # distinct rows
    st.integers(min_value=0, max_value=2**16),  # stream seed
    st.booleans(),  # sprinkle fences
)


class TestNodeEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(
        spec=workload_specs,
        arq_entries=st.sampled_from([1, 2, 8, 32]),
        lsq_capacity=st.sampled_from([None, 1, 4]),
    )
    def test_random_workloads_and_configs(self, spec, arq_entries, lsq_capacity):
        lock = run_node(spec, "lockstep", lsq_capacity, arq_entries)
        skip = run_node(spec, "skip", lsq_capacity, arq_entries)
        assert skip.cycle == lock.cycle
        assert skip.metrics() == lock.metrics()

    def test_latency_bound_shape_actually_skips(self):
        """Sanity: the shallow-LSQ regime is dominated by skippable spans."""
        spec = (2, 40, 8, 1, False)
        lock = run_node(spec, "lockstep", lsq_capacity=1)
        skip = run_node(spec, "skip", lsq_capacity=1)
        assert skip.metrics() == lock.metrics()
        # Stall-on-miss cores leave most cycles quiescent.
        assert lock.stats.cycles > 2 * lock.stats.requests_issued

    def test_multithreaded_cores(self):
        for_engine = {}
        for engine in ENGINES:
            spec = (4, 30, 16, 3, False)
            node = Node.with_multithreaded_cores(
                [iter(make_requests(spec, t)) for t in range(4)], cores=2
            )
            node.run(engine=engine)
            for_engine[engine] = (node.cycle, node.metrics())
        assert for_engine["skip"] == for_engine["lockstep"]


class TestMACEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        spec=workload_specs,
        arq_entries=st.sampled_from([1, 4, 32]),
    )
    def test_process_trace(self, spec, arq_entries):
        outcomes = {}
        for engine in ENGINES:
            mac = MAC(MACConfig(arq_entries=arq_entries))
            reqs = [r for c in range(spec[0]) for r in make_requests(spec, c)]
            packets = mac.process(reqs, engine=engine)
            outcomes[engine] = (
                mac.cycle,
                len(packets),
                mac.stats.snapshot(),
                mac.metrics(),
            )
        assert outcomes["skip"] == outcomes["lockstep"]


class TestAttributionEquivalence:
    def test_attributed_node_run(self):
        from repro.eval.runner import attributed_node_run

        outcomes = {}
        for engine in ENGINES:
            attrib, node = attributed_node_run(
                "GUPS", threads=2, ops_per_thread=150, engine=engine
            )
            outcomes[engine] = (node.cycle, node.metrics(), attrib.snapshot())
        assert outcomes["skip"] == outcomes["lockstep"]

    def test_attribution_exactness_survives_skipping(self):
        from repro.eval.runner import attributed_node_run
        from repro.obs.analyze import build_report

        attrib, _node = attributed_node_run(
            "GUPS", threads=2, ops_per_thread=150, engine="skip"
        )
        report = build_report(attrib)
        assert report["exact"] is True


class TestFaultInjectionEquivalence:
    """Skipping must respect timeout deadlines and link-retry timing."""

    @pytest.mark.parametrize(
        "fault_kwargs",
        [
            dict(flit_ber=1e-3, seed=42, timeout_cycles=5000),
            dict(dead_links=(1,), seed=7, timeout_cycles=5000),
            dict(drop_rate=5e-3, seed=11, timeout_cycles=2000),
        ],
        ids=["link-retry", "dead-link", "drop-timeout"],
    )
    def test_faulty_node(self, fault_kwargs):
        from repro.faults import FaultConfig
        from repro.hmc.config import HMCConfig

        outcomes = {}
        for engine in ENGINES:
            spec = (3, 40, 24, 5, False)
            node = Node(
                [iter(make_requests(spec, c)) for c in range(3)],
                hmc_config=HMCConfig(faults=FaultConfig.simple(**fault_kwargs)),
            )
            node.run(max_cycles=2_000_000, engine=engine)
            outcomes[engine] = (node.cycle, node.metrics())
        assert outcomes["skip"] == outcomes["lockstep"]


#: Small cube for the busy-phase corpus: 4 vaults x 2 banks makes
#: "every vault busy" cheap to reach and conflict-row scanning fast.
def small_cube():
    from repro.hmc.config import HMCConfig

    return HMCConfig(vaults=4, banks_per_vault=2)


def conflict_requests(cfg, core, ops, start=0, vault=0, bank=0):
    """Distinct row-aligned addresses all mapping to one (vault, bank).

    Every access forces a fresh closed-page row cycle on the same bank,
    so the bank serializes the whole node at tRC granularity — the
    deep-bank-conflict regime the per-core event wheel targets.
    """
    out = []
    row = 0
    matched = 0
    while len(out) < ops:
        addr = row << cfg.row_offset_bits
        if cfg.vault_of(addr) == vault and cfg.bank_of(addr) == bank:
            if matched >= start:  # cores pass disjoint [start, start+ops) windows
                out.append(
                    MemoryRequest(
                        addr=addr | ((len(out) % 16) << 4),
                        rtype=RequestType.LOAD if len(out) % 4 else RequestType.STORE,
                        tid=core,
                        tag=len(out),
                        core=core,
                    )
                )
            matched += 1
        row += 1
    return out


class TestBusyPhaseEquivalence:
    """Bandwidth-bound shapes: saturated vaults and deep bank conflicts.

    The per-core event wheel and the vectorized kernels only pay off in
    these regimes, so this is where their accounting is most likely to
    drift — every case pins cycles *and* the full metrics dict.
    """

    def run_conflict_node(self, engine, cores=4, ops=40, lsq_capacity=None):
        cfg = small_cube()
        node = Node(
            [
                iter(conflict_requests(cfg, c, ops, start=c * ops))
                for c in range(cores)
            ],
            hmc_config=cfg,
            lsq_capacity=lsq_capacity,
        )
        node.run(engine=engine)
        return node

    def test_deep_bank_conflict(self):
        lock = self.run_conflict_node("lockstep")
        skip = self.run_conflict_node("skip")
        assert skip.cycle == lock.cycle
        assert skip.metrics() == lock.metrics()
        # Sanity: the single bank really did serialize the run — far
        # more cycles than a conflict-free device would need.
        assert lock.stats.cycles > 20 * lock.stats.requests_issued

    def test_all_vaults_busy_every_cycle(self):
        """Dense random traffic across every vault of the small cube."""
        cfg = small_cube()
        spec = (4, 48, 32, 13, False)
        outcomes = {}
        for engine in ENGINES:
            node = Node(
                [iter(make_requests(spec, c)) for c in range(4)],
                hmc_config=cfg,
            )
            node.run(engine=engine)
            outcomes[engine] = (node.cycle, node.metrics())
        assert outcomes["skip"] == outcomes["lockstep"]

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        lsq_capacity=st.sampled_from([None, 1, 4]),
        arq_entries=st.sampled_from([2, 32]),
    )
    def test_conflict_plus_random_mix(self, seed, lsq_capacity, arq_entries):
        """Half the cores hammer one bank, half spray random rows."""
        cfg = small_cube()

        def build(engine):
            streams = [
                iter(conflict_requests(cfg, 0, 24)),
                iter(conflict_requests(cfg, 1, 24, start=24)),
                iter(make_requests((4, 32, 16, seed, True), 2)),
                iter(make_requests((4, 32, 16, seed, False), 3)),
            ]
            node = Node(
                streams,
                system=SystemConfig(mac=MACConfig(arq_entries=arq_entries)),
                hmc_config=cfg,
                lsq_capacity=lsq_capacity,
            )
            node.run(engine=engine)
            return node

        lock = build("lockstep")
        skip = build("skip")
        assert skip.cycle == lock.cycle
        assert skip.metrics() == lock.metrics()


class TestNUMAEquivalence:
    def test_two_node_remote_traffic(self):
        outcomes = {}
        for engine in ENGINES:
            streams_per_node = [
                [iter(make_requests((2, 50, 32, 9, True), c, node=n))]
                for n, c in ((0, 0), (1, 1))
            ]
            system = NUMASystem(streams_per_node, interleave_bytes=256)
            system.run(engine=engine)
            outcomes[engine] = (system.cycle, system.metrics())
        assert outcomes["skip"] == outcomes["lockstep"]
