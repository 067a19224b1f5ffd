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
from repro.node.spm import ScratchpadMemory
from repro.node.system import NUMASystem
from repro.obs import AttributionCollector, Observers, Timeline
from repro.obs.observers import NO_OBSERVERS

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


def attribution_outcome(obs):
    """Attribution snapshot plus each depth site's retained values."""
    depth = obs.attrib.depth
    return [
        obs.attrib.snapshot(),
        {site: depth.series(site) for site in depth.sites()},
    ]


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

    @settings(max_examples=25, deadline=None)
    @given(
        spec=workload_specs,
        cores=st.sampled_from([2, 8]),
        arq_entries=st.sampled_from([1, 2, 32]),
        pop_interval=st.sampled_from([2, 4]),
        lsq_capacity=st.sampled_from([None, 4]),
        spm=st.booleans(),
        attributed=st.booleans(),
    )
    def test_waiting_cores_match_reoffering_cores(
        self, spec, cores, arq_entries, pop_interval, lsq_capacity, spm,
        attributed,
    ):
        """A core waiting on a full input queue gets in when re-offering would.

        The oracle's cores never wait: as every core did before the
        WAITING state existed, they re-offer each cycle from the active
        set, under lockstep.  Eight cores saturate the 64-entry queue;
        SPM-mapped rows make bounces land while an SPM retirement is
        pending, when a core must not wait.  A slow pop cadence leaves
        cycles in which a waiting core's queue has room but the MAC,
        its ARQ full, has nothing to do.
        """

        def spm_factory(cid):
            pad = ScratchpadMemory(latency_cycles=2)
            pad.map(0, 8 << 8)  # rows 0..7
            return pad

        outcomes = {}
        for label, engine in (("waiting", "skip"), ("re-offering", "lockstep")):
            obs = (
                Observers(attrib=AttributionCollector())
                if attributed
                else NO_OBSERVERS
            )
            streams = [make_requests(spec, c) for c in range(cores)]
            node = Node(
                [iter(reqs) for reqs in streams],
                system=SystemConfig(
                    mac=MACConfig(
                        arq_entries=arq_entries, pop_interval=pop_interval
                    )
                ),
                spm_factory=spm_factory if spm else None,
                lsq_capacity=lsq_capacity,
                obs=obs,
            )
            if label == "re-offering":
                for core in node.cores:
                    core.can_wait_on_queue = lambda: False
            node.run(engine=engine)
            outcome = [
                node.cycle,
                node.metrics(),
                [
                    [(r.issue_cycle, r.complete_cycle) for r in reqs]
                    for reqs in streams
                ],
            ]
            if attributed:
                outcome += attribution_outcome(obs)
            outcomes[label] = outcome
        assert outcomes["waiting"] == outcomes["re-offering"]

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
    @settings(max_examples=40, deadline=None)
    @given(
        spec=workload_specs,
        arq_entries=st.sampled_from([1, 2, 4, 32]),
        pop_interval=st.integers(min_value=1, max_value=4),
        stage2_cycles=st.integers(min_value=0, max_value=5),
        atomics=st.booleans(),
        attributed=st.booleans(),
    )
    def test_process_trace(
        self, spec, arq_entries, pop_interval, stage2_cycles, atomics, attributed
    ):
        """A busy MAC skips to its pop slot or builder emit, bit-identically.

        Under skip the drain jumps over the cycles between pops and
        stage-2 countdowns; packets (with their issue cycles), metrics,
        attribution and every depth sample must match lockstep.
        """
        cfg = MACConfig(
            arq_entries=arq_entries,
            pop_interval=pop_interval,
            builder_stage2_cycles=stage2_cycles,
        )
        outcomes = {}
        for engine in ENGINES:
            obs = (
                Observers(attrib=AttributionCollector())
                if attributed
                else NO_OBSERVERS
            )
            mac = MAC(cfg, obs=obs)
            reqs = [r for c in range(spec[0]) for r in make_requests(spec, c)]
            if atomics:
                for r in reqs[::5]:
                    if r.rtype is not RequestType.FENCE:
                        r.rtype = RequestType.ATOMIC
            packets = mac.process(reqs, engine=engine)
            outcome = [
                mac.cycle,
                [
                    (
                        p.addr,
                        p.size,
                        p.rtype,
                        p.bypassed,
                        p.issue_cycle,
                        [(r.tid, r.tag) for r in p.requests],
                    )
                    for p in packets
                ],
                mac.metrics(),
                mac.stats.snapshot(),
            ]
            if attributed:
                outcome += attribution_outcome(obs)
            outcomes[engine] = outcome
        assert outcomes["skip"] == outcomes["lockstep"]

    def test_blocked_pops_charge_the_builder_under_skip(self):
        """Rows that coalesce keep stage 1 busy past each pop slot.

        Two rows and a 5-cycle stage 2: a builder-bound head waits on
        stage 1 for several cycles past its pop slot, each charged as a
        ``builder_busy`` stall; the drain under skip must charge every
        one of them.
        """
        cfg = MACConfig(arq_entries=4, builder_stage2_cycles=5)
        outcomes = {}
        for engine in ENGINES:
            obs = Observers(attrib=AttributionCollector())
            mac = MAC(cfg, obs=obs)
            reqs = [
                MemoryRequest(
                    addr=(i % 2) << 8 | (i % 16) << 4,
                    rtype=RequestType.LOAD,
                    tid=0,
                    tag=i,
                )
                for i in range(240)
            ]
            packets = mac.process(reqs, engine=engine)
            outcomes[engine] = [
                mac.cycle,
                [(p.addr, p.size, p.issue_cycle) for p in packets],
                mac.metrics(),
                *attribution_outcome(obs),
            ]
        stalls = outcomes["lockstep"][3]["stalls"]
        assert stalls["builder"]["builder_busy"] > 0
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


class EveryNodeEveryCycle(NUMASystem):
    """Oracle mesh: every node ticks on every cycle, whatever its wake."""

    def tick(self):
        self._wakes = [0] * len(self.nodes)
        super().tick()


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

    @settings(max_examples=25, deadline=None)
    @given(
        nodes=st.integers(min_value=2, max_value=4),
        spec=workload_specs,
        cores=st.sampled_from([1, 2, 8]),
        latency=st.sampled_from([0, 1, 3, 23]),
        channel_capacity=st.sampled_from([1, 2, 64]),
        arq_entries=st.sampled_from([2, 32]),
        attributed=st.booleans(),
    )
    def test_random_meshes(
        self, nodes, spec, cores, latency, channel_capacity, arq_entries,
        attributed,
    ):
        """Skip, lockstep and the every-node oracle agree on any mesh.

        Both engines run the node wake table, so the oracle — every node
        ticked on every cycle — checks the table itself.  With
        attribution on, the shared depth sampler must also see the same
        sequence of values.  Eight cores per node saturate the MAC input
        queues, so cores wait on them.
        """
        outcomes = {}
        for label, cls, engine in (
            ("skip", NUMASystem, "skip"),
            ("lockstep", NUMASystem, "lockstep"),
            ("every node", EveryNodeEveryCycle, "lockstep"),
        ):
            obs = (
                Observers(attrib=AttributionCollector())
                if attributed
                else NO_OBSERVERS
            )
            system = cls(
                [
                    [iter(make_requests(spec, c, node=n)) for c in range(cores)]
                    for n in range(nodes)
                ],
                system=SystemConfig(mac=MACConfig(arq_entries=arq_entries)),
                interconnect_latency=latency,
                interleave_bytes=256,
                channel_capacity=channel_capacity,
                obs=obs,
            )
            system.run(engine=engine)
            outcome = [system.cycle, system.metrics()]
            if attributed:
                depth = obs.attrib.depth
                outcome.append(obs.attrib.snapshot())
                outcome.append(
                    {s: [v for _, v in depth.series(s)] for s in depth.sites()}
                )
            outcomes[label] = outcome
        assert outcomes["skip"] == outcomes["lockstep"]
        assert outcomes["skip"] == outcomes["every node"]


def logged_ticks(parts):
    """Log ``(name, cycle)`` at every tick of each ``(name, model)`` part,
    in call order."""
    log = []
    for name, part in parts:

        def logged(name=name, part=part, tick=part.tick):
            log.append((name, part.cycle))
            return tick()

        part.tick = logged
    return log


def attribution_obs(attributed):
    return Observers(attrib=AttributionCollector()) if attributed else NO_OBSERVERS


class TestAttributedRunsTickLikePlain:
    """Attribution observes; it never adds a tick.  Every stall span a
    tick charges, a skip over the same cycles charges too, so an
    attributed run takes the plain run's wakes and ticks exactly its
    cycles — of the mesh, of every node and of every MAC."""

    @settings(max_examples=25, deadline=None)
    @given(
        nodes=st.integers(min_value=2, max_value=4),
        spec=workload_specs,
        cores=st.sampled_from([1, 2, 8]),
        latency=st.sampled_from([0, 1, 3, 23]),
        channel_capacity=st.sampled_from([1, 2, 64]),
        arq_entries=st.sampled_from([2, 32]),
    )
    def test_meshes(
        self, nodes, spec, cores, latency, channel_capacity, arq_entries
    ):
        logs = {}
        for attributed in (False, True):
            obs = attribution_obs(attributed)
            system = NUMASystem(
                [
                    [iter(make_requests(spec, c, node=n)) for c in range(cores)]
                    for n in range(nodes)
                ],
                system=SystemConfig(mac=MACConfig(arq_entries=arq_entries)),
                interconnect_latency=latency,
                interleave_bytes=256,
                channel_capacity=channel_capacity,
                obs=obs,
            )
            logs[attributed] = logged_ticks(
                [("mesh", system)]
                + [(f"node{n.node_id}", n) for n in system.nodes]
                + [(f"mac{n.node_id}", n.mac) for n in system.nodes]
            )
            system.run()
        assert logs[True] == logs[False]
        # Each node charges its own sites; only the fabric is the mesh's.
        owners = {f"node{k}" for k in range(nodes)}
        sites = set(obs.attrib.stalls) | set(obs.attrib.depth.sites())
        assert all(
            site == "fabric" or site.split(".")[0] in owners for site in sites
        )

    @settings(max_examples=20, deadline=None)
    @given(
        spec=st.tuples(
            st.just(8),  # cores
            st.integers(min_value=32, max_value=48),  # requests per core
            st.integers(min_value=1, max_value=64),  # distinct rows
            st.integers(min_value=0, max_value=2**16),  # stream seed
            st.booleans(),  # sprinkle fences
        ),
        pop_interval=st.sampled_from([2, 4]),
    )
    def test_saturated_node(self, spec, pop_interval):
        """Eight cores on a two-entry ARQ: the input queue fills and
        cores wait on it while the ARQ is full."""
        logs = {}
        for attributed in (False, True):
            obs = attribution_obs(attributed)
            node = Node(
                [iter(make_requests(spec, c)) for c in range(8)],
                system=SystemConfig(
                    mac=MACConfig(arq_entries=2, pop_interval=pop_interval)
                ),
                obs=obs,
            )
            logs[attributed] = logged_ticks([("node", node), ("mac", node.mac)])
            node.run()
        assert logs[True] == logs[False]
        stalls = obs.attrib.stalls
        assert stalls["router"]["input_queue_full"] > 0
        assert sum(stalls["arq"].values()) > 0

    @settings(max_examples=30, deadline=None)
    @given(
        spec=workload_specs,
        arq_entries=st.sampled_from([1, 2, 4, 32]),
        pop_interval=st.integers(min_value=1, max_value=4),
    )
    def test_mac_process(self, spec, arq_entries, pop_interval):
        """A five-cycle stage 2 keeps stage 1 latched past pop slots."""
        cfg = MACConfig(
            arq_entries=arq_entries,
            pop_interval=pop_interval,
            builder_stage2_cycles=5,
        )
        logs = {}
        for attributed in (False, True):
            mac = MAC(cfg, obs=attribution_obs(attributed))
            logs[attributed] = logged_ticks([("mac", mac)])
            mac.process(
                [r for c in range(spec[0]) for r in make_requests(spec, c)]
            )
        assert logs[True] == logs[False]


def mesh_requests(spec, node, core):
    """One core's stream on a ``(nodes, cores, n, rows, seed, fences)`` mesh."""
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


def mesh_outcome(system):
    return (system.cycle, system.stats.snapshot(), system.metrics())


class TestNodesSettled:
    """A node ticks only when it can act, so it lags the mesh in between;
    a run must still leave every node on the mesh's final cycle."""

    def test_every_node_ends_on_the_system_cycle(self):
        spec = (3, 2, 24, 16, 7, False)
        # Node 2 issues two requests and then idles to the end.
        issued = (24, 24, 2)
        system = NUMASystem(
            [
                [iter(mesh_requests(spec, n, c)[: issued[n]]) for c in range(2)]
                for n in range(3)
            ],
            interconnect_latency=23,
            interleave_bytes=256,
        )
        system.run()
        for node in system.nodes:
            assert node.cycle == system.stats.cycles
            assert node.mac.stats.total_cycles == system.stats.cycles


def test_timeline_never_changes_the_run():
    spec = (3, 2, 18, 12, 5, False)

    def build(**instruments):
        return NUMASystem(
            [
                [iter(mesh_requests(spec, n, c)) for c in range(spec[1])]
                for n in range(spec[0])
            ],
            system=SystemConfig(mac=MACConfig(arq_entries=32)),
            interconnect_latency=23,
            interleave_bytes=256,
            obs=Observers(**instruments),
        )

    plain = build()
    plain.run()
    timed = build(timeline=Timeline(epoch=64))
    timed.run()
    assert mesh_outcome(timed) == mesh_outcome(plain)
    assert timed.obs.timeline.export()["series"]
