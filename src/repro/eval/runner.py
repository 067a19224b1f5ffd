"""Shared experiment machinery: trace generation, dispatch, device replay.

Each figure driver in :mod:`repro.eval.experiments` composes three steps:
generate the benchmark trace (cached per process), dispatch it through a
coalescing policy (MAC window engine, MAC cycle engine, or a baseline),
and optionally replay the packet stream through a fresh HMC device with
realistic pacing (raw requests at the ARQ's 1-accept/cycle rate, MAC
packets at the builder's 0.5/cycle issue rate, section 4.4).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.baselines.direct import dispatch_raw
from repro.core.config import MACConfig
from repro.core.flit_table import FlitTablePolicy
from repro.core.mac import MAC, coalesce_trace_fast
from repro.core.packet import CoalescedRequest
from repro.core.stats import MACStats
from repro.hmc.config import HMCConfig
from repro.hmc.device import HMCDevice
from repro.obs.attribution import AttributionCollector
from repro.obs.metrics import flatten
from repro.obs.observers import NO_OBSERVERS, Observers
from repro.seeding import DEFAULT_SEED
from repro.trace.record import PackedTrace, to_requests
from repro.workloads.graphs import clear_graph_memo
from repro.workloads.registry import make

#: Default trace sizing for the figure benches: large enough for steady
#: state, small enough for second-scale pure-Python runs.
DEFAULT_THREADS = 8
DEFAULT_OPS_PER_THREAD = 3000

#: Default number of traces kept warm per process.  A cached trace is
#: packed at 48 B per record (a 24,000-record full-scale trace is about
#: 1.1 MB), so the cap bounds the cache to tens of MB.
DEFAULT_TRACE_CACHE_LIMIT = 32


class TraceCache:
    """Bounded, clearable LRU cache of generated benchmark traces.

    :func:`cached_trace` stores each trace as a
    :class:`~repro.trace.record.PackedTrace`: one int64 array per trace
    rather than one ``TraceRecord`` tuple per record, so a warm cache
    adds one object per trace to what the cyclic garbage collector scans.
    It can be emptied mid-session (a long sweep session need not pin
    dozens of full traces for the process lifetime) and warmed up front:
    each pool worker in :mod:`repro.eval.parallel` holds its own copy,
    inherited warm through ``fork`` or primed from ``run_tasks(warm=)``,
    so a trace is generated at most once per worker.
    """

    def __init__(self, maxsize: int = DEFAULT_TRACE_CACHE_LIMIT):
        if maxsize < 1:
            raise ValueError("trace cache needs room for at least one trace")
        self.maxsize = maxsize
        self._data: "OrderedDict[Tuple, PackedTrace]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Tuple, factory: Callable[[], PackedTrace]) -> PackedTrace:
        """Return the cached value for ``key``, generating it on a miss."""
        hit = self._data.get(key)
        if hit is not None:
            self.hits += 1
            self._data.move_to_end(key)
            return hit
        self.misses += 1
        value = factory()
        self._data[key] = value
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
        return value

    def clear(self) -> None:
        self._data.clear()

    def info(self) -> Dict[str, int]:
        return {
            "size": len(self._data),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
        }


#: Per-process trace cache (per *worker* under the parallel engine).
_TRACE_CACHE = TraceCache()


def cached_trace(
    name: str,
    threads: int = DEFAULT_THREADS,
    ops_per_thread: int = DEFAULT_OPS_PER_THREAD,
    seed: int = DEFAULT_SEED,
) -> PackedTrace:
    """Deterministic benchmark trace, cached per process.

    The trace comes packed, as ``Workload.generate`` returns it:
    iterating it yields plain ``(op, addr, size, tid, core, cycle)`` int
    tuples in ``TraceRecord`` field order, ``op`` as its ``RequestType``
    value.  The window and raw engines read it as it is;
    :func:`repro.trace.record.to_requests` turns it into requests.
    """
    key = (name, threads, ops_per_thread, seed)
    return _TRACE_CACHE.get(
        key,
        lambda: make(name, seed=seed).generate(
            threads=threads, ops_per_thread=ops_per_thread
        ),
    )


def clear_trace_cache() -> None:
    """Drop every cached trace and memoized graph (long sweep sessions
    reclaim memory)."""
    _TRACE_CACHE.clear()
    clear_graph_memo()


def trace_cache_info() -> Dict[str, int]:
    """Occupancy and hit/miss counters of the per-process trace cache."""
    return _TRACE_CACHE.info()


def warm_trace_cache(specs: Iterable[Tuple[str, int, int, int]]) -> None:
    """Pre-generate ``(name, threads, ops_per_thread, seed)`` traces.

    Used as the pool-worker initializer by :mod:`repro.eval.parallel`;
    already-cached specs (e.g. inherited from the parent via fork) cost
    nothing.
    """
    for name, threads, ops_per_thread, seed in specs:
        cached_trace(name, threads, ops_per_thread, seed)


@dataclass
class DispatchResult:
    """Packets + MAC-side stats of one dispatch policy over one trace."""

    name: str
    policy: str
    packets: List[CoalescedRequest]
    stats: MACStats

    def metrics(self) -> Dict[str, object]:
        """Flat ``mac.*`` metrics view of the dispatch stats."""
        return flatten(self.stats.snapshot(), "mac.")


def dispatch(
    name: str,
    policy: str = "mac",
    threads: int = DEFAULT_THREADS,
    ops_per_thread: int = DEFAULT_OPS_PER_THREAD,
    config: Optional[MACConfig] = None,
    seed: int = DEFAULT_SEED,
    flit_policy: FlitTablePolicy = FlitTablePolicy.SPAN,
    engine=None,
    obs: Observers = NO_OBSERVERS,
) -> DispatchResult:
    """Run one benchmark trace through a dispatch policy.

    policy: "mac" (window engine), "mac-cycle" (cycle engine), "raw"
    (direct 16 B dispatch).  The window and raw engines read the cached
    packed trace and build a packet's requests only when a reader first
    reads ``pkt.requests``; the cycle engine takes requests.  ``obs`` observes the cycle engine only: its
    tracer records ARQ/builder events, its collector stage stamps and
    stall causes, its timeline and profiler sample/time the run (the
    window and raw engines are not clocked, so they emit nothing).
    ``engine`` selects the simulation engine for the cycle policy (see
    :mod:`repro.sim`); the other policies are not clocked and ignore it.
    """
    trace = cached_trace(name, threads, ops_per_thread, seed)
    stats = MACStats()
    if policy == "mac":
        packets = coalesce_trace_fast(trace, config, flit_policy, stats)
    elif policy == "mac-cycle":
        mac = MAC(config, policy=flit_policy, obs=obs)
        mac.attach_stats(stats)
        packets = mac.process(list(to_requests(trace)), engine=engine)
    elif policy == "raw":
        packets = dispatch_raw(trace, config, stats)
    else:
        raise ValueError(f"unknown policy {policy!r}")
    return DispatchResult(name, policy, packets, stats)


@dataclass
class ReplayResult:
    """Device-side outcome of replaying one packet stream."""

    makespan: int
    mean_latency: float
    bank_conflicts: int
    activations: int
    wire_bytes: int
    device: HMCDevice

    def metrics(self) -> Dict[str, object]:
        """Flat namespaced metrics view of the replayed device."""
        return self.device.metrics()


def replay_on_device(
    packets: Sequence[CoalescedRequest],
    cycles_per_packet: float = 0.0,
    hmc: Optional[HMCConfig] = None,
    obs: Observers = NO_OBSERVERS,
    use_issue_cycles: bool = False,
) -> ReplayResult:
    """Feed packets into a fresh device at the MAC's issue cadence.

    With ``cycles_per_packet`` = 0 (default) the MAC's fixed issue rate
    applies: one packet every ``pop_interval`` = 2 cycles (section 4.4).
    A positive value forces another cadence (1.0 models raw dispatch at
    the interface's 1-request/cycle accept rate).  With
    ``use_issue_cycles`` packets instead arrive at their own
    ``issue_cycle`` stamps — the attribution path needs this so the
    device clock matches the MAC clock that stamped the ``dispatch``
    mark and the per-stage deltas stay non-negative.  When ``obs``
    carries attribution each packet's raw requests are finalized after
    service, so open-loop runs aggregate submit->complete breakdowns.

    Note the structural consequence, visible on low-coalescing traces
    (e.g. IS): a MAC that eliminates fewer than half the raw requests
    emits for longer than raw dispatch would, because its issue port
    runs at half the accept rate — see EXPERIMENTS.md (Fig. 17 notes).
    """
    if cycles_per_packet < 0:
        raise ValueError("cadence must be non-negative")
    dev = HMCDevice(hmc, obs=obs)
    attrib = obs.attrib
    t = 0.0
    for pkt in packets:
        if use_issue_cycles:
            t = max(t, float(pkt.issue_cycle))
        dev.submit(pkt, int(t))
        if attrib.enabled:
            for raw in pkt.requests:
                attrib.finalize(raw)
        if not use_issue_cycles:
            t += cycles_per_packet if cycles_per_packet > 0 else 2.0
    st = dev.stats
    return ReplayResult(
        makespan=st.makespan,
        mean_latency=st.mean_latency,
        bank_conflicts=dev.bank_conflicts,
        activations=dev.activations,
        wire_bytes=st.wire_bytes,
        device=dev,
    )


def compare_policies(
    name: str,
    threads: int = DEFAULT_THREADS,
    ops_per_thread: int = DEFAULT_OPS_PER_THREAD,
    config: Optional[MACConfig] = None,
    seed: int = DEFAULT_SEED,
) -> Dict[str, ReplayResult]:
    """Raw vs MAC replay of one benchmark on identical devices."""
    raw = dispatch(name, "raw", threads, ops_per_thread, config, seed)
    mac = dispatch(name, "mac", threads, ops_per_thread, config, seed)
    return {
        "raw": replay_on_device(raw.packets, cycles_per_packet=1.0),
        "mac": replay_on_device(mac.packets),
    }


def attributed_node_run(
    name: str,
    threads: int = DEFAULT_THREADS,
    ops_per_thread: int = DEFAULT_OPS_PER_THREAD,
    seed: int = DEFAULT_SEED,
    coalescing: bool = True,
    config: Optional[MACConfig] = None,
    hmc: Optional[HMCConfig] = None,
    engine=None,
    obs: Optional[Observers] = None,
):
    """Closed-loop node run of one benchmark with attribution enabled.

    Builds per-core request streams from the benchmark trace, runs the
    full Fig. 4 node (cores -> MAC -> device -> response delivery), and
    returns ``(obs.attrib, node)``; ``obs`` defaults to a bundle holding
    a fresh :class:`AttributionCollector` and nothing else.  This is the
    richest attribution source: all nine boundary marks are crossed, so
    every stage of the breakdown is populated and the exactness
    invariant covers the complete path.
    With ``coalescing=False`` the node runs the paper's uncoalesced
    baseline (1-entry ARQ, everything 16 B) for A/B bottleneck diffs.
    """
    from repro.core.config import SystemConfig
    from repro.node.node import Node

    trace = cached_trace(name, threads, ops_per_thread, seed)
    per_core: Dict[int, List] = {}
    for req in to_requests(trace):
        per_core.setdefault(req.core, []).append(req)
    if obs is None:
        obs = Observers(attrib=AttributionCollector())
    node = Node(
        [iter(reqs) for _, reqs in sorted(per_core.items())],
        system=SystemConfig(mac=config) if config is not None else None,
        coalescing_enabled=coalescing,
        hmc_config=hmc,
        obs=obs,
    )
    node.run(engine=engine)
    return obs.attrib, node


def numa_streams(
    name: str,
    nodes: int,
    threads: int = DEFAULT_THREADS,
    ops_per_thread: int = DEFAULT_OPS_PER_THREAD,
    seed: int = DEFAULT_SEED,
) -> List[List]:
    """Per-node, per-core request streams of one benchmark for a mesh.

    Each node generates its own trace with a node-derived seed, so the
    mesh runs ``nodes`` independent instances of the workload over the
    shared interleaved address space — the paper's Fig. 4 setup scaled
    out.  Requests are stamped with their origin node so responses can
    find their way home.
    """
    from repro.seeding import derive_seed

    out: List[List] = []
    for n in range(nodes):
        trace = cached_trace(
            name, threads, ops_per_thread, derive_seed(seed, "node", n)
        )
        per_core: Dict[int, List] = {}
        for req in to_requests(trace, node=n):
            per_core.setdefault(req.core, []).append(req)
        out.append([iter(reqs) for _, reqs in sorted(per_core.items())])
    return out


def numa_closed_loop(
    name: str,
    nodes: int = 4,
    threads: int = DEFAULT_THREADS,
    ops_per_thread: int = DEFAULT_OPS_PER_THREAD,
    seed: int = DEFAULT_SEED,
    interconnect_latency: int = 120,
    interleave_bytes: int = 1 << 12,
    config: Optional[MACConfig] = None,
    hmc: Optional[HMCConfig] = None,
    engine=None,
    max_cycles: int = 50_000_000,
    obs: Observers = NO_OBSERVERS,
):
    """Closed-loop NUMA mesh run of one benchmark; returns the system.

    The multi-node sibling of :func:`attributed_node_run`: every node is
    a full Fig. 4 node and remote requests coalesce at their home node.
    """
    from repro.core.config import SystemConfig
    from repro.node.system import NUMASystem

    system = NUMASystem(
        numa_streams(name, nodes, threads, ops_per_thread, seed),
        system=SystemConfig(mac=config) if config is not None else None,
        interconnect_latency=interconnect_latency,
        interleave_bytes=interleave_bytes,
        hmc_config=hmc,
        obs=obs,
    )
    system.run(max_cycles, engine=engine)
    return system
