"""Multi-node NUMA system (paper Fig. 4, section 3).

Each node owns one 3D-stacked memory device; the physical address space
is interleaved across nodes at a configurable granularity.  Requests for
remote devices travel: local request router (Global Access Queue) ->
interconnect -> remote Remote Access Queue -> remote MAC -> remote HMC,
and the response retraces the path.  Remote traffic coalesces in the
*home* node's MAC together with that node's local traffic — the
generality claim of section 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Iterator, List, Optional, Sequence

from repro.core.config import SystemConfig
from repro.core.request import MemoryRequest
from repro.obs.attribution import NodeAttribution, StallCause
from repro.obs.metrics import flatten
from repro.obs.observers import NO_OBSERVERS, Observers
from repro.obs.protocol import StatsMixin
from repro.sim import ClockedModel, get_engine

from .interconnect import Interconnect
from .node import Node


def interleaved_home(nodes: int, granularity: int = 1 << 12):
    """Address -> home-node mapping, interleaved at ``granularity`` bytes."""
    if nodes < 1:
        raise ValueError("need at least one node")
    if granularity < 1 or granularity & (granularity - 1):
        raise ValueError(
            f"interleave granularity must be a positive power of two, got {granularity}"
        )
    shift = granularity.bit_length() - 1

    def home(addr: int) -> int:
        return (addr >> shift) % nodes

    return home


@dataclass
class SystemStats(StatsMixin):
    cycles: int = 0
    local_requests: int = 0
    remote_requests: int = 0
    responses: int = 0

    # Fabric flow control (credit-based interconnect).
    fabric_messages: int = 0
    fabric_credit_stalls: int = 0
    remote_backpressure_stalls: int = 0

    # Degraded-mode outcomes (all zero when fault injection is off).
    failed_links: int = 0
    link_bandwidth_loss: float = 0.0
    poisoned_responses: int = 0
    reissued_packets: int = 0
    response_timeouts: int = 0
    duplicate_responses: int = 0
    #: Remote completions that matched no waiting core — a duplicate of
    #: an already-delivered response, suppressed (and counted) exactly
    #: once instead of double-completing an LSQ entry.
    duplicate_remote_drops: int = 0


class NUMASystem(ClockedModel):
    """A small mesh of MAC-equipped nodes sharing one address space.

    Every request in ``streams_per_node[n]`` must carry ``node=n``: the
    response router sends a completion to ``raw.node``, and a raw request
    arriving over the fabric at its own ``node`` is a completion coming
    home, while any other is a remote request reaching its home node.
    Each :class:`Node` rejects a core request stamped otherwise.
    """

    _overrun_msg = "system simulation exceeded max_cycles"

    def __init__(
        self,
        streams_per_node: Sequence[Sequence[Iterator[MemoryRequest]]],
        system: Optional[SystemConfig] = None,
        interconnect_latency: int = 120,
        interleave_bytes: int = 1 << 12,
        hmc_config=None,
        channel_capacity: int = 64,
        obs: Observers = NO_OBSERVERS,
    ) -> None:
        n = len(streams_per_node)
        if n < 1:
            raise ValueError("need at least one node")
        self.obs = obs
        at = self.attrib = obs.attrib
        self.home = interleaved_home(n, interleave_bytes)
        self.nodes: List[Node] = []
        for nid, streams in enumerate(streams_per_node):
            # Nodes run under this system's engine hooks: they share only
            # the per-request instruments, each node charging its own
            # ``node<k>.`` stall and depth sites.
            node = Node(
                streams,
                system=system,
                hmc_config=hmc_config,
                node_id=nid,
                obs=Observers(
                    tracer=obs.tracer,
                    attrib=NodeAttribution(at, nid) if at.enabled else at,
                ),
            )
            # Rewire the request router with the shared home function.
            node.mac.request_router.home_fn = self.home
            self.nodes.append(node)
        self.fabric = Interconnect(interconnect_latency, channel_capacity)
        self.stats = SystemStats()
        self._cycle = 0
        #: Per-node wake table: the cycle each node next acts on its own
        #: (``inf`` = it waits on a fabric delivery).  0 = due at once.
        self._wakes: List[float] = [0] * n

    def done(self) -> bool:
        return self.fabric.in_flight == 0 and all(
            node.done() for node in self.nodes
        )

    def tick(self) -> None:
        """One mesh cycle: fabric arrivals, then every node whose cached wake
        is due or that the fabric delivered to, caught up to ``cycle`` first."""
        cycle = self._cycle
        stats = self.stats
        fabric = self.fabric
        nodes = self.nodes
        wakes = self._wakes

        # Fabric arrivals: pump admission state (only when a hop is due
        # or stalled, the only state it reads), then drain each ready
        # channel.
        if fabric.stalled_hops or fabric.next_arrival <= cycle:
            fabric.pump(cycle)
        if fabric.queued:
            self._take_arrivals(cycle)

        # Per-node progress, with remote routing.
        send = fabric.send
        for idx, node in enumerate(nodes):
            if wakes[idx] > cycle:
                continue
            if node._cycle != cycle:
                node.skip_to(cycle)
            node.tick()
            # Outbound remote raw requests, then responses for remote
            # requesters (collected by node.tick).
            router = node.mac.request_router
            while router.global_queue._q:
                req = router.next_outbound()
                stats.remote_requests += 1
                send(cycle, self.home(req.addr), req, idx)
            if node.pending_remote:
                for raw in node.pending_remote:
                    send(cycle, raw.node, raw, idx)
                node.pending_remote.clear()
            wake = node.next_event_cycle(cycle + 1)
            wakes[idx] = inf if wake is None else wake

        self._cycle = cycle + 1

    def _take_arrivals(self, cycle: int) -> None:
        """Drain every ready fabric channel into its node, caught up and
        marked due first: raw requests into remote queues, completed raw
        requests back to the issuing core.  A full Remote Access Queue
        head-of-line blocks its channel (the refused hops keep their
        slots and retry next cycle) instead of bouncing across the
        fabric: flow control stays local and deterministic."""
        at = self.attrib
        stats = self.stats
        fabric = self.fabric
        for dst, payloads in fabric.take_ready(cycle):
            node = self.nodes[dst]
            if node._cycle != cycle:
                node.skip_to(cycle)
            self._wakes[dst] = cycle
            for i, payload in enumerate(payloads):
                if payload.node != dst:  # a remote request at its home
                    if node.mac.submit_remote(payload):
                        continue
                    fabric.refuse(dst, payloads[i:])
                    stats.remote_backpressure_stalls += 1
                    if at.enabled:
                        at.stall_span(
                            "fabric", StallCause.RESPONSE_BACKPRESSURE, cycle, cycle + 1
                        )
                    break
                # A completed raw request back at its issuer.
                if node.deliver_completion(payload, cycle):
                    stats.responses += 1
                    if at.enabled:
                        at.mark(payload, "deliver", cycle)
                        at.finalize(payload)
                else:
                    stats.duplicate_remote_drops += 1

    # -- quiescence skipping -------------------------------------------------

    def next_event_cycle(self, now: int) -> Optional[int]:
        """Earliest cycle >= ``now`` at which the fabric or any cached node
        wake acts."""
        wake = min(self._wakes)
        fabric_wake = self.fabric.next_event_cycle(now)
        if fabric_wake is not None and fabric_wake < wake:
            wake = fabric_wake
        if wake == inf:
            return None
        return wake if wake > now else now

    def skip_to(self, target: int) -> None:
        """Move the mesh's cycle only.  A node lags the mesh until it is
        next ticked or delivered to, which catches it up first; reads of
        node state settle every node with :meth:`_settle`."""
        if target > self._cycle:
            self._cycle = target

    def _settle(self) -> None:
        """Catch every node up to the mesh's cycle (before node state is read)."""
        cycle = self._cycle
        for node in self.nodes:
            node.skip_to(cycle)

    # -- robustness introspection (see repro.sim.watchdog) -------------------

    def progress_token(self):
        """Fingerprint that changes whenever any part of the mesh progresses."""
        return (
            self.fabric.messages_sent,
            self.fabric.in_flight,
            tuple(node.progress_token() for node in self.nodes),
        )

    def hang_snapshot(self) -> dict:
        """Diagnostic state attached to a :class:`SimulationHang`."""
        self._settle()
        return {
            "cycle": self._cycle,
            "fabric_in_flight": self.fabric.in_flight,
            "nodes": {
                i: node.hang_snapshot() for i, node in enumerate(self.nodes)
            },
        }

    def check_invariants(self) -> None:
        """Per-node sanitizer sweeps plus mesh-wide request conservation.

        Each node checks its own occupancy bounds and link-token
        conservation (its local conservation check stays off because
        ``home_fn`` is set); the global check accounts for raws crossing
        the fabric: every issuer-map entry in the mesh matches exactly
        one raw in some node's containers or one fabric payload (a raw
        request heading to its home, or completed and heading back).
        """
        from repro.sim.watchdog import InvariantViolation

        for node in self.nodes:
            node.check_invariants()
        if any(node.device.injector is not None for node in self.nodes):
            return  # fault injection drops/duplicates responses by design
        issued = sum(len(node._issuer) for node in self.nodes)
        counted = sum(node.outstanding_raw_count() for node in self.nodes)
        # Fabric payloads are raw requests: travelling to their home node
        # or, completed, heading back.  Fences never leave their node.
        counted += len(self.fabric.pending_payloads())
        if issued != counted:
            raise InvariantViolation(
                self._cycle,
                f"mesh request conservation broken: issuer maps hold {issued} "
                f"in-flight requests but containers+fabric hold {counted}",
            )

    def metrics(self) -> dict:
        """One flat namespaced dict over every stats source in the system.

        ``system.*`` carries :class:`SystemStats`; each node's full view
        (node/mac/arq/router/device/vaults/links/cores, see
        :meth:`repro.node.node.Node.metrics`) appears under
        ``node<id>.*``.
        """
        self._settle()
        out = flatten(self.stats.snapshot(), "system.")
        for node in self.nodes:
            out.update(flatten(node.metrics(), f"node{node.node_id}."))
        return out

    def timeline_probes(self):
        """System-wide rate probes plus every node's, prefixed with the
        node id (DESIGN 13)."""
        stats = self.stats
        fabric = self.fabric
        probes = [
            ("system.remote_requests", "rate", lambda: stats.remote_requests),
            ("system.responses", "rate", lambda: stats.responses),
            (
                "system.backpressure_stalls",
                "rate",
                lambda: stats.remote_backpressure_stalls,
            ),
            ("fabric.messages", "rate", lambda: fabric.messages_sent),
            ("fabric.credit_stalls", "rate", lambda: fabric.credit_stalls),
        ]
        for idx, node in enumerate(self.nodes):
            prefix = f"node{idx}."
            for name, kind, fn in node.timeline_probes():
                probes.append((prefix + name, kind, fn))
        return probes

    def run(
        self,
        max_cycles: int = 50_000_000,
        engine=None,
        shards: int = 1,
    ) -> SystemStats:
        """Simulate until every node drains; returns the filled stats.

        ``engine`` selects the simulation engine (name or instance, see
        :mod:`repro.sim`); the default is the skip engine.
        """
        # perfbench/job.py still passes shards=1; any other count names
        # the sharded backend, which is gone.
        if shards != 1:
            raise ValueError(
                f"shards={shards}: sharded NUMA runs were removed; "
                "a mesh always runs serially"
            )
        get_engine(engine).run(self, max_cycles)
        self._settle()
        st = self.stats
        st.cycles = self._cycle
        st.local_requests = sum(
            n.mac.request_router.stats.local for n in self.nodes
        )
        st.fabric_messages = self.fabric.messages_sent
        st.fabric_credit_stalls = self.fabric.credit_stalls
        # Degraded-mode report: traffic was steered off dead links inside
        # each device; surface how much aggregate bandwidth that cost.
        st.failed_links = sum(len(n.device.failed_links) for n in self.nodes)
        total_links = sum(len(n.device.links) for n in self.nodes)
        st.link_bandwidth_loss = st.failed_links / total_links if total_links else 0.0
        st.poisoned_responses = sum(
            n.mac.response_router.poisoned_deliveries for n in self.nodes
        )
        st.reissued_packets = sum(
            n.mac.response_router.reissues for n in self.nodes
        )
        st.response_timeouts = sum(
            n.mac.response_router.timeouts for n in self.nodes
        )
        st.duplicate_responses = sum(
            n.mac.response_router.duplicates_suppressed for n in self.nodes
        )
        return st
