"""Multi-node NUMA system (paper Fig. 4, section 3).

Each node owns one 3D-stacked memory device; the physical address space
is interleaved across nodes at a configurable granularity.  Requests for
remote devices travel: local request router (Global Access Queue) ->
interconnect -> remote Remote Access Queue -> remote MAC -> remote HMC,
and the response retraces the path.  Remote traffic coalesces in the
*home* node's MAC together with that node's local traffic — the
generality claim of section 3.

Large meshes can be sharded across forked worker processes
(:mod:`repro.sim.pdes`): ``run(shards=k)`` — or ``REPRO_SIM_SHARDS`` —
partitions the nodes round-robin over ``k`` workers that advance in
conservative safe windows of the fabric latency, bit-identical to the
serial engines.  A restricted system (one shard's view of the mesh)
simulates only ``self._local_ids``; the fabric exports hops bound for
other shards and the PDES runner routes them at window barriers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

from repro.core.config import SystemConfig
from repro.core.request import MemoryRequest
from repro.obs.attribution import NULL_ATTRIBUTION, StallCause
from repro.obs.protocol import StatsMixin

from repro.obs.metrics import flatten
from repro.obs.timeline import NULL_TIMELINE
from repro.obs.tracer import NULL_TRACER
from repro.sim import ClockedModel, register_wake_protocol

from .interconnect import Interconnect
from .node import Node


def interleaved_home(nodes: int, granularity: int = 1 << 12):
    """Address -> home-node mapping, interleaved at ``granularity`` bytes."""
    if nodes < 1:
        raise ValueError("need at least one node")
    if granularity & (granularity - 1):
        raise ValueError("granularity must be a power of two")
    shift = granularity.bit_length() - 1

    def home(addr: int) -> int:
        return (addr >> shift) % nodes

    return home


@dataclass
class SystemStats(StatsMixin):
    MERGE_MAX = frozenset({"cycles", "link_bandwidth_loss"})

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


@register_wake_protocol
class NUMASystem(ClockedModel):
    """A small mesh of MAC-equipped nodes sharing one address space."""

    _overrun_msg = "system simulation exceeded max_cycles"

    def __init__(
        self,
        streams_per_node: Sequence[Sequence[Iterator[MemoryRequest]]],
        system: Optional[SystemConfig] = None,
        interconnect_latency: int = 120,
        interleave_bytes: int = 1 << 12,
        hmc_config=None,
        tracer=NULL_TRACER,
        attrib=NULL_ATTRIBUTION,
        channel_capacity: int = 64,
        timeline=NULL_TIMELINE,
    ) -> None:
        n = len(streams_per_node)
        if n < 1:
            raise ValueError("need at least one node")
        self.tracer = tracer
        self.attrib = attrib
        self.timeline = timeline
        self.home = interleaved_home(n, interleave_bytes)
        self.nodes: List[Node] = []
        for nid, streams in enumerate(streams_per_node):
            node = Node(
                streams,
                system=system,
                hmc_config=hmc_config,
                node_id=nid,
                tracer=tracer,
                attrib=attrib,
            )
            # Rewire the request router with the shared home function.
            node.mac.request_router.home_fn = self.home
            self.nodes.append(node)
        self.fabric = Interconnect(interconnect_latency, channel_capacity)
        self.stats = SystemStats()
        self._cycle = 0
        #: Node ids simulated by this process (a subset under PDES).
        self._local_ids: List[int] = list(range(n))
        #: Filled by a sharded run (see :class:`repro.sim.pdes.ShardReport`).
        self.shard_report = None

    def restrict_to_shard(self, local_ids: Sequence[int]) -> None:
        """Confine this system to one shard's node subset (PDES worker).

        Ticking, quiescence probing, and skipping touch only the local
        nodes; fabric sends to other shards' nodes accumulate as exports
        for the window barrier.
        """
        self._local_ids = sorted(local_ids)
        self.fabric.restrict(self._local_ids)

    def done(self) -> bool:
        return (
            all(self.nodes[i].done() for i in self._local_ids)
            and self.fabric.in_flight == 0
        )

    def tick(self) -> None:
        cycle = self._cycle

        # Fabric arrivals: pump credit/admission state, then drain each
        # ready channel — raw requests into remote queues, response
        # payloads back to the requesting core.  A full Remote Access
        # Queue head-of-line blocks its channel (the hop keeps its slot
        # and retries next cycle) instead of bouncing across the fabric:
        # flow control stays local and deterministic.
        at = self.attrib
        fabric = self.fabric
        fabric.pump(cycle)
        for dst in fabric.ready_dsts():
            node = self.nodes[dst]
            while True:
                payload = fabric.peek(dst)
                if payload is None:
                    break
                if isinstance(payload, MemoryRequest):
                    if not node.mac.submit_remote(payload):
                        self.stats.remote_backpressure_stalls += 1
                        if at.enabled:
                            at.stall_span(
                                "fabric",
                                StallCause.RESPONSE_BACKPRESSURE,
                                cycle,
                                cycle + 1,
                            )
                        break
                    fabric.pop(dst, cycle)
                else:  # (target, raw) completion pair heading home
                    target, raw = fabric.pop(dst, cycle)
                    if node.deliver_completion(target, raw, cycle):
                        self.stats.responses += 1
                        if at.enabled:
                            m = raw.marks
                            if m is None:
                                m = raw.marks = {}
                            m["deliver"] = cycle
                            at.finalize(raw)
                    else:
                        self.stats.duplicate_remote_drops += 1

        # Per-node progress, with remote routing.
        for idx in self._local_ids:
            node = self.nodes[idx]
            node.tick()
            # Outbound remote raw requests.
            while True:
                req = node.mac.request_router.next_outbound()
                if req is None:
                    break
                self.stats.remote_requests += 1
                self.fabric.send(cycle, self.home(req.addr), req, src=idx)
            # Responses for remote requesters (collected by node.tick).
            for target, raw in node.pending_remote:
                self.fabric.send(cycle, raw.node, (target, raw), src=idx)
            node.pending_remote.clear()

        self._cycle += 1

    # -- quiescence skipping -------------------------------------------------

    def next_event_cycle(self, now: int) -> Optional[int]:
        """Earliest cycle >= ``now`` at which any part of the mesh acts.

        Wake sources: the fabric's earliest delivery and every node's own
        schedule.  Undrained outbound-remote traffic (possible only if a
        caller ticks a node outside :meth:`tick`) pins the system to
        lockstep rather than risking a missed send.
        """
        wake = self.fabric.next_event_cycle(now)
        if wake is not None and wake <= now:
            return now
        for idx in self._local_ids:
            node = self.nodes[idx]
            if not node.mac.request_router.global_queue.empty:
                return now
            w = node.next_event_cycle(now)
            if w is None:
                continue
            if w <= now:
                return now
            if wake is None or w < wake:
                wake = w
        return wake

    def skip_to(self, target: int) -> None:
        """Fast-forward the whole mesh over a proven-quiescent span."""
        if target <= self._cycle:
            return
        for idx in self._local_ids:
            self.nodes[idx].skip_to(target)
        self._cycle = target

    # -- robustness introspection (see repro.sim.watchdog) -------------------

    def progress_token(self):
        """Fingerprint that changes whenever any part of the mesh progresses."""
        return (
            self.fabric.messages_sent,
            self.fabric.in_flight,
            tuple(self.nodes[i].progress_token() for i in self._local_ids),
        )

    def hang_snapshot(self) -> dict:
        """Diagnostic state attached to a :class:`SimulationHang`."""
        return {
            "cycle": self._cycle,
            "fabric_in_flight": self.fabric.in_flight,
            "nodes": {
                i: self.nodes[i].hang_snapshot() for i in self._local_ids
            },
        }

    def check_invariants(self) -> None:
        """Per-node sanitizer sweeps plus mesh-wide request conservation.

        Each node checks its own occupancy bounds and link-token
        conservation (its local conservation check stays off because
        ``home_fn`` is set); the global check accounts for raws crossing
        the fabric: every issuer-map entry in the mesh matches exactly
        one raw in some node's containers or one fabric payload (a raw
        request heading to its home, or a completion pair heading back).
        The global check needs the whole mesh, so a shard-restricted
        system runs only the per-node sweeps.
        """
        from repro.sim.watchdog import InvariantViolation

        for idx in self._local_ids:
            self.nodes[idx].check_invariants()
        if len(self._local_ids) != len(self.nodes):
            return  # one shard cannot see raws held by the others
        if any(node.device.injector is not None for node in self.nodes):
            return  # fault injection drops/duplicates responses by design
        issued = sum(len(node._issuer) for node in self.nodes)
        counted = sum(node.outstanding_raw_count() for node in self.nodes)
        for payload in self.fabric.pending_payloads():
            if isinstance(payload, MemoryRequest):
                if not payload.is_fence:
                    counted += 1  # raw request travelling to its home node
            else:
                counted += 1  # (target, raw) completion pair heading back
        if issued != counted:
            raise InvariantViolation(
                self._cycle,
                f"mesh request conservation broken: issuer maps hold {issued} "
                f"in-flight requests but containers+fabric hold {counted}",
            )

    def degraded_nodes(self) -> List[int]:
        """Nodes whose device lost at least one link to a hard fault."""
        return [n.node_id for n in self.nodes if n.degraded]

    def metrics(self) -> dict:
        """One flat namespaced dict over every stats source in the system.

        ``system.*`` carries :class:`SystemStats`; each node's full view
        (node/mac/arq/router/device/vaults/links/cores, see
        :meth:`repro.node.node.Node.metrics`) appears under
        ``node<id>.*``.
        """
        out = flatten(self.stats.snapshot(), "system.")
        for node in self.nodes:
            out.update(flatten(node.metrics(), f"node{node.node_id}."))
        return out

    def timeline_probes(self):
        """System-wide rate probes plus every *local* node's (DESIGN 13).

        System-level probes are rate-only: under PDES each shard's
        restricted system holds disjoint partitions of these counters
        (remote sends count at the source shard, deliveries and
        backpressure at the destination shard), so summing per-epoch
        deltas at the merge reconstructs the serial series exactly.
        Node probes — including the level probes — are prefixed with the
        node id and registered only for ``self._local_ids``, so each one
        lives on exactly one shard.
        """
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
        for idx in self._local_ids:
            prefix = f"node{idx}."
            for name, kind, fn in self.nodes[idx].timeline_probes():
                probes.append((prefix + name, kind, fn))
        return probes

    def shard_blockers(self) -> List[str]:
        """Why this system cannot shard (empty list = it can).

        Attribution pins the run to one process: stall spans watermark
        per shared site, so cross-shard merging would not be exact — and
        the bit-identity contract admits no "almost" (the shard-aware
        timeline, ``repro run --timeline-out``, is the time-resolved
        alternative that does shard).  Event tracing no longer blocks:
        shards collect events locally and the PDES parent merges them
        deterministically at collect time.
        """
        out: List[str] = []
        if len(self.nodes) < 2:
            out.append("fewer than two nodes")
        if self.fabric.latency_cycles < 1:
            out.append("zero-latency fabric leaves no lookahead window")
        if getattr(self.attrib, "enabled", False):
            out.append("attribution enabled")
        if self.fabric.in_flight:
            # Hand-seeded pre-run traffic (tests, replay harnesses) is
            # not re-partitioned: forking would clone it into every
            # shard instead of routing it to its owner.
            out.append("fabric holds pre-seeded in-flight traffic")
        return out

    def run(
        self,
        max_cycles: int = 50_000_000,
        engine=None,
        shards: Optional[int] = None,
    ) -> SystemStats:
        """Simulate until every node drains; returns the filled stats.

        ``engine`` selects the simulation engine (name or instance, see
        :mod:`repro.sim`); the default is the skip engine.  ``shards`` > 1 — defaulting to
        ``$REPRO_SIM_SHARDS`` — runs the mesh under conservative PDES
        (:mod:`repro.sim.pdes`), bit-identical to the serial engines;
        configurations that cannot shard (see :meth:`shard_blockers`)
        fall back to a serial run silently, so the env var is safe to
        set globally.
        """
        from repro.sim import pdes

        self.shard_report = None
        n_shards = min(pdes.resolve_shards(shards), len(self.nodes))
        if n_shards > 1 and not self.shard_blockers() and pdes.workers_available():
            try:
                self.shard_report = pdes.run_sharded(self, max_cycles, n_shards)
            except pdes.ShardFallback as exc:
                import warnings

                warnings.warn(
                    f"sharded run fell back to serial: {exc}", RuntimeWarning
                )
        if self.shard_report is None:
            self._run_loop(max_cycles, engine=engine)
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
