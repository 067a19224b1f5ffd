"""One full node: cores + SPMs + MAC + local HMC device, closed loop.

This is the dashed box of the paper's Fig. 4: multiple simple in-order
cores behind a request router, the MAC, and a directly attached
3D-stacked memory device.  The node simulation advances all components
on one clock and delivers memory responses back to the issuing cores'
load/store queues, so end-to-end latency and throughput effects
(Fig. 17) emerge from the closed loop.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.config import MACConfig, SystemConfig
from repro.core.flit_table import FlitTablePolicy
from repro.core.mac import MAC
from repro.core.request import MemoryRequest
from repro.hmc.config import HMCConfig
from repro.hmc.device import HMCDevice
from repro.obs.attribution import NULL_ATTRIBUTION
from repro.obs.metrics import flatten
from repro.obs.protocol import StatsMixin
from repro.obs.timeline import NULL_TIMELINE
from repro.obs.tracer import NULL_TRACER
from repro.sim import ClockedModel, register_wake_protocol

from .core import InOrderCore
from .spm import ScratchpadMemory


@dataclass
class NodeStats(StatsMixin):
    # The derived fills are per-run summaries, not additive counters:
    # the pessimistic (max) value is the honest cross-worker aggregate.
    MERGE_MAX = frozenset(
        {"cycles", "coalescing_efficiency", "mean_memory_latency",
         "link_bandwidth_loss"}
    )

    cycles: int = 0
    requests_issued: int = 0
    responses_delivered: int = 0

    # Filled from subcomponents at the end of a run.
    coalescing_efficiency: float = 0.0
    bank_conflicts: int = 0
    mean_memory_latency: float = 0.0

    # Fault-injection outcomes (all zero when faults are disabled).
    poisoned_responses: int = 0
    response_timeouts: int = 0
    reissued_packets: int = 0
    duplicate_responses: int = 0
    link_retries: int = 0
    link_crc_errors: int = 0
    failed_links: int = 0
    link_bandwidth_loss: float = 0.0


@register_wake_protocol
class Node(ClockedModel):
    """Closed-loop simulation of one node of the Fig. 4 architecture.

    The node runs a per-core event wheel: each core is ACTIVE (ticked
    every cycle), PARKED (scheduled to wake at a known future cycle on
    the ``_core_wake`` heap — an SPM retirement or issue cooldown), or
    BLOCKED (wakes only when a response delivery reactivates it).  A
    parked or blocked core's per-cycle accounting is deferred and
    applied in bulk via ``core.skip(parked_at, now)`` at reactivation,
    so results stay bit-identical to ticking every core every cycle
    while the hot loop touches only the cores that can act.
    """

    _overrun_msg = "node simulation exceeded max_cycles"

    def __init__(
        self,
        streams: Sequence[Iterator[MemoryRequest]],
        system: Optional[SystemConfig] = None,
        hmc_config: Optional[HMCConfig] = None,
        node_id: int = 0,
        policy: FlitTablePolicy = FlitTablePolicy.SPAN,
        coalescing_enabled: bool = True,
        spm_factory: Optional[Callable[[int], ScratchpadMemory]] = None,
        lsq_capacity: Optional[int] = None,
        tracer=NULL_TRACER,
        attrib=NULL_ATTRIBUTION,
        timeline=NULL_TIMELINE,
    ) -> None:
        self.system = system or SystemConfig()
        self.node_id = node_id
        self.tracer = tracer
        self.attrib = attrib
        self.timeline = timeline
        #: With coalescing disabled the MAC degenerates to a 1-entry ARQ
        #: with no latency hiding: every request ships as a 16 B packet
        #: (the paper's "without MAC" baseline).
        mac_cfg = (
            self.system.mac
            if coalescing_enabled
            else MACConfig(arq_entries=1, latency_hiding=False)
        )
        self.mac = MAC(
            mac_cfg, node_id=node_id, policy=policy, tracer=tracer, attrib=attrib
        )
        self.device = HMCDevice(hmc_config, tracer=tracer, attrib=attrib)
        self.cores: List[InOrderCore] = []
        for cid, stream in enumerate(streams):
            spm = (
                spm_factory(cid)
                if spm_factory is not None
                else ScratchpadMemory(
                    self.system.spm_bytes, self.system.spm_latency_cycles
                )
            )
            if lsq_capacity is None:
                self.cores.append(InOrderCore(cid, stream, spm=spm))
            else:
                # Shallow LSQs model the paper's strict stall-on-miss base
                # core: the latency-bound regime the skip engine targets.
                self.cores.append(
                    InOrderCore(cid, stream, spm=spm, lsq_capacity=lsq_capacity)
                )
        self.stats = NodeStats()
        self._cycle = 0
        #: Min-heap of (complete_cycle, seq, response) awaiting delivery.
        self._in_flight: List = []
        self._seq = 0
        #: (target, raw) pairs for remote requesters, collected by the
        #: NUMA system each tick.
        self.pending_remote: List = []
        #: (tid, tag) -> issuing core, recorded when the MAC accepts a
        #: request, so response delivery is a dict lookup instead of a
        #: scan over every core (multithreaded cores may host a thread
        #: whose tid does not match their position in ``self.cores``).
        self._issuer: Dict[Tuple[int, int], object] = {}
        self._reset_wheel()

    # -- per-core event wheel ------------------------------------------------

    def _reset_wheel(self) -> None:
        """(Re)build the wheel; every core starts ACTIVE at this cycle."""
        n = len(self.cores)
        self._wheel_size = n
        self._core_active = [True] * n
        self._active_count = n
        #: Cycle up to which each inactive core's accounting is settled.
        self._core_parked_at = [self._cycle] * n
        #: Scheduled wake cycle per core (None = blocked on a delivery).
        self._core_wake: List[Optional[int]] = [None] * n
        #: Min-heap of (wake_cycle, core_index); entries whose cycle no
        #: longer matches ``_core_wake`` are stale and dropped on pop.
        self._wake_heap: List[Tuple[int, int]] = []
        for i, core in enumerate(self.cores):
            core._wheel_idx = i

    def _activate(self, idx: int, cycle: int) -> None:
        """Catch an inactive core up to ``cycle`` and mark it active."""
        parked = self._core_parked_at[idx]
        if cycle > parked:
            self.cores[idx].skip(parked, cycle)
        self._core_active[idx] = True
        self._active_count += 1
        self._core_wake[idx] = None

    def _sync_cores(self) -> None:
        """Apply deferred accounting of inactive cores up to now.

        Cores stay parked/blocked; only their bulk counters advance.
        Needed before any external observation of core stats.
        """
        now = self._cycle
        for idx, active in enumerate(self._core_active):
            if not active and self._core_parked_at[idx] < now:
                self.cores[idx].skip(self._core_parked_at[idx], now)
                self._core_parked_at[idx] = now

    def done(self) -> bool:
        if self._in_flight or not self.mac.idle():
            return False
        if self.mac.response_router.outstanding:
            return False
        return all(c.done for c in self.cores)

    @property
    def degraded(self) -> bool:
        """True once the device lost at least one link to a hard fault."""
        return bool(self.device.failed_links)

    def metrics(self) -> dict:
        """Flat namespaced metrics over every stats source of the node.

        Unions the MAC's (``mac.*``/``router.*``/``arq.*``) and the
        device's (``device.*``/``vaults.*``/``links.*``/``faults.*``)
        already-namespaced views with ``node.*`` and summed ``cores.*``.
        """
        self._sync_cores()
        out = flatten(self.stats.snapshot(), "node.")
        out.update(self.mac.metrics())
        out.update(self.device.metrics())
        core_totals: dict = {}
        for core in self.cores:
            for key, value in core.stats.snapshot().items():
                if isinstance(value, (int, float)):
                    core_totals[key] = core_totals.get(key, 0) + value
        out.update(flatten(core_totals, "cores."))
        return out

    def timeline_probes(self):
        """Node-level probes plus the MAC's and the device's (DESIGN 13).

        Levels read occupancies whose every mutation happens on this
        node, so under sharding they land on exactly one shard; rates
        are monotonic counters whose per-epoch deltas merge by summing.
        """
        stats = self.stats
        probes = [
            ("node.requests_issued", "rate", lambda: stats.requests_issued),
            (
                "node.responses_delivered",
                "rate",
                lambda: stats.responses_delivered,
            ),
            ("node.inflight", "level", lambda: len(self._in_flight)),
            (
                "node.lsq_depth",
                "level",
                lambda: sum(
                    len(c.lsq)
                    for c in self.cores
                    if getattr(c, "lsq", None) is not None
                ),
            ),
        ]
        probes.extend(self.mac.timeline_probes())
        probes.extend(self.device.timeline_probes())
        return probes

    def tick(self) -> None:
        cycle = self._cycle
        if self._wheel_size != len(self.cores):
            self._reset_wheel()

        # 0. Wake parked cores whose scheduled cycle has arrived.
        wheap = self._wake_heap
        while wheap and wheap[0][0] <= cycle:
            wake, idx = heapq.heappop(wheap)
            if self._core_wake[idx] == wake and not self._core_active[idx]:
                self._activate(idx, cycle)

        # 1. Deliver responses that completed by now.
        while self._in_flight and self._in_flight[0][0] <= cycle:
            _, _, resp = heapq.heappop(self._in_flight)
            self.mac.receive_response(resp)
        if self.mac.response_router.buffered:
            local, remote = self.mac.deliver_responses()
            self.pending_remote.extend(remote)
            at = self.attrib
            for target, raw in local:
                if at.enabled:
                    # Inlined AttributionCollector.mark (hot: every response).
                    m = raw.marks
                    if m is None:
                        m = raw.marks = {}
                    m["deliver"] = cycle
                    at.finalize(raw)
                self.deliver_completion(target, raw, cycle)
                self.stats.responses_delivered += 1

        # 2. Active cores issue.  Iterating in list order preserves the
        # arbitration order of the all-cores lockstep loop, so contention
        # for the last MAC input slot resolves identically.
        active = self._core_active
        cores = self.cores
        submit = self.mac.submit
        for idx in range(self._wheel_size):
            if not active[idx]:
                continue
            core = cores[idx]
            req = core.tick(cycle)
            if req is not None:
                if submit(req):
                    self.stats.requests_issued += 1
                    if not req.is_fence:
                        # Fences never get a response; everything else is
                        # matched back to its issuer at delivery time.
                        self._issuer[(req.tid, req.tag)] = core
                else:
                    # Input queue full: the core re-issues next cycle, so
                    # it must stay active regardless of its wake probe.
                    core.retry()
                    continue
            # Park decision: where can this core act next on its own?
            w = core.next_event_cycle(cycle + 1)
            if w is None:
                active[idx] = False
                self._active_count -= 1
                self._core_parked_at[idx] = cycle + 1
            elif w > cycle + 1:
                active[idx] = False
                self._active_count -= 1
                self._core_parked_at[idx] = cycle + 1
                self._core_wake[idx] = w
                heapq.heappush(wheap, (w, idx))

        # 3. MAC advances; emitted packets enter the device.
        faulty = self.device.injector is not None
        for packet in self.mac.tick():
            if faulty:
                self.mac.response_router.register_dispatch(packet, cycle)
            resp = self.device.submit(packet, cycle)
            if resp is None:
                continue  # response lost in flight; timeout re-issues it
            self._seq += 1
            heapq.heappush(self._in_flight, (resp.complete_cycle, self._seq, resp))

        # 4. Timeout recovery: re-issue packets whose response never came.
        if faulty:
            timeout = self.device.config.faults.timeout_cycles
            for packet in self.mac.response_router.check_timeouts(cycle, timeout):
                self.mac.response_router.register_dispatch(packet, cycle)
                resp = self.device.submit(packet, cycle)
                if resp is None:
                    continue
                self._seq += 1
                heapq.heappush(
                    self._in_flight, (resp.complete_cycle, self._seq, resp)
                )

        self._cycle += 1

    def deliver_completion(self, target, raw, cycle: int) -> bool:
        """Hand one completed raw request back to the core that issued it.

        The issuer map is populated at submit time, so delivery is O(1);
        remote completions routed home by the NUMA system take the same
        path.  The modulo fallback only covers requests that never passed
        through :meth:`tick`'s submit (e.g. hand-built test traffic).

        Returns True if a waiting core matched the completion.  False
        means no LSQ/context entry was waiting — a duplicate of an
        already-delivered completion; the caller suppresses and counts
        it exactly once instead of double-completing.
        """
        core = self._issuer.pop((target.tid, target.tag), None)
        if core is None:
            core = self.cores[raw.core % len(self.cores)]
        # Reactivate the issuer BEFORE completing: core.skip reads the
        # pre-delivery LSQ/fence state, so the deferred span must be
        # settled while that state is still what every skipped tick saw.
        idx = getattr(core, "_wheel_idx", None)
        if idx is None or idx >= self._wheel_size or self.cores[idx] is not core:
            self._reset_wheel()
        elif not self._core_active[idx]:
            self._activate(idx, cycle)
        return core.complete(target.tid, target.tag, cycle)

    def detach_streams(self) -> None:
        """Replace per-core request streams with exhausted iterators.

        Generators cannot cross a process boundary; after a completed
        run the streams are drained anyway, so a shard worker shipping
        its nodes back to the PDES parent (:mod:`repro.sim.pdes`) swaps
        them for empty — picklable — iterators first.
        """
        for core in self.cores:
            if hasattr(core, "_stream"):
                core._stream = iter(())
            for ctx in getattr(core, "contexts", ()):
                ctx.stream = iter(())

    # -- quiescence skipping -------------------------------------------------

    def next_event_cycle(self, now: int) -> Optional[int]:
        """Earliest cycle >= ``now`` at which this node can make progress.

        O(1) thanks to the per-core event wheel: any active core pins the
        node to ``now``; otherwise the wake is the minimum of the core
        wake heap head, the in-flight response heap head, and the
        loss-recovery timeout deadline (fault injection).  A busy MAC
        (anything buffered in its queues, ARQ or builder) pins the node
        to lockstep, as does any undelivered response payload.
        """
        if self._wheel_size != len(self.cores):
            return now  # cores were swapped; next tick rebuilds the wheel
        if self._active_count:
            return now
        if not self.mac.idle():
            return now
        rr = self.mac.response_router
        if rr.buffered or self.pending_remote:
            return now
        wake: Optional[int] = None
        if self._in_flight:
            head = self._in_flight[0][0]
            if head <= now:
                return now
            wake = head
        if self.device.injector is not None and rr.outstanding:
            deadline = rr.next_timeout_cycle(
                self.device.config.faults.timeout_cycles
            )
            if deadline is not None:
                if deadline <= now:
                    return now
                if wake is None or deadline < wake:
                    wake = deadline
        wheap = self._wake_heap
        while wheap:
            w, idx = wheap[0]
            if self._core_wake[idx] != w or self._core_active[idx]:
                heapq.heappop(wheap)  # stale entry
                continue
            if w <= now:
                return now
            if wake is None or w < wake:
                wake = w
            break
        return wake

    def skip_to(self, target: int) -> None:
        """Fast-forward the node over a proven-quiescent span.

        Inactive cores are left parked — their deferred spans simply grow
        to ``target`` and settle at reactivation (or in
        :meth:`_sync_cores` before stats are read).  ``next_event_cycle``
        only ever returns a future wake when no core is active, so there
        is no active-core accounting to replay here.
        """
        start = self._cycle
        if target <= start:
            return
        self.mac.skip_to(target)
        self._cycle = target

    # -- robustness introspection (see repro.sim.watchdog) -------------------

    def outstanding_raw_count(self) -> int:
        """Non-fence raw requests in flight anywhere inside this node.

        Containers walked: the MAC's queues/ARQ/builder, the device
        in-flight response heap, the response buffer, and completions
        awaiting fabric pickup.  Under request conservation this equals
        ``len(self._issuer)`` — every accepted request is in exactly one
        container until it is delivered back to its core.
        """
        return (
            self.mac.pending_request_count()
            + sum(len(resp.request.requests) for _, _, resp in self._in_flight)
            + self.mac.response_router.buffered_raw_count()
            + len(self.pending_remote)
        )

    def progress_token(self):
        """Fingerprint that changes whenever the node makes forward progress."""
        return (
            self.stats.requests_issued,
            self.stats.responses_delivered,
            sum(c.stats.issued for c in self.cores),
            self._active_count,
            len(self._wake_heap),
            len(self._in_flight),
            len(self._issuer),
            len(self.pending_remote),
            self.mac.progress_token(),
        )

    def hang_snapshot(self) -> dict:
        """Diagnostic state attached to a :class:`SimulationHang`."""
        self._sync_cores()
        snap = self.mac.hang_snapshot()
        snap.update(
            cycle=self._cycle,
            node=self.node_id,
            in_flight_responses=len(self._in_flight),
            issuer_entries=len(self._issuer),
            pending_remote=len(self.pending_remote),
            cores_done=sum(1 for c in self.cores if c.done),
            cores=len(self.cores),
            cores_active=self._active_count,
            cores_scheduled=len(self._wake_heap),
        )
        if self.device.injector is not None:
            snap["failed_links"] = list(self.device.failed_links)
            tokens = {}
            for link in self.device.links:
                for name, ch in (("req", link.request), ("rsp", link.response)):
                    if ch.retry is not None:
                        tokens[f"link{link.index}_{name}"] = ch.retry.tokens.available
            snap["link_tokens"] = tokens
        return snap

    def check_invariants(self) -> None:
        """Full sanitizer sweep (``REPRO_SIM_CHECK=1``); raise on breach.

        Bounds and token-conservation checks always run; exact request
        conservation (``issued == delivered + in-flight``) only holds in
        the fault-free single-node configuration — fault injection drops
        and duplicates responses by design, and in a NUMA mesh remote
        raws live on the fabric (the system-level check covers that).
        """
        from repro.sim.watchdog import InvariantViolation

        cycle = self._cycle
        self.mac.check_invariants()
        for core in self.cores:
            lsq = getattr(core, "lsq", None)
            if lsq is not None and len(lsq) > lsq.capacity:
                raise InvariantViolation(
                    cycle,
                    f"core {core.core_id} LSQ over capacity "
                    f"({len(lsq)}/{lsq.capacity})",
                )
        for link in self.device.links:
            for name, ch in (("req", link.request), ("rsp", link.response)):
                rs = ch.retry
                if rs is None:
                    continue
                for label, pool in (
                    ("tokens", rs.tokens),
                    ("retry_buffer", rs.retry_buffer),
                ):
                    if pool.available < 0:
                        raise InvariantViolation(
                            cycle,
                            f"link{link.index}.{name} {label} negative "
                            f"({pool.available})",
                        )
                    held = pool.available + pool.queued_returns
                    if held > pool.capacity:
                        raise InvariantViolation(
                            cycle,
                            f"link{link.index}.{name} {label} leak: "
                            f"{held} credits for capacity {pool.capacity}",
                        )
        if (
            self.device.injector is None
            and self.mac.request_router.home_fn is None
        ):
            issued = len(self._issuer)
            counted = self.outstanding_raw_count()
            if issued != counted:
                raise InvariantViolation(
                    cycle,
                    f"request conservation broken: issuer map holds {issued} "
                    f"in-flight requests but containers hold {counted}",
                )

    @classmethod
    def with_multithreaded_cores(
        cls,
        thread_streams: Sequence[Iterator[MemoryRequest]],
        cores: int = 8,
        system: Optional[SystemConfig] = None,
        hmc_config: Optional[HMCConfig] = None,
        coalescing_enabled: bool = True,
        attrib=NULL_ATTRIBUTION,
        **core_kwargs,
    ) -> "Node":
        """Build a node whose cores temporally multithread (section 3).

        ``thread_streams`` are distributed round-robin over ``cores``
        :class:`repro.node.mt_core.MultithreadedCore` instances, each
        keeping one request outstanding per context — the explicit form
        of the concurrency the plain Node's deep LSQs approximate.
        """
        from .mt_core import MultithreadedCore

        node = cls(
            [],
            system=system,
            hmc_config=hmc_config,
            coalescing_enabled=coalescing_enabled,
            attrib=attrib,
        )
        groups: List[List[Iterator[MemoryRequest]]] = [[] for _ in range(cores)]
        for i, stream in enumerate(thread_streams):
            groups[i % cores].append(stream)
        node.cores = [
            MultithreadedCore(cid, streams, **core_kwargs)
            for cid, streams in enumerate(groups)
            if streams
        ]
        node._reset_wheel()
        return node

    def run(self, max_cycles: int = 50_000_000, engine=None) -> NodeStats:
        """Simulate until every stream drains; returns the filled stats.

        ``engine`` selects the simulation engine (name or instance, see
        :mod:`repro.sim`); the default is the skip engine.
        """
        self._run_loop(max_cycles, engine=engine)
        self._sync_cores()
        st = self.stats
        st.cycles = self._cycle
        st.coalescing_efficiency = self.mac.stats.coalescing_efficiency
        st.bank_conflicts = self.device.bank_conflicts
        st.mean_memory_latency = self.device.stats.mean_latency
        rr = self.mac.response_router
        st.poisoned_responses = rr.poisoned_deliveries
        st.response_timeouts = rr.timeouts
        st.reissued_packets = rr.reissues
        st.duplicate_responses = rr.duplicates_suppressed
        st.failed_links = len(self.device.failed_links)
        st.link_bandwidth_loss = self.device.link_bandwidth_loss
        for link in self.device.links:
            events = link.retry_events
            st.link_retries += events["retries"]
            st.link_crc_errors += events["crc_errors"]
        return st
