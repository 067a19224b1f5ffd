"""One full node: cores + SPMs + MAC + local HMC device, closed loop.

This is the dashed box of the paper's Fig. 4: multiple simple in-order
cores behind a request router, the MAC, and a directly attached
3D-stacked memory device.  The node simulation advances all components
on one clock and delivers memory responses back to the issuing cores'
load/store queues, so end-to-end latency and throughput effects
(Fig. 17) emerge from the closed loop.
"""

from __future__ import annotations

from heapq import heappop, heappush
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.config import MACConfig, SystemConfig
from repro.core.flit_table import FlitTablePolicy
from repro.core.mac import MAC
from repro.core.request import MemoryRequest, RequestType
from repro.core.router import FIFOQueue
from repro.hmc.config import HMCConfig
from repro.hmc.device import HMCDevice
from repro.obs.attribution import StallCause
from repro.obs.metrics import flatten
from repro.obs.observers import NO_OBSERVERS, Observers
from repro.obs.protocol import StatsMixin
from repro.sim import ClockedModel, get_engine

from .core import InOrderCore
from .spm import ScratchpadMemory


@dataclass
class NodeStats(StatsMixin):
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


class Node(ClockedModel):
    """Closed-loop simulation of one node of the Fig. 4 architecture.

    The node runs a per-core event wheel: each core is ACTIVE (ticked
    every cycle), PARKED (scheduled to wake at a known future cycle on
    the ``_core_wake`` heap — an SPM retirement or issue cooldown),
    BLOCKED (wakes only when a response delivery reactivates it), or
    WAITING (bounced off a full MAC input queue; reactivated when the
    queue has room at its turn in the issue walk, or by a delivery).
    An inactive core's per-cycle accounting is deferred and
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
        obs: Observers = NO_OBSERVERS,
    ) -> None:
        self.system = system or SystemConfig()
        self.node_id = node_id
        self.obs = obs
        self.attrib = obs.attrib
        #: With coalescing disabled the MAC degenerates to a 1-entry ARQ
        #: with no latency hiding: every request ships as a 16 B packet
        #: (the paper's "without MAC" baseline).
        mac_cfg = (
            self.system.mac
            if coalescing_enabled
            else MACConfig(arq_entries=1, latency_hiding=False)
        )
        self.mac = MAC(mac_cfg, node_id=node_id, policy=policy, obs=obs)
        self.device = HMCDevice(hmc_config, obs=obs)
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
        #: Completed raw requests of remote requesters, collected by the
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
        #: The input queue each WAITING core bounced off (None = not
        #: waiting); a waiting core is inactive and on no heap.
        self._core_waitq: List[Optional[FIFOQueue]] = [None] * n
        self._waiting_count = 0
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
        if self._core_waitq[idx] is not None:
            self._core_waitq[idx] = None
            self._waiting_count -= 1

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

        Levels read occupancies; rates are monotonic counters the
        timeline turns into per-epoch deltas.
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
        mac = self.mac

        # 0. Wake parked cores whose scheduled cycle has arrived.
        wheap = self._wake_heap
        while wheap and wheap[0][0] <= cycle:
            wake, idx = heappop(wheap)
            if self._core_wake[idx] == wake and not self._core_active[idx]:
                self._activate(idx, cycle)

        # 1. Deliver responses that completed by now.
        in_flight = self._in_flight
        while in_flight and in_flight[0][0] <= cycle:
            mac.receive_response(heappop(in_flight)[2])
        if mac.response_router._buffer:
            local, remote = mac.deliver_responses()
            if remote:
                self.pending_remote.extend(remote)
            at = self.attrib
            deliver = self.deliver_completion
            if at.enabled:
                for raw in local:
                    # Inlined AttributionCollector.mark (hot: every response).
                    m = raw.marks
                    if m is None:
                        m = raw.marks = {}
                    m["deliver"] = cycle
                    at.finalize(raw)
                    deliver(raw, cycle)
            else:
                for raw in local:
                    deliver(raw, cycle)
            self.stats.responses_delivered += len(local)

        # 2. Cores issue.  Walking them in list order preserves the
        # arbitration order of the all-cores lockstep loop, so contention
        # for the last MAC input slot resolves identically.  A core that
        # bounces off a full input queue WAITS instead of re-offering the
        # same request every cycle (when its ``can_wait_on_queue`` says
        # that re-offer would change nothing); at its turn it rejoins
        # once its queue has room, and only then ticks.
        if self._active_count or self._waiting_count:
            active = self._core_active
            waitq = self._core_waitq
            cores = self.cores
            submit = mac.submit
            node_id = self.node_id
            at = self.attrib
            for idx in range(self._wheel_size):
                if not active[idx]:
                    queue = waitq[idx]
                    if queue is None:
                        continue
                    if len(queue._q) >= queue.capacity:
                        if at.enabled:
                            # The bounce this tick would have repeated.
                            at.stall_span(
                                "router",
                                StallCause.INPUT_QUEUE_FULL,
                                cycle,
                                cycle + 1,
                            )
                        continue
                    self._activate(idx, cycle)
                core = cores[idx]
                req = core.tick(cycle)
                if req is not None:
                    fence = req.rtype is RequestType.FENCE
                    if req.node != node_id and not fence:
                        # Its completion would be routed to ``req.node``; in a
                        # single node nothing ever collects it.  Fences get
                        # no completion.
                        raise ValueError(
                            f"node {node_id} issued a request stamped "
                            f"node={req.node}: a core's requests must carry "
                            f"their node's id in the node field"
                        )
                    if submit(req):
                        self.stats.requests_issued += 1
                        if not fence:
                            # Fences never get a response; everything else is
                            # matched back to its issuer at delivery time.
                            self._issuer[(req.tid, req.tag)] = core
                    else:
                        # Input queue full: the core re-offers the request
                        # next cycle, so it stays active — or waits.
                        core.retry()
                        if core.can_wait_on_queue():
                            active[idx] = False
                            self._active_count -= 1
                            self._core_parked_at[idx] = cycle + 1
                            waitq[idx] = mac.request_router.queue_for(req)
                            self._waiting_count += 1
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
                    heappush(wheap, (w, idx))

        # 3. MAC advances; emitted packets enter the device.
        packets = mac.tick()
        device = self.device
        faulty = device.injector is not None
        for packet in packets:
            if faulty:
                mac.response_router.register_dispatch(packet, cycle)
            resp = device.submit(packet, cycle)
            if resp is None:
                continue  # response lost in flight; timeout re-issues it
            self._seq += 1
            heappush(in_flight, (resp.complete_cycle, self._seq, resp))

        # 4. Timeout recovery: re-issue packets whose response never came.
        if faulty:
            rr = mac.response_router
            timeout = device.config.faults.timeout_cycles
            for packet in rr.check_timeouts(cycle, timeout):
                rr.register_dispatch(packet, cycle)
                resp = device.submit(packet, cycle)
                if resp is None:
                    continue
                self._seq += 1
                heappush(in_flight, (resp.complete_cycle, self._seq, resp))

        self._cycle = cycle + 1

    def deliver_completion(self, raw, cycle: int) -> bool:
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
        tid, tag = raw.tid, raw.tag
        core = self._issuer.pop((tid, tag), None)
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
        return core.complete(tid, tag, cycle)

    # -- quiescence skipping -------------------------------------------------

    def next_event_cycle(self, now: int) -> Optional[int]:
        """Earliest cycle >= ``now`` at which this node can make progress.

        O(1) thanks to the per-core event wheel: any active core pins the
        node to ``now``, as does a waiting core whose input queue has
        room, an undelivered response payload, or a MAC that acts this
        cycle.  Otherwise the wake is the minimum of the MAC's own wake
        (builder emit, next pop slot), the core wake heap head, the
        in-flight response heap head, and the loss-recovery timeout
        deadline (fault injection).
        """
        if self._wheel_size != len(self.cores):
            return now  # cores were swapped; next tick rebuilds the wheel
        if self._active_count:
            return now
        if self._waiting_count:
            for queue in self._core_waitq:
                if queue is not None and len(queue._q) < queue.capacity:
                    return now
        rr = self.mac.response_router
        if rr.buffered or self.pending_remote:
            return now
        wake = self.mac.next_event_cycle(now)
        if wake is not None and wake <= now:
            return now
        if self._in_flight:
            head = self._in_flight[0][0]
            if head <= now:
                return now
            if wake is None or head < wake:
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
                heappop(wheap)  # stale entry
                continue
            if w <= now:
                return now
            if wake is None or w < wake:
                wake = w
            break
        return wake

    def skip_to(self, target: int) -> None:
        """Fast-forward the node over a proven-quiescent span.

        Inactive cores are left parked, blocked or waiting — their
        deferred spans simply grow to ``target`` and settle at
        reactivation (or in :meth:`_sync_cores` before stats are read).
        ``next_event_cycle`` only ever returns a future wake when no
        core is active and no waiting core's queue has room, so the only
        core accounting to replay is the input-queue stall each skipped
        tick charged for the waiting cores' bounces; the MAC applies its
        own (builder countdown, cycle counters, depth samples, stalls).
        """
        start = self._cycle
        if target <= start:
            return
        if self._waiting_count and self.attrib.enabled:
            self.attrib.stall_span(
                "router", StallCause.INPUT_QUEUE_FULL, start, target
            )
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
            self._waiting_count,
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
            cores_waiting=self._waiting_count,
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
        obs: Observers = NO_OBSERVERS,
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
            obs=obs,
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
        get_engine(engine).run(self, max_cycles)
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
