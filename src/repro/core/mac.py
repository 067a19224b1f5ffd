"""The Memory Access Coalescer — the paper's contribution, fully wired.

Two engines are provided (DESIGN.md section 6):

* :class:`MAC` — the reference cycle-level model: request router feeding
  the raw request aggregator (1 accept/cycle, pop every 2 cycles), the
  two-stage pipelined builder, and the response router.
* :func:`coalesce_trace_fast` — the steady-state window engine used for
  large parameter sweeps; semantically an ARQ whose comparator window is
  the queue occupancy, cross-validated against the cycle engine by the
  property tests.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional

from ..obs.attribution import NULL_ATTRIBUTION, StallCause
from ..obs.metrics import MetricsRegistry
from ..obs.timeline import NULL_TIMELINE
from ..obs.tracer import NULL_TRACER
from ..sim import ClockedModel, register_wake_protocol
from .address import AddressCodec
from .aggregator import RawRequestAggregator
from .arq import ARQEntry
from .builder import RequestBuilder, bypass_packet
from .config import MACConfig
from .flit import FlitMap
from .flit_table import FlitTablePolicy
from .packet import CoalescedRequest, CoalescedResponse
from .request import MemoryRequest, RequestType, Target
from .router import RequestRouter, ResponseRouter
from .stats import MACStats


@register_wake_protocol
class MAC(ClockedModel):
    """Cycle-level Memory Access Coalescer for one node.

    Typical use::

        mac = MAC(MACConfig())
        for req in requests:
            mac.submit(req)
        packets = mac.run()          # clock until drained
        print(mac.stats.coalescing_efficiency)

    For closed-loop simulation with a memory device, call
    :meth:`tick` per cycle and feed responses through
    :meth:`receive_response`.
    """

    _overrun_msg = "MAC failed to drain within max_cycles"

    def __init__(
        self,
        config: Optional[MACConfig] = None,
        node_id: int = 0,
        home_fn: Optional[Callable[[int], int]] = None,
        policy: FlitTablePolicy = FlitTablePolicy.SPAN,
        queue_capacity: int = 64,
        tracer=NULL_TRACER,
        attrib=NULL_ATTRIBUTION,
        timeline=NULL_TIMELINE,
    ) -> None:
        self.config = config or MACConfig()
        self.codec = AddressCodec(self.config)
        self.stats = MACStats()
        self.tracer = tracer
        self.attrib = attrib
        self.timeline = timeline
        self.request_router = RequestRouter(node_id, home_fn, queue_capacity)
        self.response_router = ResponseRouter(node_id)
        self.aggregator = RawRequestAggregator(
            self.config, self.codec, policy, self.stats, tracer=tracer,
            attrib=attrib,
        )
        # Bound once for the per-cycle ARQ-full check in :meth:`tick`.
        self._arq_queue = self.aggregator.arq._entries
        self._arq_entries = self.config.arq_entries

    # -- stats wiring -------------------------------------------------------

    def attach_stats(self, stats: MACStats) -> None:
        """Point every stats-recording component at ``stats``.

        The MAC and its aggregator share one :class:`MACStats`; rebinding
        only ``mac.stats`` after construction would leave the aggregator
        recording into the orphaned original (the builder, ARQ and
        routers keep their own plain counters and need no rewiring).
        External code that swaps the stats sink — e.g.
        :func:`repro.eval.runner.dispatch` — must use this method rather
        than assigning attributes piecemeal.
        """
        self.stats = stats
        self.aggregator.stats = stats

    def metrics(self) -> dict:
        """Flat namespaced metrics over the MAC's own stats sources."""
        reg = MetricsRegistry()
        reg.register("mac", self.stats)
        reg.register("router", self.request_router.stats)
        reg.register(
            "arq",
            lambda: {
                "merges": self.aggregator.arq.merges,
                "allocations": self.aggregator.arq.allocations,
                "fence_blocked_merges": self.aggregator.arq.fence_blocked_merges,
                "bypass_fills": self.aggregator.arq.bypass_fills,
            },
        )
        return reg.collect()

    def timeline_probes(self):
        """Probes for :class:`repro.obs.timeline.Timeline` (DESIGN 13).

        Rates are monotonic counters (per-epoch deltas reconstruct the
        serial series under shard merge); levels are instantaneous
        occupancies read at epoch boundaries.
        """
        stats = self.stats
        arq = self.aggregator.arq
        rr = self.request_router
        return [
            ("mac.raw_requests", "rate", lambda: stats.raw_requests),
            ("mac.packets", "rate", lambda: stats.coalesced_packets),
            ("mac.payload_bytes", "rate", lambda: stats.payload_bytes),
            ("arq.merges", "rate", lambda: arq.merges),
            ("arq.allocations", "rate", lambda: arq.allocations),
            ("arq.depth", "level", lambda: len(arq)),
            (
                "mac.input_depth",
                "level",
                lambda: len(rr.local_queue) + len(rr.remote_queue),
            ),
        ]

    # -- input ------------------------------------------------------------

    def submit(self, request: MemoryRequest) -> bool:
        """Offer one locally generated raw request (False if queue full)."""
        ok = self.request_router.route(request)
        if self.attrib.enabled:
            cycle = self.aggregator.cycle
            if ok:
                # Inlined AttributionCollector.mark (hot: every issued
                # request, including core retries after back-pressure).
                m = request.marks
                if m is None:
                    m = request.marks = {}
                m["submit"] = cycle
            else:
                # Span-charged so several cores bouncing in one cycle
                # still cost the site at most one stall cycle.
                self.attrib.stall_span(
                    "router", StallCause.INPUT_QUEUE_FULL, cycle, cycle + 1
                )
        return ok

    def submit_remote(self, request: MemoryRequest) -> bool:
        """Offer one raw request arriving from a remote node."""
        ok = self.request_router.receive_remote(request)
        if ok and self.attrib.enabled:
            self.attrib.mark(request, "submit", self.aggregator.cycle)
        return ok

    # -- clocking ----------------------------------------------------------

    @property
    def cycle(self) -> int:
        return self.aggregator.cycle

    def idle(self) -> bool:
        return (
            self.request_router.local_queue.empty
            and self.request_router.remote_queue.empty
            and self.aggregator.idle()
        )

    def done(self) -> bool:
        """Kernel-facing completion predicate: nothing left to drain."""
        return self.idle()

    def next_event_cycle(self, now: int) -> Optional[int]:
        """A busy MAC acts every cycle; an idle one schedules no wake.

        Wake sources, per component: a non-empty input queue feeds the
        aggregator next tick (now); the aggregator reports its own wake
        (now while its ARQ or builder holds anything, None when
        drained).  The only skippable MAC state is therefore full
        idleness — where the next event belongs to whoever feeds it
        (core issue, fabric delivery, in-flight heap).
        """
        if not (
            self.request_router.local_queue.empty
            and self.request_router.remote_queue.empty
        ):
            return now
        return self.aggregator.next_event_cycle(now)

    def skip_to(self, target: int) -> None:
        """Fast-forward an idle MAC (see RawRequestAggregator.skip)."""
        self.aggregator.skip(self.aggregator.cycle, target)

    def tick(self) -> List[CoalescedRequest]:
        """Advance one cycle; returns packets dispatched to the device."""
        incoming = None
        if len(self._arq_queue) < self._arq_entries:
            incoming = self.request_router.next_for_mac()
        elif self.attrib.enabled and not (
            self.request_router.local_queue.empty
            and self.request_router.remote_queue.empty
        ):
            # A request is waiting but every ARQ entry is occupied: one
            # stall cycle, attributed to the pending fence when the
            # drain is what keeps the queue full.
            cycle = self.aggregator.cycle
            cause = (
                StallCause.FENCE_DRAIN
                if not self.aggregator.arq.comparators_enabled
                else StallCause.ARQ_FULL
            )
            self.attrib.stall_span("arq", cause, cycle, cycle + 1)
        return self.aggregator.tick(incoming)

    def run(
        self, max_cycles: int = 100_000_000, engine=None
    ) -> List[CoalescedRequest]:
        """Clock until all buffered requests have been emitted.

        The max-cycles guard is *relative*: it budgets the cycles spent
        draining in this call, not the absolute cycle counter (the MAC
        may have been ticking long before ``run`` is called).
        """
        out: List[CoalescedRequest] = []
        self._run_loop(max_cycles, engine=engine, on_tick=out.extend, relative=True)
        return out

    def process(
        self,
        requests: Iterable[MemoryRequest],
        max_cycles: int = 1_000_000_000,
        engine=None,
    ) -> List[CoalescedRequest]:
        """Feed a whole trace with backpressure, then drain.

        Offers the next raw request whenever the input queue has room
        (otherwise the MAC keeps ticking until space frees up), so no
        request is dropped.  This is the standard way to coalesce a
        pre-recorded trace with the cycle engine.
        """
        from ..sim import get_engine
        from ..sim.watchdog import NULL_WATCHDOG

        eng = get_engine(engine)
        # The drain phase runs under the engine's watchdog; the manual
        # backpressure feed loop here must be observed by the same one so
        # a MAC that stops accepting *and* stops draining is caught too.
        wd = getattr(eng, "watchdog", NULL_WATCHDOG)
        if wd.enabled:
            wd.reset()
        # Same for the timeline/profiler: binding here makes the engine's
        # own bind in the drain run() a no-op, so feed-phase epochs and
        # rate baselines survive into the drain phase.
        tl = self.timeline
        prof = self.profiler
        if tl.enabled:
            tl.bind(self)
        if prof.enabled:
            prof.run_started()
        out: List[CoalescedRequest] = []
        cycles = 0
        # The input FIFO's deque, read directly: one len() per iteration.
        local = self.request_router.local_queue
        local_q, local_cap = local._q, local.capacity
        it = iter(requests)
        pending: Optional[MemoryRequest] = next(it, None)
        while pending is not None:
            if len(local_q) < local_cap and self.submit(pending):
                pending = next(it, None)
            else:
                out.extend(self.tick())
                if tl.enabled:
                    tl.pump(self.cycle)
                if prof.enabled:
                    prof.note_tick()
                if wd.enabled:
                    wd.observe(self)
                cycles += 1
                if cycles > max_cycles:
                    raise RuntimeError("MAC made no progress within max_cycles")
        out.extend(self.run(max_cycles, engine=eng))
        return out

    # -- robustness introspection (see repro.sim.watchdog) -------------------

    def pending_request_count(self) -> int:
        """Non-fence raw requests buffered anywhere inside the MAC."""
        rr = self.request_router
        queued = sum(
            1
            for q in (rr.local_queue, rr.remote_queue, rr.global_queue)
            for req in q._q
            if not req.is_fence
        )
        arq = sum(
            len(e.requests)
            for e in self.aggregator.arq.entries()
            if not e.fence
        )
        return queued + arq + self.aggregator.builder.pending_requests()

    def progress_token(self):
        """Fingerprint that changes whenever the MAC makes forward progress."""
        rr = self.request_router
        return (
            self.stats.raw_requests,
            self.stats.coalesced_packets,
            len(rr.local_queue),
            len(rr.remote_queue),
            len(rr.global_queue),
            len(self.aggregator.arq),
            self.aggregator.builder.stage1_busy,
            self.aggregator.builder.stage2_busy,
            self.response_router.buffered,
            self.response_router.local_deliveries,
            self.response_router.remote_deliveries,
        )

    def hang_snapshot(self) -> dict:
        """Diagnostic state attached to a :class:`SimulationHang`."""
        rr = self.request_router
        builder = self.aggregator.builder
        return {
            "cycle": self.cycle,
            "local_queue": len(rr.local_queue),
            "remote_queue": len(rr.remote_queue),
            "global_queue": len(rr.global_queue),
            "arq_occupancy": len(self.aggregator.arq),
            "arq_free": self.aggregator.arq.free_entries,
            "builder_stage1": builder.stage1_busy,
            "builder_stage2": builder.stage2_busy,
            "responses_buffered": self.response_router.buffered,
            "outstanding_packets": len(self.response_router.outstanding),
        }

    def check_invariants(self) -> None:
        """Occupancy-bound checks (``REPRO_SIM_CHECK=1``); raise on breach."""
        from ..sim.watchdog import InvariantViolation

        cycle = self.cycle
        rr = self.request_router
        for q in (rr.local_queue, rr.remote_queue, rr.global_queue):
            if len(q) > q.capacity:
                raise InvariantViolation(
                    cycle, f"{q.name} queue over capacity ({len(q)}/{q.capacity})"
                )
        arq = self.aggregator.arq
        if len(arq) > self.config.arq_entries:
            raise InvariantViolation(
                cycle,
                f"ARQ over capacity ({len(arq)}/{self.config.arq_entries})",
            )
        cap = self.config.target_capacity
        for entry in arq.entries():
            if entry.target_count > cap:
                raise InvariantViolation(
                    cycle,
                    f"ARQ entry holds {entry.target_count} targets (cap {cap})",
                )
        resp = self.response_router
        if resp.buffered > resp.buffer_capacity:
            raise InvariantViolation(
                cycle,
                f"response buffer over capacity "
                f"({resp.buffered}/{resp.buffer_capacity})",
            )

    # -- responses ----------------------------------------------------------

    def receive_response(self, response: CoalescedResponse) -> None:
        self.response_router.receive(response)

    def deliver_responses(self):
        """Route buffered responses; see ResponseRouter.drain()."""
        return self.response_router.drain()


# ---------------------------------------------------------------------------
# Fast window engine
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class _WindowEntry:
    key: int
    flit_map: FlitMap
    targets: List[Target] = field(default_factory=list)
    requests: List[MemoryRequest] = field(default_factory=list)


def coalesce_trace_fast(
    requests: Iterable[MemoryRequest],
    config: Optional[MACConfig] = None,
    policy: FlitTablePolicy = FlitTablePolicy.SPAN,
    stats: Optional[MACStats] = None,
) -> List[CoalescedRequest]:
    """Steady-state ARQ semantics over a whole trace, without clocking.

    Models the ARQ as a FIFO window of ``arq_entries`` open rows: merge on
    a (row, type) hit, evict the oldest entry when the window is full,
    drain everything older than a fence when one arrives.  This matches
    the cycle engine's behaviour in the back-pressured steady state the
    paper evaluates (input rate > 2x drain rate, Fig. 9), and is orders of
    magnitude faster for million-request sweeps.

    Returns the emitted packets in eviction order; fills ``stats`` (or a
    fresh MACStats) identically to the cycle engine.
    """
    cfg = config or MACConfig()
    codec = AddressCodec(cfg)
    builder = RequestBuilder(cfg, codec, policy)
    st = stats if stats is not None else MACStats()
    window: "OrderedDict[int, _WindowEntry]" = OrderedDict()
    out: List[CoalescedRequest] = []
    cap = cfg.target_capacity
    nflits = cfg.flits_per_row
    arq_entries = cfg.arq_entries

    def emit(entry: _WindowEntry) -> None:
        arq_entry = ARQEntry(
            key=entry.key,
            flit_map=entry.flit_map,
            targets=entry.targets,
            bypass=len(entry.targets) == 1,
            requests=entry.requests,
        )
        if arq_entry.bypass:
            pkt = bypass_packet(arq_entry, codec, cfg)
            out.append(pkt)
            st.record_packet(pkt)
        else:
            for pkt in builder.build(arq_entry):
                out.append(pkt)
                st.record_packet(pkt)

    def drain_window() -> None:
        while window:
            _, entry = window.popitem(last=False)
            emit(entry)

    for req in requests:
        rtype = req.rtype
        st.record_raw(rtype)
        if rtype is RequestType.FENCE:
            drain_window()
            continue
        key, flit = codec.locate(req.addr, rtype)
        if rtype is RequestType.ATOMIC:
            pkt = bypass_packet(
                ARQEntry(
                    key=-1,
                    flit_map=FlitMap(nflits),
                    targets=[Target(req.tid, req.tag, flit)],
                    bypass=True,
                    atomic=True,
                    requests=[req],
                ),
                codec,
                cfg,
            )
            out.append(pkt)
            st.record_packet(pkt)
            continue

        entry = window.get(key)
        if entry is not None and len(entry.targets) < cap:
            entry.flit_map.set(flit)
            entry.targets.append(Target(req.tid, req.tag, flit))
            entry.requests.append(req)
            continue
        if entry is not None:
            # Capacity-full entry: emit it and start a fresh one.
            window.pop(key)
            emit(entry)
        elif len(window) >= arq_entries:
            _, oldest = window.popitem(last=False)
            emit(oldest)
        fmap = FlitMap(nflits)
        fmap.set(flit)
        window[key] = _WindowEntry(
            key=key,
            flit_map=fmap,
            targets=[Target(req.tid, req.tag, flit)],
            requests=[req],
        )

    drain_window()
    return out
