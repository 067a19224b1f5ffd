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

from itertools import count
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from ..obs.attribution import StallCause
from ..obs.metrics import MetricsRegistry
from ..obs.observers import NO_OBSERVERS, Observers
from ..sim import ClockedModel, get_engine
from .address import AddressCodec
from .aggregator import RawRequestAggregator
from .builder import RequestBuilder, emit_row
from .config import MACConfig
from .flit_table import FlitTablePolicy, Segments, group_or
from .packet import CoalescedRequest, CoalescedResponse, Targets, request_columns
from .request import MemoryRequest, RequestType
from .router import RequestRouter, ResponseRouter
from .stats import MACStats


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
        obs: Observers = NO_OBSERVERS,
    ) -> None:
        self.config = config or MACConfig()
        self.codec = AddressCodec(self.config)
        self.stats = MACStats()
        self.obs = obs
        self.attrib = obs.attrib
        self.request_router = RequestRouter(node_id, home_fn, queue_capacity)
        self.response_router = ResponseRouter(node_id)
        self.aggregator = RawRequestAggregator(
            self.config, self.codec, policy, self.stats, obs=obs
        )
        # Bound once for the per-cycle ARQ-full check in :meth:`tick`.
        self._arq_queue = self.aggregator.arq._entries
        self._arq_entries = self.config.arq_entries
        # The input FIFO's deque, read directly by the feed in :meth:`tick`.
        local = self.request_router.local_queue
        self._local_q, self._local_cap = local._q, local.capacity
        # Read directly by :meth:`idle`, which the engine calls every cycle.
        self._remote_q = self.request_router.remote_queue._q
        self._builder = self.aggregator.builder
        # :meth:`process`'s trace iterator and its next unsubmitted request.
        self._feed: Iterator[MemoryRequest] = iter(())
        self._pending: Optional[MemoryRequest] = None

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

        Rates are monotonic counters (the timeline records per-epoch
        deltas); levels are instantaneous occupancies read at epoch
        boundaries.
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
        # Read by the engine every iteration: skip the aggregator's property.
        return self.aggregator._cycle

    def idle(self) -> bool:
        """No request buffered in an input queue, the ARQ or the builder
        (``aggregator.idle()`` and both queues' ``empty``, inlined)."""
        builder = self._builder
        return (
            not self._local_q
            and not self._remote_q
            and not self._arq_queue
            and builder._stage1 is None
            and builder._stage2 is None
        )

    def done(self) -> bool:
        """Kernel-facing completion predicate: fed and drained."""
        return self._pending is None and self.idle()

    def next_event_cycle(self, now: int) -> Optional[int]:
        """Earliest cycle >= ``now`` at which a tick changes the MAC.

        A pending :meth:`process` request enters the input queue on the
        next tick while the queue has room (``now``).  A request in an
        input queue enters the ARQ on the next tick while the ARQ has a
        free entry (``now``).  With every entry taken it waits for a
        pop, which the aggregator's wake covers, as do the builder emit
        or transfer and the next pop slot (``None`` when drained).
        """
        if self._pending is not None and len(self._local_q) < self._local_cap:
            return now
        rr = self.request_router
        if rr.local_queue._q or rr.remote_queue._q:
            if len(self._arq_queue) < self._arq_entries:
                return now
        return self.aggregator.next_event_cycle(now)

    def skip_to(self, target: int) -> None:
        """Fast-forward to ``target`` (see RawRequestAggregator.skip),
        charging the ARQ stall each skipped tick would have charged."""
        start = self.aggregator.cycle
        if self.attrib.enabled and len(self._arq_queue) >= self._arq_entries:
            self._charge_full_arq(start, target)
        self.aggregator.skip(start, target)

    def _charge_full_arq(self, begin: int, end: int) -> None:
        """Charge ``[begin, end)`` to the ARQ if a request waits on it,
        to the pending fence when the drain is what keeps it full."""
        rr = self.request_router
        if rr.local_queue._q or rr.remote_queue._q:
            cause = (
                StallCause.ARQ_FULL
                if self.aggregator.arq.comparators_enabled
                else StallCause.FENCE_DRAIN
            )
            self.attrib.stall_span("arq", cause, begin, end)

    def tick(self) -> List[CoalescedRequest]:
        """Advance one cycle; returns packets dispatched to the device.

        While :meth:`process` holds a pending request, the cycle first
        offers requests until the input queue is full or :meth:`submit`
        refuses one (the router's back-pressure, section 4.4).
        """
        pending = self._pending
        if pending is not None:
            local_q, cap, feed = self._local_q, self._local_cap, self._feed
            while len(local_q) < cap and self.submit(pending):
                pending = next(feed, None)
                if pending is None:
                    break
            self._pending = pending
        incoming = None
        if len(self._arq_queue) < self._arq_entries:
            incoming = self.request_router.next_for_mac()
        elif self.attrib.enabled:
            cycle = self.aggregator.cycle
            self._charge_full_arq(cycle, cycle + 1)
        return self.aggregator.tick(incoming)

    def run(
        self, max_cycles: int = 100_000_000, engine=None
    ) -> List[CoalescedRequest]:
        """Clock until all buffered requests have been emitted.

        The max-cycles guard budgets the cycles spent in this call, not
        the absolute cycle counter (the MAC may have been ticking long
        before ``run`` is called).
        """
        out: List[CoalescedRequest] = []
        get_engine(engine).run(self, max_cycles, on_tick=out.extend)
        return out

    def process(
        self,
        requests: Iterable[MemoryRequest],
        max_cycles: int = 1_000_000_000,
        engine=None,
    ) -> List[CoalescedRequest]:
        """Feed a whole trace with backpressure, then drain.

        One engine run covers both: each :meth:`tick` first offers the
        next raw requests while the input queue has room, so no request
        is dropped, and the run ends once the trace is fed and drained.
        ``max_cycles`` budgets the whole run.  This is the standard way
        to coalesce a pre-recorded trace with the cycle engine.
        """
        self._feed = iter(requests)
        self._pending = next(self._feed, None)
        return self.run(max_cycles, engine=engine)

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
        nflits = self.config.flits_per_row
        for entry in arq.entries():
            if entry.target_count > cap:
                raise InvariantViolation(
                    cycle,
                    f"ARQ entry holds {entry.target_count} targets (cap {cap})",
                )
            if entry.fence:
                continue
            # The FLIT map is a plain int: nothing else bounds its bits.
            bits = entry.bits
            if not bits or bits >> nflits or bits.bit_count() > entry.target_count:
                raise InvariantViolation(
                    cycle,
                    f"ARQ entry FLIT map {bits:#x} invalid for a {nflits}-FLIT "
                    f"row holding {entry.target_count} targets",
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

    ``requests`` is a :class:`repro.trace.record.PackedTrace` or a
    sequence of requests; the loop reads only its op and address columns
    (:func:`repro.core.packet.request_columns`, which range checks every
    address through :meth:`AddressCodec.check`, the error
    :meth:`AddressCodec.locate` raises, before the loop).  Each open row
    is the list of its requests' input indices, held in an
    insertion-ordered dict by ARQ key, whose first key is the oldest
    row.  Addresses are decoded inline from the codec's shifts and
    masks.  A closed row of one request, and every atomic, is the B-bit
    packet :func:`repro.core.builder.bypass_packet` builds, made in
    place.  Any
    other row ORs its FLIT map from its requests' addresses and goes
    through :func:`repro.core.builder.emit_row`, the routine the
    pipelined builder uses, with the FLIT table's plan memoized per FLIT
    map for the call.  Each packet holds its targets as
    :class:`~repro.core.packet.Targets`: the requests are built (from a
    packed trace, tagged as ``to_requests`` tags them; from a sequence,
    its own objects) when a reader first reads them.  The packet
    counters are read off the emitted packets once, in emission order.

    Returns the emitted packets in eviction order and fills the same
    :class:`MACStats` fields as the cycle engine, under steady-state
    semantics: the cycle engine's warm-up and latency-hiding bypass
    transient is absent (see ``test_efficiencies_close_on_hot_trace``),
    and nothing is clocked, so ``total_cycles`` is left as it was.
    """
    cfg = config or MACConfig()
    codec = AddressCodec(cfg)
    builder = RequestBuilder(cfg, codec, policy)
    st = stats if stats is not None else MACStats()
    ops, addrs, build = request_columns(requests, codec)
    row_shift, row_mask, flit_shift = codec.row_shift, codec.row_mask, codec.flit_shift
    store_bit = codec.store_bit
    masks = builder.group_masks
    row_segments = builder.segments
    #: FLIT map -> the FLIT table's plan for its group pattern.
    plans: Dict[int, Segments] = {}
    fb = cfg.flit_bytes
    flit_align = -fb
    cap = cfg.target_capacity
    arq_entries = cfg.arq_entries
    LOAD_T, STORE_T, ATOMIC = RequestType.LOAD, RequestType.STORE, RequestType.ATOMIC
    # Plain ints: a packed trace's ops compare fastest against ints.
    LOAD, STORE, FENCE = int(RequestType.LOAD), int(RequestType.STORE), int(RequestType.FENCE)
    window: Dict[int, List[int]] = {}
    out: List[CoalescedRequest] = []
    emit = out.append

    def close(key: int, rows: List[int]) -> None:
        """Emit one closed row."""
        if len(rows) == 1:
            # B bit: one FLIT-sized packet, builder skipped.
            targets = Targets(rows)
            targets._build = build
            rtype = STORE_T if key & store_bit else LOAD_T
            emit(CoalescedRequest(addrs[rows[0]] & flit_align, fb, rtype, targets, True))
            return
        bits = 0
        for i in rows:
            bits |= 1 << ((addrs[i] & row_mask) >> flit_shift)
        plan = plans.get(bits)
        if plan is None:
            plan = plans[bits] = row_segments[group_or(bits, masks)]
        for pkt in emit_row(codec, key, plan, rows, addrs=addrs):
            targets = Targets(pkt.requests)
            targets._build = build
            pkt.requests = targets
            emit(pkt)

    for i, op, addr in zip(count(), ops, addrs):
        if op == FENCE:
            for key, rows in window.items():
                close(key, rows)
            window.clear()
            continue
        if op == LOAD:
            key = addr >> row_shift
        elif op == STORE:
            key = store_bit | (addr >> row_shift)
        else:
            # An atomic: its own B-bit packet, never merged.
            targets = Targets((i,))
            targets._build = build
            emit(CoalescedRequest(addr & flit_align, fb, ATOMIC, targets, True))
            continue
        rows = window.get(key)
        if rows is not None:
            if len(rows) < cap:
                rows.append(i)
                continue
            # Capacity-full entry: close it and start a fresh one.
            del window[key]
            close(key, rows)
        elif len(window) >= arq_entries:
            oldest = next(iter(window))
            close(oldest, window.pop(oldest))
        window[key] = [i]
    for key, rows in window.items():
        close(key, rows)

    st.record_stream(ops, out)
    return out
