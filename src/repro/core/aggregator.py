"""Raw Request Aggregator — cycle-level front stage of the MAC.

Couples the input FIFO(s) to the ARQ with the paper's cadence
(section 4.1/4.4): the ARQ accepts one raw request per cycle, and one
entry is popped towards the request builder every ``pop_interval``
(2) cycles.  Entries whose B bit is set bypass the builder and are
dispatched directly as 16 B transactions; fences retire silently once
they reach the head.
"""

from __future__ import annotations

from typing import List, Optional

from ..obs.attribution import StallCause
from ..obs.observers import NO_OBSERVERS, Observers
from .address import AddressCodec
from .arq import AggregatedRequestQueue
from .builder import RequestBuilder, bypass_packet
from .config import MACConfig
from .flit_table import FlitTablePolicy
from .packet import CoalescedRequest
from .request import MemoryRequest
from .stats import MACStats


class RawRequestAggregator:
    """Cycle model of ARQ intake + pop cadence + builder hand-off."""

    def __init__(
        self,
        config: MACConfig,
        codec: Optional[AddressCodec] = None,
        policy: FlitTablePolicy = FlitTablePolicy.SPAN,
        stats: Optional[MACStats] = None,
        obs: Observers = NO_OBSERVERS,
    ) -> None:
        self.config = config
        self.codec = codec or AddressCodec(config)
        self.tracer = obs.tracer
        self.attrib = obs.attrib
        self.arq = AggregatedRequestQueue(config, self.codec, obs=obs)
        self.builder = RequestBuilder(config, self.codec, policy)
        self.stats = stats if stats is not None else MACStats()
        self._pop_interval = config.pop_interval
        # The ARQ's FIFO, read directly for the per-cycle head check.
        self._queue = self.arq._entries
        self._cycle = 0
        # First pop lands one full interval in: a freshly allocated head
        # entry always gets at least pop_interval cycles of residency to
        # accumulate merges.
        self._next_pop = config.pop_interval

    @property
    def cycle(self) -> int:
        return self._cycle

    def idle(self) -> bool:
        """True when no request is buffered anywhere in the aggregator."""
        return not self._queue and not self.builder.busy

    def tick(self, incoming: Optional[MemoryRequest]) -> List[CoalescedRequest]:
        """Advance one cycle.

        Args:
            incoming: at most one raw request offered this cycle (the ARQ
                accept rate); ignored when the ARQ is full.

        Returns:
            Packets dispatched towards the memory device this cycle.
        """
        cycle = self._cycle
        queue = self._queue
        at = self.attrib
        if at.enabled and not cycle & 63:
            # Per-cycle occupancy, pre-gated to every 64th cycle so the
            # hot tick path pays one bitmask check; the bounded sampler
            # decimates further on long runs.
            at.sample_depth("arq", cycle, len(queue))

        # Builder pipeline advances first (emits packets built previously);
        # an empty pipeline has nothing to advance.
        builder = self.builder
        out: List[CoalescedRequest] = (
            builder.tick(cycle)
            if builder._stage2 is not None or builder._stage1 is not None
            else []
        )

        # Pop cadence: one entry leaves the ARQ every pop_interval (2)
        # cycles — the paper's fixed 0.5 requests/cycle issuing rate
        # (section 4.4).  The B bit is checked at pop time: bypass and
        # fence entries skip the builder's 3-cycle pipeline (latency),
        # but not the pop cadence (bandwidth).  The fixed cadence also
        # gives entries queue residency to accumulate merges.
        if cycle >= self._next_pop and queue:
            head = queue[0]
            tr = self.tracer
            if head.fence:
                self.arq.pop()  # fences retire without a memory packet
                self._next_pop = cycle + self._pop_interval
                if tr.enabled:
                    tr.emit("arq", "pop", cycle, kind="fence")
            elif head.bypass:
                entry = self.arq.pop()
                assert entry is not None
                out.append(bypass_packet(entry.requests, self.config, cycle))
                self._next_pop = cycle + self._pop_interval
                if tr.enabled:
                    tr.emit(
                        "arq", "pop", cycle, kind="bypass",
                        residency=cycle - entry.alloc_cycle,
                    )
                if at.enabled:
                    for req in entry.requests:
                        m = req.marks
                        if m is None:
                            m = req.marks = {}
                        m["arq_pop"] = cycle
            elif builder.can_accept():
                entry = self.arq.pop()
                assert entry is not None
                builder.accept(entry)
                self._next_pop = cycle + self._pop_interval
                if tr.enabled:
                    tr.emit(
                        "arq", "pop", cycle, kind="build",
                        targets=entry.target_count,
                        residency=cycle - entry.alloc_cycle,
                    )
                    tr.emit(
                        "builder", "occupancy", cycle,
                        stage1=builder.stage1_busy,
                        stage2=builder.stage2_busy,
                    )
                if at.enabled:
                    for req in entry.requests:
                        m = req.marks
                        if m is None:
                            m = req.marks = {}
                        m["arq_pop"] = cycle
            else:
                # Builder back-pressure; retry next cycle.
                if at.enabled:
                    at.stall_span(
                        "builder", StallCause.BUILDER_BUSY, cycle, cycle + 1
                    )

        # Intake: one request per cycle.
        stats = self.stats
        if incoming is not None:
            if self.arq.push(incoming, cycle):
                stats.record_raw(incoming.rtype)
                if at.enabled:
                    m = incoming.marks
                    if m is None:
                        m = incoming.marks = {}
                    m["arq_admit"] = cycle

        if out:
            for pkt in out:
                stats.record_packet(pkt)
            if at.enabled:
                # Inlined AttributionCollector.mark (hot: every dispatched
                # raw request passes through here).
                for pkt in out:
                    for req in pkt.requests:
                        m = req.marks
                        if m is None:
                            m = req.marks = {}
                        m["dispatch"] = cycle

        self._cycle = cycle + 1
        stats.total_cycles = cycle + 1
        return out

    def next_event_cycle(self, now: int) -> Optional[int]:
        """Earliest cycle >= ``now`` at which a tick changes the aggregator.

        The builder's wake (its stage-2 emit, or a stage-1 transfer), and
        with entries queued the next pop slot ``max(now, _next_pop)``.
        A builder-bound head whose slot comes while stage 1 is busy pops
        only once stage 1 frees, on the stage-2 emit tick that is
        already the builder's wake, so the slot itself is no wake then.
        Intake is the MAC's to report.  Idle, the aggregator schedules
        no wake: the next event belongs to whoever offers a request.
        """
        builder = self.builder
        wake = builder.next_event_cycle(now)
        queue = self._queue
        if queue:
            head = queue[0]
            if builder._stage1 is None or head.fence or head.bypass:
                pop = self._next_pop
                if pop <= now:
                    return now
                if wake is None or pop < wake:
                    wake = pop
        return wake

    def skip(self, start: int, end: int) -> None:
        """Apply the ticks of cycles [start, end) in bulk.

        Only valid up to :meth:`next_event_cycle` (the skip engine
        guarantees it): no pop, intake, emit or stage transfer falls in
        the span, so the skipped ticks did exactly this.  They advanced
        the cycle counter and ``total_cycles`` and counted builder stage
        2 down.  They left ``_next_pop`` alone: an idle aggregator keeps
        a stale slot, so a pop fires at once when a request arrives,
        same as after idle lockstep cycles.  With attribution on they
        offered the every-64th-cycle ARQ depth samples, replayed here so
        the strided sampler sees an identical observation sequence.
        From the pop slot on, each also charged a builder-bound head
        waiting on a latched stage 1 a ``BUILDER_BUSY`` cycle; head and
        latch are constant over the span, so it is charged as one span.

        Boundary pin (skip-equivalence audit): the span is half-open —
        cycle ``end`` itself is *not* accounted here.  A wake landing
        exactly on the skip target is executed by the following
        ``tick``, which reads ``_cycle == end`` and samples depth at
        ``end`` iff ``end % 64 == 0`` — exactly the tick lockstep would
        have run.  The sample replay below therefore stops *before*
        ``end`` (``cycle < end``), and the first replayed sample is the
        first multiple of 64 at or after ``start`` because the skipped
        lockstep ticks would have sampled at those same cycles with the
        same (constant) depth.
        """
        at = self.attrib
        if at.enabled:
            queue = self._queue
            depth = len(queue)
            cycle = start + (-start & 63)  # first multiple of 64 >= start
            while cycle < end:
                at.sample_depth("arq", cycle, depth)
                cycle += 64
            if queue and self.builder._stage1 is not None:
                head = queue[0]
                if not (head.fence or head.bypass):
                    at.stall_span(
                        "builder",
                        StallCause.BUILDER_BUSY,
                        max(start, self._next_pop),
                        end,
                    )
        self.builder.skip(start, end)
        self._cycle = end
        self.stats.total_cycles = end

    def drain(self) -> List[CoalescedRequest]:
        """Run the clock with no new input until everything is emitted."""
        out: List[CoalescedRequest] = []
        # Generous bound: every entry needs at most pop_interval +
        # builder-depth cycles to leave.
        guard = (len(self.arq) + 4) * (
            self.config.pop_interval + self.config.builder_stage2_cycles + 2
        ) + 16
        for _ in range(guard):
            if self.idle():
                break
            out.extend(self.tick(None))
        assert self.idle(), "aggregator failed to drain"
        return out
