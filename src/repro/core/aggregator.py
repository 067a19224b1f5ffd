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
from ..sim import register_wake_protocol
from .address import AddressCodec
from .arq import AggregatedRequestQueue
from .builder import RequestBuilder, bypass_packet
from .config import MACConfig
from .flit_table import FlitTablePolicy
from .packet import CoalescedRequest
from .request import MemoryRequest
from .stats import MACStats


@register_wake_protocol
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
                accept rate); ignored (and reported via the return of
                :meth:`accepted`) when the ARQ is full.

        Returns:
            Packets dispatched towards the memory device this cycle.
        """
        cycle = self._cycle
        self._accepted_last = True
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
        out: List[CoalescedRequest] = builder.tick(cycle) if builder.busy else []

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
                out.append(bypass_packet(entry, self.codec, self.config, cycle))
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
        if incoming is not None:
            accepted = self.arq.push(incoming, cycle)
            self._accepted_last = accepted
            if accepted:
                self.stats.record_raw(incoming.rtype)
                if at.enabled:
                    m = incoming.marks
                    if m is None:
                        m = incoming.marks = {}
                    m["arq_admit"] = cycle

        for pkt in out:
            self.stats.record_packet(pkt)
        if at.enabled and out:
            # Inlined AttributionCollector.mark (hot: every dispatched
            # raw request passes through here).
            for pkt in out:
                for req in pkt.requests:
                    m = req.marks
                    if m is None:
                        m = req.marks = {}
                    m["dispatch"] = cycle

        self._cycle = cycle + 1
        self.stats.total_cycles = cycle + 1
        return out

    def accepted(self) -> bool:
        """Whether the request offered to the last tick() was accepted."""
        return self._accepted_last

    def next_event_cycle(self, now: int) -> Optional[int]:
        """A busy aggregator acts every cycle; an idle one never on its own.

        While anything is buffered (ARQ entries or builder latches) the
        pop cadence and the builder pipeline both advance each tick, so
        no cycle is skippable.  Idle, the next event belongs to whoever
        offers the next request.
        """
        return None if self.idle() else now

    def skip(self, start: int, end: int) -> None:
        """Fast-forward an idle aggregator over cycles [start, end).

        Only valid while :meth:`idle` holds (the skip engine guarantees
        it): replicates exactly what that many empty ``tick(None)`` calls
        would have done — advance the cycle counter / ``total_cycles``,
        leave ``_next_pop`` stale (a pop fires immediately once a request
        arrives, same as after idle lockstep cycles), and offer the same
        every-64th-cycle ARQ depth samples to the attribution collector
        so the strided sampler sees an identical observation sequence.

        Boundary pin (skip-equivalence audit): the span is half-open —
        cycle ``end`` itself is *not* accounted here.  A wake landing
        exactly on the skip target is executed by the following
        ``tick``, which reads ``_cycle == end`` and samples depth at
        ``end`` iff ``end % 64 == 0`` — exactly the tick lockstep would
        have run.  The sample replay below therefore stops *before*
        ``end`` (``cycle < end``), and the first replayed sample is the
        first multiple of 64 at or after ``start`` because the skipped
        lockstep ticks would have sampled at those same cycles with the
        same (idle-constant) depth.
        """
        at = self.attrib
        if at.enabled:
            depth = len(self.arq)
            cycle = start + (-start & 63)  # first multiple of 64 >= start
            while cycle < end:
                at.sample_depth("arq", cycle, depth)
                cycle += 64
        self._cycle = end
        self.stats.total_cycles = end
        self._accepted_last = True

    def skip_to(self, target: int) -> None:
        """Component-wheel alias for :meth:`skip` from the current cycle."""
        if target > self._cycle:
            self.skip(self._cycle, target)

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
