"""Node-to-node interconnect of the NUMA system (paper Fig. 4).

The paper leaves node-to-node transport out of scope.  This fabric is an
explicit credit-based one in the shape of blue-rdma's credit/arbiter
modules: the wire is fixed-latency and infinite-bandwidth, but arrival
at a destination is flow-controlled — each destination owns a bounded
*channel buffer*, hops are admitted in a deterministic key order while
the channel has room, and a popped slot returns its credit one cycle
later, so a destination drains at most ``channel_capacity`` payloads per
cycle.  No credit counter is kept: a destination's room at cycle ``c``
is its capacity minus its channel occupancy minus the slots popped in
cycle ``c`` (those credits are still on their way back).

Determinism: every hop is keyed ``(deliver_cycle, src, seq, dst)``
where ``seq`` is a *per-source* counter, so the wire heap orders
same-cycle arrivals by source id and then by each source's send order,
never by insertion order.  The mesh goldens pin this order.
"""

from __future__ import annotations

import heapq
from collections import defaultdict, deque
from math import inf
from typing import Any, Deque, Dict, List, Optional, Tuple


class Interconnect:
    """Fixed-latency wire feeding credit-gated per-destination channels.

    Args:
        latency_cycles: wire traversal time.
        channel_capacity: per-destination channel buffer depth (= the
            credit pool); bounds how many payloads one destination can
            accept per cycle.

    The public counters are O(1) to read and are what a consumer gates
    on: ``in_flight`` (payloads anywhere in the fabric), ``queued``
    (admitted and not yet popped), ``stalled_hops`` (arrived but waiting
    for room) and ``next_arrival`` (delivery cycle of the wire head,
    ``inf`` when the wire is empty).  :meth:`pump` changes nothing
    unless a stalled hop exists or ``next_arrival`` is due.
    """

    def __init__(
        self, latency_cycles: int = 120, channel_capacity: int = 64
    ) -> None:
        if latency_cycles < 0:
            raise ValueError("latency must be non-negative")
        if channel_capacity < 1:
            raise ValueError("channel capacity must be positive")
        self.latency_cycles = latency_cycles
        self.channel_capacity = channel_capacity
        #: Min-heap of hops on the wire: plain ``(deliver_cycle, src, seq,
        #: dst, payload)`` tuples.  ``(src, seq)`` is unique, so the order
        #: never compares payloads.
        self._wire: List[Tuple[int, int, int, int, Any]] = []
        #: Per-source sequence counters (the deterministic tie-breaker).
        self._src_seq: Dict[int, int] = {}
        #: dst -> admitted payloads awaiting the consumer.
        self._channels: Dict[int, Deque[Any]] = defaultdict(deque)
        #: dst -> hops that arrived but found no room (admission order);
        #: only non-empty queues are kept.
        self._stalled: Dict[int, Deque[Any]] = {}
        #: dst -> slots popped in cycle ``_pop_cycle``; their credits
        #: return one cycle later, so they still count against the room.
        self._popped: Dict[int, int] = {}
        self._pop_cycle = -1
        self.in_flight = 0
        self.queued = 0
        self.stalled_hops = 0
        self.next_arrival: float = inf
        self.messages_sent = 0
        self.credit_stalls = 0

    # -- send side -----------------------------------------------------------

    def send(self, cycle: int, dst: int, payload: Any, src: int = 0) -> None:
        """Inject a message at ``cycle`` for delivery to node ``dst``.

        ``src`` scopes the sequence counter: hops from one source are
        ordered by send order, hops from different sources by source id.
        """
        seq = self._src_seq.get(src, 0)
        self._src_seq[src] = seq + 1
        self.messages_sent += 1
        self.in_flight += 1
        deliver = cycle + self.latency_cycles
        if deliver < self.next_arrival:
            self.next_arrival = deliver
        heapq.heappush(self._wire, (deliver, src, seq, dst, payload))

    # -- arrival / flow control ----------------------------------------------

    def _room(self, dst: int, cycle: int) -> int:
        """Free slots of ``dst``'s channel at ``cycle`` (see module doc)."""
        room = self.channel_capacity - len(self._channels[dst])
        if self._pop_cycle == cycle:
            room -= self._popped.get(dst, 0)
        return room

    def pump(self, cycle: int) -> None:
        """Advance arrival state to ``cycle``.

        Order is fixed: (1) promote each destination's stalled hops
        oldest-first while its channel has room, (2) pop wire arrivals
        in key order, admitting or stalling each.  Stalled hops always
        precede same-destination arrivals of a later pump — channel
        admission is FIFO per dst.
        """
        if self.stalled_hops:
            for dst in list(self._stalled):
                stalled = self._stalled[dst]
                moved = min(self._room(dst, cycle), len(stalled))
                if moved <= 0:
                    continue
                channel = self._channels[dst]
                for _ in range(moved):
                    channel.append(stalled.popleft())
                self.queued += moved
                self.stalled_hops -= moved
                if not stalled:
                    del self._stalled[dst]  # keep only non-empty queues
        if self.next_arrival > cycle:
            return
        wire = self._wire
        while wire and wire[0][0] <= cycle:
            _, _, _, dst, payload = heapq.heappop(wire)
            # A destination with stalled hops has no room left: step (1)
            # filled it, so arrivals queue behind its stalled hops.
            if self._room(dst, cycle) > 0:
                self._channels[dst].append(payload)
                self.queued += 1
                continue
            stalled = self._stalled.get(dst)
            if stalled is None:
                stalled = self._stalled[dst] = deque()
            stalled.append(payload)
            self.stalled_hops += 1
            self.credit_stalls += 1
        self.next_arrival = wire[0][0] if wire else inf

    # -- consumer side -------------------------------------------------------

    def ready_dsts(self) -> List[int]:
        """Destinations with a non-empty channel, in ascending id order."""
        if not self.queued:
            return []
        return sorted(d for d, q in self._channels.items() if q)

    def peek(self, dst: int) -> Optional[Any]:
        q = self._channels.get(dst)
        return q[0] if q else None

    def _pops_at(self, cycle: int) -> Dict[int, int]:
        """The per-dst pop counts of ``cycle``, started afresh on a new cycle."""
        if self._pop_cycle != cycle:
            self._pop_cycle = cycle
            self._popped = {}
        return self._popped

    def pop(self, dst: int, cycle: int) -> Any:
        """Consume the head of ``dst``'s channel; credit returns next cycle."""
        payload = self._channels[dst].popleft()
        popped = self._pops_at(cycle)
        popped[dst] = popped.get(dst, 0) + 1
        self.queued -= 1
        self.in_flight -= 1
        return payload

    def take_ready(self, cycle: int) -> List[Tuple[int, List[Any]]]:
        """Consume every non-empty channel whole: ``(dst, payloads)`` in
        ascending dst order, each channel head first.

        Same as popping each ready channel empty in ``cycle``; payloads
        the consumer cannot accept go back with :meth:`refuse` in the
        same cycle.
        """
        popped = self._pops_at(cycle)
        channels = self._channels
        out = []
        for dst in sorted(channels):
            channel = channels[dst]
            if not channel:
                continue
            payloads = list(channel)
            channel.clear()
            popped[dst] = popped.get(dst, 0) + len(payloads)
            out.append((dst, payloads))
        # Every admitted payload was taken.
        self.in_flight -= self.queued
        self.queued = 0
        return out

    def refuse(self, dst: int, payloads: List[Any]) -> None:
        """Return the unaccepted tail of a :meth:`take_ready` batch to the
        head of ``dst``'s channel.

        The payloads keep their slots, exactly as if they had never been
        popped (head-of-line blocking: they retry next cycle).
        """
        self._channels[dst].extendleft(reversed(payloads))
        self._popped[dst] -= len(payloads)
        self.queued += len(payloads)
        self.in_flight += len(payloads)

    def deliver(self, cycle: int) -> List[Tuple[int, Any]]:
        """Pump and drain every ready channel: (dst, payload) in key order.

        Convenience for single-consumer callers; at most
        ``channel_capacity`` payloads per destination per call (the
        credit pool), the remainder waiting for returned credits.
        """
        self.pump(cycle)
        return [
            (dst, payload)
            for dst, payloads in self.take_ready(cycle)
            for payload in payloads
        ]

    # -- introspection -------------------------------------------------------

    def pending_payloads(self) -> List[Any]:
        """Payloads anywhere in the fabric (introspection; arbitrary order)."""
        out = [hop[4] for hop in self._wire]
        for q in self._channels.values():
            out.extend(q)
        for q in self._stalled.values():
            out.extend(q)
        return out

    # -- quiescence skipping -------------------------------------------------

    def next_event_cycle(self, now: int) -> Optional[int]:
        """Earliest cycle >= ``now`` at which the fabric can deliver.

        Undrained channel payloads pin the fabric to ``now``.  With the
        channels empty, a stalled hop's destination lacks room only for
        the slots popped this cycle, so stalled hops wake at ``now`` if
        any of them has room, else at ``now + 1`` when those credits
        return.  Otherwise the wake is the wire head's delivery cycle —
        including one landing exactly on a skip target, which must be
        delivered, not swallowed.
        """
        if self.queued:
            return now
        wake = self.next_arrival
        if self.stalled_hops:
            if any(self._room(dst, now) > 0 for dst in self._stalled):
                return now
            wake = min(wake, now + 1)
        if wake == inf:
            return None
        return max(wake, now)
