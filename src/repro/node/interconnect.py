"""Node-to-node interconnect of the NUMA system (paper Fig. 4).

The paper leaves node-to-node transport out of scope; PR 1's fabric was
an ideal fixed-latency mailbox.  This version is an explicit credit-based
fabric in the shape of blue-rdma's credit/arbiter modules: the wire is
still fixed-latency and infinite-bandwidth (that latency is the PDES
lookahead, see :mod:`repro.sim.pdes`), but arrival at a destination is
flow-controlled — each destination owns a bounded *channel buffer* and a
credit counter, hops are admitted in a deterministic key order while
credits last, and a popped slot returns its credit one cycle later, so a
destination drains at most ``channel_capacity`` payloads per cycle.

Determinism contract (the PDES bit-identity hinge): every hop is keyed
``(deliver_cycle, src, seq, dst)`` where ``seq`` is a *per-source*
counter.  A node's send order is a pure function of its own state plus
the deliveries it has received, so per-source keys are identical whether
the senders live in one process or are sharded — global arbitration
(the heap order over those keys) then reconstructs one canonical
same-cycle order with no reference to insertion order.  The previous
single global sequence number made same-cycle ties an artifact of
*which process pushed first*; that is the bug this rewrite pins shut.

Sharding hooks: :meth:`restrict` declares which destinations are local
to this process.  Sends to non-local destinations accumulate in
``exports`` (drained at window barriers by the PDES runner) instead of
entering the wire; :meth:`inject` merges hops imported from other
shards.  Because hops carry their full key, a shard's wire heap orders
imported and locally sent hops exactly as the serial heap would.
"""

from __future__ import annotations

import heapq
from collections import defaultdict, deque
from typing import Any, Deque, Dict, Iterable, List, NamedTuple, Optional, Tuple


class Hop(NamedTuple):
    """One message in flight, ordered by its deterministic delivery key."""

    deliver_cycle: int
    src: int
    seq: int
    dst: int
    payload: Any


class Interconnect:
    """Fixed-latency wire feeding credit-gated per-destination channels.

    Args:
        latency_cycles: wire traversal time; also the PDES lookahead.
        channel_capacity: per-destination channel buffer depth (= the
            credit pool); bounds how many payloads one destination can
            accept per cycle.
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
        #: Min-heap of hops on the wire, ordered by (cycle, src, seq, dst).
        self._wire: List[Hop] = []
        #: Per-source sequence counters (the deterministic tie-breaker).
        self._src_seq: Dict[int, int] = {}
        #: dst -> admitted payloads awaiting the consumer.
        self._channels: Dict[int, Deque[Any]] = defaultdict(deque)
        #: Payloads admitted to a channel and not yet popped.
        self._queued = 0
        #: dst -> hops that arrived but found no credit (admission order).
        self._stalled: Dict[int, Deque[Any]] = {}
        #: dst -> credits remaining (lazily initialised to capacity).
        self._credits: Dict[int, int] = {}
        #: Min-heap of (cycle, dst) credit returns not yet applied.
        self._credit_returns: List[Tuple[int, int]] = []
        #: Destinations local to this process (None = all of them).
        self._local: Optional[frozenset] = None
        #: Hops bound for other shards, drained at window barriers.
        self.exports: List[Hop] = []
        self.messages_sent = 0
        self.credit_stalls = 0
        self.exported = 0

    # -- send side -----------------------------------------------------------

    def send(self, cycle: int, dst: int, payload: Any, src: int = 0) -> None:
        """Inject a message at ``cycle`` for delivery to node ``dst``.

        ``src`` scopes the sequence counter: hops from one source are
        ordered by send order, hops from different sources by source id
        — never by which process happened to push first.
        """
        seq = self._src_seq.get(src, 0)
        self._src_seq[src] = seq + 1
        hop = Hop(cycle + self.latency_cycles, src, seq, dst, payload)
        self.messages_sent += 1
        if self._local is not None and dst not in self._local:
            self.exports.append(hop)
            self.exported += 1
        else:
            heapq.heappush(self._wire, hop)

    # -- arrival / flow control ----------------------------------------------

    def _admit(self, dst: int, payload: Any) -> None:
        self._credits[dst] -= 1
        self._queued += 1
        self._channels[dst].append(payload)

    def pump(self, cycle: int) -> None:
        """Advance arrival/credit state to ``cycle``.

        Order is fixed so serial and sharded runs agree: (1) apply due
        credit returns, (2) promote stalled hops oldest-first while
        credits last, (3) pop wire arrivals in key order, admitting or
        stalling each.  Stalled hops always precede same-destination
        arrivals of a later pump — channel admission is FIFO per dst.
        """
        returns, wire = self._credit_returns, self._wire
        if returns and returns[0][0] <= cycle:
            returned = set()
            while returns and returns[0][0] <= cycle:
                _, dst = heapq.heappop(returns)
                self._credits[dst] += 1  # set up when the slot was admitted
                returned.add(dst)
            for dst in sorted(returned):
                stalled = self._stalled.get(dst)
                while stalled and self._credits[dst] > 0:
                    self._admit(dst, stalled.popleft())
                if stalled is not None and not stalled:
                    del self._stalled[dst]  # keep only non-empty queues
        while wire and wire[0].deliver_cycle <= cycle:
            hop = heapq.heappop(wire)
            dst = hop.dst
            stalled = self._stalled.get(dst)
            if stalled or self._credits.setdefault(dst, self.channel_capacity) <= 0:
                self._stalled.setdefault(dst, deque()).append(hop.payload)
                self.credit_stalls += 1
            else:
                self._admit(dst, hop.payload)

    # -- consumer side -------------------------------------------------------

    def ready_dsts(self) -> List[int]:
        """Destinations with a non-empty channel, in ascending id order."""
        if not self._queued:
            return []
        return sorted(d for d, q in self._channels.items() if q)

    def peek(self, dst: int) -> Optional[Any]:
        q = self._channels.get(dst)
        return q[0] if q else None

    def pop(self, dst: int, cycle: int) -> Any:
        """Consume the head of ``dst``'s channel; credit returns next cycle."""
        payload = self._channels[dst].popleft()
        self._queued -= 1
        heapq.heappush(self._credit_returns, (cycle + 1, dst))
        return payload

    def deliver(self, cycle: int) -> List[Tuple[int, Any]]:
        """Pump and drain every ready channel: (dst, payload) in key order.

        Convenience for single-consumer callers; at most
        ``channel_capacity`` payloads per destination per call (the
        credit pool), the remainder waiting for returned credits.
        """
        self.pump(cycle)
        out: List[Tuple[int, Any]] = []
        for dst in self.ready_dsts():
            q = self._channels[dst]
            while q:
                out.append((dst, self.pop(dst, cycle)))
        return out

    # -- sharding ------------------------------------------------------------

    def restrict(self, local_dsts: Iterable[int]) -> None:
        """Declare the destinations simulated in this process.

        Subsequent sends to other destinations land in ``exports``
        instead of the wire; the PDES runner routes them at the next
        window barrier.
        """
        self._local = frozenset(local_dsts)

    def inject(self, hops: Iterable[Tuple]) -> None:
        """Merge hops imported from other shards into the wire."""
        for hop in hops:
            heapq.heappush(self._wire, Hop(*hop))

    def drain_exports(self) -> List[Hop]:
        out = self.exports
        self.exports = []
        return out

    # -- introspection -------------------------------------------------------

    @property
    def in_flight(self) -> int:
        return (
            len(self._wire)
            + len(self.exports)
            + self._queued
            + sum(len(q) for q in self._stalled.values())
        )

    def pending_payloads(self) -> List[Any]:
        """Payloads anywhere in the fabric (introspection; arbitrary order)."""
        out = [hop.payload for hop in self._wire]
        out.extend(hop.payload for hop in self.exports)
        for q in self._channels.values():
            out.extend(q)
        for q in self._stalled.values():
            out.extend(q)
        return out

    # -- quiescence skipping -------------------------------------------------

    def next_event_cycle(self, now: int) -> Optional[int]:
        """Earliest cycle >= ``now`` at which the fabric can deliver.

        Undrained channel payloads pin the fabric to ``now``; stalled
        hops wake at their credit-return cycle; otherwise the wake is
        the wire head's delivery cycle — including one landing exactly
        on a skip target, which must be delivered, not swallowed.
        """
        if self._queued:
            return now
        wake: Optional[int] = None
        if self._stalled:
            # Channels empty + hops stalled => every consumed credit is
            # queued for return; the earliest return is the wake.
            wake = self._credit_returns[0][0] if self._credit_returns else now
        if self._wire:
            head = self._wire[0].deliver_cycle
            if wake is None or head < wake:
                wake = head
        if wake is None:
            return None
        return max(wake, now)
